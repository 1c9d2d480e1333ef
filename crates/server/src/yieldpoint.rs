//! The one helper every server lock goes through, and the scheduling
//! points it announces to a per-thread hook.
//!
//! With no hook on the calling thread, [`acquire`] is a thread-local read,
//! a branch and `Mutex::lock`, and allocates nothing. The schedule
//! explorer ([`crate::explore`]) installs a hook: then `acquire` announces
//! [`Point::Acquire`], retries `try_lock` at [`Point::Blocked`] points
//! while the lock is busy (so a waiting thread is one the explorer sees),
//! and reports [`Point::Held`] and [`Point::Released`].
//!
//! A poisoned lock, whose holder panicked, comes back as a [`PoisonError`]
//! that still holds it, never as a panic: the server quarantines a
//! poisoned session's tenant and recovers a poisoned table.

use std::cell::RefCell;
use std::ops::{Deref, DerefMut};
use std::sync::{LockResult, Mutex, MutexGuard, PoisonError, TryLockError};

/// Which server lock a [`Point`] is about.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockName<'a> {
    /// The tenant table.
    Tenants,
    /// The connection table.
    Conns,
    /// The named tenant's session.
    Session(&'a str),
}

/// A scheduling point announced to the hook.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Point<'a> {
    /// About to try the lock.
    Acquire(LockName<'a>),
    /// The lock is busy; the caller tries again when the hook returns.
    Blocked(LockName<'a>),
    /// The caller now holds the lock.
    Held(LockName<'a>),
    /// The caller released the lock.
    Released(LockName<'a>),
}

/// The hook type: called at every [`Point`] on the thread it is set on.
pub type YieldHook = Box<dyn FnMut(Point<'_>)>;

thread_local! {
    static HOOK: RefCell<Option<YieldHook>> = const { RefCell::new(None) };
}

/// Installs `hook` on this thread until [`clear_yield_hook`]; for
/// schedule-exploration harnesses only.
pub fn set_yield_hook(hook: YieldHook) {
    HOOK.with(|h| *h.borrow_mut() = Some(hook));
}

/// Removes this thread's yield hook (no-op when none is installed).
pub fn clear_yield_hook() {
    HOOK.with(|h| *h.borrow_mut() = None);
}

/// Announces `point` to this thread's hook; a no-op with none installed,
/// or from inside the hook itself.
pub fn yield_point(point: Point<'_>) {
    HOOK.with(|h| {
        if let Some(hook) = h
            .try_borrow_mut()
            .ok()
            .as_deref_mut()
            .and_then(Option::as_mut)
        {
            hook(point);
        }
    });
}

fn hooked() -> bool {
    HOOK.with(|h| h.try_borrow().is_ok_and(|slot| slot.is_some()))
}

/// A held server lock; dropping it releases the lock, announcing
/// [`Point::Released`] when it was taken under a hook.
pub struct Held<'a, T> {
    guard: MutexGuard<'a, T>,
    announced: Option<LockName<'a>>,
}

impl<T> Deref for Held<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for Held<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T> Drop for Held<'_, T> {
    fn drop(&mut self) {
        if let Some(name) = self.announced {
            yield_point(Point::Released(name));
        }
    }
}

/// The held lock, or the held lock inside a [`PoisonError`] when its
/// previous holder panicked.
pub type Acquired<'a, T> = LockResult<Held<'a, T>>;

fn held<'a, T>(
    locked: LockResult<MutexGuard<'a, T>>,
    announced: Option<LockName<'a>>,
) -> Acquired<'a, T> {
    if let Some(name) = announced {
        yield_point(Point::Held(name));
    }
    match locked {
        Ok(guard) => Ok(Held { guard, announced }),
        Err(e) => Err(PoisonError::new(Held {
            guard: e.into_inner(),
            announced,
        })),
    }
}

/// Takes `lock`, named `name` for the hook.
pub fn acquire<'a, T>(lock: &'a Mutex<T>, name: LockName<'a>) -> Acquired<'a, T> {
    if !hooked() {
        return held(lock.lock(), None);
    }
    yield_point(Point::Acquire(name));
    loop {
        match lock.try_lock() {
            Ok(guard) => return held(Ok(guard), Some(name)),
            Err(TryLockError::Poisoned(e)) => return held(Err(e), Some(name)),
            Err(TryLockError::WouldBlock) => yield_point(Point::Blocked(name)),
        }
    }
}

/// Takes `lock` if it is free; `None` when another thread holds it.
pub fn try_acquire<'a, T>(lock: &'a Mutex<T>, name: LockName<'a>) -> Option<Acquired<'a, T>> {
    let announced = hooked()
        .then(|| yield_point(Point::Acquire(name)))
        .map(|()| name);
    match lock.try_lock() {
        Ok(guard) => Some(held(Ok(guard), announced)),
        Err(TryLockError::Poisoned(e)) => Some(held(Err(e), announced)),
        Err(TryLockError::WouldBlock) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;

    fn counting() -> (Rc<Cell<usize>>, YieldHook) {
        let hits = Rc::new(Cell::new(0usize));
        let h = hits.clone();
        (hits, Box::new(move |_| h.set(h.get() + 1)))
    }

    #[test]
    fn hook_fires_only_when_installed() {
        let (hits, hook) = counting();
        yield_point(Point::Acquire(LockName::Tenants));
        set_yield_hook(hook);
        yield_point(Point::Acquire(LockName::Tenants));
        yield_point(Point::Blocked(LockName::Conns));
        clear_yield_hook();
        yield_point(Point::Acquire(LockName::Conns));
        assert_eq!(hits.get(), 2);
    }

    #[test]
    fn reentrant_yield_inside_hook_does_not_deadlock() {
        // A hook that itself hits a yield point must not re-enter (the
        // RefCell is already borrowed; the inner call is a no-op).
        set_yield_hook(Box::new(move |_| {
            yield_point(Point::Acquire(LockName::Tenants))
        }));
        yield_point(Point::Acquire(LockName::Conns));
        clear_yield_hook();
    }

    /// Under a hook, an acquisition announces acquire, held and released,
    /// in that order.
    #[test]
    fn acquire_announces_acquire_held_released() {
        let lock = Mutex::new(0u32);
        *acquire(&lock, LockName::Tenants).ok().unwrap() += 1;
        let seen = Rc::new(RefCell::new(Vec::new()));
        let s = seen.clone();
        set_yield_hook(Box::new(move |p| s.borrow_mut().push(format!("{p:?}"))));
        *acquire(&lock, LockName::Session("a")).ok().unwrap() += 1;
        clear_yield_hook();
        assert_eq!(
            *seen.borrow(),
            [
                "Acquire(Session(\"a\"))",
                "Held(Session(\"a\"))",
                "Released(Session(\"a\"))"
            ]
        );
        assert_eq!(*lock.lock().unwrap(), 2);
    }

    /// A panic under the lock poisons it; the next acquisition is a typed
    /// `Poisoned` that still holds the lock, never a panic.
    #[test]
    fn poison_is_a_typed_result() {
        let lock = Mutex::new(7u32);
        let _ = std::panic::catch_unwind(|| {
            let _held = acquire(&lock, LockName::Tenants);
            std::panic::resume_unwind(Box::new("boom"));
        });
        let poisoned = acquire(&lock, LockName::Tenants).err().expect("poisoned");
        assert_eq!(*poisoned.into_inner(), 7);
        assert!(matches!(
            try_acquire(&lock, LockName::Tenants),
            Some(Err(_))
        ));
        let _busy = acquire(&lock, LockName::Tenants);
        std::thread::scope(|s| {
            s.spawn(|| assert!(try_acquire(&lock, LockName::Tenants).is_none()));
        });
    }
}
