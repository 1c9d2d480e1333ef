//! Schedule-exploration yield points.
//!
//! Every locked operation in [`crate::concurrent`] calls [`yield_point`]
//! immediately before it acquires a shard lock — the only point at which
//! another thread's operation can come between two of its own. In
//! production the call is a thread-local read and a branch — there is no
//! registered hook, so it costs a few nanoseconds and touches no shared
//! state.
//!
//! The conformance oracle's schedule explorer (`parapage-conform`'s
//! `schedules` module) registers a per-thread hook that parks the calling
//! thread and hands control back to a virtual scheduler, which then decides
//! which thread runs to its *next* yield point. Because the hook is
//! thread-local, an explorer driving three virtual threads in one process
//! does not perturb every other cache in the address space.

use std::cell::RefCell;

/// The hook type: called with a static label naming the access point
/// (useful when debugging a failing schedule).
pub type YieldHook = Box<dyn FnMut(&'static str)>;

thread_local! {
    static HOOK: RefCell<Option<YieldHook>> = const { RefCell::new(None) };
}

/// Installs `hook` as this thread's yield hook, replacing any previous one.
///
/// Intended for schedule-exploration harnesses only; every instrumented
/// lock acquisition on this thread will invoke the hook until
/// [`clear_yield_hook`] runs.
pub fn set_yield_hook(hook: YieldHook) {
    HOOK.with(|h| *h.borrow_mut() = Some(hook));
}

/// Removes this thread's yield hook (no-op when none is installed).
pub fn clear_yield_hook() {
    HOOK.with(|h| *h.borrow_mut() = None);
}

/// Announces an instrumented shared-memory access point.
///
/// No-op unless [`set_yield_hook`] installed a hook on this thread. The
/// `label` names the access site (`"shard-lock"`).
#[inline]
pub fn yield_point(label: &'static str) {
    HOOK.with(|h| {
        if let Ok(mut slot) = h.try_borrow_mut() {
            if let Some(hook) = slot.as_mut() {
                hook(label);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;

    #[test]
    fn hook_fires_only_when_installed() {
        let hits = Rc::new(Cell::new(0usize));
        yield_point("noop");
        let h = hits.clone();
        set_yield_hook(Box::new(move |_| h.set(h.get() + 1)));
        yield_point("a");
        yield_point("b");
        clear_yield_hook();
        yield_point("c");
        assert_eq!(hits.get(), 2);
    }

    #[test]
    fn reentrant_yield_inside_hook_does_not_deadlock() {
        // A hook that itself hits a yield point must not re-enter (the
        // RefCell is already borrowed; the inner call is a no-op).
        set_yield_hook(Box::new(move |_| yield_point("inner")));
        yield_point("outer");
        clear_yield_hook();
    }
}
