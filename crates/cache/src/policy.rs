//! The common interface implemented by every online cache simulator.

use crate::types::{PageId, Time};
use crate::window::{serve_window, Pages, WindowOutcome};

/// Outcome of a single page access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Access {
    /// The page was resident; the access costs one time step.
    Hit,
    /// The page was absent and has been fetched (evicting if necessary);
    /// the access costs `s` time steps in the paper's model.
    Miss,
}

impl Access {
    /// `true` for [`Access::Hit`].
    #[inline]
    pub fn is_hit(self) -> bool {
        matches!(self, Access::Hit)
    }

    /// Time cost of this access under miss penalty `s` (hit = 1, miss = s).
    #[inline]
    pub fn cost(self, s: u64) -> u64 {
        match self {
            Access::Hit => 1,
            Access::Miss => s,
        }
    }
}

/// An online cache with a fixed (but adjustable) capacity.
///
/// Implementations must uphold:
///
/// * `len() <= capacity()` at all times;
/// * `access(p)` returns [`Access::Hit`] iff `contains(p)` held immediately
///   before the call, and leaves `contains(p)` true afterwards (for
///   `capacity() > 0`);
/// * `clear()` empties the cache (the paper's *compartmentalized* box start).
pub trait Cache {
    /// Access `page`, fetching and possibly evicting on a miss.
    ///
    /// Accessing through a zero-capacity cache reports a miss and caches
    /// nothing (the page is streamed through).
    fn access(&mut self, page: PageId) -> Access;

    /// Access `page` only if its full cost (1 for a hit, `miss_penalty` for
    /// a miss) fits within `remaining` time steps; returns `None` — leaving
    /// the cache untouched — otherwise.
    ///
    /// Semantically equivalent to peeking with [`Cache::contains`] and then
    /// calling [`Cache::access`] when the cost fits, which is exactly the
    /// default implementation. Implementations with a hashed index should
    /// override this to fuse the peek and the access into a single probe —
    /// this is the innermost call of the box-window loop
    /// ([`crate::run_window`]), so the duplicate lookup it removes is paid
    /// once per simulated request.
    fn access_if_fits(
        &mut self,
        page: PageId,
        remaining: Time,
        miss_penalty: u64,
    ) -> Option<Access> {
        let cost = if self.contains(page) { 1 } else { miss_penalty };
        if cost > remaining {
            return None;
        }
        Some(self.access(page))
    }

    /// Serves `seq[start..]` for at most `budget` time steps, one
    /// [`Cache::access_if_fits`] per request: the body of
    /// [`crate::run_window`]. A cache with modes overrides it to pick its
    /// mode once per window rather than once per request.
    fn window<S: Pages + ?Sized>(
        &mut self,
        seq: &S,
        start: usize,
        budget: Time,
        miss_penalty: u64,
    ) -> WindowOutcome
    where
        Self: Sized,
    {
        serve_window(seq, start, budget, miss_penalty, |page, remaining| {
            self.access_if_fits(page, remaining, miss_penalty)
        })
    }

    /// Whether `page` is currently resident.
    fn contains(&self, page: PageId) -> bool;

    /// Number of resident pages.
    fn len(&self) -> usize;

    /// `true` when no pages are resident.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current capacity in pages.
    fn capacity(&self) -> usize;

    /// Change the capacity. Growing keeps all contents; shrinking must evict
    /// down to the new capacity according to the policy's own ranking (LRU
    /// evicts least-recent first, etc.).
    fn resize(&mut self, capacity: usize);

    /// Evict everything (compartmentalized box boundary).
    fn clear(&mut self);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_cost_matches_model() {
        assert_eq!(Access::Hit.cost(100), 1);
        assert_eq!(Access::Miss.cost(100), 100);
        assert!(Access::Hit.is_hit());
        assert!(!Access::Miss.is_hit());
    }
}
