//! Simulation of one *memory box*: a request sequence running through a
//! cache for a bounded time budget.
//!
//! In the paper's WLOG normal form (§2) every paging algorithm hands each
//! processor a sequence of boxes; inside a box of height `h` the processor
//! runs LRU on `h` cache slots for `s·h` time steps. This module is that
//! inner loop: serve requests one by one, charging 1 step per hit and `s`
//! steps per miss, until the budget is exhausted or the sequence ends. A
//! request is served only if its full cost fits in the remaining budget —
//! partial fetches are discarded, which matches compartmentalized boxes
//! (whatever was in flight is evicted at the box boundary anyway).

use crate::policy::{Access, Cache};
use crate::stats::CacheStats;
use crate::types::{PageId, Time};

/// Result of running a sequence window through a cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WindowOutcome {
    /// Index of the first request *not* served (equals `seq.len()` when the
    /// sequence finished inside the window).
    pub end_index: usize,
    /// Hits and misses among served requests.
    pub stats: CacheStats,
    /// Time actually consumed serving requests (`≤ budget`); the remainder
    /// of the budget, if any, is idle time.
    pub time_used: Time,
    /// Whether the sequence completed within this window.
    pub finished: bool,
}

/// A request sequence a window can serve from, forward from a cursor.
/// Expanded pages are one; a [`crate::PageRun`] is read through its
/// offsets, so [`run_window`] has one body, monomorphised per offset width.
pub trait Pages {
    /// Requests in the sequence.
    fn len(&self) -> usize;
    /// Requests `start..`, in order; none when `start >= len()`.
    fn pages_from(&self, start: usize) -> impl Iterator<Item = PageId> + '_;
    /// `true` for the empty sequence.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Pages for [PageId] {
    #[inline]
    fn len(&self) -> usize {
        <[PageId]>::len(self)
    }

    #[inline]
    fn pages_from(&self, start: usize) -> impl Iterator<Item = PageId> + '_ {
        self.get(start..).unwrap_or_default().iter().copied()
    }
}

impl Pages for Vec<PageId> {
    #[inline]
    fn len(&self) -> usize {
        Vec::len(self)
    }

    #[inline]
    fn pages_from(&self, start: usize) -> impl Iterator<Item = PageId> + '_ {
        self[..].pages_from(start)
    }
}

/// Serves `seq[start..]` through `cache` for at most `budget` time steps,
/// with hit cost 1 and miss cost `miss_penalty`.
///
/// The cache is used as-is (callers wanting the paper's compartmentalized
/// semantics call [`Cache::clear`] first).
///
/// ```
/// use parapage_cache::{run_window, LruCache, PageId};
/// let seq: Vec<PageId> = [1, 2, 1, 2].iter().map(|&v| PageId(v)).collect();
/// let mut cache = LruCache::new(2);
/// // Budget 22, s = 10: serve 1 (10), 2 (10), then two hits (1 + 1) = 22.
/// let out = run_window(&seq, 0, &mut cache, 22, 10);
/// assert!(out.finished);
/// assert_eq!(out.time_used, 22);
/// assert_eq!(out.stats.hits, 2);
/// assert_eq!(out.stats.misses, 2);
/// ```
pub fn run_window<C: Cache, S: Pages + ?Sized>(
    seq: &S,
    start: usize,
    cache: &mut C,
    budget: Time,
    miss_penalty: u64,
) -> WindowOutcome {
    cache.window(seq, start, budget, miss_penalty)
}

/// The box-window loop behind [`Cache::window`]: `serve(page, remaining)`
/// is the cache's fused fit-and-access ([`Cache::access_if_fits`] or one
/// mode of it).
// Kept out of line: each instance (per cache, per mode and per sequence
// form) is one loop with `serve` inlined into it, which a caller
// dispatching over several forms would otherwise leave as a call.
#[inline(never)]
pub(crate) fn serve_window<S: Pages + ?Sized>(
    seq: &S,
    start: usize,
    budget: Time,
    miss_penalty: u64,
    mut serve: impl FnMut(PageId, Time) -> Option<Access>,
) -> WindowOutcome {
    debug_assert!(miss_penalty >= 1, "miss penalty must be at least hit cost");
    let mut idx = start;
    let mut remaining = budget;
    let mut stats = CacheStats::default();
    for page in seq.pages_from(start) {
        // One fused probe decides fit and serves the request; a request
        // only runs if its full cost fits (no partial fetches).
        let Some(outcome) = serve(page, remaining) else {
            break;
        };
        stats.record(outcome.is_hit());
        remaining -= outcome.cost(miss_penalty);
        idx += 1;
    }
    WindowOutcome {
        end_index: idx,
        stats,
        time_used: budget - remaining,
        finished: idx == seq.len(),
    }
}

/// Serves `seq[start..]` through a **fresh** LRU cache of height `height`
/// for the canonical box duration `miss_penalty · height` — i.e., one paper
/// box.
///
/// A key property this guarantees (used by Lemma 5 of the paper): a box of
/// height `h` always serves at least `h` requests when at least `h` remain,
/// because even all-miss service costs `s` per request and the budget is
/// `s·h`. For `height == 0` the box has zero duration and serves nothing.
pub fn run_box(seq: &[PageId], start: usize, height: usize, miss_penalty: u64) -> WindowOutcome {
    let mut cache = crate::lru::LruCache::new(height);
    run_window(
        seq,
        start,
        &mut cache,
        miss_penalty * height as u64,
        miss_penalty,
    )
}

/// Serves `seq[start..]` through a **fresh** LRU cache of `height` pages
/// with an explicit time `budget` (unlike [`run_box`], whose budget is the
/// canonical `s·height`). Used by schedulers that hand out fixed-length
/// rounds at varying heights.
pub fn run_box_budget(
    seq: &[PageId],
    start: usize,
    height: usize,
    budget: Time,
    miss_penalty: u64,
) -> WindowOutcome {
    let mut cache = crate::lru::LruCache::new(height);
    run_window(seq, start, &mut cache, budget, miss_penalty)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lru::LruCache;

    fn seq(vals: &[u64]) -> Vec<PageId> {
        vals.iter().map(|&v| PageId(v)).collect()
    }

    #[test]
    fn request_that_does_not_fit_is_not_served() {
        let s = seq(&[1, 2]);
        let mut cache = LruCache::new(2);
        // Budget 15, s = 10: serve 1 (10), then 2 would need 10 > 5 left.
        let out = run_window(&s, 0, &mut cache, 15, 10);
        assert_eq!(out.end_index, 1);
        assert_eq!(out.time_used, 10);
        assert!(!out.finished);
        assert!(!cache.contains(PageId(2)));
    }

    #[test]
    fn box_of_height_h_serves_at_least_h_requests() {
        // All-distinct pages: every access misses.
        let s: Vec<PageId> = (0..100).map(PageId).collect();
        for h in 1..10 {
            let out = run_box(&s, 0, h, 7);
            assert_eq!(out.end_index, h, "height {h}");
            assert_eq!(out.stats.misses, h as u64);
        }
    }

    #[test]
    fn box_on_cyclic_sequence_within_height_mostly_hits() {
        // Cycle over 4 pages, box height 8, s=10 -> budget 80.
        // 4 compulsory misses (40) + 40 hits = serves 44 requests.
        let s: Vec<PageId> = (0..200).map(|i| PageId(i % 4)).collect();
        let out = run_box(&s, 0, 8, 10);
        assert_eq!(out.stats.misses, 4);
        assert_eq!(out.stats.hits, 40);
        assert_eq!(out.end_index, 44);
        assert_eq!(out.time_used, 80);
    }

    #[test]
    fn zero_height_box_serves_nothing() {
        let s = seq(&[1, 2, 3]);
        let out = run_box(&s, 0, 0, 10);
        assert_eq!(out.end_index, 0);
        assert_eq!(out.time_used, 0);
    }

    #[test]
    fn finishes_short_sequences_and_reports_idle_time() {
        let s = seq(&[1]);
        let mut cache = LruCache::new(4);
        let out = run_window(&s, 0, &mut cache, 1000, 10);
        assert!(out.finished);
        assert_eq!(out.time_used, 10);
    }

    #[test]
    fn warm_cache_carries_over_between_windows() {
        let s = seq(&[1, 2, 1, 2]);
        let mut cache = LruCache::new(2);
        let first = run_window(&s, 0, &mut cache, 20, 10);
        assert_eq!(first.end_index, 2);
        // Second window reuses the warm cache: both remaining accesses hit.
        let second = run_window(&s, first.end_index, &mut cache, 20, 10);
        assert!(second.finished);
        assert_eq!(second.stats.hits, 2);
        assert_eq!(second.time_used, 2);
    }

    #[test]
    fn budgeted_box_respects_custom_budget() {
        let s: Vec<PageId> = (0..50).map(PageId).collect();
        // Height 4 but budget for exactly 3 misses at s=10.
        let out = run_box_budget(&s, 0, 4, 30, 10);
        assert_eq!(out.end_index, 3);
        assert_eq!(out.time_used, 30);
    }

    #[test]
    fn start_at_end_is_a_noop() {
        let s = seq(&[1]);
        let mut cache = LruCache::new(1);
        let out = run_window(&s, 1, &mut cache, 100, 10);
        assert!(out.finished);
        assert_eq!(out.time_used, 0);
        assert_eq!(out.stats.accesses(), 0);
    }
}
