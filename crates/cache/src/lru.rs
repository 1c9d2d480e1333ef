//! O(1) least-recently-used cache: one recency list over a packed node
//! arena and an open-addressing page index (the crate's private `recency`
//! module, which [`ShardedLru`](crate::ShardedLru) shares).
//!
//! LRU is the replacement policy the paper fixes (WLOG, its §2) inside every
//! memory box, so this structure is the innermost loop of the whole
//! workspace. A hit is one index probe and a splice of at most three
//! 24-byte nodes; a miss at capacity reuses the evicted node in place, and
//! nothing allocates once the arena has warmed up.
//!
//! **Honest sizing.** The index is kept at most ⅛ full (`u16` entries up
//! to 65 535 nodes, then ¼ full in `u32` entries, the same 16 bytes per
//! node): short probe runs are what make a miss cheap, and most served
//! requests under RAND-PAR and UCP are misses. [`LruCache::new`] pre-sizes
//! it for `capacity` residents up to [`PRESIZE_LIMIT`]; beyond that, and
//! in a cache built small and resized up (every engine's caches start at
//! capacity 0), it doubles as residents actually arrive — never on
//! `resize` — so a `k > 1M` cache is never silently under-provisioned and
//! a huge `k` with few residents costs a small index. A checkpoint load sizes the index once for the
//! resident count it restores.

use crate::checkpoint::{Checkpoint, CodecError, SnapReader, SnapWriter};
use crate::policy::{Access, Cache};
use crate::recency::{Arena, List};
use crate::types::{PageId, Time};

/// Largest capacity the index is eagerly pre-sized for; larger caches start
/// here and grow on demand. At the ¼ load ceiling its index is 2^23 `u32`
/// entries (32 MiB) beside a 48 MiB node reservation — pre-allocating
/// proportionally for a pathological `capacity` in the billions would be
/// worse than the amortized doubling it avoids.
pub const PRESIZE_LIMIT: usize = 1 << 21;

/// A resizable LRU cache.
///
/// * `access` — O(1) expected (one probe sequence + list splice).
/// * `resize` — shrinking evicts the LRU tail; growing keeps contents.
/// * `clear` — O(index), used at compartmentalized box boundaries.
///
/// ```
/// use parapage_cache::{Cache, LruCache, PageId, Access};
/// let mut c = LruCache::new(2);
/// assert_eq!(c.access(PageId(1)), Access::Miss);
/// assert_eq!(c.access(PageId(2)), Access::Miss);
/// assert_eq!(c.access(PageId(1)), Access::Hit);
/// assert_eq!(c.access(PageId(3)), Access::Miss); // evicts 2 (LRU)
/// assert!(!c.contains(PageId(2)));
/// ```
#[derive(Clone, Debug)]
pub struct LruCache {
    arena: Arena,
    /// The one recency list; its capacity is the cache's.
    list: List,
}

impl LruCache {
    /// Creates an empty cache holding at most `capacity` pages.
    pub fn new(capacity: usize) -> Self {
        LruCache {
            arena: Arena::new(capacity),
            list: List::new(capacity),
        }
    }

    /// Pages currently resident, most-recently-used first.
    pub fn pages_mru_first(&self) -> Vec<PageId> {
        let mut out = Vec::with_capacity(self.list.len);
        out.extend(self.arena.walk(&self.list));
        out
    }

    /// The arena, for the index-sizing tests in `recency`.
    #[cfg(test)]
    pub(crate) fn arena(&self) -> &Arena {
        &self.arena
    }

    /// Evicts and returns the least-recently-used page, if any.
    pub fn pop_lru(&mut self) -> Option<PageId> {
        self.arena.pop_lru(&mut self.list)
    }

    /// The miss path of `access`, shared with `access_if_fits`.
    fn miss(&mut self, page: PageId) -> Access {
        self.arena.admit(&mut self.list, 0, page);
        Access::Miss
    }
}

impl Cache for LruCache {
    fn access(&mut self, page: PageId) -> Access {
        if let Some(slot) = self.arena.slot(page) {
            self.arena.touch(&mut self.list, slot);
            return Access::Hit;
        }
        self.miss(page)
    }

    /// Single-probe fused peek-and-access: one index probe decides both
    /// whether the request fits the remaining budget and, if so, serves it.
    /// A zero budget fits only a free miss, so it is decided before
    /// probing unless the miss is free.
    fn access_if_fits(
        &mut self,
        page: PageId,
        remaining: Time,
        miss_penalty: u64,
    ) -> Option<Access> {
        if remaining == 0 {
            return (miss_penalty == 0 && !self.contains(page)).then(|| self.miss(page));
        }
        if let Some(slot) = self.arena.slot(page) {
            self.arena.touch(&mut self.list, slot);
            return Some(Access::Hit);
        }
        if miss_penalty > remaining {
            return None;
        }
        Some(self.miss(page))
    }

    fn contains(&self, page: PageId) -> bool {
        self.arena.slot(page).is_some()
    }

    fn len(&self) -> usize {
        self.list.len
    }

    fn capacity(&self) -> usize {
        self.list.capacity
    }

    fn resize(&mut self, capacity: usize) {
        self.list.capacity = capacity;
        while self.list.len > capacity {
            self.arena.pop_lru(&mut self.list);
        }
    }

    fn clear(&mut self) {
        self.arena.clear();
        self.list.reset();
    }
}

impl Checkpoint for LruCache {
    fn save(&self, w: &mut SnapWriter) {
        // The arena/index layout is an implementation detail; the logical
        // state is exactly (capacity, recency order). This encoding is
        // byte-identical to the pre-packed (HashMap-indexed) LRU's, which
        // is what keeps old checkpoints loadable and resume equivalence
        // intact across the rewrite. The list is walked in place into a
        // writer sized once for the whole payload: capacity, length, and
        // one u64 per page.
        w.reserve(8 * (2 + self.list.len));
        w.put_usize(self.list.capacity);
        w.put_len(self.list.len);
        for p in self.arena.walk(&self.list) {
            w.put_page(p);
        }
    }

    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), CodecError> {
        let capacity = r.get_usize()?;
        let n = r.get_len()?;
        if n > capacity {
            return Err(CodecError::Invalid("LRU resident count exceeds capacity"));
        }
        let mut pages = Vec::with_capacity(n);
        for _ in 0..n {
            pages.push(r.get_page()?);
        }
        self.arena.clear_for(n);
        self.list = List::new(capacity);
        // Re-access LRU → MRU rebuilds the exact recency order.
        for &p in pages.iter().rev() {
            if self.access(p) == Access::Hit {
                return Err(CodecError::Invalid("duplicate page in LRU checkpoint"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(v: u64) -> PageId {
        PageId(v)
    }

    #[test]
    fn checkpoint_round_trips_recency_order() {
        let mut c = LruCache::new(4);
        for v in [1, 2, 3, 2, 1, 4] {
            c.access(p(v));
        }
        let mut w = SnapWriter::new();
        c.save(&mut w);
        let bytes = w.into_bytes();
        let mut restored = LruCache::new(0);
        restored.load(&mut SnapReader::new(&bytes)).unwrap();
        assert_eq!(restored.capacity(), 4);
        assert_eq!(restored.pages_mru_first(), c.pages_mru_first());
        // Same next eviction on both.
        assert_eq!(restored.access(p(9)), Access::Miss);
        assert_eq!(c.access(p(9)), Access::Miss);
        assert_eq!(restored.pages_mru_first(), c.pages_mru_first());
    }

    #[test]
    fn zero_capacity_streams_through() {
        let mut c = LruCache::new(0);
        assert_eq!(c.access(p(1)), Access::Miss);
        assert_eq!(c.access(p(1)), Access::Miss);
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(3);
        for v in 1..=3 {
            assert_eq!(c.access(p(v)), Access::Miss);
        }
        // Touch 1 so that 2 becomes LRU.
        assert_eq!(c.access(p(1)), Access::Hit);
        assert_eq!(c.access(p(4)), Access::Miss);
        assert!(!c.contains(p(2)));
        assert!(c.contains(p(1)));
        assert!(c.contains(p(3)));
        assert!(c.contains(p(4)));
    }

    #[test]
    fn mru_order_is_maintained() {
        let mut c = LruCache::new(4);
        for v in [1, 2, 3, 2, 1, 4] {
            c.access(p(v));
        }
        assert_eq!(c.pages_mru_first(), vec![p(4), p(1), p(2), p(3)]);
    }

    #[test]
    fn shrink_evicts_lru_tail_grow_keeps_contents() {
        let mut c = LruCache::new(4);
        for v in 1..=4 {
            c.access(p(v));
        }
        c.resize(2);
        assert_eq!(c.len(), 2);
        assert!(c.contains(p(3)) && c.contains(p(4)));
        c.resize(10);
        assert!(c.contains(p(3)) && c.contains(p(4)));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn clear_empties_cache() {
        let mut c = LruCache::new(4);
        c.access(p(1));
        c.access(p(2));
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.access(p(1)), Access::Miss);
    }

    #[test]
    fn cyclic_access_beyond_capacity_always_misses() {
        // The classic LRU pathology the paper's repeater sequences exploit:
        // cycling over capacity+1 pages misses every time.
        let mut c = LruCache::new(4);
        let mut misses = 0;
        for round in 0..10 {
            for v in 0..5 {
                if c.access(p(v)) == Access::Miss {
                    misses += 1;
                }
            }
            let _ = round;
        }
        assert_eq!(misses, 50);
    }

    #[test]
    fn cyclic_access_within_capacity_hits_after_warmup() {
        let mut c = LruCache::new(5);
        let mut misses = 0;
        for _ in 0..10 {
            for v in 0..5 {
                if c.access(p(v)) == Access::Miss {
                    misses += 1;
                }
            }
        }
        assert_eq!(misses, 5);
    }

    #[test]
    fn pop_lru_returns_in_lru_order() {
        let mut c = LruCache::new(3);
        for v in [1, 2, 3] {
            c.access(p(v));
        }
        c.access(p(1));
        assert_eq!(c.pop_lru(), Some(p(2)));
        assert_eq!(c.pop_lru(), Some(p(3)));
        assert_eq!(c.pop_lru(), Some(p(1)));
        assert_eq!(c.pop_lru(), None);
    }

    #[test]
    fn access_if_fits_matches_peek_then_access() {
        let mut a = LruCache::new(3);
        let mut b = LruCache::new(3);
        let stream = [1u64, 2, 3, 1, 4, 2, 2, 5, 1, 3, 4, 4, 1];
        let mut remaining = 40u64;
        for v in stream {
            let expect = {
                let cost = if b.contains(p(v)) { 1 } else { 10 };
                if cost > remaining {
                    None
                } else {
                    Some(b.access(p(v)))
                }
            };
            let got = a.access_if_fits(p(v), remaining, 10);
            assert_eq!(got, expect, "page {v} at budget {remaining}");
            if let Some(acc) = got {
                remaining -= acc.cost(10);
            }
        }
        assert_eq!(a.pages_mru_first(), b.pages_mru_first());
    }

    #[test]
    fn access_if_fits_zero_budget_serves_nothing() {
        let mut c = LruCache::new(2);
        c.access(p(1));
        assert_eq!(c.access_if_fits(p(1), 0, 10), None, "hit needs 1 step");
        assert_eq!(c.access_if_fits(p(2), 5, 10), None, "miss needs 10");
        assert!(!c.contains(p(2)), "rejected request must not be admitted");
        assert_eq!(c.access_if_fits(p(2), 10, 10), Some(Access::Miss));
    }

    /// The index must keep absorbing residents past the old `1 << 20`
    /// pre-size clamp: at a boundary capacity every inserted page stays
    /// resident and findable, and eviction starts exactly at capacity.
    #[test]
    fn boundary_capacity_holds_every_resident() {
        let cap = (1 << 20) + 1;
        let mut c = LruCache::new(cap);
        for v in 0..cap as u64 {
            assert_eq!(c.access(p(v)), Access::Miss);
        }
        assert_eq!(c.len(), cap);
        assert!(c.contains(p(0)), "oldest page still resident at capacity");
        // One more distinct page evicts exactly the LRU (page 0).
        assert_eq!(c.access(p(cap as u64)), Access::Miss);
        assert_eq!(c.len(), cap);
        assert!(!c.contains(p(0)));
        assert!(c.contains(p(1)));
        // Spot-check hits across the whole range (each touch is a splice).
        for v in [1u64, 1 << 10, 1 << 19, cap as u64 - 1, cap as u64] {
            assert_eq!(c.access(p(v)), Access::Hit, "page {v}");
        }
    }

    /// Deletions under heavy slot reuse keep probe chains intact
    /// (backward-shift deletion regression guard).
    #[test]
    fn churn_with_collisions_keeps_index_consistent() {
        let mut c = LruCache::new(16);
        // Page ids chosen dense and then strided: Fibonacci hashing maps
        // both patterns; churn forces constant insert/remove interleaving.
        for round in 0u64..50 {
            for v in 0..24u64 {
                c.access(p(v * 64 + round % 3));
            }
            assert!(c.len() <= 16);
        }
        let resident = c.pages_mru_first();
        assert_eq!(resident.len(), 16);
        for page in resident {
            assert!(c.contains(page));
        }
    }
}
