//! O(1) least-recently-used cache: a packed intrusive doubly-linked list
//! over one contiguous node array, indexed by an open-addressing hash table.
//!
//! LRU is the replacement policy the paper fixes (WLOG, its §2) inside every
//! memory box, so this structure is the innermost loop of the whole
//! workspace. The layout is chosen for that loop:
//!
//! * **Packed nodes.** Every resident page is one 16-byte `Node` in a
//!   contiguous `Vec` (`page: u64, prev: u32, next: u32`); recency order is
//!   an intrusive list threaded through `u32` slot indices, so a hit's
//!   splice touches at most three adjacent-in-memory nodes and never
//!   allocates.
//! * **Open-addressing index.** page → slot lookups go through a
//!   power-of-two linear-probing table of `slot + 1` words (0 = empty) with
//!   Fibonacci hashing and backward-shift deletion — no `HashMap`, no
//!   SipHash, no per-entry boxes, no tombstone buildup.
//! * **Honest sizing.** The index is pre-sized to hold `capacity` residents
//!   below the ¾ load ceiling for any capacity up to [`PRESIZE_LIMIT`];
//!   beyond that it starts at the limit and doubles as residents actually
//!   arrive, so a `k > 1M` cache is never silently under-provisioned (the
//!   old implementation clamped its pre-size at `1 << 20` and left larger
//!   caches to rehash mid-run).
//!
//! Accesses never allocate once the arena has warmed up: evicted slots are
//! recycled through a free list, and the index only grows when the resident
//! count approaches its load ceiling.

use crate::checkpoint::{Checkpoint, CodecError, SnapReader, SnapWriter};
use crate::policy::{Access, Cache};
use crate::types::{PageId, Time};

const NIL: u32 = u32::MAX;

/// Largest capacity the index is eagerly pre-sized for; larger caches start
/// here and grow on demand (a 2^22-word table is 16 MiB — pre-allocating
/// proportionally for a pathological `capacity` in the billions would be
/// worse than the amortized doubling it avoids).
pub const PRESIZE_LIMIT: usize = 1 << 22;

/// Fibonacci hashing constant (2^64 / φ): one multiply spreads consecutive
/// page ids across the high bits, which linear probing then consumes.
pub(crate) const HASH_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

#[derive(Clone, Debug)]
struct Node {
    page: PageId,
    prev: u32,
    next: u32,
}

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
    capacity: usize,
    /// Packed node arena; recency list threaded through prev/next.
    nodes: Vec<Node>,
    /// Recycled arena slots.
    free: Vec<u32>,
    /// Resident count (the index stores exactly this many entries).
    len: usize,
    /// most-recently-used slot
    head: u32,
    /// least-recently-used slot
    tail: u32,
    /// Open-addressing page → slot index: `slot + 1`, 0 = empty. Length is
    /// always a power of two.
    index: Vec<u32>,
    /// Bits to right-shift a Fibonacci-hashed page id by to get an index
    /// position (`64 - log2(index.len())`).
    shift: u32,
}

/// Index length (a power of two) that keeps `residents` under a ¾ load
/// factor, floored at 8 so the zero-capacity streaming cache costs 32 bytes.
fn index_len_for(residents: usize) -> usize {
    (residents + residents / 2 + 1).next_power_of_two().max(8)
}

impl LruCache {
    /// Creates an empty cache holding at most `capacity` pages.
    pub fn new(capacity: usize) -> Self {
        let index_len = index_len_for(capacity.min(PRESIZE_LIMIT));
        LruCache {
            capacity,
            nodes: Vec::with_capacity(capacity.min(PRESIZE_LIMIT)),
            free: Vec::new(),
            len: 0,
            head: NIL,
            tail: NIL,
            index: vec![0; index_len],
            shift: 64 - index_len.trailing_zeros(),
        }
    }

    #[inline(always)]
    fn home(&self, page: PageId) -> usize {
        (page.0.wrapping_mul(HASH_MUL) >> self.shift) as usize
    }

    /// Probes for `page`: `Ok(pos)` when resident at index position `pos`,
    /// `Err(())` when absent.
    #[inline(always)]
    fn find(&self, page: PageId) -> Result<usize, ()> {
        let mask = self.index.len() - 1;
        let mut pos = self.home(page);
        loop {
            let entry = self.index[pos];
            if entry == 0 {
                return Err(());
            }
            if self.nodes[(entry - 1) as usize].page == page {
                return Ok(pos);
            }
            pos = (pos + 1) & mask;
        }
    }

    /// Inserts `slot + 1` for a page *known absent* at its probe end.
    #[inline]
    fn index_insert(&mut self, page: PageId, slot: u32) {
        let mask = self.index.len() - 1;
        let mut pos = self.home(page);
        while self.index[pos] != 0 {
            pos = (pos + 1) & mask;
        }
        self.index[pos] = slot + 1;
    }

    /// Removes the entry at `pos` with backward-shift deletion: later
    /// same-run entries slide back so probe sequences stay unbroken without
    /// tombstones.
    fn index_remove_at(&mut self, mut pos: usize) {
        let mask = self.index.len() - 1;
        loop {
            let mut probe = pos;
            loop {
                probe = (probe + 1) & mask;
                let entry = self.index[probe];
                if entry == 0 {
                    self.index[pos] = 0;
                    return;
                }
                let home = self.home(self.nodes[(entry - 1) as usize].page);
                // The entry at `probe` may fill `pos` iff its home position
                // does not lie in the cyclic range (pos, probe].
                let in_range = if pos <= probe {
                    pos < home && home <= probe
                } else {
                    home > pos || home <= probe
                };
                if !in_range {
                    break;
                }
            }
            self.index[pos] = self.index[probe];
            pos = probe;
        }
    }

    /// Doubles the index when the next insert would cross the ¾ load
    /// ceiling (only ever reached past [`PRESIZE_LIMIT`] residents, or when
    /// `resize` grew the capacity after construction).
    #[inline]
    fn maybe_grow_index(&mut self) {
        if (self.len + 1) * 4 >= self.index.len() * 3 {
            self.grow_index();
        }
    }

    #[cold]
    fn grow_index(&mut self) {
        let new_len = self.index.len() * 2;
        self.index = vec![0; new_len];
        self.shift = 64 - new_len.trailing_zeros();
        let mut cur = self.head;
        while cur != NIL {
            let page = self.nodes[cur as usize].page;
            self.index_insert(page, cur);
            cur = self.nodes[cur as usize].next;
        }
    }

    /// Pages currently resident, most-recently-used first.
    pub fn pages_mru_first(&self) -> Vec<PageId> {
        let mut out = Vec::with_capacity(self.len);
        out.extend(self.mru_walk());
        out
    }

    /// Walks the recency list in place, most-recently-used first.
    fn mru_walk(&self) -> impl Iterator<Item = PageId> + '_ {
        let mut cur = self.head;
        std::iter::from_fn(move || {
            if cur == NIL {
                return None;
            }
            let n = &self.nodes[cur as usize];
            cur = n.next;
            Some(n.page)
        })
    }

    /// Evicts and returns the least-recently-used page, if any.
    pub fn pop_lru(&mut self) -> Option<PageId> {
        if self.tail == NIL {
            return None;
        }
        let slot = self.tail;
        let page = self.nodes[slot as usize].page;
        self.unlink(slot);
        let pos = self.find(page).expect("resident page must be indexed");
        self.index_remove_at(pos);
        self.free.push(slot);
        self.len -= 1;
        Some(page)
    }

    fn unlink(&mut self, slot: u32) {
        let (prev, next) = {
            let n = &self.nodes[slot as usize];
            (n.prev, n.next)
        };
        if prev != NIL {
            self.nodes[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, slot: u32) {
        {
            let n = &mut self.nodes[slot as usize];
            n.prev = NIL;
            n.next = self.head;
        }
        if self.head != NIL {
            self.nodes[self.head as usize].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }

    /// Moves a resident slot to the MRU position.
    #[inline]
    fn touch(&mut self, slot: u32) {
        if self.head != slot {
            self.unlink(slot);
            self.push_front(slot);
        }
    }

    /// Admits an absent page (capacity > 0, eviction already done): arena
    /// slot, index entry, MRU position.
    fn admit(&mut self, page: PageId) {
        self.maybe_grow_index();
        let slot = if let Some(slot) = self.free.pop() {
            self.nodes[slot as usize] = Node {
                page,
                prev: NIL,
                next: NIL,
            };
            slot
        } else {
            let slot = self.nodes.len() as u32;
            self.nodes.push(Node {
                page,
                prev: NIL,
                next: NIL,
            });
            slot
        };
        self.index_insert(page, slot);
        self.push_front(slot);
        self.len += 1;
    }

    /// The miss path of `access`, shared with `access_if_fits`.
    fn admit_with_eviction(&mut self, page: PageId) -> Access {
        if self.capacity == 0 {
            return Access::Miss;
        }
        if self.len >= self.capacity {
            self.pop_lru();
        }
        self.admit(page);
        Access::Miss
    }
}

impl Cache for LruCache {
    fn access(&mut self, page: PageId) -> Access {
        if let Ok(pos) = self.find(page) {
            let slot = self.index[pos] - 1;
            self.touch(slot);
            return Access::Hit;
        }
        self.admit_with_eviction(page)
    }

    /// Single-probe fused peek-and-access: one index probe decides both
    /// whether the request fits the remaining budget and, if so, serves it.
    fn access_if_fits(
        &mut self,
        page: PageId,
        remaining: Time,
        miss_penalty: u64,
    ) -> Option<Access> {
        if let Ok(pos) = self.find(page) {
            if remaining == 0 {
                return None;
            }
            let slot = self.index[pos] - 1;
            self.touch(slot);
            return Some(Access::Hit);
        }
        if miss_penalty > remaining {
            return None;
        }
        Some(self.admit_with_eviction(page))
    }

    fn contains(&self, page: PageId) -> bool {
        self.find(page).is_ok()
    }

    fn len(&self) -> usize {
        self.len
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn resize(&mut self, capacity: usize) {
        self.capacity = capacity;
        while self.len > capacity {
            self.pop_lru();
        }
    }

    fn clear(&mut self) {
        self.nodes.clear();
        self.free.clear();
        self.len = 0;
        self.head = NIL;
        self.tail = NIL;
        self.index.fill(0);
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
        w.reserve(8 * (2 + self.len));
        w.put_usize(self.capacity);
        w.put_len(self.len);
        for p in self.mru_walk() {
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
        self.clear();
        self.capacity = capacity;
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
