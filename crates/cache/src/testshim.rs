//! Test-only reference implementations kept for differential testing.
//!
//! [`ShardedCache`] is `n` independent sequential caches behind the shared
//! page router, the reference the one-arena [`ShardedLru`](crate::ShardedLru)
//! is pinned against (`tests/sharded_props.rs`, `tests/lru_differential.rs`):
//! same routing, same capacity split, same snapshot bytes.
//!
//! [`MapLru`] is the pre-packed LRU verbatim: an arena-allocated intrusive
//! list indexed by `HashMap<PageId, u32>`. It is *not* used anywhere in the
//! hot path — it exists so `tests/lru_differential.rs` can drive random
//! request streams through both implementations and assert identical
//! hit/miss/evict behaviour and identical checkpoint bytes. Keeping the old
//! code compiled (rather than comparing against a hand-written model) means
//! the differential test pins the packed rewrite against the exact
//! semantics the rest of the workspace was built on.

use std::collections::HashMap;

use crate::checkpoint::{Checkpoint, CodecError, SnapReader, SnapWriter};
use crate::lru::LruCache;
use crate::policy::{Access, Cache};
use crate::sharded_lru::{route, shard_capacity};
use crate::types::{PageId, Time};

/// `n` (a power of two) sequential caches, pages routed by FNV-1a hash as
/// [`ShardedLru`](crate::ShardedLru) routes them.
///
/// With one shard the router is the identity and the checkpoint adds no
/// framing, so a 1-shard cache is byte-identical to the cache it wraps.
#[derive(Clone, Debug)]
pub struct ShardedCache<C> {
    shards: Vec<C>,
    mask: u64,
}

impl ShardedCache<LruCache> {
    /// A sharded LRU with `capacity` total pages across `shards` shards
    /// (rounded up to a power of two).
    pub fn with_shards(capacity: usize, shards: usize) -> Self {
        ShardedCache::with_shards_by(capacity, shards, LruCache::new)
    }
}

impl<C: Cache> ShardedCache<C> {
    /// Builds a sharded cache over `shards` (rounded up to a power of two)
    /// instances produced by `make`, which receives each shard's capacity.
    pub fn with_shards_by(
        capacity: usize,
        shards: usize,
        mut make: impl FnMut(usize) -> C,
    ) -> Self {
        let n = shards.next_power_of_two().max(1);
        ShardedCache {
            shards: (0..n)
                .map(|i| make(shard_capacity(capacity, n, i)))
                .collect(),
            mask: (n - 1) as u64,
        }
    }

    /// Number of shards (a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard index `page` routes to.
    pub fn shard_of(&self, page: PageId) -> usize {
        route(self.mask, page)
    }
}

impl<C: Cache> Cache for ShardedCache<C> {
    fn access(&mut self, page: PageId) -> Access {
        let i = self.shard_of(page);
        self.shards[i].access(page)
    }

    fn access_if_fits(
        &mut self,
        page: PageId,
        remaining: Time,
        miss_penalty: u64,
    ) -> Option<Access> {
        let i = self.shard_of(page);
        self.shards[i].access_if_fits(page, remaining, miss_penalty)
    }

    fn contains(&self, page: PageId) -> bool {
        self.shards[self.shard_of(page)].contains(page)
    }

    fn len(&self) -> usize {
        self.shards.iter().map(Cache::len).sum()
    }

    fn capacity(&self) -> usize {
        self.shards.iter().map(Cache::capacity).sum()
    }

    fn resize(&mut self, capacity: usize) {
        let n = self.shards.len();
        for (i, shard) in self.shards.iter_mut().enumerate() {
            shard.resize(shard_capacity(capacity, n, i));
        }
    }

    fn clear(&mut self) {
        self.shards.iter_mut().for_each(Cache::clear);
    }
}

impl<C: Cache + Checkpoint> Checkpoint for ShardedCache<C> {
    /// Shard payloads concatenated in shard order with **no header**: the
    /// shard count is construction-time configuration, not state.
    fn save(&self, w: &mut SnapWriter) {
        self.shards.iter().for_each(|s| s.save(w));
    }

    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), CodecError> {
        self.shards.iter_mut().try_for_each(|s| s.load(r))
    }
}

const NIL: u32 = u32::MAX;

#[derive(Clone, Debug)]
struct Node {
    page: PageId,
    prev: u32,
    next: u32,
}

/// The old `HashMap`-indexed LRU, preserved as a differential-test oracle.
///
/// Behaviour (including the checkpoint byte encoding) is intentionally
/// frozen; do not "improve" this type — fixes belong in
/// [`crate::LruCache`], and this oracle exists to catch them diverging.
#[derive(Clone, Debug)]
pub struct MapLru {
    capacity: usize,
    /// page -> arena slot
    map: HashMap<PageId, u32>,
    arena: Vec<Node>,
    free: Vec<u32>,
    /// most-recently-used slot
    head: u32,
    /// least-recently-used slot
    tail: u32,
}

impl MapLru {
    /// Creates an empty cache holding at most `capacity` pages.
    ///
    /// (The old implementation clamped its pre-size at `1 << 20`; that only
    /// affected allocation, not behaviour, so the oracle simply pre-sizes
    /// nothing.)
    pub fn new(capacity: usize) -> Self {
        MapLru {
            capacity,
            map: HashMap::new(),
            arena: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    /// Pages currently resident, most-recently-used first.
    pub fn pages_mru_first(&self) -> Vec<PageId> {
        let mut out = Vec::with_capacity(self.map.len());
        let mut cur = self.head;
        while cur != NIL {
            let n = &self.arena[cur as usize];
            out.push(n.page);
            cur = n.next;
        }
        out
    }

    /// Evicts and returns the least-recently-used page, if any.
    pub fn pop_lru(&mut self) -> Option<PageId> {
        if self.tail == NIL {
            return None;
        }
        let slot = self.tail;
        let page = self.arena[slot as usize].page;
        self.unlink(slot);
        self.map.remove(&page);
        self.free.push(slot);
        Some(page)
    }

    fn unlink(&mut self, slot: u32) {
        let (prev, next) = {
            let n = &self.arena[slot as usize];
            (n.prev, n.next)
        };
        if prev != NIL {
            self.arena[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.arena[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, slot: u32) {
        {
            let n = &mut self.arena[slot as usize];
            n.prev = NIL;
            n.next = self.head;
        }
        if self.head != NIL {
            self.arena[self.head as usize].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }

    fn alloc(&mut self, page: PageId) -> u32 {
        if let Some(slot) = self.free.pop() {
            self.arena[slot as usize] = Node {
                page,
                prev: NIL,
                next: NIL,
            };
            slot
        } else {
            let slot = self.arena.len() as u32;
            self.arena.push(Node {
                page,
                prev: NIL,
                next: NIL,
            });
            slot
        }
    }
}

impl Cache for MapLru {
    fn access(&mut self, page: PageId) -> Access {
        if let Some(&slot) = self.map.get(&page) {
            if self.head != slot {
                self.unlink(slot);
                self.push_front(slot);
            }
            return Access::Hit;
        }
        if self.capacity == 0 {
            return Access::Miss;
        }
        if self.map.len() >= self.capacity {
            self.pop_lru();
        }
        let slot = self.alloc(page);
        self.push_front(slot);
        self.map.insert(page, slot);
        Access::Miss
    }

    fn contains(&self, page: PageId) -> bool {
        self.map.contains_key(&page)
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn resize(&mut self, capacity: usize) {
        self.capacity = capacity;
        while self.map.len() > capacity {
            self.pop_lru();
        }
    }

    fn clear(&mut self) {
        self.map.clear();
        self.arena.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }
}

impl Checkpoint for MapLru {
    fn save(&self, w: &mut SnapWriter) {
        w.put_usize(self.capacity);
        let pages = self.pages_mru_first();
        w.put_len(pages.len());
        for p in pages {
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
    use crate::fifo::FifoCache;

    fn p(v: u64) -> PageId {
        PageId(v)
    }

    #[test]
    fn one_shard_is_byte_identical_to_inner() {
        let mut plain = LruCache::new(5);
        let mut sharded = ShardedCache::with_shards(5, 1);
        for v in [1u64, 2, 3, 1, 4, 2, 5, 6, 1] {
            assert_eq!(plain.access(p(v)), sharded.access(p(v)));
        }
        let (mut wa, mut wb) = (SnapWriter::new(), SnapWriter::new());
        plain.save(&mut wa);
        sharded.save(&mut wb);
        assert_eq!(wa.into_bytes(), wb.into_bytes());
    }

    #[test]
    fn capacity_splits_with_remainder_up_front() {
        let c = ShardedCache::with_shards(10, 4);
        let caps: Vec<usize> = c.shards.iter().map(Cache::capacity).collect();
        assert_eq!(caps, vec![3, 3, 2, 2]);
        assert_eq!(c.capacity(), 10);
    }

    #[test]
    fn resize_redistributes() {
        let mut c = ShardedCache::with_shards(8, 4);
        for v in 0..100 {
            c.access(p(v));
        }
        c.resize(4);
        assert_eq!(c.capacity(), 4);
        assert!(c.len() <= 4);
        c.resize(0);
        assert!(c.is_empty());
    }

    #[test]
    fn checkpoint_round_trips_across_shards() {
        let mut c = ShardedCache::with_shards_by(6, 4, FifoCache::new);
        for v in [9u64, 1, 5, 3, 7, 2, 9, 5] {
            c.access(p(v));
        }
        let mut w = SnapWriter::new();
        c.save(&mut w);
        let bytes = w.into_bytes();
        let mut restored = ShardedCache::with_shards_by(0, 4, FifoCache::new);
        restored.load(&mut SnapReader::new(&bytes)).unwrap();
        for v in [9u64, 1, 5, 3, 7, 2] {
            assert_eq!(restored.contains(p(v)), c.contains(p(v)), "page {v}");
        }
        assert_eq!(restored.len(), c.len());
        assert_eq!(restored.capacity(), c.capacity());
    }
}
