//! The packed recency arena behind [`LruCache`](crate::LruCache) and
//! [`ShardedLru`](crate::ShardedLru): one node array, one open-addressing
//! page index over it, and intrusive recency lists threaded through the
//! nodes.
//!
//! * **Packed nodes.** Every resident page is one 16-byte `Node` in a
//!   contiguous `Vec` (`page: u64, prev: u32, next: u32`); recency order is
//!   an intrusive list threaded through `u32` slot indices, so a hit's
//!   splice touches at most three nodes and never allocates. Evicted slots
//!   are recycled through a free list.
//! * **Open-addressing index.** page → slot lookups go through a
//!   power-of-two linear-probing table of `slot + 1` words (0 = empty) with
//!   Fibonacci hashing and backward-shift deletion — no `HashMap`, no
//!   SipHash, no per-entry boxes, no tombstone buildup.
//! * **A quarter-full index.** The table is kept at most ¼ full
//!   ([`INDEX_SLACK`] entries per node, floored at [`MIN_INDEX_LEN`]).
//!   Under RAND-PAR and UCP most served requests are faults, and a fault
//!   walks a probe run four times — the failed lookup, the victim's
//!   lookup, its backward-shift delete and the insert — each a branchy loop
//!   that ends only at an empty entry. Knuth's estimate for a failed
//!   linear-probing lookup at load α is ½(1 + 1/(1 − α)²) probes: 8.5 at
//!   α = ¾, 1.4 at α = ¼. Shortening the runs, not tagging entries to skip
//!   the node read, is what makes a miss cheap. The index grows with
//!   residents only (on admit and on load), never with a capacity, so a
//!   tenant with an unbounded `k` and a handful of residents holds a
//!   handful of index words.
//! * **Lists apart from the arena.** A [`List`] holds one recency list's
//!   ends, length and capacity; the arena methods take the list they
//!   splice. An LRU owns one list, a sharded LRU one per shard, and both
//!   share every line of the arena and index code.

use crate::lru::PRESIZE_LIMIT;
use crate::types::PageId;

pub(crate) const NIL: u32 = u32::MAX;

/// Fibonacci hashing constant (2^64 / φ): one multiply spreads consecutive
/// page ids across the high bits, which linear probing then consumes.
pub(crate) const HASH_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

#[derive(Clone, Debug)]
struct Node {
    page: PageId,
    prev: u32,
    next: u32,
}

/// One recency list threaded through an [`Arena`]: its ends, its resident
/// count and the capacity its owner enforces on it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct List {
    /// Most-recently-used slot.
    head: u32,
    /// Least-recently-used slot.
    tail: u32,
    /// Residents on this list.
    pub(crate) len: usize,
    /// Most residents this list may hold.
    pub(crate) capacity: usize,
}

impl List {
    /// An empty list of `capacity`.
    pub(crate) fn new(capacity: usize) -> Self {
        List {
            head: NIL,
            tail: NIL,
            len: 0,
            capacity,
        }
    }

    /// Forgets every resident (after [`Arena::clear`]); keeps the capacity.
    pub(crate) fn reset(&mut self) {
        *self = List::new(self.capacity);
    }
}

/// Node array, free list and page index shared by every list over it.
#[derive(Clone, Debug)]
pub(crate) struct Arena {
    nodes: Vec<Node>,
    /// Recycled node slots.
    free: Vec<u32>,
    /// Open-addressing page → slot index: `slot + 1`, 0 = empty. Length is
    /// always a power of two.
    index: Vec<u32>,
    /// Bits to right-shift a Fibonacci-hashed page id by to get an index
    /// position (`64 - log2(index.len())`).
    shift: u32,
}

/// Index entries per node: the index is never more than
/// `1 / INDEX_SLACK` full. The one load ceiling, read by both the presize
/// ([`index_len_for`]) and [`Arena::admit`]'s growth check.
const INDEX_SLACK: usize = 4;

/// Smallest index: a cache of up to `MIN_INDEX_LEN / INDEX_SLACK` (four)
/// residents never grows, and an empty one costs 64 bytes.
const MIN_INDEX_LEN: usize = 16;

/// Index length (a power of two) that holds `residents` at most
/// `1 / INDEX_SLACK` full, floored at [`MIN_INDEX_LEN`].
fn index_len_for(residents: usize) -> usize {
    (residents * INDEX_SLACK)
        .next_power_of_two()
        .max(MIN_INDEX_LEN)
}

impl Arena {
    /// An empty arena whose index is pre-sized for `capacity` residents, up
    /// to [`PRESIZE_LIMIT`]; past that it doubles as residents arrive.
    pub(crate) fn new(capacity: usize) -> Self {
        let residents = capacity.min(PRESIZE_LIMIT);
        let index_len = index_len_for(residents);
        Arena {
            nodes: Vec::with_capacity(residents),
            free: Vec::new(),
            index: vec![0; index_len],
            shift: 64 - index_len.trailing_zeros(),
        }
    }

    #[inline(always)]
    fn home(&self, page: PageId) -> usize {
        (page.0.wrapping_mul(HASH_MUL) >> self.shift) as usize
    }

    /// Index position of a resident `page`, `None` when absent.
    #[inline(always)]
    fn position(&self, page: PageId) -> Option<usize> {
        let mask = self.index.len() - 1;
        let mut pos = self.home(page);
        loop {
            let entry = self.index[pos];
            if entry == 0 {
                return None;
            }
            if self.nodes[(entry - 1) as usize].page == page {
                return Some(pos);
            }
            pos = (pos + 1) & mask;
        }
    }

    /// Node slot of a resident `page`, `None` when absent.
    #[inline(always)]
    pub(crate) fn slot(&self, page: PageId) -> Option<u32> {
        self.position(page).map(|pos| self.index[pos] - 1)
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

    /// Replaces the index with an empty one of `len` entries (a power of
    /// two) and returns the old one.
    fn replace_index(&mut self, len: usize) -> Vec<u32> {
        self.shift = 64 - len.trailing_zeros();
        std::mem::replace(&mut self.index, vec![0; len])
    }

    /// Doubles the index and re-inserts every entry, when the next new
    /// node would cross the ¼ load ceiling (reached as residents arrive in
    /// a cache built small — the served tenant's caches start at capacity
    /// 0 — or past [`PRESIZE_LIMIT`]). Nodes are never fewer than
    /// residents, so bounding the node count bounds the index load.
    #[cold]
    fn grow_index(&mut self) {
        let old = self.replace_index(self.index.len() * 2);
        for entry in old.into_iter().filter(|&e| e != 0) {
            self.index_insert(self.nodes[(entry - 1) as usize].page, entry - 1);
        }
    }

    /// Walks `list` in place, most-recently-used first.
    pub(crate) fn walk<'s>(&'s self, list: &List) -> impl Iterator<Item = PageId> + 's {
        let mut cur = list.head;
        std::iter::from_fn(move || {
            if cur == NIL {
                return None;
            }
            let n = &self.nodes[cur as usize];
            cur = n.next;
            Some(n.page)
        })
    }

    fn unlink(&mut self, list: &mut List, slot: u32) {
        let (prev, next) = {
            let n = &self.nodes[slot as usize];
            (n.prev, n.next)
        };
        if prev != NIL {
            self.nodes[prev as usize].next = next;
        } else {
            list.head = next;
        }
        if next != NIL {
            self.nodes[next as usize].prev = prev;
        } else {
            list.tail = prev;
        }
    }

    fn push_front(&mut self, list: &mut List, slot: u32) {
        {
            let n = &mut self.nodes[slot as usize];
            n.prev = NIL;
            n.next = list.head;
        }
        if list.head != NIL {
            self.nodes[list.head as usize].prev = slot;
        }
        list.head = slot;
        if list.tail == NIL {
            list.tail = slot;
        }
    }

    /// Moves `slot`, resident on `list`, to the list's MRU position.
    #[inline]
    pub(crate) fn touch(&mut self, list: &mut List, slot: u32) {
        if list.head != slot {
            self.unlink(list, slot);
            self.push_front(list, slot);
        }
    }

    /// Evicts and returns `list`'s least-recently-used page, if any.
    pub(crate) fn pop_lru(&mut self, list: &mut List) -> Option<PageId> {
        if list.tail == NIL {
            return None;
        }
        let slot = list.tail;
        let page = self.nodes[slot as usize].page;
        self.unlink(list, slot);
        let pos = self.position(page).expect("resident page must be indexed");
        self.index_remove_at(pos);
        self.free.push(slot);
        list.len -= 1;
        Some(page)
    }

    /// Admits an absent page at `list`'s MRU position (room already made):
    /// arena slot, index entry, list link. Returns the slot.
    pub(crate) fn admit(&mut self, list: &mut List, page: PageId) -> u32 {
        let node = Node {
            page,
            prev: NIL,
            next: NIL,
        };
        let slot = if let Some(slot) = self.free.pop() {
            self.nodes[slot as usize] = node;
            slot
        } else {
            if (self.nodes.len() + 1) * INDEX_SLACK > self.index.len() {
                self.grow_index();
            }
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        };
        self.index_insert(page, slot);
        self.push_front(list, slot);
        list.len += 1;
        slot
    }

    /// Drops every resident of every list; callers [`List::reset`] theirs.
    pub(crate) fn clear(&mut self) {
        self.clear_for(0);
    }

    /// [`clear`](Arena::clear), then sizes the index once for `residents`
    /// about to be re-admitted (a checkpoint load knows its count), so a
    /// restore does not double its way up from a small index. The index
    /// never shrinks.
    pub(crate) fn clear_for(&mut self, residents: usize) {
        self.nodes.clear();
        self.free.clear();
        self.nodes.reserve(residents);
        let len = index_len_for(residents);
        if len > self.index.len() {
            self.replace_index(len);
        } else {
            self.index.fill(0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{Checkpoint, SnapReader, SnapWriter};
    use crate::{Cache, LruCache, ShardedLru};
    use proptest::prelude::*;

    /// The ceiling: a power-of-two index of at least [`MIN_INDEX_LEN`]
    /// entries, with at least [`INDEX_SLACK`] of them per node.
    fn assert_quarter_full(arena: &Arena, ctx: &str) {
        let len = arena.index.len();
        assert!(
            len.is_power_of_two() && len >= MIN_INDEX_LEN,
            "{ctx}: {len}"
        );
        assert!(
            len >= INDEX_SLACK * arena.nodes.len(),
            "{ctx}: index of {len} for {} nodes",
            arena.nodes.len()
        );
    }

    fn save<C: Checkpoint>(cache: &C) -> Vec<u8> {
        let mut w = SnapWriter::new();
        cache.save(&mut w);
        w.into_bytes()
    }

    /// Drives `cache` through `ops` — accesses (admits and evictions),
    /// resizes, clears, a load of its own snapshot, and a load of that
    /// snapshot into `fresh()` — checking the ceiling after every step.
    fn drive<C: Cache + Checkpoint>(
        mut cache: C,
        fresh: impl Fn() -> C,
        arena: fn(&C) -> &Arena,
        ops: &[(u8, u64, usize)],
    ) {
        for (step, &(kind, page, n)) in ops.iter().enumerate() {
            match kind {
                0 => cache.resize(n),
                1 => cache.clear(),
                2 => {
                    let bytes = save(&cache);
                    cache.load(&mut SnapReader::new(&bytes)).unwrap();
                }
                3 => {
                    let bytes = save(&cache);
                    let mut restored = fresh();
                    restored.load(&mut SnapReader::new(&bytes)).unwrap();
                    assert_quarter_full(arena(&restored), &format!("step {step} restored"));
                }
                _ => {
                    cache.access(PageId(page));
                }
            }
            assert_quarter_full(arena(&cache), &format!("step {step}"));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Admit, evict, resize, clear and load never leave either cache's
        /// index more than a quarter full.
        #[test]
        fn the_index_stays_a_quarter_full(
            ops in prop::collection::vec((0u8..24, 0u64..600, 0usize..320), 0..400),
            cap in 0usize..64,
        ) {
            drive(LruCache::new(cap), || LruCache::new(0), LruCache::arena, &ops);
            drive(
                ShardedLru::with_shards(cap, 4),
                || ShardedLru::with_shards(0, 4),
                ShardedLru::arena,
                &ops,
            );
        }
    }

    /// A cache resized to an unbounded capacity holds an index sized by
    /// its residents: 1000 pages need 4000 entries, so 4096, whatever `k`
    /// says; four residents fit the 16-entry floor and never grow it.
    fn growth_follows_residents<C: Cache>(mut cache: C, arena: fn(&C) -> &Arena) {
        cache.resize(1 << 40);
        for v in 0..4 {
            cache.access(PageId(v));
        }
        assert_eq!(arena(&cache).index.len(), MIN_INDEX_LEN);
        for v in 4..1000 {
            cache.access(PageId(v));
        }
        assert_eq!(cache.len(), 1000);
        assert!(
            arena(&cache).index.len() <= 4096,
            "{}",
            arena(&cache).index.len()
        );
        assert_quarter_full(arena(&cache), "1000 residents");
    }

    #[test]
    fn sharded_growth_follows_residents_not_capacity() {
        growth_follows_residents(ShardedLru::with_shards(0, 4), ShardedLru::arena);
    }

    #[test]
    fn lru_growth_follows_residents_not_capacity() {
        growth_follows_residents(LruCache::new(0), LruCache::arena);
    }

    /// A load sizes the index once for the residents it restores.
    #[test]
    fn load_sizes_the_index_for_its_residents() {
        let mut full = LruCache::new(1000);
        for v in 0..1000 {
            full.access(PageId(v));
        }
        let mut restored = LruCache::new(0);
        restored.load(&mut SnapReader::new(&save(&full))).unwrap();
        assert_eq!(restored.arena().index.len(), index_len_for(1000));
        assert_eq!(restored.pages_mru_first(), full.pages_mru_first());
    }

    /// The largest eager index: [`PRESIZE_LIMIT`] residents at the ¼
    /// ceiling is 2^23 `u32` words (32 MiB), and no capacity presizes more.
    #[test]
    fn the_largest_presize_is_2_to_the_23_words() {
        assert_eq!(index_len_for(PRESIZE_LIMIT), 1 << 23);
        assert_eq!(Arena::new(usize::MAX).index.len(), 1 << 23);
    }
}
