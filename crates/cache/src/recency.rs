//! The packed recency arena behind [`LruCache`](crate::LruCache) and
//! [`ShardedLru`](crate::ShardedLru): one node array, one open-addressing
//! page index over it, and intrusive recency lists threaded through the
//! nodes.
//!
//! * **Packed nodes.** Every resident page is one 24-byte `Node` in a
//!   contiguous `Vec` (`page: u64, prev: u32, next: u32, pos: u32, tag:
//!   u8`); recency order is an intrusive list threaded through `u32` slot
//!   indices, so a hit's splice touches at most three nodes and never
//!   allocates. `tag` names the node's list (a [`ShardedLru`]'s shard) and
//!   `pos` its index entry, so neither a hit nor an eviction looks either
//!   up elsewhere. Evicted slots are recycled through a free list.
//! * **Open-addressing index.** page → slot lookups go through a
//!   power-of-two linear-probing table of `slot + 1` entries (0 = empty)
//!   with Fibonacci hashing and backward-shift deletion — no `HashMap`, no
//!   SipHash, no per-entry boxes, no tombstone buildup.
//! * **Half the load in the same bytes.** Under RAND-PAR and UCP most
//!   served requests are faults. A fault at capacity walks the failed
//!   lookup's probe run, then the victim's backward-shift delete from its
//!   stored `pos`, then the new page's insert into the victim's node,
//!   reused in place. Those runs are kept short by load: while the arena
//!   has at most 65 535 nodes (`NARROW_NODES`, so `slot + 1` fits) the
//!   entries are `u16` and the table is at most ⅛ full; past that they
//!   are `u32` at most ¼ full.
//!   Both are 16 index bytes per node, with a 64-byte floor (a cache of
//!   four or fewer residents never grows) and 32 MiB at
//!   [`PRESIZE_LIMIT`]. Knuth's estimate for a failed linear-probing
//!   lookup at load α is ½(1 + 1/(1 − α)²) probes: 1.4 at α = ¼, 1.15 at
//!   α = ⅛. The paper's box heights are powers of two, so a box's cache
//!   fills its index exactly to the ceiling. A capacity-16 LRU thrashing
//!   64 random pages cost 23–34 ns per access with ¼-full `u32` entries
//!   and a re-probed victim, and costs 16–22 ns this way (4 shards: 31–44
//!   and 21–30 ns; 2-vCPU host, six runs each). The width follows the
//!   node count alone. The index grows with
//!   residents only (on admit and on load), never with a capacity, so a
//!   tenant with an unbounded `k` and a handful of residents holds a
//!   handful of index words.
//! * **Lists apart from the arena.** A [`List`] holds one recency list's
//!   ends, length and capacity; the arena methods take the list they
//!   splice. An LRU owns one list, a sharded LRU one per shard, and both
//!   share every line of the arena and index code.
//! * **Move-to-front blocks.** While no list may hold more than [`BLOCK`]
//!   (4) residents, a sharded LRU keeps the arena in *block mode*: list
//!   `i`'s residents are nodes `i * BLOCK..`, MRU first, found by one
//!   masked compare of the block's four pages and moved to the front by a
//!   select per slot. The index, free list, links and list ends are not
//!   touched until a resize or load lifts a list past the limit, which
//!   converts once, in O(residents), and back when it shrinks. An arena
//!   built in block mode allocates nothing until its first admit. On
//!   `thrash-randpar`'s shape, where four in five accesses take the
//!   blocks, an engine run fell from 241–261 to 176–182 µs of CPU per
//!   batch (2-vCPU host).
//!
//! [`ShardedLru`]: crate::ShardedLru

use crate::lru::PRESIZE_LIMIT;
use crate::types::PageId;

pub(crate) const NIL: u32 = u32::MAX;

/// Fibonacci hashing constant (2^64 / φ): one multiply spreads consecutive
/// page ids across the high bits, which linear probing then consumes.
pub(crate) const HASH_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

#[derive(Clone, Copy, Debug)]
struct Node {
    page: PageId,
    prev: u32,
    next: u32,
    /// Index position of this node's entry.
    pos: u32,
    /// The list this node is on.
    tag: u8,
}

impl Node {
    /// A block slot no resident has filled yet.
    const VACANT: Node = Node {
        page: PageId(0),
        prev: NIL,
        next: NIL,
        pos: NIL,
        tag: 0,
    };
}

/// Most residents a list holds in block mode: while no list's capacity is
/// above it, list `i`'s residents are nodes `i * BLOCK..`, MRU first.
pub(crate) const BLOCK: usize = 4;

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

/// Most nodes a `u16` index addresses: entries are `slot + 1`.
const NARROW_NODES: usize = u16::MAX as usize;

/// Index entries per node in a `u16` index (at most ⅛ full).
const NARROW_SLACK: usize = 8;

/// Index entries per node in a `u32` index (at most ¼ full).
const WIDE_SLACK: usize = 4;

/// Smallest index: 32 `u16` entries, 64 bytes, four residents at ⅛.
const MIN_NARROW_LEN: usize = 32;

/// One index entry width: `slot + 1`, 0 = empty.
trait Entry: Copy {
    fn get(self) -> u32;
    fn of(v: u32) -> Self;
}

impl Entry for u16 {
    #[inline(always)]
    fn get(self) -> u32 {
        u32::from(self)
    }
    #[inline(always)]
    fn of(v: u32) -> Self {
        v as u16
    }
}

impl Entry for u32 {
    #[inline(always)]
    fn get(self) -> u32 {
        self
    }
    #[inline(always)]
    fn of(v: u32) -> Self {
        v
    }
}

/// The open-addressing page index, `u16` or `u32` wide. Its length is
/// always a power of two.
#[derive(Clone, Debug)]
enum Index {
    Narrow(Vec<u16>),
    Wide(Vec<u32>),
}

/// Runs `$body` with `$t` bound to the index's entry slice, whichever its
/// width.
macro_rules! with_index {
    ($index:expr, $t:ident => $body:expr) => {
        match $index {
            Index::Narrow($t) => $body,
            Index::Wide($t) => $body,
        }
    };
}

impl Index {
    /// The index that holds `residents` under its width's load ceiling,
    /// floored at 64 bytes: 16 bytes per resident either way.
    fn for_residents(residents: usize) -> Index {
        if residents <= NARROW_NODES {
            let len = (residents * NARROW_SLACK)
                .next_power_of_two()
                .max(MIN_NARROW_LEN);
            Index::Narrow(vec![0; len])
        } else {
            Index::Wide(vec![0; (residents * WIDE_SLACK).next_power_of_two()])
        }
    }

    fn len(&self) -> usize {
        with_index!(self, t => t.len())
    }

    /// Whether `nodes` fit under this index's width and load ceiling. An
    /// index not built yet holds nothing.
    fn holds(&self, nodes: usize) -> bool {
        match self {
            Index::Narrow(t) => {
                !t.is_empty() && nodes <= NARROW_NODES && nodes * NARROW_SLACK <= t.len()
            }
            Index::Wide(t) => nodes * WIDE_SLACK <= t.len(),
        }
    }
}

#[inline(always)]
fn home(page: PageId, shift: u32) -> usize {
    (page.0.wrapping_mul(HASH_MUL) >> shift) as usize
}

/// Node slot of a resident `page`, `None` when absent.
#[inline(always)]
fn find<E: Entry>(t: &[E], nodes: &[Node], shift: u32, page: PageId) -> Option<u32> {
    let mask = t.len() - 1;
    let mut pos = home(page, shift);
    loop {
        let entry = t[pos].get();
        if entry == 0 {
            return None;
        }
        if nodes[(entry - 1) as usize].page == page {
            return Some(entry - 1);
        }
        pos = (pos + 1) & mask;
    }
}

/// Enters `slot`, holding a page *known absent*, at its probe end.
#[inline]
fn insert<E: Entry>(t: &mut [E], nodes: &mut [Node], shift: u32, slot: u32) {
    let mask = t.len() - 1;
    let mut pos = home(nodes[slot as usize].page, shift);
    while t[pos].get() != 0 {
        pos = (pos + 1) & mask;
    }
    t[pos] = E::of(slot + 1);
    nodes[slot as usize].pos = pos as u32;
}

/// Removes the entry at `pos` with backward-shift deletion: later
/// same-run entries slide back, each node's `pos` following its entry, so
/// probe sequences stay unbroken without tombstones.
fn remove_at<E: Entry>(t: &mut [E], nodes: &mut [Node], shift: u32, mut pos: usize) {
    let mask = t.len() - 1;
    loop {
        let mut probe = pos;
        let slot = loop {
            probe = (probe + 1) & mask;
            let entry = t[probe].get();
            if entry == 0 {
                t[pos] = E::of(0);
                return;
            }
            let home = home(nodes[(entry - 1) as usize].page, shift);
            // The entry at `probe` may fill `pos` iff its home position
            // does not lie in the cyclic range (pos, probe].
            let in_range = if pos <= probe {
                pos < home && home <= probe
            } else {
                home > pos || home <= probe
            };
            if !in_range {
                break entry - 1;
            }
        };
        t[pos] = t[probe];
        nodes[slot as usize].pos = pos as u32;
        pos = probe;
    }
}

/// Node array, free list and page index shared by every list over it.
#[derive(Clone, Debug)]
pub(crate) struct Arena {
    nodes: Vec<Node>,
    /// Recycled node slots.
    free: Vec<u32>,
    index: Index,
    /// Bits to right-shift a Fibonacci-hashed page id by to get an index
    /// position (`64 - log2(index.len())`).
    shift: u32,
    /// Block mode: the lists' residents sit in fixed blocks of [`BLOCK`]
    /// nodes, and the index, free list, links and list ends are unused.
    blocks: bool,
}

impl Arena {
    /// An empty arena whose index is pre-sized for `capacity` residents, up
    /// to [`PRESIZE_LIMIT`]; past that it doubles as residents arrive.
    pub(crate) fn new(capacity: usize) -> Self {
        let residents = capacity.min(PRESIZE_LIMIT);
        let index = Index::for_residents(residents);
        Arena {
            nodes: Vec::with_capacity(residents),
            free: Vec::new(),
            shift: 64 - index.len().trailing_zeros(),
            index,
            blocks: false,
        }
    }

    /// An empty arena in block mode that has allocated nothing: its blocks
    /// are allocated by the first admit, its index when it leaves block
    /// mode.
    pub(crate) fn in_blocks() -> Self {
        Arena {
            nodes: Vec::new(),
            free: Vec::new(),
            index: Index::Narrow(Vec::new()),
            shift: 0,
            blocks: true,
        }
    }

    /// Whether the arena is in block mode.
    #[inline(always)]
    pub(crate) fn blocks(&self) -> bool {
        self.blocks
    }

    /// Node slot of a resident `page`, `None` when absent.
    #[inline(always)]
    pub(crate) fn slot(&self, page: PageId) -> Option<u32> {
        with_index!(&self.index, t => find(t, &self.nodes, self.shift, page))
    }

    /// The tag of the list `slot` is on.
    #[inline(always)]
    pub(crate) fn tag(&self, slot: u32) -> usize {
        usize::from(self.nodes[slot as usize].tag)
    }

    fn index_insert(&mut self, slot: u32) {
        with_index!(&mut self.index, t => insert(t, &mut self.nodes, self.shift, slot));
    }

    fn index_remove(&mut self, slot: u32) {
        let pos = self.nodes[slot as usize].pos as usize;
        with_index!(&mut self.index, t => remove_at(t, &mut self.nodes, self.shift, pos));
    }

    /// Installs `index` (empty) with its hash shift and returns the old one.
    fn replace_index(&mut self, index: Index) -> Index {
        self.shift = 64 - index.len().trailing_zeros();
        std::mem::replace(&mut self.index, index)
    }

    /// Grows the index when the next new node would cross its width's load
    /// ceiling or the `u16` node limit (reached as residents arrive in a
    /// cache built small — the served tenant's caches start at capacity 0
    /// — or past [`PRESIZE_LIMIT`]), re-entering every live node. Nodes
    /// are never fewer than residents, so bounding the node count bounds
    /// the index load.
    #[cold]
    fn grow_index(&mut self) {
        let old = self.replace_index(Index::for_residents(self.nodes.len() + 1));
        let live = with_index!(old, t => t.into_iter().map(Entry::get).filter(|&e| e != 0).collect::<Vec<_>>());
        for entry in live {
            self.index_insert(entry - 1);
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
        self.index_remove(slot);
        self.free.push(slot);
        list.len -= 1;
        Some(page)
    }

    /// Admits an absent `page` at `list`'s MRU position, tagging its node
    /// with `tag`: at capacity the LRU node is evicted and reused in place,
    /// otherwise a free or new node is linked in. A list of capacity 0
    /// admits nothing.
    pub(crate) fn admit(&mut self, list: &mut List, tag: u8, page: PageId) {
        if list.len >= list.capacity {
            if list.tail == NIL {
                return;
            }
            let slot = list.tail;
            self.index_remove(slot);
            self.nodes[slot as usize].page = page;
            self.index_insert(slot);
            self.touch(list, slot);
            return;
        }
        let node = Node {
            page,
            prev: NIL,
            next: NIL,
            pos: 0,
            tag,
        };
        let slot = if let Some(slot) = self.free.pop() {
            self.nodes[slot as usize] = node;
            slot
        } else {
            if !self.index.holds(self.nodes.len() + 1) {
                self.grow_index();
            }
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        };
        self.index_insert(slot);
        self.push_front(list, slot);
        list.len += 1;
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
        self.blocks = false;
        self.empty_index_for(residents);
    }

    /// Empties the index, or installs one sized for `residents` when it
    /// cannot hold them (or was never built).
    fn empty_index_for(&mut self, residents: usize) {
        if self.index.holds(residents) {
            with_index!(&mut self.index, t => t.fill(Entry::of(0)));
        } else {
            self.replace_index(Index::for_residents(residents));
        }
    }

    /// Drops every resident of every list and enters block mode; callers
    /// [`List::reset`] theirs. Allocates nothing and keeps the index.
    pub(crate) fn clear_blocks(&mut self) {
        self.nodes.clear();
        self.free.clear();
        self.blocks = true;
    }

    /// Enters block mode: each list keeps its first `capacity` residents,
    /// laid out MRU first in its block, and the rest are dropped. Each
    /// resident is marked with its block slot, then swapped into it: every
    /// swap settles one resident, so the layout costs O(nodes) and needs
    /// no scratch.
    pub(crate) fn enter_blocks(&mut self, lists: &mut [List]) {
        for node in &mut self.nodes {
            node.pos = NIL;
        }
        for (i, list) in lists.iter_mut().enumerate() {
            list.len = list.len.min(list.capacity);
            let mut cur = list.head;
            for j in 0..list.len {
                let node = &mut self.nodes[cur as usize];
                node.pos = (i * BLOCK + j) as u32;
                cur = node.next;
            }
            *list = List {
                len: list.len,
                ..List::new(list.capacity)
            };
        }
        let slots = lists.len() * BLOCK;
        if self.nodes.len() < slots && lists.iter().any(|l| l.len > 0) {
            self.nodes.resize(slots, Node::VACANT);
        }
        for slot in 0..self.nodes.len() {
            loop {
                let to = self.nodes[slot].pos;
                if to == NIL || to as usize == slot {
                    break;
                }
                self.nodes.swap(slot, to as usize);
            }
        }
        self.nodes.truncate(slots);
        self.free.clear();
        self.blocks = true;
    }

    /// Leaves block mode: moves the residents to the front of the node
    /// array, links each list MRU first and indexes every resident.
    pub(crate) fn leave_blocks(&mut self, lists: &mut [List]) {
        let mut live = 0usize;
        for (i, list) in lists.iter_mut().enumerate() {
            // `live` never passes `i * BLOCK + j`: a forward copy.
            for j in 0..list.len {
                let slot = live + j;
                self.nodes[slot] = Node {
                    page: self.nodes[i * BLOCK + j].page,
                    prev: if j == 0 { NIL } else { (slot - 1) as u32 },
                    next: if j + 1 == list.len {
                        NIL
                    } else {
                        (slot + 1) as u32
                    },
                    pos: 0,
                    tag: i as u8,
                };
            }
            if list.len > 0 {
                list.head = live as u32;
                list.tail = (live + list.len - 1) as u32;
            }
            live += list.len;
        }
        self.nodes.truncate(live);
        self.blocks = false;
        self.empty_index_for(live);
        for slot in 0..live as u32 {
            self.index_insert(slot);
        }
    }

    /// Block slot of `page` on list `i`, `None` when absent: all
    /// [`BLOCK`] slots compared at once, masked to the list's residents.
    /// Blocks not allocated yet hold nothing.
    #[inline(always)]
    pub(crate) fn block_find(&self, list: &List, i: usize, page: PageId) -> Option<usize> {
        let block = self.nodes.get(i * BLOCK..(i + 1) * BLOCK)?;
        let mut hits = 0u32;
        for (j, node) in block.iter().enumerate() {
            hits |= u32::from(node.page == page) << j;
        }
        let hits = hits & ((1 << list.len) - 1);
        (hits != 0).then(|| hits.trailing_zeros() as usize)
    }

    /// Serves `page` on list `i` at the front of its block: a hit in slot
    /// `j` (`found`) shifts slots `..j` back one, a miss shifts the block
    /// back one and drops its last resident at capacity. The shift is a
    /// select per slot, the same work wherever the page was. A list of
    /// capacity 0 admits nothing; the first admit allocates the blocks.
    #[inline(always)]
    pub(crate) fn block_serve(
        &mut self,
        lists: &mut [List],
        i: usize,
        found: Option<usize>,
        page: PageId,
    ) {
        let slots = lists.len() * BLOCK;
        let list = &mut lists[i];
        if list.capacity == 0 {
            return;
        }
        if self.nodes.len() < slots {
            self.nodes.resize(slots, Node::VACANT);
        }
        let j = found.unwrap_or(list.len.min(list.capacity - 1));
        list.len = list.len.max(j + 1);
        let block = &mut self.nodes[i * BLOCK..(i + 1) * BLOCK];
        for m in (1..BLOCK).rev() {
            let (moved, kept) = (block[m - 1].page, block[m].page);
            block[m].page = if m <= j { moved } else { kept };
        }
        block[0].page = page;
    }

    /// List `i`'s residents in block mode, most-recently-used first.
    pub(crate) fn block_pages<'s>(
        &'s self,
        list: &List,
        i: usize,
    ) -> impl Iterator<Item = PageId> + 's {
        let block = i * BLOCK..i * BLOCK + list.len;
        // An empty list's block may not be allocated yet.
        let nodes = self.nodes.get(block).unwrap_or_default();
        nodes.iter().map(|n| n.page)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{Checkpoint, SnapReader, SnapWriter};
    use crate::{Cache, LruCache, ShardedLru};
    use proptest::prelude::*;

    fn index_bytes(arena: &Arena) -> usize {
        with_index!(&arena.index, t => std::mem::size_of_val(&t[..]))
    }

    /// The byte budget: a power-of-two index of at least 64 bytes, `u16`
    /// entries at most ⅛ full while the nodes fit them, `u32` entries at
    /// most ¼ full otherwise, and every node's `pos` naming its entry. An
    /// arena in block mode indexes nothing and recycles no node.
    fn assert_budget(arena: &Arena, ctx: &str) {
        if arena.blocks {
            assert!(arena.free.is_empty(), "{ctx}: free nodes in block mode");
            return;
        }
        let (len, nodes) = (arena.index.len(), arena.nodes.len());
        assert!(
            len.is_power_of_two() && index_bytes(arena) >= 64,
            "{ctx}: {len}"
        );
        assert!(
            arena.index.holds(nodes),
            "{ctx}: index of {len} for {nodes} nodes"
        );
        let free: std::collections::HashSet<u32> = arena.free.iter().copied().collect();
        for slot in (0..nodes as u32).filter(|s| !free.contains(s)) {
            let pos = arena.nodes[slot as usize].pos as usize;
            let entry = with_index!(&arena.index, t => t[pos].get());
            assert_eq!(entry, slot + 1, "{ctx}: slot {slot} stored at {pos}");
        }
    }

    fn save<C: Checkpoint>(cache: &C) -> Vec<u8> {
        let mut w = SnapWriter::new();
        cache.save(&mut w);
        w.into_bytes()
    }

    /// Loads a snapshot of `n` residents (pages `first..first + n`, taken
    /// from a `fresh()` cache resized to `capacity`) over `cache`, whatever
    /// it holds, and checks it restored that snapshot exactly.
    fn load_foreign<C: Cache + Checkpoint>(
        cache: &mut C,
        fresh: impl Fn() -> C,
        first: u64,
        n: usize,
        capacity: usize,
    ) {
        let mut other = fresh();
        other.resize(capacity);
        for v in 0..n as u64 {
            other.access(PageId(first + v));
        }
        let bytes = save(&other);
        cache.load(&mut SnapReader::new(&bytes)).unwrap();
        assert_eq!(
            save(cache),
            bytes,
            "{n} residents restored over a live cache"
        );
    }

    /// Drives `cache` through `ops` — accesses (admits and evictions),
    /// resizes, clears, a load of its own snapshot, a load of that
    /// snapshot into `fresh()`, and a load of another cache's snapshot
    /// over it — checking the budget after every step.
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
                    assert_budget(arena(&restored), &format!("step {step} restored"));
                }
                4 => load_foreign(&mut cache, &fresh, page, n, n),
                _ => {
                    cache.access(PageId(page));
                }
            }
            assert_budget(arena(&cache), &format!("step {step}"));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Admit, evict, resize, clear and load never leave either cache's
        /// index past its width's load ceiling or a node's stored position
        /// stale.
        #[test]
        fn the_index_keeps_its_byte_budget(
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

    /// 16 index bytes per resident at either width, floored at 64 — the
    /// bytes a `u32` index at ¼ load held for every resident count — and
    /// `u16` entries exactly while `slot + 1` fits them.
    #[test]
    fn both_widths_cost_the_bytes_of_a_quarter_full_u32_index() {
        for residents in (0..70_000).chain([PRESIZE_LIMIT]) {
            let index = Index::for_residents(residents);
            let bytes = with_index!(&index, t => std::mem::size_of_val(&t[..]));
            let quarter_full_u32 = 4 * (residents * 4).next_power_of_two().max(16);
            assert_eq!(bytes, quarter_full_u32, "{residents} residents");
            assert_eq!(
                matches!(index, Index::Narrow(_)),
                residents <= NARROW_NODES,
                "{residents} residents"
            );
            assert!(index.holds(residents));
        }
    }

    /// A cache resized to an unbounded capacity holds an index sized by
    /// its residents: 1000 pages need 16 KB, whatever `k` says; four
    /// residents fit the 64-byte floor and never grow it.
    fn growth_follows_residents<C: Cache>(mut cache: C, arena: fn(&C) -> &Arena) {
        cache.resize(1 << 40);
        for v in 0..4 {
            cache.access(PageId(v));
        }
        assert_eq!(index_bytes(arena(&cache)), 64);
        for v in 4..1000 {
            cache.access(PageId(v));
        }
        assert_eq!(cache.len(), 1000);
        assert!(
            index_bytes(arena(&cache)) <= 16 * 1024,
            "{}",
            index_bytes(arena(&cache))
        );
        assert_budget(arena(&cache), "1000 residents");
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
        assert_eq!(
            restored.arena().index.len(),
            Index::for_residents(1000).len()
        );
        assert_eq!(restored.pages_mru_first(), full.pages_mru_first());
    }

    /// A load over a live cache whose index is too small for the snapshot
    /// installs a fresh index of the snapshot's size: the old entries name
    /// nodes the load has already dropped. The snapshots' capacity of at
    /// least 100 keeps a sharded cache off its blocks.
    fn load_over_live<C: Cache + Checkpoint>(fresh: impl Fn() -> C, arena: fn(&C) -> &Arena) {
        let mut cache = fresh();
        cache.resize(100);
        for v in 0..4 {
            cache.access(PageId(v));
        }
        assert_eq!(index_bytes(arena(&cache)), 64, "premise: the floor index");
        for n in [5, 1000] {
            load_foreign(&mut cache, &fresh, 10 * n as u64, n, n.max(100));
            assert_eq!(
                arena(&cache).index.len(),
                Index::for_residents(cache.len()).len()
            );
            assert_budget(arena(&cache), &format!("{n} residents loaded"));
        }
    }

    #[test]
    fn lru_load_over_live_residents_resizes_its_index() {
        load_over_live(|| LruCache::new(0), LruCache::arena);
    }

    #[test]
    fn sharded_load_over_live_residents_resizes_its_index() {
        load_over_live(|| ShardedLru::with_shards(0, 4), ShardedLru::arena);
    }

    /// The largest eager index: [`PRESIZE_LIMIT`] residents in `u32`
    /// entries at the ¼ ceiling is 32 MiB, and no capacity presizes more.
    #[test]
    fn the_largest_presize_is_32_mib() {
        let arena = Arena::new(usize::MAX);
        assert!(matches!(arena.index, Index::Wide(_)));
        assert_eq!(index_bytes(&arena), 32 << 20);
        assert_eq!(index_bytes(&Arena::new(PRESIZE_LIMIT)), 32 << 20);
    }
}
