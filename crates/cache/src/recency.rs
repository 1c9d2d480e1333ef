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

/// Index length (a power of two) that keeps `residents` under a ¾ load
/// factor, floored at 8 so the zero-capacity streaming cache costs 32 bytes.
fn index_len_for(residents: usize) -> usize {
    (residents + residents / 2 + 1).next_power_of_two().max(8)
}

impl Arena {
    /// An empty arena whose index is pre-sized for `capacity` residents, up
    /// to [`PRESIZE_LIMIT`]; past that it doubles as residents arrive.
    pub(crate) fn new(capacity: usize) -> Self {
        let index_len = index_len_for(capacity.min(PRESIZE_LIMIT));
        Arena {
            nodes: Vec::with_capacity(capacity.min(PRESIZE_LIMIT)),
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

    /// Doubles the index and re-inserts every entry, when the next new
    /// node would cross the ¾ load ceiling (only ever reached past
    /// [`PRESIZE_LIMIT`] residents, or when a capacity grew after
    /// construction). Nodes are never fewer than residents, so bounding
    /// the node count bounds the index load.
    #[cold]
    fn grow_index(&mut self) {
        let new_len = self.index.len() * 2;
        let old = std::mem::replace(&mut self.index, vec![0; new_len]);
        self.shift = 64 - new_len.trailing_zeros();
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
            if (self.nodes.len() + 1) * 4 >= self.index.len() * 3 {
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
        self.nodes.clear();
        self.free.clear();
        self.index.fill(0);
    }
}
