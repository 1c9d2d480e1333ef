//! The tenant's sharded LRU: `n` per-shard LRUs sharing one arena and one
//! index.
//!
//! [`ShardedLru`] splits one logical cache into `n` (a power of two) shards
//! by page hash, each an LRU over its own share of the capacity
//! ([`shard_capacity`]). Rather than `n` separate caches, it keeps one
//! recency arena — one node array, one open-addressing page index — with a
//! list tag in every node and `n` intrusive recency lists, each with its
//! own ends, length and capacity:
//!
//! * a **hit** finds the slot in the one index, reads its node's list tag
//!   and splices that list — no routing;
//! * a **miss** routes once and evicts from its own list's tail;
//! * **resize** and **clear** touch one index and `n` list headers.
//!
//! While no shard may hold more than [`SMALL_SHARD`] (4) pages — RAND-PAR's
//! minimum box on 4 shards is 16 pages, 4 each — the cache serves from
//! per-shard move-to-front blocks in the arena's node array instead: an
//! access routes, compares its shard's four slots at once and shifts at
//! most three pages, never touching the index. A resize or load that lifts
//! a shard past the limit converts once, in O(residents), and a shrink
//! converts back. [`Cache::window`] picks the mode once per window. On
//! `thrash-randpar`'s shape an engine run costs 176–182 µs of CPU per
//! batch against 241–261 µs from the index alone (2-vCPU host).
//!
//! Every outcome and every snapshot byte is what `n` separate
//! [`LruCache`](crate::LruCache)s fed their routed subsequences produce,
//! which is what the reference [`ShardedCache<LruCache>`](crate::ShardedCache)
//! is; the `sharded_props` differential proptest pins the two
//! together under access, budget, resize, clear and checkpoint churn. With
//! one shard it is byte-identical to a plain `LruCache`.

use crate::checkpoint::{fnv1a64, Checkpoint, CodecError, SnapReader, SnapWriter, FNV_BASIS};
use crate::policy::{Access, Cache};
use crate::recency::{Arena, List, BLOCK};
use crate::types::{PageId, Time};
use crate::window::{serve_window, Pages, WindowOutcome};

/// Most shards a [`ShardedLru`] holds: each slot's list tag is one byte.
pub const MAX_SHARDS: usize = 256;

/// Largest shard capacity served from move-to-front blocks: a
/// [`ShardedLru`] none of whose shards holds more than this many pages
/// never touches its page index.
pub const SMALL_SHARD: usize = BLOCK;

/// Capacity of shard `i` when `total` pages are split across `n` shards:
/// `total / n`, with the first `total % n` shards holding one extra page.
pub fn shard_capacity(total: usize, n: usize, i: usize) -> usize {
    total / n + usize::from(i < total % n)
}

/// The shard `page` routes to among `mask + 1` (a power of two): the low
/// bits of `fnv1a64(page.to_le_bytes())`.
///
/// Up to 16 shards, only the hash's low 4 bits are kept. Xor and
/// multiplication mod 2^m depend only on their operands mod 2^m, and the
/// FNV prime `0x100000001b3` is 3 mod 16, so those bits equal the same
/// recurrence run in `u32` from the basis' low word with
/// `h = (h ^ byte) * 3`: an xor and a `lea` per byte instead of a 64-bit
/// multiply. Wider masks take the full hash.
#[inline]
pub(crate) fn route(mask: u64, page: PageId) -> usize {
    if mask == 0 {
        return 0; // 1-shard degenerate case: router is the identity
    }
    if mask < 16 {
        let mut h = FNV_BASIS as u32;
        for b in page.0.to_le_bytes() {
            h = (h ^ u32::from(b)).wrapping_mul(3);
        }
        return (u64::from(h) & mask) as usize;
    }
    (fnv1a64(&page.0.to_le_bytes()) & mask) as usize
}

/// A single-owner sharded LRU: `n` recency lists over one arena.
///
/// ```
/// use parapage_cache::{Access, Cache, PageId, ShardedLru};
/// let mut c = ShardedLru::with_shards(8, 4);
/// assert_eq!(c.shard_count(), 4);
/// assert_eq!(c.access(PageId(1)), Access::Miss);
/// assert_eq!(c.access(PageId(1)), Access::Hit);
/// ```
#[derive(Clone, Debug)]
pub struct ShardedLru {
    arena: Arena,
    lists: Box<[List]>,
    mask: u64,
}

impl ShardedLru {
    /// A sharded LRU with `capacity` total pages across `shards` shards
    /// (rounded up to a power of two).
    ///
    /// # Panics
    /// When the rounded shard count exceeds [`MAX_SHARDS`].
    pub fn with_shards(capacity: usize, shards: usize) -> ShardedLru {
        let n = shards.next_power_of_two().max(1);
        assert!(
            n <= MAX_SHARDS,
            "{shards} shards exceed the limit of {MAX_SHARDS}"
        );
        ShardedLru {
            arena: if shard_capacity(capacity, n, 0) <= SMALL_SHARD {
                Arena::in_blocks()
            } else {
                Arena::new(capacity)
            },
            lists: (0..n)
                .map(|i| List::new(shard_capacity(capacity, n, i)))
                .collect(),
            mask: (n - 1) as u64,
        }
    }

    /// The arena, for the index-sizing tests in `recency`.
    #[cfg(test)]
    pub(crate) fn arena(&self) -> &Arena {
        &self.arena
    }

    /// Number of shards (a power of two).
    pub fn shard_count(&self) -> usize {
        self.lists.len()
    }

    /// The shard index `page` routes to: the low bits of
    /// `fnv1a64(page.to_le_bytes())`.
    #[inline]
    pub fn shard_of(&self, page: PageId) -> usize {
        route(self.mask, page)
    }

    /// Hits splice the slot's own list, wherever the page routes.
    #[inline(always)]
    fn hit(&mut self, slot: u32) -> Access {
        self.arena
            .touch(&mut self.lists[self.arena.tag(slot)], slot);
        Access::Hit
    }

    /// The miss path: route once, evict from that shard's tail, admit.
    fn miss(&mut self, page: PageId) -> Access {
        self.admit(self.shard_of(page), page);
        Access::Miss
    }

    /// [`Cache::access_if_fits`] off the blocks: one index probe decides
    /// fit and serves.
    // Always inlined, with `hit`: the served path's hot loop is this call,
    // once per request, in each window instance (one per sequence form),
    // and the inliner leaves it (or the hit) as a call in each of several
    // instances.
    #[inline(always)]
    fn list_access_if_fits(
        &mut self,
        page: PageId,
        remaining: Time,
        miss_penalty: u64,
    ) -> Option<Access> {
        // A zero budget fits only a free miss: decided before probing
        // unless the miss is free.
        if remaining == 0 {
            return (miss_penalty == 0 && !self.contains(page)).then(|| self.miss(page));
        }
        match self.arena.slot(page) {
            Some(slot) => Some(self.hit(slot)),
            None if miss_penalty > remaining => None,
            None => Some(self.miss(page)),
        }
    }

    /// [`Cache::access_if_fits`] on the blocks: one masked compare of the
    /// shard's block decides fit, one shift serves.
    #[inline(always)]
    fn block_access_if_fits(
        &mut self,
        page: PageId,
        remaining: Time,
        miss_penalty: u64,
    ) -> Option<Access> {
        let (i, found) = self.block_find(page);
        let fits = match found {
            Some(_) => remaining > 0,
            None => miss_penalty <= remaining,
        };
        fits.then(|| self.block_serve(i, found, page))
    }

    /// Block mode: the page's shard and its slot in that shard's block.
    #[inline(always)]
    fn block_find(&self, page: PageId) -> (usize, Option<usize>) {
        let i = self.shard_of(page);
        (i, self.arena.block_find(&self.lists[i], i, page))
    }

    /// Block mode: serves `page` at the front of shard `i`'s block, from
    /// slot `found` on a hit.
    #[inline(always)]
    fn block_serve(&mut self, i: usize, found: Option<usize>, page: PageId) -> Access {
        self.arena.block_serve(&mut self.lists, i, found, page);
        if found.is_some() {
            Access::Hit
        } else {
            Access::Miss
        }
    }

    /// Empties every shard, keeping their capacities, in the mode those
    /// capacities call for, with the index sized for `residents` about to
    /// be re-admitted.
    fn clear_for(&mut self, residents: usize) {
        if self.lists.iter().all(|l| l.capacity <= SMALL_SHARD) {
            self.arena.clear_blocks();
        } else {
            self.arena.clear_for(residents);
        }
        self.lists.iter_mut().for_each(List::reset);
    }

    /// Admits an absent page at shard `i`'s MRU end, evicting its LRU page
    /// at capacity (and, off blocks, tags the node with `i`).
    fn admit(&mut self, i: usize, page: PageId) {
        if self.arena.blocks() {
            self.arena.block_serve(&mut self.lists, i, None, page);
        } else {
            // `with_shards` bounds the shard count at `MAX_SHARDS`.
            self.arena.admit(&mut self.lists[i], i as u8, page);
        }
    }
}

impl Cache for ShardedLru {
    fn access(&mut self, page: PageId) -> Access {
        self.access_if_fits(page, Time::MAX, 1)
            .expect("an unbounded budget fits every access")
    }

    #[inline]
    fn access_if_fits(
        &mut self,
        page: PageId,
        remaining: Time,
        miss_penalty: u64,
    ) -> Option<Access> {
        if self.arena.blocks() {
            self.block_access_if_fits(page, remaining, miss_penalty)
        } else {
            self.list_access_if_fits(page, remaining, miss_penalty)
        }
    }

    /// Picks the mode once per window: each mode's loop is its own
    /// instance, so a window served from the lists runs exactly the loop
    /// it ran before the blocks existed.
    fn window<S: Pages + ?Sized>(
        &mut self,
        seq: &S,
        start: usize,
        budget: Time,
        miss_penalty: u64,
    ) -> WindowOutcome {
        if self.arena.blocks() {
            serve_window(seq, start, budget, miss_penalty, |page, remaining| {
                self.block_access_if_fits(page, remaining, miss_penalty)
            })
        } else {
            serve_window(seq, start, budget, miss_penalty, |page, remaining| {
                self.list_access_if_fits(page, remaining, miss_penalty)
            })
        }
    }

    fn contains(&self, page: PageId) -> bool {
        if self.arena.blocks() {
            return self.block_find(page).1.is_some();
        }
        self.arena.slot(page).is_some()
    }

    fn len(&self) -> usize {
        self.lists.iter().map(|l| l.len).sum()
    }

    fn capacity(&self) -> usize {
        self.lists.iter().map(|l| l.capacity).sum()
    }

    /// Within one mode a shrink drops each shard's LRU pages. A resize
    /// across [`SMALL_SHARD`] truncates each shard to its new capacity and
    /// converts once, in O(residents).
    fn resize(&mut self, capacity: usize) {
        let n = self.lists.len();
        let small = shard_capacity(capacity, n, 0) <= SMALL_SHARD;
        if !small && !self.arena.blocks() {
            for (i, list) in self.lists.iter_mut().enumerate() {
                list.capacity = shard_capacity(capacity, n, i);
                while list.len > list.capacity {
                    self.arena.pop_lru(list);
                }
            }
            return;
        }
        for (i, list) in self.lists.iter_mut().enumerate() {
            list.capacity = shard_capacity(capacity, n, i);
        }
        match (self.arena.blocks(), small) {
            (true, true) => {
                for list in self.lists.iter_mut() {
                    list.len = list.len.min(list.capacity);
                }
            }
            (true, false) => self.arena.leave_blocks(&mut self.lists),
            _ => self.arena.enter_blocks(&mut self.lists),
        }
    }

    fn clear(&mut self) {
        self.clear_for(0);
    }
}

impl Checkpoint for ShardedLru {
    /// Each shard's LRU payload — capacity, length, pages MRU first — in
    /// shard order with **no header**: the bytes of `n` [`LruCache`]
    /// snapshots concatenated, so one shard's snapshot is exactly an
    /// `LruCache`'s.
    ///
    /// [`LruCache`]: crate::LruCache
    fn save(&self, w: &mut SnapWriter) {
        w.reserve(8 * (2 * self.lists.len() + self.len()));
        for (i, list) in self.lists.iter().enumerate() {
            w.put_usize(list.capacity);
            w.put_len(list.len);
            if self.arena.blocks() {
                self.arena.block_pages(list, i).for_each(|p| w.put_page(p));
            } else {
                self.arena.walk(list).for_each(|p| w.put_page(p));
            }
        }
    }

    /// Reads and checks every shard payload before touching the cache, so
    /// a short blob, a count past its capacity or a misplaced page leaves
    /// the cache as it was. A page stored under a shard it does not route
    /// to is invalid: one index cannot hold the state `n` separate caches
    /// would.
    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), CodecError> {
        let mut shards = Vec::with_capacity(self.lists.len());
        let mut pages = Vec::new();
        for i in 0..self.lists.len() {
            let capacity = r.get_usize()?;
            let n = r.get_len()?;
            if n > capacity {
                return Err(CodecError::Invalid("LRU resident count exceeds capacity"));
            }
            for _ in 0..n {
                let page = r.get_page()?;
                if self.shard_of(page) != i {
                    return Err(CodecError::Invalid("page stored outside its shard"));
                }
                pages.push(page);
            }
            shards.push((capacity, n));
        }
        for (list, &(capacity, _)) in self.lists.iter_mut().zip(&shards) {
            list.capacity = capacity;
        }
        self.clear_for(pages.len());
        let mut rest = &pages[..];
        for (i, (_, n)) in shards.into_iter().enumerate() {
            let (mine, tail) = rest.split_at(n);
            rest = tail;
            // Re-admit LRU → MRU: rebuilds the exact recency order.
            for &page in mine.iter().rev() {
                if self.contains(page) {
                    return Err(CodecError::Invalid("duplicate page in LRU checkpoint"));
                }
                self.admit(i, page);
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
    fn foreign_pages_in_a_shard_payload_are_invalid() {
        let mut c = ShardedLru::with_shards(8, 2);
        let stray = (0..64).map(p).find(|&v| c.shard_of(v) == 1).unwrap();
        let mut w = SnapWriter::new();
        w.put_usize(4);
        w.put_len(1);
        w.put_page(stray);
        w.put_usize(4);
        w.put_len(0);
        let bytes = w.into_bytes();
        c.access(p(99));
        assert_eq!(
            c.load(&mut SnapReader::new(&bytes)),
            Err(CodecError::Invalid("page stored outside its shard"))
        );
        assert!(
            c.contains(p(99)),
            "a rejected blob leaves the cache as it was"
        );
    }

    #[test]
    #[should_panic(expected = "exceed the limit")]
    fn too_many_shards_is_refused_before_allocating() {
        ShardedLru::with_shards(0, MAX_SHARDS + 1);
    }
}
