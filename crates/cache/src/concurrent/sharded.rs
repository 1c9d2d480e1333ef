//! Sharded concurrent cache: fine-grained locking over sequential shards.
//!
//! [`ShardedCache`] splits one logical cache into `n` (a power of two)
//! independent shards, each a plain sequential policy behind its own
//! `Mutex`. A page is routed to its shard by FNV-1a hash, so two threads
//! touching different shards never contend. Correctness reduces to the
//! sequential policy: each shard is the already-verified policy,
//! serialized by its lock.
//!
//! Nothing served takes these locks: tenant batches, the engine and the
//! supervisor run on the single-owner [`ShardedLru`](crate::ShardedLru).
//! `ShardedCache<LruCache>` is what the conform schedule explorer, the
//! concurrent stress cells and `concurrent/sharded-access` drive, and the
//! reference `ShardedLru` is tested against (same router, same capacity
//! split, same snapshot bytes).
//!
//! Every shard is reached by one of two paths that run the same per-shard
//! code and differ only in how they hold the shard:
//!
//! * **Locked** (`access_shared`, `access_if_fits_shared`,
//!   `contains_shared`, …): a yield point, then the shard's `Mutex`, with
//!   the whole per-shard body under the lock. This is the path concurrent
//!   callers and the conform schedule explorer drive; since no yield point
//!   falls inside a critical section, interleaving whole calls at their
//!   yield points covers every schedule the locks admit.
//! * **Single-owner** (the [`Cache`] impl's `&mut self` methods):
//!   `Mutex::get_mut`, with no lock, no yield point and no atomic
//!   read-modify-write, for the sequential twins and setup of the tests
//!   that drive the locked path.
//!
//! Each shard's resident count is mirrored in an `AtomicUsize` beside its
//! lock. Whoever holds the shard rewrites the mirror after every mutation,
//! so `len()` is `n` relaxed loads instead of `n` lock round trips.
//!
//! Two properties anchor the test story:
//!
//! * **1-shard degeneracy.** With one shard the router is the identity and
//!   the checkpoint encoding below adds no framing, so a 1-shard cache is
//!   *byte-identical* — same behaviour, same snapshot bytes — to the
//!   sequential cache it wraps. The `sharded_props` proptest pins this for
//!   every policy.
//! * **Per-shard ledgers.** When recording is on, every access is logged
//!   (page, outcome) under the shard lock, in the exact order the lock
//!   serialized them. Replaying a shard's ledger through a fresh sequential
//!   cache of the same capacity must reproduce the outcomes exactly — the
//!   linearization evidence the conform oracle checks concurrent histories
//!   against.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::checkpoint::{Checkpoint, CodecError, SnapReader, SnapWriter};
use crate::lru::LruCache;
use crate::policy::{Access, Cache};
use crate::sharded_lru::{route, shard_capacity};
use crate::types::{PageId, Time};

use super::yieldpoint::yield_point;

/// A concurrent cache built from `n` independently locked sequential shards.
pub struct ShardedCache<C> {
    slots: Box<[Slot<C>]>,
    mask: u64,
    record_ledgers: AtomicBool,
}

/// One shard behind its lock, with its resident count mirrored beside it.
struct Slot<C> {
    shard: Mutex<Shard<C>>,
    /// `shard.cache.len()` as of the last operation on the shard. Only the
    /// holder of the shard writes it, after every mutation, so `len()`
    /// reads it without taking any lock. `Relaxed` suffices: the count
    /// publishes no other data.
    resident: AtomicUsize,
}

struct Shard<C> {
    cache: C,
    ledger: Vec<(PageId, Access)>,
}

impl<C: Cache> Shard<C> {
    /// One access, logged when `record` is on — the body both the locked
    /// and the single-owner path run once they hold the shard.
    #[inline]
    fn access(&mut self, page: PageId, record: bool) -> Access {
        let outcome = self.cache.access(page);
        if record {
            self.ledger.push((page, outcome));
        }
        outcome
    }

    /// One fused fit-check-and-access; the ledger records the access only
    /// when it happens, so replay evidence stays exact.
    #[inline]
    fn access_if_fits(
        &mut self,
        page: PageId,
        remaining: Time,
        miss_penalty: u64,
        record: bool,
    ) -> Option<Access> {
        let outcome = self.cache.access_if_fits(page, remaining, miss_penalty)?;
        if record {
            self.ledger.push((page, outcome));
        }
        Some(outcome)
    }
}

impl<C: std::fmt::Debug> std::fmt::Debug for ShardedCache<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedCache")
            .field("shards", &self.slots.len())
            .finish_non_exhaustive()
    }
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
            slots: (0..n)
                .map(|i| {
                    let cache = make(shard_capacity(capacity, n, i));
                    Slot {
                        resident: AtomicUsize::new(cache.len()),
                        shard: Mutex::new(Shard {
                            cache,
                            ledger: Vec::new(),
                        }),
                    }
                })
                .collect(),
            mask: (n - 1) as u64,
            record_ledgers: AtomicBool::new(false),
        }
    }

    /// Number of shards (a power of two).
    pub fn shard_count(&self) -> usize {
        self.slots.len()
    }

    /// The shard index `page` routes to: the low bits of
    /// `fnv1a64(page.to_le_bytes())`, as [`ShardedLru`](crate::ShardedLru)
    /// routes it.
    #[inline]
    pub fn shard_of(&self, page: PageId) -> usize {
        route(self.mask, page)
    }

    fn shard(&self, i: usize) -> std::sync::MutexGuard<'_, Shard<C>> {
        self.slots[i]
            .shard
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    /// The concurrent path to shard `i`: a yield point, the shard's lock,
    /// `op` (told whether ledgers record), then a refresh of the resident
    /// mirror before the lock drops.
    #[inline]
    fn locked<R>(&self, i: usize, op: impl FnOnce(&mut Shard<C>, bool) -> R) -> R {
        yield_point("shard-lock");
        let mut shard = self.shard(i);
        let out = op(&mut shard, self.record_ledgers.load(Ordering::SeqCst));
        self.slots[i]
            .resident
            .store(shard.cache.len(), Ordering::Relaxed);
        out
    }

    /// The single-owner path to shard `i`: `&mut self` already excludes
    /// every other caller, so the shard comes out of `Mutex::get_mut` — no
    /// lock, no yield point, no atomic read-modify-write.
    #[inline]
    fn owned<R>(&mut self, i: usize, op: impl FnOnce(&mut Shard<C>, bool) -> R) -> R {
        let record = *self.record_ledgers.get_mut();
        let slot = &mut self.slots[i];
        let shard = slot.shard.get_mut().unwrap_or_else(|e| e.into_inner());
        let out = op(shard, record);
        *slot.resident.get_mut() = shard.cache.len();
        out
    }

    /// Capacity of every shard, in shard order (what a ledger replayer
    /// needs to rebuild each shard's sequential twin).
    pub fn shard_capacities(&self) -> Vec<usize> {
        (0..self.slots.len())
            .map(|i| self.shard(i).cache.capacity())
            .collect()
    }

    /// Turns per-shard access ledgers on or off. Ledgers record every
    /// access (page, outcome) in shard-lock serialization order; the
    /// conform oracle replays them against the sequential policy.
    pub fn set_ledger_recording(&self, on: bool) {
        self.record_ledgers.store(on, Ordering::SeqCst);
    }

    /// Drains and returns the per-shard ledgers accumulated so far.
    pub fn take_ledgers(&self) -> Vec<Vec<(PageId, Access)>> {
        (0..self.slots.len())
            .map(|i| std::mem::take(&mut self.shard(i).ledger))
            .collect()
    }

    /// Concurrent access path: routes `page` to its shard, serializes on
    /// that shard's lock only.
    pub fn access_shared(&self, page: PageId) -> Access {
        self.locked(self.shard_of(page), |s, record| s.access(page, record))
    }

    /// Concurrent fused fit-check-and-access: one route, one lock
    /// acquisition, one shard probe — versus two of each for the default
    /// peek-then-access split (which would also be racy across the two lock
    /// acquisitions).
    pub fn access_if_fits_shared(
        &self,
        page: PageId,
        remaining: Time,
        miss_penalty: u64,
    ) -> Option<Access> {
        self.locked(self.shard_of(page), |s, record| {
            s.access_if_fits(page, remaining, miss_penalty, record)
        })
    }

    /// Concurrent residency probe.
    pub fn contains_shared(&self, page: PageId) -> bool {
        yield_point("shard-lock");
        self.shard(self.shard_of(page)).cache.contains(page)
    }

    /// Total resident pages across all shards: one relaxed load of each
    /// shard's resident mirror, no lock — a moment-in-time sum, not an
    /// atomic snapshot, while other threads are mid-access.
    pub fn len_shared(&self) -> usize {
        self.slots
            .iter()
            .map(|s| s.resident.load(Ordering::Relaxed))
            .sum()
    }

    /// Total capacity across all shards.
    pub fn capacity_shared(&self) -> usize {
        (0..self.slots.len())
            .map(|i| self.shard(i).cache.capacity())
            .sum()
    }
}

/// The single-owner body: every `&mut self` method reaches its shard
/// through `owned`, so it runs the same per-shard code as the `*_shared`
/// methods without their lock and yield point.
impl<C: Cache> Cache for ShardedCache<C> {
    #[inline]
    fn access(&mut self, page: PageId) -> Access {
        let i = self.shard_of(page);
        self.owned(i, |s, record| s.access(page, record))
    }

    #[inline]
    fn access_if_fits(
        &mut self,
        page: PageId,
        remaining: Time,
        miss_penalty: u64,
    ) -> Option<Access> {
        let i = self.shard_of(page);
        self.owned(i, |s, record| {
            s.access_if_fits(page, remaining, miss_penalty, record)
        })
    }

    fn contains(&self, page: PageId) -> bool {
        self.contains_shared(page)
    }

    fn len(&self) -> usize {
        self.len_shared()
    }

    fn capacity(&self) -> usize {
        self.capacity_shared()
    }

    fn resize(&mut self, capacity: usize) {
        let n = self.slots.len();
        for i in 0..n {
            let cap = shard_capacity(capacity, n, i);
            self.owned(i, |s, _| s.cache.resize(cap));
        }
    }

    fn clear(&mut self) {
        for i in 0..self.slots.len() {
            self.owned(i, |s, _| s.cache.clear());
        }
    }
}

impl<C: Cache + Checkpoint> Checkpoint for ShardedCache<C> {
    /// Shard payloads concatenated in shard order with **no header**: the
    /// shard count is construction-time configuration, not state, so a
    /// 1-shard cache's snapshot is byte-identical to its inner cache's.
    fn save(&self, w: &mut SnapWriter) {
        for i in 0..self.slots.len() {
            self.shard(i).cache.save(w);
        }
    }

    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), CodecError> {
        for i in 0..self.slots.len() {
            self.owned(i, |s, _| s.cache.load(r))?;
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
        let caps: Vec<usize> = (0..4).map(|i| c.shard(i).cache.capacity()).collect();
        assert_eq!(caps, vec![3, 3, 2, 2]);
        assert_eq!(c.capacity_shared(), 10);
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

    #[test]
    fn ledgers_replay_exactly_through_sequential_policy() {
        let c = ShardedCache::with_shards(8, 4);
        c.set_ledger_recording(true);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let c = &c;
                s.spawn(move || {
                    for v in 0..200 {
                        c.access_shared(p((v * 17 + t * 31) % 64));
                    }
                });
            }
        });
        let ledgers = c.take_ledgers();
        assert_eq!(ledgers.iter().map(Vec::len).sum::<usize>(), 800);
        for (i, ledger) in ledgers.iter().enumerate() {
            let mut replay = LruCache::new(c.shard(i).cache.capacity());
            for &(page, outcome) in ledger {
                assert_eq!(replay.access(page), outcome, "shard {i} diverged");
            }
        }
    }

    #[test]
    fn disjoint_threads_lose_no_residency() {
        let c = ShardedCache::with_shards(1024, 8);
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let c = &c;
                s.spawn(move || {
                    for v in 0..100 {
                        c.access_shared(p(t * 1000 + v));
                    }
                });
            }
        });
        // 800 distinct pages into capacity 1024: with a perfect router
        // nothing *must* survive per shard, but every page is either
        // resident or was evicted by its own shard's policy; the total
        // can never exceed capacity and the sum of ledgers is exact.
        assert!(c.len_shared() <= 1024);
        assert!(c.len_shared() > 0);
    }

    /// The single-owner `Cache` methods never reach a yield point, and
    /// each shared access reaches exactly one: the schedule explorer's
    /// parking points stay on the locked path and off the engine's.
    #[test]
    fn yield_hook_fires_on_shared_path_only() {
        use super::super::yieldpoint::{clear_yield_hook, set_yield_hook};
        use std::cell::Cell;
        use std::rc::Rc;

        let hits = Rc::new(Cell::new(0usize));
        let h = hits.clone();
        set_yield_hook(Box::new(move |_| h.set(h.get() + 1)));
        let mut c = ShardedCache::with_shards(8, 4);
        for v in 0..40 {
            c.access(p(v % 13));
            c.access_if_fits(p(v % 11), 100, 10);
        }
        c.resize(3);
        c.clear();
        let owner_hits = hits.get();
        for v in 0..40 {
            c.access_shared(p(v % 13));
            c.access_if_fits_shared(p(v % 11), 100, 10);
        }
        let shared_hits = hits.get() - owner_hits;
        clear_yield_hook();
        assert_eq!(owner_hits, 0, "single-owner path hit a yield point");
        assert_eq!(shared_hits, 80, "one yield point per shared call");
    }
}
