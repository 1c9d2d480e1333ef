//! Property pins for the sharded caches:
//!
//! * the one-arena [`ShardedLru`] and the reference
//!   [`ShardedCache<LruCache>`] (`n` sequential LRUs) are one cache: same outcomes, `len`,
//!   `capacity`, residency and snapshot bytes after every access, budgeted
//!   access, resize, clear, save and load, at every shard count from 1 to
//!   32 (both router branches) and at capacities down to zero;
//! * a **1-shard** [`ShardedCache`] is indistinguishable — access outcome
//!   by access outcome *and* snapshot byte by snapshot byte — from the
//!   sequential cache it wraps, for every checkpointable policy and random
//!   traces (the degeneracy the whole test story is anchored on), and so is
//!   a 1-shard [`ShardedLru`] from an [`LruCache`];
//! * with any shard count, driving [`ShardedLru`] equals driving each
//!   shard's sequential twin with the routed subsequence;
//! * that holds across the move-to-front blocks' boundary too: resizes in
//!   and out of the blocks, snapshots loaded across modes and budgeted
//!   accesses down to a zero budget.

use proptest::prelude::*;

use parapage_cache::{
    fnv1a64, shard_capacity, ArcCache, Cache, Checkpoint, ClockCache, FifoCache, LfuCache,
    LruCache, PageId, ProcId, ShardedCache, ShardedLru, SnapReader, SnapWriter, TwoQueueCache,
    SMALL_SHARD,
};

fn seq_strategy(max_len: usize, universe: u64) -> impl Strategy<Value = Vec<PageId>> {
    prop::collection::vec((0..universe).prop_map(PageId), 0..max_len)
}

fn snapshot_bytes<C: Checkpoint>(cache: &C) -> Vec<u8> {
    let mut w = SnapWriter::new();
    cache.save(&mut w);
    w.into_bytes()
}

/// Drives a plain `make(cap)` cache and a 1-shard sharded wrapper over the
/// same trace, insisting on identical outcomes, identical snapshot bytes,
/// and that the plain cache's blob loads into the sharded one unchanged.
fn assert_one_shard_identical<C, F>(
    name: &str,
    make: F,
    cap: usize,
    seq: &[PageId],
) -> Result<(), TestCaseError>
where
    C: Cache + Checkpoint,
    F: Fn(usize) -> C,
{
    let mut plain = make(cap);
    let mut sharded = ShardedCache::with_shards_by(cap, 1, &make);
    prop_assert_eq!(sharded.shard_count(), 1, "{}", name);
    for &page in seq {
        prop_assert_eq!(
            plain.access(page),
            sharded.access(page),
            "{} diverged",
            name
        );
    }
    prop_assert_eq!(plain.len(), sharded.len(), "{}", name);
    let (a, b) = (snapshot_bytes(&plain), snapshot_bytes(&sharded));
    prop_assert_eq!(&a, &b, "{}: snapshot bytes differ", name);

    // Cross-load: the *sequential* blob restores the sharded cache, and the
    // restored state re-encodes to the same bytes.
    let mut restored = ShardedCache::with_shards_by(cap, 1, &make);
    restored
        .load(&mut SnapReader::new(&a))
        .map_err(|e| TestCaseError::fail(format!("{name}: cross-load failed: {e}")))?;
    prop_assert_eq!(snapshot_bytes(&restored), b, "{}: re-encode differs", name);
    Ok(())
}

/// One step of a differential trace.
#[derive(Clone, Debug)]
enum Op {
    Access(PageId),
    AccessIfFits(PageId, u64, u64),
    Resize(usize),
    Clear,
    Save,
    /// Loads the last saved blob back into both caches.
    Load,
    /// Loads a strict prefix (cut at this fraction, in 1/256ths) of the
    /// last saved blob; the load must fail.
    LoadTruncated(usize),
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Satellite 1's headline: for every checkpointable policy, a 1-shard
    /// sharded cache is byte-identical to the sequential cache it wraps.
    /// (LIRS is absent only because it does not implement `Checkpoint`.)
    #[test]
    fn one_shard_is_byte_identical_for_every_policy(
        seq in seq_strategy(200, 24),
        cap in 0usize..10,
    ) {
        assert_one_shard_identical("lru", LruCache::new, cap, &seq)?;
        assert_one_shard_identical("fifo", FifoCache::new, cap, &seq)?;
        assert_one_shard_identical("clock", ClockCache::new, cap, &seq)?;
        assert_one_shard_identical("lfu", LfuCache::new, cap, &seq)?;
        assert_one_shard_identical("arc", ArcCache::new, cap, &seq)?;
        assert_one_shard_identical("2q", TwoQueueCache::new, cap, &seq)?;

        // The tenant's one-arena sharded LRU degenerates the same way.
        let mut plain = LruCache::new(cap);
        let mut one = ShardedLru::with_shards(cap, 1);
        for &page in &seq {
            prop_assert_eq!(plain.access(page), one.access(page));
        }
        let bytes = snapshot_bytes(&plain);
        prop_assert_eq!(&bytes, &snapshot_bytes(&one), "ShardedLru(1) bytes differ");
        let mut restored = ShardedLru::with_shards(0, 1);
        restored
            .load(&mut SnapReader::new(&bytes))
            .map_err(|e| TestCaseError::fail(format!("ShardedLru(1) cross-load: {e}")))?;
        prop_assert_eq!(snapshot_bytes(&restored), bytes);
    }

    /// With any power-of-two shard count, [`ShardedLru`] behaves exactly
    /// like `n` independent sequential caches fed the routed subsequences —
    /// the router partitions, it never mixes.
    #[test]
    fn routing_equals_per_shard_sequential_twins(
        seq in seq_strategy(300, 32),
        cap in 0usize..16,
        shards_exp in 0u32..4,
    ) {
        let n = 1usize << shards_exp;
        let mut sharded = ShardedLru::with_shards(cap, n);
        let mut twins: Vec<LruCache> =
            (0..n).map(|i| LruCache::new(shard_capacity(cap, n, i))).collect();
        for &page in &seq {
            let i = sharded.shard_of(page);
            prop_assert_eq!(
                sharded.access(page),
                twins[i].access(page),
                "shard {} diverged on {:?}", i, page
            );
        }
        prop_assert_eq!(sharded.len(), twins.iter().map(Cache::len).sum::<usize>());
        // The sharded snapshot is exactly the twins' payloads concatenated.
        let mut w = SnapWriter::new();
        for t in &twins {
            t.save(&mut w);
        }
        prop_assert_eq!(snapshot_bytes(&sharded), w.into_bytes());
    }

    /// The router is exactly the low bits of FNV-1a over the page's
    /// little-endian bytes, at every power-of-two shard count, whichever
    /// arithmetic `shard_of` uses for a given mask width, and the
    /// reference routes every page the same way.
    #[test]
    fn shard_of_is_the_low_bits_of_fnv1a(
        random in prop::collection::vec(any::<u64>(), 0..64),
        procs in prop::collection::vec((0u32..1 << 16, 0u64..1 << 48), 0..16),
    ) {
        let mut pages: Vec<PageId> = random.into_iter().map(PageId).collect();
        pages.extend([PageId(0), PageId(u64::MAX)]);
        pages.extend(procs.into_iter().map(|(p, l)| PageId::namespaced(ProcId(p), l)));
        for exp in 0..=8 {
            let n = 1usize << exp;
            let cache = ShardedLru::with_shards(n, n);
            let reference = ShardedCache::with_shards(n, n);
            for &page in &pages {
                let want = (fnv1a64(&page.0.to_le_bytes()) & (n as u64 - 1)) as usize;
                prop_assert_eq!(cache.shard_of(page), want, "n={} page={:?}", n, page);
                prop_assert_eq!(reference.shard_of(page), want, "n={} page={:?}", n, page);
            }
        }
    }
}

/// One step of the differential trace: accesses (plain and budgeted),
/// resizes wide enough to cross every shard count's capacity split, clears
/// and checkpoint traffic.
fn diff_op_strategy(universe: u64) -> impl Strategy<Value = Op> {
    (
        0u8..20,
        0..universe,
        0u64..40,
        1u64..12,
        0usize..48,
        0usize..256,
    )
        .prop_map(move |(kind, page, remaining, penalty, n, cut)| match kind {
            0..=8 => Op::Access(PageId(page)),
            9..=13 => Op::AccessIfFits(PageId(page), remaining, penalty),
            14 | 15 => Op::Resize(n),
            16 => Op::Clear,
            17 => Op::Save,
            18 => Op::Load,
            _ => Op::LoadTruncated(cut),
        })
}

/// Asserts `fast` and `reference` hold one state: `len`, `capacity`,
/// residency of every page in `0..universe`, and snapshot bytes.
fn assert_same_state(
    fast: &ShardedLru,
    reference: &ShardedCache<LruCache>,
    universe: u64,
    step: usize,
) -> Result<Vec<u8>, TestCaseError> {
    prop_assert_eq!(fast.len(), reference.len(), "step {}: len", step);
    prop_assert_eq!(
        fast.capacity(),
        reference.capacity(),
        "step {}: capacity",
        step
    );
    for v in 0..universe {
        let page = PageId(v);
        prop_assert_eq!(
            fast.contains(page),
            reference.contains(page),
            "step {}: contains {}",
            step,
            v
        );
    }
    let bytes = snapshot_bytes(fast);
    prop_assert_eq!(&bytes, &snapshot_bytes(reference), "step {}: bytes", step);
    Ok(bytes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The tenant's one-arena [`ShardedLru`] against the reference
    /// `ShardedCache<LruCache>`, `n` sequential LRUs: equal
    /// outcomes, refusals, `len`, `capacity`, residency and snapshot bytes
    /// after every step, for 1 to 32 requested shards (so both router
    /// branches run) and capacities from 0 past the shard count. Every
    /// snapshot loads into a fresh `ShardedLru` that re-encodes it and
    /// serves the next request as the reference does; a truncated snapshot
    /// fails on both with the same error.
    #[test]
    fn sharded_lru_matches_the_locked_reference(
        ops in prop::collection::vec(diff_op_strategy(96), 0..200),
        cap in 0usize..48,
        shards in 1usize..=32,
    ) {
        const UNIVERSE: u64 = 96;
        let mut fast = ShardedLru::with_shards(cap, shards);
        let mut reference = ShardedCache::with_shards(cap, shards);
        prop_assert_eq!(fast.shard_count(), reference.shard_count());
        let mut blob = assert_same_state(&fast, &reference, UNIVERSE, 0)?;
        for (step, op) in ops.iter().enumerate() {
            match *op {
                Op::Access(page) => {
                    prop_assert_eq!(fast.access(page), reference.access(page), "step {}", step);
                }
                Op::AccessIfFits(page, remaining, penalty) => {
                    prop_assert_eq!(
                        fast.access_if_fits(page, remaining, penalty),
                        reference.access_if_fits(page, remaining, penalty),
                        "step {}", step
                    );
                }
                Op::Resize(c) => {
                    fast.resize(c);
                    reference.resize(c);
                }
                Op::Clear => {
                    fast.clear();
                    reference.clear();
                }
                Op::Save => blob = snapshot_bytes(&fast),
                Op::Load => {
                    fast.load(&mut SnapReader::new(&blob))
                        .map_err(|e| TestCaseError::fail(format!("step {step}: load: {e}")))?;
                    reference.load(&mut SnapReader::new(&blob))
                        .map_err(|e| TestCaseError::fail(format!("step {step}: load: {e}")))?;
                }
                Op::LoadTruncated(cut) => {
                    // The reference keeps the shards it loaded before the
                    // cut; the one-arena cache refuses up front. Both must
                    // refuse alike, then both reload the whole blob.
                    let prefix = &blob[..blob.len() * cut / 256];
                    let a = fast.load(&mut SnapReader::new(prefix));
                    let b = reference.load(&mut SnapReader::new(prefix));
                    prop_assert!(a.is_err(), "step {}: truncated load succeeded", step);
                    prop_assert_eq!(a, b, "step {}: truncated load errors differ", step);
                    fast.load(&mut SnapReader::new(&blob))
                        .map_err(|e| TestCaseError::fail(format!("step {step}: reload: {e}")))?;
                    reference.load(&mut SnapReader::new(&blob))
                        .map_err(|e| TestCaseError::fail(format!("step {step}: reload: {e}")))?;
                }
            }
            let bytes = assert_same_state(&fast, &reference, UNIVERSE, step)?;

            // Those bytes restore the state: a fresh cache loads them,
            // re-encodes them, and serves the next page as the reference.
            let mut restored = ShardedLru::with_shards(0, shards);
            restored.load(&mut SnapReader::new(&bytes))
                .map_err(|e| TestCaseError::fail(format!("step {step}: restore: {e}")))?;
            prop_assert_eq!(snapshot_bytes(&restored), bytes, "step {}: re-encode", step);
            if let Some(&Op::Access(next)) = ops.get(step + 1) {
                let mut live = fast.clone();
                prop_assert_eq!(restored.access(next), live.access(next), "step {}: restored", step);
                prop_assert_eq!(snapshot_bytes(&restored), snapshot_bytes(&live), "step {}: restored", step);
            }
        }
    }
}

/// One step of the mode-boundary trace: accesses (plain, budgeted with
/// zero budgets and free misses included), resizes to per-shard capacities
/// on both sides of [`SMALL_SHARD`], and saves and loads.
#[derive(Clone, Debug)]
enum Boundary {
    Access(PageId),
    AccessIfFits(PageId, u64, u64),
    /// Resize to `n * per_shard + extra` pages over `n` shards.
    Resize(usize, usize),
    Clear,
    Save,
    Load,
}

fn boundary_strategy(universe: u64) -> impl Strategy<Value = Boundary> {
    (
        0u8..16,
        0..universe,
        0u64..4,
        0u64..3,
        0..=2 * SMALL_SHARD,
        0usize..4,
    )
        .prop_map(
            move |(kind, page, remaining, penalty, per_shard, extra)| match kind {
                0..=5 => Boundary::Access(PageId(page)),
                6..=9 => Boundary::AccessIfFits(PageId(page), remaining, penalty),
                10..=12 => Boundary::Resize(per_shard, extra),
                13 => Boundary::Clear,
                14 => Boundary::Save,
                _ => Boundary::Load,
            },
        )
}

/// Whether a sharded LRU of `capacity` over `n` shards serves from its
/// move-to-front blocks: no shard holds more than [`SMALL_SHARD`] pages.
fn on_blocks(capacity: usize, n: usize) -> bool {
    shard_capacity(capacity, n, 0) <= SMALL_SHARD
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Across the blocks' boundary, [`ShardedLru`] is still the reference
    /// `ShardedCache<LruCache>`: resizes that move every shard between at
    /// most and more than [`SMALL_SHARD`] pages (so a shrink into the
    /// blocks truncates each shard to its LRU order), snapshots saved in
    /// one mode and loaded in the other, and budgeted accesses down to a
    /// zero budget, at 1 to 32 shards. Equal outcomes, `len`, `capacity`,
    /// residency and snapshot bytes after every step; the trace ends with
    /// a save in each mode loaded in the other.
    #[test]
    fn sharded_lru_matches_the_reference_across_the_block_boundary(
        ops in prop::collection::vec(boundary_strategy(64), 0..160),
        start in 0..=2 * SMALL_SHARD,
        shards in 1usize..=32,
    ) {
        const UNIVERSE: u64 = 64;
        let n = shards.next_power_of_two();
        let mut fast = ShardedLru::with_shards(n * start, shards);
        let mut reference = ShardedCache::with_shards(n * start, shards);
        let mut blob = snapshot_bytes(&fast);
        for (step, op) in ops.iter().enumerate() {
            match *op {
                Boundary::Access(page) => {
                    prop_assert_eq!(fast.access(page), reference.access(page), "step {}", step);
                }
                Boundary::AccessIfFits(page, remaining, penalty) => {
                    prop_assert_eq!(
                        fast.access_if_fits(page, remaining, penalty),
                        reference.access_if_fits(page, remaining, penalty),
                        "step {}", step
                    );
                }
                Boundary::Resize(per_shard, extra) => {
                    fast.resize(n * per_shard + extra);
                    reference.resize(n * per_shard + extra);
                }
                Boundary::Clear => {
                    fast.clear();
                    reference.clear();
                }
                Boundary::Save => blob = snapshot_bytes(&fast),
                Boundary::Load => {
                    fast.load(&mut SnapReader::new(&blob))
                        .map_err(|e| TestCaseError::fail(format!("step {step}: load: {e}")))?;
                    reference.load(&mut SnapReader::new(&blob))
                        .map_err(|e| TestCaseError::fail(format!("step {step}: load: {e}")))?;
                }
            }
            assert_same_state(&fast, &reference, UNIVERSE, step)?;
        }

        // A snapshot of each mode, loaded over a cache in the other.
        for (from, to) in [(SMALL_SHARD, SMALL_SHARD + 1), (SMALL_SHARD + 1, SMALL_SHARD)] {
            fast.resize(n * from);
            reference.resize(n * from);
            for v in 0..UNIVERSE / 2 {
                prop_assert_eq!(fast.access(PageId(v)), reference.access(PageId(v)));
            }
            let saved = assert_same_state(&fast, &reference, UNIVERSE, ops.len())?;
            fast.resize(n * to);
            reference.resize(n * to);
            prop_assert_ne!(on_blocks(fast.capacity(), n), on_blocks(n * from, n));
            fast.load(&mut SnapReader::new(&saved))
                .map_err(|e| TestCaseError::fail(format!("cross-mode load: {e}")))?;
            reference.load(&mut SnapReader::new(&saved))
                .map_err(|e| TestCaseError::fail(format!("cross-mode load: {e}")))?;
            prop_assert_eq!(&assert_same_state(&fast, &reference, UNIVERSE, ops.len())?, &saved);
            for v in (0..UNIVERSE).rev() {
                prop_assert_eq!(fast.access(PageId(v)), reference.access(PageId(v)));
            }
        }
    }
}
