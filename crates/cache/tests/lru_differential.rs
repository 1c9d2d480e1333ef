//! Differential test: packed open-addressing [`LruCache`] vs the frozen
//! `HashMap`-indexed oracle [`MapLru`] (`testshim`).
//!
//! The packed rewrite (ISSUE 10) must be observationally identical to the
//! old implementation: same hit/miss outcome per access, same eviction
//! (checked via `pop_lru` order and resident sets), same checkpoint bytes,
//! and same behaviour through resize/clear churn. Random request streams
//! drive both side by side and compare after every single operation.
//!
//! The growth traces at the end start at capacity 0 and resize past
//! several doublings of the page index over a 4096-page universe whose
//! probe runs wrap the table; they also drive the one-arena
//! [`ShardedLru`] against the reference [`ShardedCache<LruCache>`] of `n`
//! sequential LRUs, each with its own index.

use proptest::prelude::*;

use parapage_cache::{
    Cache, Checkpoint, LruCache, MapLru, PageId, ShardedCache, ShardedLru, SnapReader, SnapWriter,
};

fn checkpoint_bytes<C: Checkpoint>(c: &C) -> Vec<u8> {
    let mut w = SnapWriter::new();
    c.save(&mut w);
    w.into_bytes()
}

/// One comparison point: every observable the two caches expose.
fn assert_same_state(packed: &LruCache, oracle: &MapLru, ctx: &str) {
    assert_eq!(packed.len(), oracle.len(), "{ctx}: len");
    assert_eq!(packed.capacity(), oracle.capacity(), "{ctx}: capacity");
    assert_eq!(
        packed.pages_mru_first(),
        oracle.pages_mru_first(),
        "{ctx}: recency order"
    );
    assert_eq!(
        checkpoint_bytes(packed),
        checkpoint_bytes(oracle),
        "{ctx}: checkpoint bytes"
    );
}

fn seq_strategy(universe: u64, max_len: usize) -> impl Strategy<Value = Vec<PageId>> {
    prop::collection::vec((0..universe).prop_map(PageId), 0..max_len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Same hit/miss sequence, same recency order, same checkpoint bytes
    /// after every access.
    #[test]
    fn access_streams_are_identical(seq in seq_strategy(48, 200), cap in 0usize..24) {
        let mut packed = LruCache::new(cap);
        let mut oracle = MapLru::new(cap);
        for (i, &page) in seq.iter().enumerate() {
            prop_assert_eq!(
                packed.contains(page),
                oracle.contains(page),
                "contains({:?}) before access {}", page, i
            );
            let a = packed.access(page);
            let b = oracle.access(page);
            prop_assert_eq!(a, b, "access #{} on {:?}", i, page);
            assert_same_state(&packed, &oracle, &format!("after access #{i}"));
        }
        // Identical eviction order all the way down.
        loop {
            let a = packed.pop_lru();
            let b = oracle.pop_lru();
            prop_assert_eq!(a, b, "pop_lru order");
            if a.is_none() {
                break;
            }
        }
    }

    /// Interleaved resize/clear churn keeps the two in lockstep.
    #[test]
    fn resize_and_clear_churn_is_identical(
        seq in seq_strategy(32, 120),
        caps in prop::collection::vec(0usize..20, 1..6),
    ) {
        let mut packed = LruCache::new(caps[0]);
        let mut oracle = MapLru::new(caps[0]);
        for (i, &page) in seq.iter().enumerate() {
            if i % 17 == 16 {
                let cap = caps[i % caps.len()];
                packed.resize(cap);
                oracle.resize(cap);
                assert_same_state(&packed, &oracle, &format!("after resize to {cap}"));
            }
            if i % 41 == 40 {
                packed.clear();
                oracle.clear();
                assert_same_state(&packed, &oracle, "after clear");
            }
            prop_assert_eq!(packed.access(page), oracle.access(page), "access #{}", i);
        }
        assert_same_state(&packed, &oracle, "final");
    }

    /// A checkpoint written by either implementation restores into the
    /// other byte-identically (resume equivalence across the rewrite).
    #[test]
    fn checkpoints_cross_load(seq in seq_strategy(40, 150), cap in 1usize..24) {
        let mut packed = LruCache::new(cap);
        let mut oracle = MapLru::new(cap);
        for &page in &seq {
            packed.access(page);
            oracle.access(page);
        }
        let bytes = checkpoint_bytes(&packed);
        prop_assert_eq!(&bytes, &checkpoint_bytes(&oracle), "save bytes");

        // Old bytes -> new impl.
        let mut restored_packed = LruCache::new(0);
        restored_packed.load(&mut SnapReader::new(&bytes)).unwrap();
        // New bytes -> old impl.
        let mut restored_oracle = MapLru::new(0);
        restored_oracle.load(&mut SnapReader::new(&bytes)).unwrap();

        assert_same_state(&restored_packed, &restored_oracle, "after cross-load");
        prop_assert_eq!(restored_packed.pages_mru_first(), packed.pages_mru_first());

        // Both restored caches evolve identically from here.
        for &page in seq.iter().take(30) {
            prop_assert_eq!(
                restored_packed.access(page),
                restored_oracle.access(page),
                "post-restore access"
            );
        }
        assert_same_state(&restored_packed, &restored_oracle, "post-restore final");
    }

    /// The fused single-probe path takes exactly the decisions the
    /// peek-then-access oracle takes under a shrinking budget.
    #[test]
    fn access_if_fits_matches_oracle(
        seq in seq_strategy(32, 150),
        cap in 0usize..16,
        budget in 0u64..600,
        penalty in 1u64..20,
    ) {
        let mut packed = LruCache::new(cap);
        let mut oracle = MapLru::new(cap);
        let mut remaining = budget;
        for (i, &page) in seq.iter().enumerate() {
            let expect = {
                let cost = if oracle.contains(page) { 1 } else { penalty };
                if cost > remaining { None } else { Some(oracle.access(page)) }
            };
            let got = packed.access_if_fits(page, remaining, penalty);
            prop_assert_eq!(got, expect, "access_if_fits #{} on {:?}", i, page);
            if let Some(acc) = got {
                remaining -= acc.cost(penalty);
            }
            assert_same_state(&packed, &oracle, &format!("after fused access #{i}"));
        }
    }
}

/// The format promise `LruCache::save` keeps: capacity, resident count,
/// then the pages MRU-first — encoded here from `pages_mru_first` alone.
fn reference_encoding(c: &LruCache) -> Vec<u8> {
    let mut w = SnapWriter::new();
    w.put_usize(c.capacity());
    let pages = c.pages_mru_first();
    w.put_len(pages.len());
    for p in pages {
        w.put_page(p);
    }
    w.into_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The in-place encoder walks the recency list straight into the
    /// writer; it must produce the reference bytes after every step of a
    /// trace that shrinks, grows and pops, and every blob must load back
    /// into the same recency order and re-encode identically.
    #[test]
    fn in_place_save_matches_reference_encoding(
        ops in prop::collection::vec((0u8..10, 0u64..40, 0usize..24), 0..200),
        cap in 0usize..24,
    ) {
        let mut c = LruCache::new(cap);
        for (i, &(kind, page, n)) in ops.iter().enumerate() {
            match kind {
                0 => c.resize(n),
                1 => {
                    c.pop_lru();
                }
                _ => {
                    c.access(PageId(page));
                }
            }
            let bytes = checkpoint_bytes(&c);
            prop_assert_eq!(&bytes, &reference_encoding(&c), "step {}", i);
            let mut restored = LruCache::new(0);
            restored
                .load(&mut SnapReader::new(&bytes))
                .map_err(|e| TestCaseError::fail(format!("step {i}: load: {e}")))?;
            prop_assert_eq!(restored.pages_mru_first(), c.pages_mru_first(), "step {}", i);
            prop_assert_eq!(checkpoint_bytes(&restored), bytes, "step {}: re-encode", i);
        }
    }
}

/// Non-proptest pin: the old implementation pre-sized at `1 << 20` and the
/// new one must stay correct past that boundary (see
/// `boundary_capacity_holds_every_resident` in `lru.rs` for the large-scale
/// variant; here we cross-check the two impls right at a big power of two,
/// sized down so the differential run stays fast).
#[test]
fn large_capacity_agrees_with_oracle() {
    let cap = 1 << 15;
    let mut packed = LruCache::new(cap);
    let mut oracle = MapLru::new(cap);
    for v in 0..(cap as u64 + 100) {
        assert_eq!(packed.access(PageId(v)), oracle.access(PageId(v)));
    }
    // Mixed hits after wrap-around.
    for v in (100..200u64).chain(40_000..40_050) {
        assert_eq!(
            packed.access(PageId(v)),
            oracle.access(PageId(v)),
            "page {v}"
        );
    }
    assert_eq!(packed.pages_mru_first(), oracle.pages_mru_first());
    assert_eq!(checkpoint_bytes(&packed), checkpoint_bytes(&oracle));
}

/// One step of a growth trace.
#[derive(Clone, Debug)]
enum GrowthOp {
    /// Accesses the page at this position of [`growth_universe`].
    Access(usize),
    Resize(usize),
    Clear,
    /// Loads the cache's own snapshot back into it.
    Reload,
}

/// Mostly accesses over [`growth_universe`] (nearly all misses, so the
/// index fills as fast as capacity allows); resizes spread over twelve
/// powers of two, six in seven of them to 64 or more; rare clears; and
/// reloads of the cache's own snapshot.
fn growth_op_strategy() -> impl Strategy<Value = GrowthOp> {
    (0u16..512, 0usize..4096, 0u32..6, 0usize..4096).prop_map(|(kind, page, exp, jitter)| {
        let height = |exp: u32| (1 << exp) + jitter % (1 << exp);
        match kind {
            0..=5 => GrowthOp::Resize(height(exp + 6)),
            6 => GrowthOp::Resize(height(exp)),
            7 => GrowthOp::Clear,
            8..=13 => GrowthOp::Reload,
            _ => GrowthOp::Access(page),
        }
    })
}

/// The index's Fibonacci multiplier (`recency::HASH_MUL`).
const HASH_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// 4096 pages: 1024 whose hash lands in the top 1/64 of the index at every
/// length (the last slot of a 16-entry floor, the last 64 of 4096), so
/// their probe runs keep wrapping past the end of the table, then pages
/// 1024..4096, spread evenly.
fn growth_universe() -> Vec<PageId> {
    let tail = (4096u64..)
        .filter(|v| v.wrapping_mul(HASH_MUL) >> 58 == 0x3f)
        .take(1024);
    tail.chain(1024..4096).map(PageId).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// From capacity 0 through resizes up to 4095, the packed index
    /// doubles from its 16-entry floor several times while residents
    /// arrive, and its probe runs wrap the table; the packed cache and the
    /// oracle still agree on every outcome, `len`, recency order and save
    /// bytes after every step, and those bytes load into a fresh cache of
    /// each kind that re-encodes them.
    #[test]
    fn growth_across_index_doublings_is_identical(
        ops in prop::collection::vec(growth_op_strategy(), 300..1500),
    ) {
        let universe = growth_universe();
        let mut packed = LruCache::new(0);
        let mut oracle = MapLru::new(0);
        for (i, op) in ops.iter().enumerate() {
            match *op {
                GrowthOp::Access(at) => {
                    let page = universe[at];
                    prop_assert_eq!(packed.access(page), oracle.access(page), "access #{}", i);
                }
                GrowthOp::Resize(cap) => {
                    packed.resize(cap);
                    oracle.resize(cap);
                }
                GrowthOp::Clear => {
                    packed.clear();
                    oracle.clear();
                }
                GrowthOp::Reload => {
                    let bytes = checkpoint_bytes(&packed);
                    packed.load(&mut SnapReader::new(&bytes)).unwrap();
                    oracle.load(&mut SnapReader::new(&bytes)).unwrap();
                }
            }
            assert_same_state(&packed, &oracle, &format!("step {i}"));
            let bytes = checkpoint_bytes(&packed);
            let mut restored_packed = LruCache::new(0);
            restored_packed.load(&mut SnapReader::new(&bytes)).unwrap();
            let mut restored_oracle = MapLru::new(0);
            restored_oracle.load(&mut SnapReader::new(&bytes)).unwrap();
            assert_same_state(&restored_packed, &restored_oracle, &format!("step {i} restored"));
            prop_assert_eq!(checkpoint_bytes(&restored_packed), bytes, "step {}: re-encode", i);
        }
    }

    /// From capacity 0 through resizes up to 4095, the one-arena cache's
    /// shared index doubles from its 16-entry floor several times while
    /// residents arrive, and its probe runs wrap the table; it and the
    /// reference still agree on every outcome, `len`, `capacity`
    /// and save bytes (which carry every shard's recency order) after every
    /// step, and those bytes load into a fresh cache of each kind that
    /// re-encodes them.
    #[test]
    fn growth_across_index_doublings_matches_the_locked_reference(
        ops in prop::collection::vec(growth_op_strategy(), 300..1500),
        shards in 1usize..=32,
    ) {
        let universe = growth_universe();
        let mut fast = ShardedLru::with_shards(0, shards);
        let mut reference = ShardedCache::<LruCache>::with_shards(0, shards);
        for (step, op) in ops.iter().enumerate() {
            match *op {
                GrowthOp::Access(at) => {
                    let page = universe[at];
                    prop_assert_eq!(fast.access(page), reference.access(page), "step {}", step);
                }
                GrowthOp::Resize(c) => {
                    fast.resize(c);
                    reference.resize(c);
                }
                GrowthOp::Clear => {
                    fast.clear();
                    reference.clear();
                }
                GrowthOp::Reload => {
                    let bytes = checkpoint_bytes(&fast);
                    fast.load(&mut SnapReader::new(&bytes))
                        .map_err(|e| TestCaseError::fail(format!("step {step}: reload: {e}")))?;
                    reference.load(&mut SnapReader::new(&bytes))
                        .map_err(|e| TestCaseError::fail(format!("step {step}: reload: {e}")))?;
                }
            }
            prop_assert_eq!(fast.len(), reference.len(), "step {}: len", step);
            prop_assert_eq!(fast.capacity(), reference.capacity(), "step {}: capacity", step);
            let bytes = checkpoint_bytes(&fast);
            prop_assert_eq!(&bytes, &checkpoint_bytes(&reference), "step {}: bytes", step);
            let mut restored = ShardedLru::with_shards(0, shards);
            restored.load(&mut SnapReader::new(&bytes))
                .map_err(|e| TestCaseError::fail(format!("step {step}: restore: {e}")))?;
            let mut restored_reference = ShardedCache::<LruCache>::with_shards(0, shards);
            restored_reference.load(&mut SnapReader::new(&bytes))
                .map_err(|e| TestCaseError::fail(format!("step {step}: restore: {e}")))?;
            prop_assert_eq!(restored.len(), restored_reference.len(), "step {}: restored len", step);
            prop_assert_eq!(&checkpoint_bytes(&restored), &bytes, "step {}: re-encode", step);
            prop_assert_eq!(
                checkpoint_bytes(&restored_reference), bytes, "step {}: reference re-encode", step
            );
        }
    }
}

/// 70 192 pages, more than a `u16` index addresses (65 535 nodes): 8192
/// whose hash lands in the top 1/64 of the index at every length, so
/// their probe runs wrap the table in every backward shift, then pages
/// 0..62 000.
fn wide_universe() -> Vec<PageId> {
    let tail = (1u64 << 20..)
        .filter(|v| v.wrapping_mul(HASH_MUL) >> 58 == 0x3f)
        .take(8192);
    tail.chain(0..62_000).map(PageId).collect()
}

/// Churn past the `u16` limit: accesses anywhere in [`wide_universe`],
/// resizes between 60 000 and 71 000 (each shrink evicts thousands), and
/// rare reloads.
fn wide_churn_strategy() -> impl Strategy<Value = GrowthOp> {
    (0u16..512, 0usize..70_192, 0usize..11_000).prop_map(|(kind, page, cap)| match kind {
        0..=15 => GrowthOp::Resize(60_000 + cap),
        16 => GrowthOp::Reload,
        _ => GrowthOp::Access(page),
    })
}

/// Applies `op` to both caches, asserting equal access outcomes.
fn apply_both<A: Cache + Checkpoint, B: Cache + Checkpoint>(
    a: &mut A,
    b: &mut B,
    universe: &[PageId],
    op: &GrowthOp,
    step: usize,
) {
    match *op {
        GrowthOp::Access(at) => {
            let page = universe[at];
            assert_eq!(a.access(page), b.access(page), "step {step}: page {page:?}");
        }
        GrowthOp::Resize(cap) => {
            a.resize(cap);
            b.resize(cap);
        }
        GrowthOp::Clear => {
            a.clear();
            b.clear();
        }
        GrowthOp::Reload => {
            let bytes = checkpoint_bytes(a);
            a.load(&mut SnapReader::new(&bytes)).unwrap();
            b.load(&mut SnapReader::new(&bytes)).unwrap();
        }
    }
}

/// Fills both caches past the `u16` limit (the index switches to `u32`
/// entries on the way), re-hits every resident, churns with `churn`, and
/// checks every outcome and the final state and bytes.
fn past_the_u16_limit<A: Cache + Checkpoint, B: Cache + Checkpoint>(
    mut a: A,
    mut b: B,
    churn: &[GrowthOp],
) {
    let universe = wide_universe();
    let fill: Vec<GrowthOp> = std::iter::once(GrowthOp::Resize(universe.len()))
        .chain((0..universe.len()).map(GrowthOp::Access))
        .chain((0..universe.len()).map(GrowthOp::Access))
        .collect();
    for (step, op) in fill.iter().chain(churn).enumerate() {
        apply_both(&mut a, &mut b, &universe, op, step);
    }
    assert_eq!(a.len(), b.len());
    assert_eq!(checkpoint_bytes(&a), checkpoint_bytes(&b));
    for &page in &universe {
        assert_eq!(a.contains(page), b.contains(page), "{page:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The packed cache and the oracle agree on every outcome, and on the
    /// final recency order and bytes, across the index's switch from
    /// `u16` to `u32` entries and churn whose backward shifts wrap.
    #[test]
    fn growth_across_index_doublings_past_the_u16_limit_is_identical(
        churn in prop::collection::vec(wide_churn_strategy(), 2000..4000),
    ) {
        past_the_u16_limit(LruCache::new(0), MapLru::new(0), &churn);
    }

    /// The one-arena cache and the reference agree the same way.
    #[test]
    fn growth_across_index_doublings_past_the_u16_limit_matches_the_locked_reference(
        churn in prop::collection::vec(wide_churn_strategy(), 2000..4000),
        shards_log2 in 0u32..6,
    ) {
        past_the_u16_limit(
            ShardedLru::with_shards(0, 1 << shards_log2),
            ShardedCache::<LruCache>::with_shards(0, 1 << shards_log2),
            &churn,
        );
    }
}
