//! Property-based tests for the cache substrate.
//!
//! The central invariants:
//! * LRU obeys the *inclusion property*, so the Mattson curve must agree with
//!   direct simulation at every capacity;
//! * Belady's MIN lower-bounds every online policy;
//! * miss counts are monotone non-increasing in capacity (for stack policies);
//! * window simulation conserves time and requests.

use proptest::prelude::*;

use parapage_cache::{
    min_misses, miss_curve, run_window, ArcCache, Cache, ClockCache, FifoCache, LfuCache,
    LirsCache, LruCache, PageId, SnapReader, SnapWriter, TwoQueueCache,
};

fn seq_strategy(max_len: usize, universe: u64) -> impl Strategy<Value = Vec<PageId>> {
    prop::collection::vec((0..universe).prop_map(PageId), 0..max_len)
}

fn count_misses<C: Cache>(cache: &mut C, seq: &[PageId]) -> u64 {
    seq.iter().filter(|&&p| !cache.access(p).is_hit()).count() as u64
}

/// Serves `seq` to completion through fixed-budget windows (the same path
/// the box engine uses) and returns `(misses, served)`, or a description of
/// the first invariant breach (capacity overrun or a stalled window).
fn drive_windows<C: Cache>(
    cache: &mut C,
    seq: &[PageId],
    budget: u64,
    s: u64,
    cap: usize,
) -> Result<(u64, u64), String> {
    let mut pos = 0usize;
    let mut misses = 0u64;
    let mut served = 0u64;
    while pos < seq.len() {
        let out = run_window(seq, pos, cache, budget, s);
        if cache.len() > cap {
            return Err(format!("holds {} residents, capacity {cap}", cache.len()));
        }
        if out.end_index == pos && !out.finished {
            return Err(format!("window made no progress at index {pos}"));
        }
        misses += out.stats.misses;
        served += out.stats.accesses();
        pos = out.end_index;
    }
    Ok((misses, served))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Mattson's analytic curve equals direct LRU simulation at every capacity.
    #[test]
    fn mattson_agrees_with_lru(seq in seq_strategy(300, 20), cap in 0usize..24) {
        let curve = miss_curve(&seq, 24);
        let mut lru = LruCache::new(cap);
        prop_assert_eq!(curve.misses(cap), count_misses(&mut lru, &seq));
    }

    /// Belady's MIN never incurs more misses than LRU, FIFO, Clock, or LFU.
    #[test]
    fn belady_lower_bounds_online_policies(seq in seq_strategy(200, 12), cap in 1usize..10) {
        let opt = min_misses(&seq, cap);
        prop_assert!(opt <= count_misses(&mut LruCache::new(cap), &seq));
        prop_assert!(opt <= count_misses(&mut FifoCache::new(cap), &seq));
        prop_assert!(opt <= count_misses(&mut ClockCache::new(cap), &seq));
        prop_assert!(opt <= count_misses(&mut LfuCache::new(cap), &seq));
        prop_assert!(opt <= count_misses(&mut ArcCache::new(cap), &seq));
        prop_assert!(opt <= count_misses(&mut TwoQueueCache::new(cap), &seq));
        prop_assert!(opt <= count_misses(&mut LirsCache::new(cap), &seq));
    }

    /// More capacity never hurts LRU or MIN (inclusion / clairvoyance).
    #[test]
    fn lru_and_min_monotone_in_capacity(seq in seq_strategy(200, 15)) {
        let curve = miss_curve(&seq, 16);
        for c in 1..=16 {
            prop_assert!(curve.misses(c) <= curve.misses(c - 1));
            prop_assert!(min_misses(&seq, c) <= min_misses(&seq, c - 1));
        }
    }

    /// Every policy keeps len() within capacity, and hits imply residency.
    #[test]
    fn policies_respect_capacity(seq in seq_strategy(150, 10), cap in 0usize..8) {
        let mut caches: Vec<Box<dyn Cache>> = vec![
            Box::new(LruCache::new(cap)),
            Box::new(FifoCache::new(cap)),
            Box::new(ClockCache::new(cap)),
            Box::new(LfuCache::new(cap)),
            Box::new(ArcCache::new(cap)),
            Box::new(TwoQueueCache::new(cap)),
            Box::new(LirsCache::new(cap)),
        ];
        for c in &mut caches {
            for &p in &seq {
                let was_resident = c.contains(p);
                let hit = c.access(p).is_hit();
                prop_assert_eq!(hit, was_resident);
                prop_assert!(c.len() <= cap);
                if cap > 0 {
                    prop_assert!(c.contains(p));
                }
            }
        }
    }

    /// Window simulation: time used equals hits + s*misses, never exceeds
    /// budget, and served count equals end_index - start.
    #[test]
    fn window_conserves_time(
        seq in seq_strategy(200, 12),
        cap in 0usize..8,
        budget in 0u64..500,
        s in 1u64..20,
    ) {
        let mut cache = LruCache::new(cap);
        let out = run_window(&seq, 0, &mut cache, budget, s);
        prop_assert_eq!(out.time_used, out.stats.hits + s * out.stats.misses);
        prop_assert!(out.time_used <= budget);
        prop_assert_eq!(out.stats.accesses(), out.end_index as u64);
        prop_assert_eq!(out.finished, out.end_index == seq.len());
        // Leftover budget is always smaller than one miss cost unless done.
        if !out.finished {
            prop_assert!(budget - out.time_used < s);
        }
    }

    /// Splitting a window in two at any budget point serves a prefix of what
    /// one combined window serves (warm cache carried over).
    #[test]
    fn window_split_is_consistent(
        seq in seq_strategy(150, 8),
        cap in 1usize..6,
        b1 in 0u64..200,
        b2 in 0u64..200,
        s in 1u64..10,
    ) {
        let mut warm = LruCache::new(cap);
        let first = run_window(&seq, 0, &mut warm, b1, s);
        let second = run_window(&seq, first.end_index, &mut warm, b2, s);

        let mut whole = LruCache::new(cap);
        let combined = run_window(&seq, 0, &mut whole, b1 + b2, s);
        // The split run can only fall behind the combined run (budget lost at
        // the seam when a miss straddles the boundary), never get ahead.
        prop_assert!(second.end_index <= combined.end_index);
        // Budget accounting: the split run wastes < s at the seam and < s at
        // its own tail, so it trails the combined run by strictly less than
        // two miss costs of work.
        let split_time = first.time_used + second.time_used;
        prop_assert!(split_time <= combined.time_used);
        prop_assert!(combined.time_used - split_time < 2 * s);
    }

    /// Cross-policy differential: every replacement policy, driven through
    /// the same windowed serve path the engine uses (`run_window` over
    /// random window budgets), keeps at most `cap` residents at every
    /// step, serves every request exactly once, and never undercuts
    /// Belady's clairvoyant miss count on the prefix it served.
    #[test]
    fn cross_policy_window_differential(
        seq in seq_strategy(250, 14),
        cap in 1usize..10,
        budget in 5u64..120,
        s in 2u64..12,
    ) {
        // A window that cannot fit even one miss would stall forever, so the
        // budget is at least one miss cost.
        let budget = budget.max(s);
        type DriveOutcome = Result<(u64, u64), String>;
        let outcomes: Vec<(&str, DriveOutcome)> = vec![
            ("lru", drive_windows(&mut LruCache::new(cap), &seq, budget, s, cap)),
            ("fifo", drive_windows(&mut FifoCache::new(cap), &seq, budget, s, cap)),
            ("clock", drive_windows(&mut ClockCache::new(cap), &seq, budget, s, cap)),
            ("lfu", drive_windows(&mut LfuCache::new(cap), &seq, budget, s, cap)),
            ("2q", drive_windows(&mut TwoQueueCache::new(cap), &seq, budget, s, cap)),
            ("lirs", drive_windows(&mut LirsCache::new(cap), &seq, budget, s, cap)),
            ("arc", drive_windows(&mut ArcCache::new(cap), &seq, budget, s, cap)),
        ];
        let opt = min_misses(&seq, cap);
        for (name, outcome) in outcomes {
            let (misses, served) = match outcome {
                Ok(pair) => pair,
                Err(e) => return Err(TestCaseError::fail(format!("{name}: {e}"))),
            };
            prop_assert_eq!(served, seq.len() as u64, "{} lost requests", name);
            prop_assert!(
                misses >= opt,
                "{} beat Belady: {} < {}", name, misses, opt
            );
        }
    }

    /// LRU resize down to c then simulating equals... at minimum, the cache
    /// always retains the MRU pages after a shrink.
    #[test]
    fn lru_shrink_keeps_mru(seq in seq_strategy(100, 10), new_cap in 1usize..5) {
        let mut lru = LruCache::new(8);
        for &p in &seq {
            lru.access(p);
        }
        let before = lru.pages_mru_first();
        lru.resize(new_cap);
        let after = lru.pages_mru_first();
        let expect: Vec<PageId> = before.into_iter().take(new_cap).collect();
        prop_assert_eq!(after, expect);
    }

    /// A page run round-trips at every width boundary: a run whose span
    /// (largest minus smallest page) is one of `SPANS` takes the width
    /// that span needs, and the reader counts its pages against the
    /// ceiling. Empty runs are 8 bytes.
    #[test]
    fn page_runs_round_trip_at_every_width(
        runs in prop::collection::vec(
            (0usize..SPANS.len(), any::<u64>(), prop::collection::vec(any::<u64>(), 0..40)),
            0..6,
        ),
        prefix in any::<u8>(),
    ) {
        let runs: Vec<(Vec<PageId>, usize)> = runs
            .into_iter()
            .map(|(i, base, raw)| {
                let (span, width) = SPANS[i];
                let base = base.min(u64::MAX - span);
                let inner = raw.iter().map(|r| PageId(base + r % span.saturating_add(1).max(1)));
                // The ends first, so the run's span is exactly `span`;
                // a run drawn without inner pages is empty.
                let pages: Vec<PageId> = if raw.is_empty() {
                    Vec::new()
                } else {
                    [PageId(base + span), PageId(base)].into_iter().chain(inner).collect()
                };
                (pages, width)
            })
            .collect();
        let mut w = SnapWriter::new();
        w.put_u8(prefix);
        for (pages, width) in &runs {
            let before = w.bytes().len();
            w.put_page_run(pages);
            let len = w.bytes().len() - before;
            prop_assert_eq!(len, if pages.is_empty() { 8 } else { 17 + width * pages.len() });
        }
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes[1..]);
        let total: usize = runs.iter().map(|(p, _)| p.len()).sum();
        let mut pages_left = total;
        for (pages, _) in &runs {
            prop_assert_eq!(&r.get_page_run(&mut pages_left).unwrap(), pages);
        }
        prop_assert!(r.is_exhausted());
        prop_assert_eq!(pages_left, 0);
    }
}

/// Run spans at each side of every width boundary, with the width each
/// needs: a single repeated page, 2^8 - 1 and 2^8, 2^16 - 1 and 2^16,
/// 2^32 - 1 and 2^32, and the full 64-bit range.
const SPANS: [(u64, usize); 8] = [
    (0, 1),
    (0xff, 1),
    (0x100, 2),
    (0xffff, 2),
    (0x1_0000, 4),
    (0xffff_ffff, 4),
    (0x1_0000_0000, 8),
    (u64::MAX, 8),
];
