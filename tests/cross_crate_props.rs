//! Cross-crate property tests: conservation laws of the execution engine
//! and ordering relations between policies, over randomized workloads.

use proptest::prelude::*;

use parapage::core::policy;
use parapage::prelude::*;

/// Arbitrary small workload specs.
fn spec_strategy(max_len: usize) -> impl Strategy<Value = SeqSpec> {
    prop_oneof![
        (1usize..32, 1usize..max_len).prop_map(|(width, len)| SeqSpec::Cyclic { width, len }),
        (1usize..max_len).prop_map(|len| SeqSpec::Fresh { len }),
        (2usize..32, 1usize..max_len)
            .prop_map(|(universe, len)| SeqSpec::Uniform { universe, len }),
        (2usize..24, 2usize..max_len, 2usize..8)
            .prop_map(|(width, len, every)| { SeqSpec::Polluted { width, len, every } }),
    ]
}

fn workload_strategy(p: usize, max_len: usize) -> impl Strategy<Value = Workload> {
    (
        prop::collection::vec(spec_strategy(max_len), p..=p),
        any::<u64>(),
    )
        .prop_map(|(specs, seed)| build_workload(&specs, seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Engine conservation laws hold for DET-PAR on arbitrary workloads:
    /// all requests served, completions dominated by makespan, per-processor
    /// Belady floors respected, memory within the documented factor.
    #[test]
    fn det_par_engine_invariants(w in workload_strategy(4, 400)) {
        let params = ModelParams::new(4, 32, 8);
        let mut det = DetPar::new(&params);
        let res = run_engine(&mut det, w.seqs(), &params, &EngineOpts::default()).unwrap();
        prop_assert_eq!(res.stats.accesses(), w.total_requests());
        prop_assert_eq!(
            res.makespan,
            res.completions.iter().copied().max().unwrap_or(0)
        );
        for (x, seq) in w.seqs().iter().enumerate() {
            if seq.is_empty() { continue; }
            let floor = seq.len() as u64 + (params.s - 1) * min_misses(seq, params.k);
            prop_assert!(res.completions[x] >= floor);
        }
        prop_assert!(res.peak_memory <= DetPar::MEMORY_FACTOR * params.k);
        prop_assert!(res.memory_integral >= res.stats.accesses() as u128);
    }

    /// RAND-PAR conservation laws, any seed.
    #[test]
    fn rand_par_engine_invariants(w in workload_strategy(4, 300), seed in any::<u64>()) {
        let params = ModelParams::new(4, 32, 8);
        let mut rp = RandPar::new(&params, seed);
        let res = run_engine(&mut rp, w.seqs(), &params, &EngineOpts::default()).unwrap();
        prop_assert_eq!(res.stats.accesses(), w.total_requests());
        prop_assert!(res.peak_memory <= 2 * params.k);
    }

    /// The certified lower bound never exceeds any policy's real makespan.
    #[test]
    fn lower_bound_is_sound(w in workload_strategy(4, 300)) {
        let params = ModelParams::new(4, 32, 8);
        let lb = per_proc_bound(w.seqs(), params.k, params.s);
        for name in ["det-par", "static", "prop-miss"] {
            let mut alloc = policy::build(name, &params, 0, false).unwrap();
            let res = run_engine(&mut *alloc, w.seqs(), &params, &EngineOpts::default()).unwrap();
            prop_assert!(res.makespan >= lb, "policy {name}: {} < {lb}", res.makespan);
        }
        // Shared LRU too.
        let res = run_shared_lru(w.seqs(), params.k, params.s);
        prop_assert!(res.makespan >= lb);
    }

    /// Green paging: every online policy's impact dominates the offline DP
    /// optimum, and richer sequences never reduce OPT impact.
    #[test]
    fn green_opt_is_a_floor(spec in spec_strategy(300), seed in any::<u64>()) {
        let params = ModelParams::new(4, 32, 8);
        let w = build_workload(std::slice::from_ref(&spec), seed);
        let seq = &w.seqs()[0];
        let opt = green_opt_normalized(seq, &params);
        let rg = run_green(&mut RandGreen::new(&params, seed), seq, &params);
        prop_assert!(rg.impact >= opt.impact);
        let ad = run_green(&mut AdaptiveGreen::new(&params), seq, &params);
        prop_assert!(ad.impact >= opt.impact);
        // Prefix monotonicity: OPT on a prefix costs no more.
        let half = &seq[..seq.len() / 2];
        let opt_half = green_opt_normalized(half, &params);
        prop_assert!(opt_half.impact <= opt.impact);
    }

    /// Workloads from the builders are always disjoint across processors.
    #[test]
    fn generated_workloads_are_disjoint(w in workload_strategy(6, 200)) {
        prop_assert!(w.is_disjoint());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Differential test: under a static partition with resize semantics,
    /// each processor's completion time equals the analytic LRU service
    /// time from the Mattson curve, plus at most `s−1` idle steps per grant
    /// (a miss that does not fit at a grant seam waits for the next grant;
    /// back-to-back equal-height grants otherwise preserve the cache).
    #[test]
    fn engine_matches_analytic_static_service_time(w in workload_strategy(4, 400)) {
        let params = ModelParams::new(4, 32, 8);
        let share = params.k / params.p;
        let grant_len = params.s * share as u64;
        let mut st = StaticPartition::new(&params);
        let res = run_engine(&mut st, w.seqs(), &params, &EngineOpts::default()).unwrap();
        for (x, seq) in w.seqs().iter().enumerate() {
            if seq.is_empty() { continue; }
            let expected = miss_curve(seq, share).service_time(share, params.s);
            let completion = res.completions[x];
            prop_assert!(completion >= expected, "proc {x}: {completion} < {expected}");
            let grants = completion / grant_len + 1;
            prop_assert!(
                completion <= expected + (params.s - 1) * grants,
                "proc {x}: {completion} > {expected} + slack({grants} grants)"
            );
        }
    }

    /// The interleaved (fixed-rate) model's per-processor miss counts under
    /// a static partition equal independent LRU miss counts.
    #[test]
    fn interleaved_model_equals_independent_lru(w in workload_strategy(3, 300)) {
        let alloc = vec![5usize, 5, 5];
        let res = parapage::sched::run_interleaved_partition(w.seqs(), &alloc);
        for (x, seq) in w.seqs().iter().enumerate() {
            prop_assert_eq!(res.misses[x], miss_curve(seq, 5).misses(5));
        }
    }
}
