//! Property tests for the analysis crate: bounds really bound, optima
//! really are optimal (vs brute force on small instances), statistics
//! agree.

use proptest::prelude::*;

use parapage_analysis::{
    fit_linear, micro_opt_makespan, per_proc_bound, quantile, static_opt_makespan,
    static_opt_total_time, summarize,
};
use parapage_cache::{miss_curve, PageId, ProcId};

fn cyc(x: u32, width: u64, len: usize) -> Vec<PageId> {
    (0..len)
        .map(|i| PageId::namespaced(ProcId(x), i as u64 % width))
        .collect()
}

fn instance_strategy() -> impl Strategy<Value = Vec<Vec<PageId>>> {
    prop::collection::vec((1u64..10, 5usize..60), 2..=2).prop_map(|specs| {
        specs
            .into_iter()
            .enumerate()
            .map(|(x, (w, n))| cyc(x as u32, w, n))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// static_opt_makespan equals the brute-force optimum over all splits
    /// (p = 2 allows exhaustive verification).
    #[test]
    fn static_opt_matches_brute_force(seqs in instance_strategy(), k in 2usize..10, s in 2u64..8) {
        let opt = static_opt_makespan(&seqs, k, s);
        let c0 = miss_curve(&seqs[0], k);
        let c1 = miss_curve(&seqs[1], k);
        let brute = (0..=k)
            .map(|a| c0.service_time(a, s).max(c1.service_time(k - a, s)))
            .min()
            .unwrap();
        prop_assert_eq!(opt.objective, brute);
    }

    /// Same for the total-time objective.
    #[test]
    fn static_opt_total_matches_brute_force(seqs in instance_strategy(), k in 2usize..10, s in 2u64..8) {
        let opt = static_opt_total_time(&seqs, k, s);
        let c0 = miss_curve(&seqs[0], k);
        let c1 = miss_curve(&seqs[1], k);
        let brute = (0..=k)
            .map(|a| c0.service_time(a, s) + c1.service_time(k - a, s))
            .min()
            .unwrap();
        prop_assert_eq!(opt.objective, brute);
    }

    /// The certified sandwich: per-processor bound ≤ micro-OPT ≤ full
    /// serialization. (Micro-OPT may exceed the *static* optimum: its
    /// rounds start cold, and re-warming accrues every round — proptest
    /// found the counterexample that killed a tighter claim.)
    #[test]
    fn micro_opt_sandwich(seqs in instance_strategy(), s in 2u64..8) {
        let k = 8;
        let lb = per_proc_bound(&seqs, k, s);
        let micro = micro_opt_makespan(&seqs, k, s);
        prop_assert!(micro >= lb, "{micro} < {lb}");
        let total: u64 = seqs.iter().map(|q| q.len() as u64).sum();
        prop_assert!(micro <= s * total + s * k as u64, "{micro} vs serial");
    }

    /// Least-squares fits reproduce exact lines regardless of scale.
    #[test]
    fn fit_recovers_lines(a in -100.0f64..100.0, b in -10.0f64..10.0, n in 3usize..20) {
        let pts: Vec<(f64, f64)> = (0..n).map(|i| (i as f64, a + b * i as f64)).collect();
        let fit = fit_linear(&pts).unwrap();
        prop_assert!((fit.slope - b).abs() < 1e-6);
        prop_assert!((fit.intercept - a).abs() < 1e-6);
    }

    /// Summaries and quantiles agree on basic order statistics.
    #[test]
    fn summary_quantile_consistency(xs in prop::collection::vec(-1e6f64..1e6, 1..50)) {
        let s = summarize(&xs);
        prop_assert!((quantile(&xs, 0.0).unwrap() - s.min).abs() < 1e-9);
        prop_assert!((quantile(&xs, 1.0).unwrap() - s.max).abs() < 1e-9);
        prop_assert!(s.min <= s.mean && s.mean <= s.max);
    }
}
