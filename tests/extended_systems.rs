//! Integration tests for the extended systems: UCP, the rebooting green
//! pager inside the black-box packer, the exact static optimum, fairness,
//! bandwidth limits, and alternative in-box replacement policies.

use parapage::analysis::{static_opt_makespan, static_opt_total_time};
use parapage::core::policy;
use parapage::prelude::*;
use parapage::sched::run_shared_lru_bandwidth;

fn params() -> ModelParams {
    ModelParams::new(8, 64, 10)
}

fn skewed(len: usize) -> Workload {
    let specs: Vec<SeqSpec> = (0..8)
        .map(|x| {
            if x == 0 {
                SeqSpec::Cyclic { width: 48, len }
            } else {
                SeqSpec::Cyclic { width: 2, len }
            }
        })
        .collect();
    build_workload(&specs, 4)
}

#[test]
fn ucp_learns_the_skew_and_beats_static_equal() {
    let p = params();
    let w = skewed(4000);
    let mut ucp = UcpPartition::new(&p);
    let ucp_ms = run_engine(&mut ucp, w.seqs(), &p, &EngineOpts::default())
        .unwrap()
        .makespan;
    let mut st = StaticPartition::new(&p);
    let st_ms = run_engine(&mut st, w.seqs(), &p, &EngineOpts::default())
        .unwrap()
        .makespan;
    assert!(
        (ucp_ms as f64) < 0.6 * st_ms as f64,
        "UCP {ucp_ms} vs static {st_ms}"
    );
}

#[test]
fn static_opt_is_a_floor_for_static_policies_and_matches_engine() {
    let p = params();
    let w = skewed(2000);
    let opt = static_opt_makespan(w.seqs(), p.k, p.s);
    assert!(opt.allocation.iter().sum::<usize>() <= p.k);
    // The static-equal engine run can never beat the static optimum.
    let mut st = StaticPartition::new(&p);
    let st_ms = run_engine(&mut st, w.seqs(), &p, &EngineOpts::default())
        .unwrap()
        .makespan;
    assert!(st_ms >= opt.objective, "{st_ms} < {}", opt.objective);
    // Total-time optimum lower-bounds the sum of completions of the static
    // run as well.
    let tot = static_opt_total_time(w.seqs(), p.k, p.s);
    let mut st2 = StaticPartition::new(&p);
    let res = run_engine(&mut st2, w.seqs(), &p, &EngineOpts::default()).unwrap();
    let total: u64 = res.completions.iter().sum();
    assert!(total >= tot.objective);
}

#[test]
fn rebooting_green_tracks_survivors_inside_the_packer() {
    let p = params();
    // Heterogeneous lengths so completions stagger.
    let specs: Vec<SeqSpec> = (0..8)
        .map(|x| SeqSpec::Cyclic {
            width: 4,
            len: 500 * (x + 1),
        })
        .collect();
    let w = build_workload(&specs, 2);
    let pagers: Vec<RebootingGreen> = (0..8).map(|i| RebootingGreen::new(&p, i)).collect();
    let mut bb = BlackboxGreenPacker::new(&p, pagers);
    let res = run_engine(&mut bb, w.seqs(), &p, &EngineOpts::default()).unwrap();
    assert_eq!(res.stats.accesses(), w.total_requests());
}

#[test]
fn fair_packer_completes_and_stays_within_memory() {
    let p = params();
    let w = skewed(1500);
    let pagers: Vec<RandGreen> = (0..8).map(|i| RandGreen::new(&p, i)).collect();
    let mut bb = BlackboxGreenPacker::new(&p, pagers).with_fairness(2.0);
    let res = run_engine(&mut bb, w.seqs(), &p, &EngineOpts::default()).unwrap();
    assert_eq!(res.stats.accesses(), w.total_requests());
    // Policy budget k + filler budget k.
    assert!(res.peak_memory <= 2 * p.k, "peak {}", res.peak_memory);
}

#[test]
fn bandwidth_limits_compose_with_policies() {
    let w = skewed(1000);
    let unlimited = run_shared_lru(w.seqs(), 64, 10).makespan;
    let throttled = run_shared_lru_bandwidth(w.seqs(), 64, 10, 1).makespan;
    let generous = run_shared_lru_bandwidth(w.seqs(), 64, 10, 8).makespan;
    assert_eq!(unlimited, generous);
    assert!(throttled >= unlimited);
}

#[test]
fn lru_wlog_spread_is_bounded_on_cyclic_workloads() {
    // E13 as a test: swapping the in-box replacement policy changes DET-PAR
    // makespan by at most a small constant on loop workloads.
    let p = params();
    let w = skewed(1500);
    fn makespan<C: Cache>(w: &Workload, p: &ModelParams, cache: fn(usize) -> C) -> u64 {
        let mut det = DetPar::new(p);
        let plan = FaultPlan::none();
        Engine::new(&mut det, w.seqs(), p, &EngineOpts::default(), &plan, cache)
            .run(&mut det, &mut NullSink)
            .unwrap()
            .makespan
    }
    let mk = [
        makespan(&w, &p, |_| LruCache::new(0)),
        makespan(&w, &p, |_| FifoCache::new(0)),
        makespan(&w, &p, |_| ClockCache::new(0)),
    ];
    let lo = *mk.iter().min().unwrap() as f64;
    let hi = *mk.iter().max().unwrap() as f64;
    assert!(hi / lo < 3.0, "spread {mk:?}");
}

#[test]
fn greedy_audit_accepts_rand_green_end_to_end() {
    let p = params();
    let seq = {
        let mut b = SeqBuilder::new(ProcId(0), 6);
        b.cyclic(4, 1000).cyclic(40, 1500).cyclic(8, 800);
        b.build()
    };
    let run = run_green(&mut RandGreen::new(&p, 3), &seq, &p);
    let audit = audit_greedy(&seq, &run.profile, &p.box_heights(), p.s, 10);
    assert!(audit.factor <= 4.0 * (p.p as f64).log2() + 4.0);
}

#[test]
fn hpc_patterns_flow_through_the_full_pipeline() {
    let p = params();
    let seqs: Vec<Vec<PageId>> = (0..8)
        .map(|x| {
            let mut b = SeqBuilder::new(ProcId(x), 3);
            match x % 3 {
                0 => b.sawtooth(24, 2000),
                1 => b.strided(8, 8, 2000),
                _ => b.tiled(8, 8, 4, 2000),
            };
            b.build()
        })
        .collect();
    let w = Workload::new(seqs);
    assert!(w.is_disjoint());
    let mut det = DetPar::new(&p);
    let res = run_engine(&mut det, w.seqs(), &p, &EngineOpts::default()).unwrap();
    assert_eq!(res.stats.accesses(), w.total_requests());
    let lb = per_proc_bound(w.seqs(), p.k, p.s);
    assert!(res.makespan >= lb);
}

#[test]
fn non_power_of_two_processor_counts_work() {
    // Regression test: the pagers must size per-processor state by the
    // actual p (only k is rounded by the WLOG), so p = 3, 5, 6 all run.
    for p_count in [3usize, 5, 6] {
        let params = ModelParams::new(p_count, 64, 10);
        let specs: Vec<SeqSpec> = (0..p_count)
            .map(|x| SeqSpec::Cyclic {
                width: 4 + x,
                len: 500,
            })
            .collect();
        let w = build_workload(&specs, 1);
        for &name in policy::NAMES {
            let mut alloc = policy::build(name, &params, 7, false).unwrap();
            let res = run_engine(&mut *alloc, w.seqs(), &params, &EngineOpts::default()).unwrap();
            assert_eq!(
                res.stats.accesses(),
                w.total_requests(),
                "{name} p={p_count}"
            );
        }
    }
}

#[test]
fn srpt_minimizes_mean_completion_on_uneven_jobs() {
    let params = ModelParams::new(4, 64, 10);
    let lengths = [400usize, 800, 1600, 3200];
    let specs: Vec<SeqSpec> = lengths
        .iter()
        .map(|&len| SeqSpec::Cyclic { width: 40, len })
        .collect();
    let w = build_workload(&specs, 5);
    let mut srpt = SrptPartition::new(&params, &lengths);
    let srpt_res = run_engine(&mut srpt, w.seqs(), &params, &EngineOpts::default()).unwrap();
    let mut st = StaticPartition::new(&params);
    let st_res = run_engine(&mut st, w.seqs(), &params, &EngineOpts::default()).unwrap();
    assert!(
        srpt_res.mean_completion() < st_res.mean_completion(),
        "SRPT {:.0} should beat static {:.0} on mean completion",
        srpt_res.mean_completion(),
        st_res.mean_completion()
    );
}
