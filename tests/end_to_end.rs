//! Cross-crate end-to-end tests: workload generation → policy → engine →
//! analysis, exercising every public policy on every workload family.

use parapage::core::policy;
use parapage::prelude::*;

fn params() -> ModelParams {
    ModelParams::new(8, 64, 10)
}

fn mixed_workload(len: usize) -> Workload {
    let specs: Vec<SeqSpec> = (0..8)
        .map(|x| match x % 4 {
            0 => SeqSpec::Cyclic { width: 4, len },
            1 => SeqSpec::Cyclic { width: 32, len },
            2 => SeqSpec::Zipf {
                universe: 64,
                theta: 0.9,
                len,
            },
            _ => SeqSpec::Phased {
                phases: vec![(4, len / 2), (32, len / 2)],
            },
        })
        .collect();
    build_workload(&specs, 123)
}

/// Every policy must serve every request exactly once and finish above the
/// certified lower bound.
#[test]
fn all_policies_complete_all_requests() {
    let p = params();
    let w = mixed_workload(1500);
    let total = w.total_requests();
    let lb = per_proc_bound(w.seqs(), p.k, p.s);
    let opts = EngineOpts::default();

    for &name in policy::NAMES {
        let mut alloc = policy::build(name, &p, 9, false).unwrap();
        let res = run_engine(&mut *alloc, w.seqs(), &p, &opts).unwrap();
        assert_eq!(res.stats.accesses(), total, "policy {name}");
        assert!(res.makespan >= lb, "policy {name} beat the lower bound?!");
        assert_eq!(res.completions.len(), 8, "policy {name}");
        assert!(
            res.completions.iter().all(|&c| c > 0 && c <= res.makespan),
            "policy {name}"
        );
    }
}

/// The engine's makespan must dominate each processor's own certified
/// minimum service time (it cannot serve faster than all-hits).
#[test]
fn completions_respect_per_processor_floors() {
    let p = params();
    let w = mixed_workload(1000);
    let mut det = DetPar::new(&p);
    let res = run_engine(&mut det, w.seqs(), &p, &EngineOpts::default()).unwrap();
    for (x, seq) in w.seqs().iter().enumerate() {
        let floor = seq.len() as u64 + (p.s - 1) * min_misses(seq, p.k);
        assert!(
            res.completions[x] >= floor,
            "proc {x}: completion {} below Belady floor {floor}",
            res.completions[x]
        );
    }
}

/// DET-PAR stays within its documented memory factor and is audited
/// well-rounded on real runs.
#[test]
fn det_par_is_well_rounded_in_practice() {
    let p = params();
    let w = mixed_workload(2000);
    let mut det = DetPar::new(&p);
    let opts = EngineOpts {
        record_timelines: true,
        ..Default::default()
    };
    let res = run_engine(&mut det, w.seqs(), &p, &opts).unwrap();
    assert!(res.peak_memory <= DetPar::MEMORY_FACTOR * p.k);
    let report = check_well_rounded(
        res.timelines.as_ref().unwrap(),
        &res.completions,
        det.phases(),
        &p,
        4.0,
    );
    assert!(
        report.ok,
        "DET-PAR failed its own audit: {:?}",
        report.violations
    );
}

/// RAND-PAR is deterministic per seed and varies across seeds.
#[test]
fn rand_par_seeding() {
    let p = params();
    let w = mixed_workload(800);
    let run = |seed: u64| {
        let mut rp = RandPar::new(&p, seed);
        run_engine(&mut rp, w.seqs(), &p, &EngineOpts::default())
            .unwrap()
            .makespan
    };
    assert_eq!(run(5), run(5));
    let different = (0..8).map(run).collect::<std::collections::HashSet<_>>();
    assert!(different.len() > 1, "seeds produced identical makespans");
}

/// Compartmentalized (paper-WLOG) runs are never faster than resize
/// semantics, for every policy.
#[test]
fn compartmentalization_only_hurts() {
    let p = params();
    let w = mixed_workload(800);
    for seed in [1u64, 2] {
        let mut a = RandPar::new(&p, seed);
        let plain = run_engine(&mut a, w.seqs(), &p, &EngineOpts::default()).unwrap();
        let mut b = RandPar::new(&p, seed);
        let comp = run_engine(
            &mut b,
            w.seqs(),
            &p,
            &EngineOpts {
                compartmentalized: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(comp.makespan >= plain.makespan);
    }
}

/// The shared-LRU baseline and the engine agree on trivial single-processor
/// inputs.
#[test]
fn engines_agree_on_single_processor_full_cache() {
    let p = ModelParams::new(1, 64, 10);
    let seq: Vec<PageId> = {
        let mut b = SeqBuilder::new(ProcId(0), 3);
        b.cyclic(16, 500);
        b.build()
    };
    let shared = run_shared_lru(std::slice::from_ref(&seq), p.k, p.s);
    let mut det = DetPar::new(&p);
    let engine = run_engine(
        &mut det,
        std::slice::from_ref(&seq),
        &p,
        &EngineOpts::default(),
    )
    .unwrap();
    // DET-PAR gives the single processor the whole cache; identical timing.
    assert_eq!(shared.makespan, engine.makespan);
    assert_eq!(shared.stats.misses, engine.stats.misses);
}

/// Trace round-trip preserves engine results exactly.
#[test]
fn trace_round_trip_preserves_results() {
    let p = params();
    let w = mixed_workload(400);
    let text = parapage::workloads::trace::to_string(&w);
    let w2 = parapage::workloads::trace::from_str(&text).unwrap();
    let mut a = DetPar::new(&p);
    let r1 = run_engine(&mut a, w.seqs(), &p, &EngineOpts::default()).unwrap();
    let mut b = DetPar::new(&p);
    let r2 = run_engine(&mut b, w2.seqs(), &p, &EngineOpts::default()).unwrap();
    assert_eq!(r1.makespan, r2.makespan);
    assert_eq!(r1.completions, r2.completions);
}
