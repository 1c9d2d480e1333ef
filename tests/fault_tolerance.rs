//! Cross-crate fault-tolerance tests: the degraded-mode contract from
//! DESIGN.md. Under injected memory pressure `k -> k'`, a raw paper policy
//! keeps allocating against `k` and trips the engine's typed limit error,
//! while the same policy wrapped in `HardenedAllocator` completes the whole
//! workload inside the shrunken budget.

use parapage::prelude::*;

fn params() -> ModelParams {
    ModelParams::new(8, 64, 10)
}

fn workload(len: usize) -> Workload {
    let specs: Vec<SeqSpec> = (0..8)
        .map(|x| {
            if x % 2 == 0 {
                SeqSpec::Cyclic { width: 24, len }
            } else {
                SeqSpec::Zipf {
                    universe: 64,
                    theta: 0.9,
                    len,
                }
            }
        })
        .collect();
    build_workload(&specs, 2024)
}

/// Pressure from t=0 shrinks the cache to k' = k/4. DET-PAR's schedule is
/// built for k, so the unwrapped policy must hit the typed limit error —
/// not a panic, not a silent wrong answer.
#[test]
fn raw_det_par_trips_the_shrunk_memory_limit() {
    let p = params();
    let w = workload(1500);
    let k_prime = p.k / 4;
    let plan = FaultPlan::new(vec![FaultEvent::MemoryPressure {
        at: 0,
        new_limit: k_prime,
    }]);

    let mut raw = DetPar::new(&p);
    let err = Engine::new(
        &mut raw,
        w.seqs(),
        &p,
        &EngineOpts::default(),
        &plan,
        |_| LruCache::new(0),
    )
    .run(&mut raw, &mut NullSink)
    .unwrap_err();
    assert!(
        matches!(err, EngineError::MemoryLimitExceeded { limit, .. } if limit == k_prime),
        "expected MemoryLimitExceeded at {k_prime}, got: {err}"
    );
}

/// The same policy, same plan, wrapped in `HardenedAllocator`: the run
/// completes every request and its peak memory stays within k'.
#[test]
fn hardened_det_par_completes_within_the_shrunk_budget() {
    let p = params();
    let w = workload(1500);
    let k_prime = p.k / 4;
    let plan = FaultPlan::new(vec![FaultEvent::MemoryPressure {
        at: 0,
        new_limit: k_prime,
    }]);

    let mut hard = HardenedAllocator::new(DetPar::new(&p), p.k);
    let res = Engine::new(
        &mut hard,
        w.seqs(),
        &p,
        &EngineOpts::default(),
        &plan,
        |_| LruCache::new(0),
    )
    .run(&mut hard, &mut NullSink)
    .expect("hardened DET-PAR must survive memory pressure");

    assert_eq!(res.stats.accesses(), w.total_requests());
    assert!(
        res.peak_memory <= k_prime,
        "peak {} exceeds shrunk budget {k_prime}",
        res.peak_memory
    );
    assert_eq!(res.faults_injected, 1);
    assert!(
        res.completions.iter().all(|&c| c > 0 && c <= res.makespan),
        "every processor must finish"
    );
}

/// Mid-run pressure: the raw policy dies after the event while the
/// hardened one adapts and finishes, at some makespan cost over clean.
#[test]
fn mid_run_pressure_is_survivable_only_when_hardened() {
    let p = params();
    let w = workload(1500);
    let opts = EngineOpts::default();

    let clean =
        run_engine(&mut DetPar::new(&p), w.seqs(), &p, &opts).expect("clean run must succeed");
    let plan = FaultPlan::new(vec![FaultEvent::MemoryPressure {
        at: clean.makespan / 4,
        new_limit: p.k / 4,
    }]);

    let mut raw = DetPar::new(&p);
    let raw = Engine::new(&mut raw, w.seqs(), &p, &opts, &plan, |_| LruCache::new(0))
        .run(&mut raw, &mut NullSink);
    assert!(
        matches!(raw, Err(EngineError::MemoryLimitExceeded { .. })),
        "raw DET-PAR should oversubscribe after mid-run pressure"
    );

    let mut hard = HardenedAllocator::new(DetPar::new(&p), p.k);
    let res = Engine::new(&mut hard, w.seqs(), &p, &opts, &plan, |_| LruCache::new(0))
        .run(&mut hard, &mut NullSink)
        .expect("hardened DET-PAR must survive mid-run pressure");
    assert_eq!(res.stats.accesses(), w.total_requests());
    assert!(
        res.makespan >= clean.makespan,
        "degraded mode cannot beat the clean run"
    );
    assert!(
        res.degraded_grants > 0,
        "the wrapper should have intervened"
    );
}

/// The named workload scenarios drive the full matrix the `faults` CLI
/// subcommand reports: every scenario must be runnable end to end with a
/// hardened policy, yielding either a clean completion or a typed error.
#[test]
fn all_named_scenarios_run_hardened_to_completion() {
    let p = params();
    let w = workload(800);
    let opts = EngineOpts::default();
    let clean = run_engine(&mut DetPar::new(&p), w.seqs(), &p, &opts).unwrap();

    for &name in FAULT_SCENARIOS {
        let events = fault_scenario(name, p.p, p.k, clean.makespan.max(1), 7)
            .expect("scenario names are exhaustive");
        let plan = FaultPlan::new(events);
        let mut hard = HardenedAllocator::new(DetPar::new(&p), p.k);
        let res = Engine::new(&mut hard, w.seqs(), &p, &opts, &plan, |_| LruCache::new(0))
            .run(&mut hard, &mut NullSink)
            .unwrap_or_else(|e| panic!("scenario {name} failed hardened: {e}"));
        assert_eq!(res.stats.accesses(), w.total_requests(), "scenario {name}");
    }
}
