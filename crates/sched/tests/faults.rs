//! Property tests for the fault-injection layer: injection is deterministic
//! under a fixed seed, and the hardened wrapper keeps arbitrary fault
//! schedules within the memory budget.

use proptest::prelude::*;

use parapage_cache::{LruCache, ProcId, Time};
use parapage_core::{DetPar, FaultEvent, HardenedAllocator, ModelParams};
use parapage_sched::{Engine, EngineOpts, FaultPlan, NullSink, RunResult};
use parapage_workloads::{build_workload, fault_scenario, SeqSpec, Workload, FAULT_SCENARIOS};

const P: usize = 4;
const K: usize = 32;
const S: u64 = 8;

fn small_workload(seed: u64) -> Workload {
    let specs: Vec<SeqSpec> = (0..P)
        .map(|x| SeqSpec::Cyclic {
            width: 2 + 3 * x,
            len: 200,
        })
        .collect();
    build_workload(&specs, seed)
}

/// Field-wise equality (RunResult intentionally has no `PartialEq`: its
/// `timelines` are auxiliary output).
fn assert_same_result(a: &RunResult, b: &RunResult) {
    assert_eq!(a.completions, b.completions);
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.memory_integral, b.memory_integral);
    assert_eq!(a.peak_memory, b.peak_memory);
    assert_eq!(a.grants_issued, b.grants_issued);
    assert_eq!(a.faults_injected, b.faults_injected);
    assert_eq!(a.degraded_grants, b.degraded_grants);
}

fn event_strategy() -> impl Strategy<Value = FaultEvent> {
    prop_oneof![
        (0u32..P as u32, 0u64..2_000, 1u64..500).prop_map(|(x, from, width)| {
            FaultEvent::ProcStall {
                proc: ProcId(x),
                from,
                until: from + width,
            }
        }),
        (0u64..2_000, 1u64..500, 1u64..8).prop_map(|(from, width, factor)| {
            FaultEvent::LatencySpike {
                from,
                until: from + width,
                factor,
            }
        }),
        (0u64..2_000, 1usize..=K)
            .prop_map(|(at, new_limit)| FaultEvent::MemoryPressure { at, new_limit }),
    ]
}

#[test]
fn named_scenarios_replay_identically() {
    let w = small_workload(11);
    let params = ModelParams::new(P, K, S);
    let horizon: Time = 20_000;
    for &name in FAULT_SCENARIOS {
        let plan = FaultPlan::new(fault_scenario(name, P, K, horizon, 7).unwrap());
        let run = || {
            let mut a = HardenedAllocator::new(DetPar::new(&params), K);
            Engine::new(
                &mut a,
                w.seqs(),
                &params,
                &EngineOpts::default(),
                &plan,
                |_| LruCache::new(0),
            )
            .run(&mut a, &mut NullSink)
            .expect("hardened run failed")
        };
        assert_same_result(&run(), &run());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The same fault plan replays to an identical result: injection adds
    /// no hidden nondeterminism to a deterministic policy.
    #[test]
    fn injection_is_deterministic(
        events in prop::collection::vec(event_strategy(), 0..10),
        wseed in 0u64..1_000,
    ) {
        let w = small_workload(wseed);
        let params = ModelParams::new(P, K, S);
        let plan = FaultPlan::new(events);
        let run = || {
            let mut a = HardenedAllocator::new(DetPar::new(&params), K);
            Engine::new(&mut a, w.seqs(), &params, &EngineOpts::default(), &plan, |_| {
                LruCache::new(0)
            })
            .run(&mut a, &mut NullSink)
        };
        match (run(), run()) {
            (Ok(a), Ok(b)) => assert_same_result(&a, &b),
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert!(false, "diverged: {a:?} vs {b:?}"),
        }
    }

    /// The hardened wrapper completes every run within the enforced budget,
    /// whatever faults arrive: the engine's limit check (seeded at `k` and
    /// tightened by every pressure event) never fires.
    #[test]
    fn hardened_never_exceeds_the_limit(
        events in prop::collection::vec(event_strategy(), 0..10),
        wseed in 0u64..1_000,
    ) {
        let w = small_workload(wseed);
        let params = ModelParams::new(P, K, S);
        let plan = FaultPlan::new(events);
        let opts = EngineOpts {
            memory_limit: Some(K),
            ..Default::default()
        };
        let mut a = HardenedAllocator::new(DetPar::new(&params), K);
        let res = Engine::new(&mut a, w.seqs(), &params, &opts, &plan, |_| LruCache::new(0))
            .run(&mut a, &mut NullSink);
        let res = match res {
            Ok(r) => r,
            Err(e) => return Err(TestCaseError::fail(format!("hardened run failed: {e}"))),
        };
        prop_assert!(res.peak_memory <= K, "peak {} > k {}", res.peak_memory, K);
    }
}
