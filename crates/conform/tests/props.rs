//! Property-based conformance: the optimized engine and the naive reference
//! simulator must be indistinguishable event-for-event on arbitrary
//! workloads, and the streaming checkers must hold on every clean run.

use proptest::prelude::*;

use parapage_conform::{
    check_box_geometry, check_memory, check_replay, check_run_consistency, check_stream_order,
    memory_envelope, outcome_divergence, run_reference_named, run_traced,
};
use parapage_core::{policy, ModelParams};
use parapage_sched::{EngineOpts, FaultPlan};
use parapage_workloads::{build_workload, fault_scenario, SeqSpec, FAULT_SCENARIOS};

fn workload_for(
    p: usize,
    k: usize,
    len: usize,
    shape: u32,
    seed: u64,
) -> Vec<Vec<parapage_cache::PageId>> {
    let specs: Vec<SeqSpec> = (0..p)
        .map(|x| match (shape + x as u32) % 4 {
            0 => SeqSpec::Cyclic {
                width: (k / 2).max(1),
                len,
            },
            1 => SeqSpec::Fresh { len },
            2 => SeqSpec::Uniform {
                universe: (2 * k).max(2),
                len,
            },
            _ => SeqSpec::Zipf {
                universe: k.max(2),
                theta: 0.9,
                len,
            },
        })
        .collect();
    build_workload(&specs, seed).into_seqs()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The differential oracle: engine and reference agree on the entire
    /// trace stream and the final result, for every policy, workload shape,
    /// and fault scenario.
    #[test]
    fn engine_matches_reference_everywhere(
        p in 1usize..5,
        kexp in 0u32..4,
        s in 2u64..14,
        len in 0usize..100,
        seed in 0u64..1_000_000,
        // Folded (policy, scenario, shape) selector: 6 policies x 5
        // scenarios x 4 workload shapes.
        combo in 0usize..120,
    ) {
        let k = p.next_power_of_two() << kexp;
        let params = ModelParams::new(p, k, s);
        let shape = (combo % 4) as u32;
        let seqs = workload_for(p, k, len, shape, seed);
        let policy = policy::NAMES[combo % policy::NAMES.len()];
        let scenario = FAULT_SCENARIOS[(combo / 6) % FAULT_SCENARIOS.len()];
        let plan = FaultPlan::new(
            fault_scenario(scenario, p, k, (len as u64 + 4) * s * 4, seed).unwrap(),
        );
        let hardened = scenario == "pressure" || scenario == "chaos";
        let opts = EngineOpts::default();
        let a = run_traced(policy, &seqs, &params, &opts, seed, &plan, hardened).unwrap();
        let b = run_reference_named(policy, &seqs, &params, &opts, seed, &plan, hardened).unwrap();
        let diverged = check_replay(&a.events, &b.events);
        prop_assert!(diverged.is_empty(), "{}/{}: {:?}", policy, scenario, diverged);
        prop_assert!(
            outcome_divergence(&a.outcome, &b.outcome).is_none(),
            "{}/{}: {:?}", policy, scenario,
            outcome_divergence(&a.outcome, &b.outcome)
        );
    }

    /// Replay determinism: the same (workload, policy, seed, plan) yields a
    /// byte-identical stream — including for the randomized pager.
    #[test]
    fn replay_is_deterministic(
        p in 1usize..5,
        len in 1usize..150,
        seed in 0u64..1_000_000,
        policy_idx in 0usize..6,
    ) {
        let k = 8 * p.next_power_of_two();
        let params = ModelParams::new(p, k, 8);
        let seqs = workload_for(p, k, len, 1, seed);
        let policy = policy::NAMES[policy_idx % policy::NAMES.len()];
        let plan = FaultPlan::new(fault_scenario("chaos", p, k, 4000, seed).unwrap());
        let opts = EngineOpts::default();
        let a = run_traced(policy, &seqs, &params, &opts, seed, &plan, true).unwrap();
        let b = run_traced(policy, &seqs, &params, &opts, seed, &plan, true).unwrap();
        prop_assert!(check_replay(&a.events, &b.events).is_empty());
    }

    /// Every successful clean run satisfies the streaming invariants: stream
    /// order, result consistency, and the policy's memory envelope; the
    /// paper pagers additionally satisfy box geometry.
    #[test]
    fn clean_runs_satisfy_streaming_invariants(
        p in 1usize..5,
        kexp in 1u32..4,
        len in 0usize..120,
        shape in 0u32..4,
        seed in 0u64..1_000_000,
        policy_idx in 0usize..6,
    ) {
        let k = p.next_power_of_two() << kexp;
        let params = ModelParams::new(p, k, 6);
        let seqs = workload_for(p, k, len, shape, seed);
        let policy = policy::NAMES[policy_idx % policy::NAMES.len()];
        let opts = EngineOpts::default();
        let run = run_traced(policy, &seqs, &params, &opts, seed, &FaultPlan::none(), false)
            .unwrap();
        let res = run.outcome.expect("clean runs must succeed");
        prop_assert!(check_stream_order(&run.events).is_empty());
        prop_assert!(check_run_consistency(&run.events, &res).is_empty());
        let budget = memory_envelope(policy, params.k, false, false);
        let mem = check_memory(&run.events, budget);
        prop_assert!(mem.is_empty(), "{}: {:?}", policy, mem);
        if matches!(policy, "det-par" | "rand-par") {
            let geo = check_box_geometry(&run.events, &params);
            prop_assert!(geo.is_empty(), "{}: {:?}", policy, geo);
        }
    }
}
