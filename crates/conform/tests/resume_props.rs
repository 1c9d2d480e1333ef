//! Property-based resume equivalence: crash-and-recover at an *arbitrary*
//! tick must be invisible, the snapshot codec must round-trip exactly, and
//! an incremental WAL delta applied to its base must reconstruct the full
//! snapshot byte-for-byte.

use proptest::prelude::*;

use parapage_cache::{LruCache, ShardedLru};
use parapage_conform::{check_replay, check_resume};
use parapage_core::{policy, ModelParams};
use parapage_sched::{
    CrashPlan, Engine, EngineOpts, EngineSnapshot, EpochControl, FaultPlan, MemStore, NullSink,
    Supervisor, SupervisorOpts, TraceRecorder,
};
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
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// For every policy, fault scenario, and a crash at a random tick of
    /// the run, the supervised crash-and-recover run reproduces the
    /// uninterrupted run's result and trace byte-for-byte.
    #[test]
    fn resume_at_random_tick_is_equivalent(
        p in 1usize..5,
        kexp in 1u32..4,
        len in 1usize..120,
        seed in 0u64..1_000_000,
        // Folded (policy, scenario) selector plus a crash position.
        combo in 0usize..30,
        crash_frac in 0.0f64..1.0,
    ) {
        let k = p.next_power_of_two() << kexp;
        let params = ModelParams::new(p, k, 6);
        let seqs = workload_for(p, k, len, (combo % 4) as u32, seed);
        let policy = policy::NAMES[combo % policy::NAMES.len()];
        let scenario = FAULT_SCENARIOS[(combo / 6) % FAULT_SCENARIOS.len()];
        let plan = FaultPlan::new(
            fault_scenario(scenario, p, k, (len as u64 + 4) * 6 * 4, seed).unwrap(),
        );
        let opts = EngineOpts::default();
        // Probe the baseline length, then crash at the sampled fraction.
        let probe = check_resume(
            policy, &seqs, &params, &opts, seed, scenario, &plan, &[],
        ).unwrap();
        prop_assert!(probe.passed(), "{}/{}: {:?}", policy, scenario, probe.violations);
        let crash = ((probe.baseline_ticks as f64 * crash_frac) as u64)
            .clamp(1, probe.baseline_ticks);
        let cell = check_resume(
            policy, &seqs, &params, &opts, seed, scenario, &plan, &[crash],
        ).unwrap();
        prop_assert!(
            cell.passed(),
            "{}/{} crash at tick {}/{}: {:?}",
            policy, scenario, crash, cell.baseline_ticks, cell.violations
        );
    }

    /// The snapshot codec round-trips exactly on real mid-run engine
    /// states: `decode(encode(s)) == s`, for every policy and a snapshot
    /// taken after an arbitrary number of steps.
    #[test]
    fn snapshot_codec_round_trips_mid_run(
        p in 1usize..5,
        kexp in 1u32..4,
        len in 1usize..120,
        seed in 0u64..1_000_000,
        // Folded (policy, record_timelines) selector.
        sel in 0usize..12,
        steps in 0usize..64,
    ) {
        let k = p.next_power_of_two() << kexp;
        let params = ModelParams::new(p, k, 6);
        let seqs = workload_for(p, k, len, 2, seed);
        let policy = policy::NAMES[sel % policy::NAMES.len()];
        let timelines = sel >= policy::NAMES.len();
        let plan = FaultPlan::new(fault_scenario("chaos", p, k, 4000, seed).unwrap());
        let opts = EngineOpts { record_timelines: timelines, ..EngineOpts::default() };
        let mut alloc = policy::build(policy, &params, seed, true).unwrap();
        let mut engine =
            Engine::new(&mut *alloc, &seqs, &params, &opts, &plan, |_| LruCache::new(0));
        let mut sink = NullSink;
        for _ in 0..steps {
            match engine.step(&mut *alloc, &mut sink) {
                Ok(true) => {}
                Ok(false) => break,
                Err(e) => return Err(TestCaseError::fail(format!("engine errored: {e}"))),
            }
        }
        let snap = engine.snapshot(&*alloc).unwrap();
        let decoded = EngineSnapshot::decode(&snap.encode()).unwrap();
        prop_assert_eq!(decoded, snap);
    }

    /// An incremental WAL delta taken after an arbitrary number of steps
    /// past an arbitrary base reconstructs the engine's full snapshot
    /// byte-for-byte when applied to that base, for every policy.
    #[test]
    fn wal_delta_reconstruction_matches_full_snapshot(
        p in 1usize..5,
        kexp in 1u32..4,
        len in 1usize..120,
        seed in 0u64..1_000_000,
        sel in 0usize..6,
        // Folded (base_steps, delta_steps), each in 0..48.
        steps in 0usize..2304,
    ) {
        let (base_steps, delta_steps) = (steps % 48, steps / 48);
        let k = p.next_power_of_two() << kexp;
        let params = ModelParams::new(p, k, 6);
        let seqs = workload_for(p, k, len, 1, seed);
        let policy = policy::NAMES[sel % policy::NAMES.len()];
        let plan = FaultPlan::new(fault_scenario("chaos", p, k, 4000, seed).unwrap());
        let opts = EngineOpts::default();
        let mut alloc = policy::build(policy, &params, seed, true).unwrap();
        let mut engine =
            Engine::new(&mut *alloc, &seqs, &params, &opts, &plan, |_| LruCache::new(0));
        let mut sink = NullSink;
        for _ in 0..base_steps {
            match engine.step(&mut *alloc, &mut sink) {
                Ok(true) => {}
                Ok(false) => break,
                Err(e) => return Err(TestCaseError::fail(format!("engine errored: {e}"))),
            }
        }
        let base = engine.snapshot(&*alloc).unwrap();
        engine.reset_wal_mark();
        for _ in 0..delta_steps {
            match engine.step(&mut *alloc, &mut sink) {
                Ok(true) => {}
                Ok(false) => break,
                Err(e) => return Err(TestCaseError::fail(format!("engine errored: {e}"))),
            }
        }
        let delta = engine.wal_delta(&*alloc).unwrap();
        let full = engine.snapshot(&*alloc).unwrap();
        let mut rebuilt = base;
        delta.apply(&mut rebuilt).unwrap();
        prop_assert_eq!(rebuilt.encode(), full.encode());
    }

    /// With WAL checkpoints at *every* epoch boundary and a crash at a
    /// random tick, the supervised run reproduces the uninterrupted run's
    /// result and trace byte-for-byte — for every policy, the RNG-backed
    /// ones included.
    #[test]
    fn wal_resume_at_random_tick_is_equivalent(
        p in 1usize..5,
        kexp in 1u32..4,
        len in 8usize..120,
        seed in 0u64..1_000_000,
        sel in 0usize..6,
        crash_frac in 0.0f64..1.0,
    ) {
        let k = p.next_power_of_two() << kexp;
        let params = ModelParams::new(p, k, 6);
        let seqs = workload_for(p, k, len, 3, seed);
        let policy = policy::NAMES[sel % policy::NAMES.len()];
        let plan = FaultPlan::none();
        let opts = EngineOpts::default();

        let mut alloc = policy::build(policy, &params, seed, false).unwrap();
        let mut engine =
            Engine::new(&mut *alloc, &seqs, &params, &opts, &plan, |_| LruCache::new(0));
        let mut baseline_trace = TraceRecorder::new();
        loop {
            match engine.step(&mut *alloc, &mut baseline_trace) {
                Ok(true) => {}
                Ok(false) => break,
                Err(e) => return Err(TestCaseError::fail(format!("engine errored: {e}"))),
            }
        }
        let baseline_ticks = engine.ticks();
        let baseline = engine.into_result(&*alloc);
        let crash = ((baseline_ticks as f64 * crash_frac) as u64).clamp(1, baseline_ticks);

        let sup_opts = SupervisorOpts {
            epoch_ticks: 8,
            max_retries: 3,
            backoff_base: std::time::Duration::ZERO,
            wal: true,
            full_snapshot_every: 4,
            ..SupervisorOpts::default()
        };
        let mut recovered_trace = TraceRecorder::new();
        let report = Supervisor::new(sup_opts)
            .run_controlled(
                &seqs,
                &params,
                &opts,
                &plan,
                &CrashPlan::at_ticks(vec![crash]),
                || policy::build(policy, &params, seed, false).unwrap(),
                |_| LruCache::new(0),
                &mut recovered_trace,
                &mut MemStore::new(),
                |_| EpochControl::Continue,
            )
            .map_err(|e| TestCaseError::fail(format!("{policy}: recovery failed: {e}")))?;
        prop_assert_eq!(&report.result, &baseline, "{} diverged", policy);
        let trace_violations = check_replay(baseline_trace.events(), recovered_trace.events());
        prop_assert!(
            trace_violations.is_empty(),
            "{} crash at tick {}/{}: {:?}",
            policy, crash, baseline_ticks, trace_violations
        );
    }

    /// The WAL resume equivalence extends to the *sharded* concurrent
    /// cache: with every per-processor cache a 4-shard `ShardedLru`, a
    /// crash-and-recover run under epoch WAL checkpoints reproduces the
    /// uninterrupted sharded run byte-for-byte — the concatenated shard
    /// snapshot travels through base + delta and back without loss.
    #[test]
    fn wal_resume_with_sharded_cache_is_equivalent(
        p in 1usize..5,
        kexp in 1u32..4,
        len in 8usize..100,
        seed in 0u64..1_000_000,
        sel in 0usize..6,
        crash_frac in 0.0f64..1.0,
    ) {
        let k = p.next_power_of_two() << kexp;
        let params = ModelParams::new(p, k, 6);
        let seqs = workload_for(p, k, len, 0, seed);
        let policy = policy::NAMES[sel % policy::NAMES.len()];
        let plan = FaultPlan::none();
        let opts = EngineOpts::default();
        let make_cache = |_| ShardedLru::with_shards(0, 4);

        let mut alloc = policy::build(policy, &params, seed, false).unwrap();
        let mut engine =
            Engine::new(&mut *alloc, &seqs, &params, &opts, &plan, make_cache);
        let mut baseline_trace = TraceRecorder::new();
        loop {
            match engine.step(&mut *alloc, &mut baseline_trace) {
                Ok(true) => {}
                Ok(false) => break,
                Err(e) => return Err(TestCaseError::fail(format!("engine errored: {e}"))),
            }
        }
        let baseline_ticks = engine.ticks();
        let baseline = engine.into_result(&*alloc);
        let crash = ((baseline_ticks as f64 * crash_frac) as u64).clamp(1, baseline_ticks);

        let sup_opts = SupervisorOpts {
            epoch_ticks: 8,
            max_retries: 3,
            backoff_base: std::time::Duration::ZERO,
            wal: true,
            full_snapshot_every: 4,
            ..SupervisorOpts::default()
        };
        let mut recovered_trace = TraceRecorder::new();
        let report = Supervisor::new(sup_opts)
            .run_controlled(
                &seqs,
                &params,
                &opts,
                &plan,
                &CrashPlan::at_ticks(vec![crash]),
                || policy::build(policy, &params, seed, false).unwrap(),
                make_cache,
                &mut recovered_trace,
                &mut MemStore::new(),
                |_| EpochControl::Continue,
            )
            .map_err(|e| TestCaseError::fail(format!("{policy}: sharded recovery failed: {e}")))?;
        prop_assert_eq!(&report.result, &baseline, "{} diverged on sharded cache", policy);
        let trace_violations = check_replay(baseline_trace.events(), recovered_trace.events());
        prop_assert!(
            trace_violations.is_empty(),
            "{} sharded crash at tick {}/{}: {:?}",
            policy, crash, baseline_ticks, trace_violations
        );
    }
}
