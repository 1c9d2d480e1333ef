//! Property-based resume equivalence: crash-and-recover at an *arbitrary*
//! tick must be invisible, the snapshot codec must round-trip exactly, and
//! a replay from a base snapshot must pass every WAL mark with the
//! uninterrupted engine's state byte-for-byte.

use proptest::prelude::*;

use parapage_cache::{Cache, Checkpoint, LruCache, PageId, ShardedLru};
use parapage_conform::{
    baseline_run, check_replay, check_resume, CellRow, SabotagedStore, WalCorruption,
};
use parapage_core::{policy, BoxAllocator, ModelParams};
use parapage_sched::{
    CrashPlan, Engine, EngineOpts, EngineSnapshot, EpochControl, FaultPlan, MemStore, NullSink,
    Supervisor, SupervisorOpts, TraceRecorder, WAL_MARK_LEN,
};
use parapage_workloads::{build_workload, fault_scenario, SeqSpec, FAULT_SCENARIOS};

fn workload_for(p: usize, k: usize, len: usize, shape: u32, seed: u64) -> Vec<Vec<PageId>> {
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
            policy, &seqs, &params, &opts, seed, &plan, |_| Vec::new(),
        ).unwrap();
        prop_assert!(probe.passed(), "{}/{}: {:?}", policy, scenario, probe.violations);
        let crash = ((probe.baseline_ticks as f64 * crash_frac) as u64)
            .clamp(1, probe.baseline_ticks);
        let cell = check_resume(
            policy, &seqs, &params, &opts, seed, &plan, |_| vec![crash],
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
        advance(&mut engine, &mut *alloc, steps)?;
        let snap = engine.snapshot(&*alloc).unwrap();
        let decoded = EngineSnapshot::decode(&snap.encode()).unwrap();
        prop_assert_eq!(decoded, snap);
    }

    /// Replay is what recovery does: restore a base snapshot taken after an
    /// arbitrary number of steps, then step a fresh engine to each later
    /// mark. For every policy under the chaos fault scenario and random cut
    /// points, the replayed engine reaches each mark's tick with the
    /// uninterrupted engine's digest and snapshot bytes.
    #[test]
    fn replay_from_base_matches_uninterrupted_engine_at_every_mark(
        p in 1usize..5,
        kexp in 1u32..4,
        len in 1usize..120,
        seed in 0u64..1_000_000,
        // Folded (policy, steps before the base) selector.
        sel in 0usize..288,
        // Steps between consecutive marks.
        gaps in proptest::collection::vec(1usize..24, 1..6),
    ) {
        let k = p.next_power_of_two() << kexp;
        let params = ModelParams::new(p, k, 6);
        let seqs = workload_for(p, k, len, 1, seed);
        let policy = policy::NAMES[sel % policy::NAMES.len()];
        let base_steps = sel / policy::NAMES.len();
        let plan = FaultPlan::new(fault_scenario("chaos", p, k, 4000, seed).unwrap());
        let opts = EngineOpts::default();
        let mut alloc = policy::build(policy, &params, seed, true).unwrap();
        let mut engine =
            Engine::new(&mut *alloc, &seqs, &params, &opts, &plan, |_| LruCache::new(0));
        advance(&mut engine, &mut *alloc, base_steps)?;
        let base = engine.snapshot(&*alloc).unwrap().encode();
        let mut marks = Vec::new();
        for &gap in &gaps {
            advance(&mut engine, &mut *alloc, gap)?;
            marks.push((engine.wal_mark(), engine.snapshot(&*alloc).unwrap().encode()));
        }

        let mut alloc = policy::build(policy, &params, seed, true).unwrap();
        let mut replay =
            Engine::new(&mut *alloc, &seqs, &params, &opts, &plan, |_| LruCache::new(0));
        replay.restore(&EngineSnapshot::decode(&base).unwrap(), &mut *alloc).unwrap();
        for (i, (mark, snap)) in marks.iter().enumerate() {
            prop_assert_eq!(mark.encode().len(), WAL_MARK_LEN);
            while replay.ticks() < mark.ticks && !replay.is_done() {
                advance(&mut replay, &mut *alloc, 1)?;
            }
            prop_assert_eq!(replay.wal_mark(), *mark, "{} mark {}", policy, i);
            prop_assert_eq!(
                &replay.snapshot(&*alloc).unwrap().encode(), snap, "{} mark {}", policy, i
            );
        }
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
        let seqs = workload_for(p, k, len, 3, seed);
        let policy = policy::NAMES[sel % policy::NAMES.len()];
        wal_resume_case(&seqs, &ModelParams::new(p, k, 6), policy, seed, crash_frac, |_| {
            LruCache::new(0)
        })?;
    }

    /// The WAL resume equivalence extends to the *sharded* concurrent
    /// cache: with every per-processor cache a 4-shard `ShardedLru`, a
    /// crash-and-recover run under epoch WAL checkpoints reproduces the
    /// uninterrupted sharded run byte-for-byte — the concatenated shard
    /// snapshot travels through the base and the replay without loss.
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
        let seqs = workload_for(p, k, len, 0, seed);
        let policy = policy::NAMES[sel % policy::NAMES.len()];
        wal_resume_case(&seqs, &ModelParams::new(p, k, 6), policy, seed, crash_frac, |_| {
            ShardedLru::with_shards(0, 4)
        })?;
    }
}

/// Steps `engine` `n` times, or to the end of the run.
fn advance<C: Cache>(
    engine: &mut Engine<'_, C>,
    alloc: &mut dyn BoxAllocator,
    n: usize,
) -> Result<(), TestCaseError> {
    for _ in 0..n {
        let more = engine
            .step(alloc, &mut NullSink)
            .map_err(|e| TestCaseError::fail(format!("engine errored: {e}")))?;
        if !more {
            break;
        }
    }
    Ok(())
}

/// A crash at `crash_frac` of the run under WAL checkpoints (8-tick
/// epochs, bases only when they pay) must recover to the uninterrupted result
/// and trace.
fn wal_resume_case<C: Cache + Checkpoint>(
    seqs: &[Vec<PageId>],
    params: &ModelParams,
    policy: &str,
    seed: u64,
    crash_frac: f64,
    make_cache: impl Fn(usize) -> C + Copy,
) -> Result<(), TestCaseError> {
    let (opts, plan) = (EngineOpts::default(), FaultPlan::none());
    let (baseline, baseline_trace, ticks) =
        baseline_run(policy, seqs, params, &opts, seed, &plan, false, make_cache)
            .map_err(TestCaseError::fail)?;
    let crash = ((ticks as f64 * crash_frac) as u64).clamp(1, ticks);
    let sup_opts = SupervisorOpts {
        epoch_ticks: 8,
        max_retries: 3,
        backoff_base: std::time::Duration::ZERO,
        ..SupervisorOpts::default()
    };
    let mut recovered_trace = TraceRecorder::new();
    let report = Supervisor::new(sup_opts)
        .run_controlled(
            seqs,
            params,
            &opts,
            &plan,
            &CrashPlan::at_ticks(vec![crash]),
            || policy::build(policy, params, seed, false).unwrap(),
            make_cache,
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
        policy,
        crash,
        ticks,
        trace_violations
    );
    Ok(())
}

/// A crash whose recovery read finds a torn log tail, then a migration.
/// The boundaries a replay re-passes up to the last intact record are
/// verify-only, so `control` sees each boundary tick once, in increasing
/// order, and the report counts the epochs and records the same run
/// counted before WAL records became marks (pinned below).
#[test]
fn torn_tail_then_migration_reports_each_boundary_once() {
    let (params, seed, policy) = (ModelParams::new(4, 32, 6), 42, "rand-par");
    let seqs = workload_for(4, 32, 400, 3, seed);
    let (opts, plan) = (EngineOpts::default(), FaultPlan::none());
    let (baseline, baseline_trace, ticks) =
        baseline_run(policy, &seqs, &params, &opts, seed, &plan, false, |_| {
            LruCache::new(0)
        })
        .unwrap();
    let (crash, migrate_at) = (ticks * 2 / 5, ticks * 7 / 10);
    let sup_opts = SupervisorOpts {
        epoch_ticks: 4,
        max_retries: 3,
        backoff_base: std::time::Duration::ZERO,
        ..SupervisorOpts::default()
    };
    let mut store = SabotagedStore::new(WalCorruption::TornTail);
    let mut recovered_trace = TraceRecorder::new();
    let mut seen = Vec::new();
    let mut migrated = false;
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
            &mut store,
            |status| {
                seen.push(status);
                if !migrated && status.ticks >= migrate_at {
                    migrated = true;
                    EpochControl::Migrate
                } else {
                    EpochControl::Continue
                }
            },
        )
        .expect("torn tail and migration recover");
    assert!(
        store.struck() && !store.served_faithfully(),
        "{:?}",
        store.strike_note
    );
    assert_eq!(
        (
            report.crashes,
            report.resumes,
            report.migrations,
            report.wal_truncations
        ),
        (1, 1, 1, 1)
    );
    assert_eq!(report.result, baseline);
    assert!(check_replay(baseline_trace.events(), recovered_trace.events()).is_empty());
    assert!(
        seen.windows(2).all(|w| w[0].ticks < w[1].ticks),
        "control saw a boundary twice or out of order: {seen:?}"
    );
    // Before WAL records became marks this run counted 33 epochs and 30
    // records, and handed `control` the torn record's boundary twice.
    // Since the store starts from a genesis header, the first boundary
    // writes a record where it wrote a snapshot (31), and the migration's
    // base sits on its own boundary instead of the one after it.
    assert_eq!((report.epochs, report.wal_records), (33, 31));
    assert_eq!(seen.len(), 32);
}
