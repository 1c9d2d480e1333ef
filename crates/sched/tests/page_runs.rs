//! A batch served from page runs is the batch served from its expanded
//! pages: the same engine run and trace, for policies that read feedback
//! and policies that do not, the same supervised run through crashes and a
//! migration, and the same workload fingerprint, at every offset width
//! and with empty sequences.

use proptest::prelude::*;

use parapage_cache::{PageId, PageRun, Sequence, ShardedLru};
use parapage_core::{policy, ModelParams};
use parapage_sched::{
    workload_fingerprint, CrashPlan, Engine, EngineOpts, EpochControl, FaultPlan, MemStore,
    NullSink, RecoveryReport, RunResult, Supervisor, SupervisorOpts, TraceEvent, TraceRecorder,
};

const POLICIES: [&str; 3] = ["det-par", "rand-par", "ucp"];

/// One sequence over twelve pages whose spread sets the run's width: a
/// stride of 7 fits a byte, 997 two, 196 611 four and `u64::MAX / 11`
/// eight bytes (a base near `u64::MAX` wraps into a wider span); the last
/// class is the empty sequence.
fn seq_strategy() -> impl Strategy<Value = Vec<PageId>> {
    (
        0usize..5,
        any::<u64>(),
        prop::collection::vec(0u64..12, 1..150),
    )
        .prop_map(|(class, base, picks)| {
            let Some(&stride) = [7, 997, 196_611, u64::MAX / 11].get(class) else {
                return Vec::new();
            };
            (picks.into_iter())
                .map(|i| PageId(base.wrapping_add(i.wrapping_mul(stride))))
                .collect()
        })
}

fn engine_run<S: Sequence>(
    name: &str,
    params: &ModelParams,
    seed: u64,
    seqs: &[S],
) -> (RunResult, Vec<TraceEvent>) {
    let mut alloc = policy::build(name, params, seed, false).expect("known policy");
    let plan = FaultPlan::none();
    let mut trace = TraceRecorder::new();
    let engine = Engine::new(
        &mut *alloc,
        seqs,
        params,
        &EngineOpts::default(),
        &plan,
        |_| ShardedLru::with_shards(0, 2),
    );
    let result = engine.run(&mut *alloc, &mut trace).expect("engine run");
    (result, trace.into_events())
}

fn supervised<S: Sequence>(
    name: &str,
    params: &ModelParams,
    seed: u64,
    seqs: &[S],
    kill: u64,
    migrate: u64,
) -> RecoveryReport {
    let sup = Supervisor::new(SupervisorOpts {
        epoch_ticks: 3,
        silence_panics: true,
        backoff_base: std::time::Duration::ZERO,
        ..SupervisorOpts::default()
    });
    let mut migrated = false;
    sup.run_controlled(
        seqs,
        params,
        &EngineOpts::default(),
        &FaultPlan::none(),
        &CrashPlan::at_ticks(vec![kill]),
        || policy::build(name, params, seed, false).expect("known policy"),
        |_| ShardedLru::with_shards(0, 2),
        &mut NullSink,
        &mut MemStore::new(),
        |status| {
            if !migrated && status.ticks >= migrate {
                migrated = true;
                EpochControl::Migrate
            } else {
                EpochControl::Continue
            }
        },
    )
    .expect("supervised run")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn runs_serve_exactly_as_their_pages(
        seqs in prop::collection::vec(seq_strategy(), 1..5),
        which in 0usize..3,
        seed in any::<u64>(),
        kill in 1u64..40,
        migrate in 1u64..40,
    ) {
        let runs: Vec<PageRun> = seqs.iter().map(|s| PageRun::from_pages(s)).collect();
        for (run, seq) in runs.iter().zip(&seqs) {
            prop_assert_eq!(&run.to_pages(), seq);
        }
        prop_assert_eq!(workload_fingerprint(&runs), workload_fingerprint(&seqs));
        let params = ModelParams::new(seqs.len(), 8 * seqs.len(), 4);
        let name = POLICIES[which];
        prop_assert_eq!(
            engine_run(name, &params, seed, &runs),
            engine_run(name, &params, seed, &seqs)
        );
        prop_assert_eq!(
            supervised(name, &params, seed, &runs, kill, migrate),
            supervised(name, &params, seed, &seqs, kill, migrate)
        );
    }
}

/// The strategy reaches every width and the empty run.
#[test]
fn the_strategy_covers_every_width_and_the_empty_run() {
    let mut seen = [false; 5];
    let mut runner = proptest::test_runner::TestRunner::new(ProptestConfig::with_cases(200));
    runner.run_named("widths", &seq_strategy(), |seq| {
        let run = PageRun::from_pages(&seq);
        let slot = if run.is_empty() {
            4
        } else {
            run.width().trailing_zeros() as usize
        };
        seen[slot] = true;
        Ok(())
    });
    assert_eq!(seen, [true; 5], "widths 1, 2, 4, 8 and empty");
}
