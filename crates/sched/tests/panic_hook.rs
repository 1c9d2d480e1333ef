//! Panic silencing leaves the embedding program's panic hook alone: after
//! a silenced supervised run the program's hook still fires, and two
//! threads supervising at once — one crashing, one not — neither let an
//! injected crash through to it nor leave it replaced.
//!
//! Both tests share one process hook, so they live in their own test
//! binary and install the program's hook once, before any supervised run.

use std::panic::catch_unwind;
use std::sync::{Barrier, Mutex, Once};
use std::time::Duration;

use parapage_cache::{LruCache, PageId, ProcId};
use parapage_core::{DetPar, ModelParams};
use parapage_sched::{
    CrashPlan, EngineOpts, EpochControl, FaultPlan, MemStore, NullSink, Supervisor, SupervisorOpts,
};

/// Every panic message the program's own hook saw.
static SEEN: Mutex<Vec<String>> = Mutex::new(Vec::new());

/// Installs the program's hook: it records each panic's message.
fn install_program_hook() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        std::panic::set_hook(Box::new(|info| {
            let payload = info.payload();
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            SEEN.lock().unwrap_or_else(|e| e.into_inner()).push(msg);
        }));
    });
}

fn seen_matching(needle: &str) -> usize {
    SEEN.lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .filter(|m| m.contains(needle))
        .count()
}

/// One silenced supervised DET-PAR run; returns the crashes it survived.
fn supervised_run(crash_ticks: Vec<u64>) -> u32 {
    let params = ModelParams::new(2, 16, 4);
    let seqs: Vec<Vec<PageId>> = (0..2u32)
        .map(|x| {
            (0..600u64)
                .map(|i| PageId::namespaced(ProcId(x), i % 24))
                .collect()
        })
        .collect();
    let opts = SupervisorOpts {
        epoch_ticks: 16,
        backoff_base: Duration::ZERO,
        silence_panics: true,
        ..SupervisorOpts::default()
    };
    Supervisor::new(opts)
        .run_controlled(
            &seqs,
            &params,
            &EngineOpts::default(),
            &FaultPlan::none(),
            &CrashPlan::at_ticks(crash_ticks),
            || Box::new(DetPar::new(&params)),
            |_| LruCache::new(0),
            &mut NullSink,
            &mut MemStore::new(),
            |_| EpochControl::Continue,
        )
        .expect("supervised run recovers")
        .crashes
}

/// Raises an application panic outside any supervised run and catches it.
fn application_panic(msg: &'static str) {
    assert!(catch_unwind(|| panic!("{msg}")).is_err());
}

#[test]
fn a_programs_hook_still_fires_after_a_supervised_run() {
    install_program_hook();
    assert_eq!(supervised_run(vec![20, 40]), 2);
    application_panic("application panic after one run");
    assert_eq!(seen_matching("application panic after one run"), 1);
    assert_eq!(
        seen_matching("injected crash"),
        0,
        "a silenced crash escaped"
    );
}

#[test]
fn concurrent_supervisors_leave_the_programs_hook_untouched() {
    install_program_hook();
    const RUNS: usize = 40;
    let barrier = Barrier::new(2);
    std::thread::scope(|s| {
        let crashing = s.spawn(|| {
            let mut crashes = 0;
            for _ in 0..RUNS {
                barrier.wait();
                crashes += supervised_run(vec![10, 30, 50]);
            }
            crashes
        });
        let clean = s.spawn(|| {
            for _ in 0..RUNS {
                barrier.wait();
                assert_eq!(supervised_run(Vec::new()), 0);
            }
        });
        assert_eq!(crashing.join().expect("crashing thread"), 3 * RUNS as u32);
        clean.join().expect("clean thread");
    });
    assert_eq!(
        seen_matching("injected crash"),
        0,
        "a silenced crash escaped"
    );
    application_panic("application panic after concurrent runs");
    assert_eq!(seen_matching("application panic after concurrent runs"), 1);
}
