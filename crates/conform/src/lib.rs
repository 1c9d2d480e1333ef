//! # parapage-conform
//!
//! The conformance oracle for the parallel paging engine: machine-checked
//! paper invariants over the engine's trace stream, a differential
//! reference simulator, and empirical competitive-ratio guardrails.
//!
//! The paper's guarantees are structural — DET-PAR is `O(log p)`-
//! competitive *because* it keeps every processor in possession of a base
//! box and packs each short height class into a `k/log p` strip (Lemma 5);
//! box heights are powers of two in `[k/p, k]` by the §2 normal form; no
//! packing oversubscribes the budget. This crate turns those properties
//! into an always-on oracle over the [`parapage_sched::TraceEvent`] stream:
//!
//! * [`checkers`] — streaming invariant checkers: instantaneous memory ≤
//!   budget at every event (including mid-shrink under
//!   `FaultEvent::MemoryPressure`), box geometry, DET-PAR base-box
//!   possession, strip widths, phase halving, replay determinism, and
//!   stream/result consistency.
//! * [`reference`] — a deliberately naive `O(n·p)` re-execution simulator
//!   sharing no scheduling code with the optimized engine, for
//!   event-for-event differential testing.
//! * [`oracle`] — the harness: [`oracle::conform_run`] verdicts one
//!   (policy, fault scenario) pair; [`oracle::conform_matrix`] sweeps all
//!   of them; [`oracle::differential_sweep`] hunts divergences on
//!   generated workloads.
//! * [`envelope`] — competitive-ratio guardrails on the Theorem-4
//!   adversarial instances: measured makespan / Lemma-8 OPT must stay
//!   inside a `c·log p` envelope.
//! * [`resume`] — resume equivalence: a run that crashes and recovers
//!   from snapshots (the `parapage-sched` supervisor) must reproduce the
//!   uninterrupted run's result and trace byte-for-byte; its
//!   [`resume::resume_matrix`] is `parapage chaos`'s crash-recovery grid.
//! * [`schedules`] — loom-style schedule exploration: a token-passing
//!   virtual scheduler over the scheduling points the code under test
//!   announces, DFS/random enumeration of thread interleavings with
//!   deadlock detection, and a Wing–Gong linearizability search against a
//!   sequential model; the server's scenarios (`parapage-server`'s
//!   `explore` module) drive it for `parapage conform --concurrent`.
//! * [`walchaos`] — WAL corruption chaos: torn tails, partial tails,
//!   mid-record truncations, bit flips, and stale-base/newer-log pairings
//!   inflicted on the incremental checkpoint log at recovery time must be
//!   detected as typed truncations and still recover byte-identically;
//!   its [`walchaos::wal_chaos_matrix`] is the WAL section that
//!   `parapage chaos` and `parapage chaos --wal` run.
//! * [`matrix`] — the one runner behind every verdict matrix: the
//!   `--cells` filter, `pass` / `FAIL (n)` / `ERROR` cells, tables, totals.
//!
//! The `parapage conform` CLI subcommand drives all of this; it is also
//! wired into `scripts/check.sh` as a pre-PR gate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkers;
pub mod envelope;
pub mod matrix;
pub mod netfault;
pub mod oracle;
pub mod reference;
pub mod resume;
pub mod schedules;
pub mod walchaos;

pub use checkers::{
    check_box_geometry, check_det_par_stream, check_memory, check_phase_structure, check_replay,
    check_run_consistency, check_stream_order, merge_phases,
};
pub use envelope::{competitive_envelope, EnvelopeEntry, EnvelopeReport};
pub use matrix::{Cell, CellFilter, CellRow, Matrix, Totals};
pub use netfault::{net_cells, NetCell, NetFaultKind, NetFaultPlan};
pub use oracle::{
    conform_matrix, conform_run, differential_sweep, fault_horizon, memory_envelope,
    outcome_divergence, run_reference_named, run_traced, ConformReport, DiffReport, Divergence,
    TracedRun,
};
pub use reference::run_reference;
pub use resume::{
    baseline_run, check_corruption_rejection, check_resume, corruption_rejection_matrix,
    resume_matrix, ResumeCell,
};
pub use schedules::{
    catch_op, check_linearizable, explore, run_schedule, Execution, ExploreMode, ExploreReport,
    Worker,
};
pub use walchaos::{
    check_wal_corruption, wal_chaos_matrix, SabotagedStore, WalCell, WalCorruption,
};

#[cfg(test)]
mod tests {
    use super::*;
    use parapage_cache::{PageId, ProcId};
    use parapage_core::ModelParams;
    use parapage_sched::{EngineOpts, FaultPlan, TraceEvent};
    use parapage_workloads::{build_workload, fault_scenario, SeqSpec};

    fn small_workload(p: usize, len: usize, width: usize) -> Vec<Vec<PageId>> {
        let specs: Vec<SeqSpec> = (0..p).map(|_| SeqSpec::Cyclic { width, len }).collect();
        build_workload(&specs, 7).into_seqs()
    }

    #[test]
    fn engine_and_reference_agree_on_a_clean_run() {
        let params = ModelParams::new(4, 32, 10);
        let seqs = small_workload(4, 200, 8);
        let opts = EngineOpts::default();
        let plan = FaultPlan::none();
        for policy in parapage_core::policy::NAMES {
            let a = run_traced(policy, &seqs, &params, &opts, 3, &plan, false).unwrap();
            let b = run_reference_named(policy, &seqs, &params, &opts, 3, &plan, false).unwrap();
            assert!(
                check_replay(&a.events, &b.events).is_empty(),
                "policy {policy} diverged from reference"
            );
            assert!(outcome_divergence(&a.outcome, &b.outcome).is_none());
        }
    }

    #[test]
    fn engine_and_reference_agree_under_chaos() {
        let params = ModelParams::new(4, 32, 10);
        let seqs = small_workload(4, 150, 12);
        let plan = FaultPlan::new(fault_scenario("chaos", 4, 32, 2000, 11).unwrap());
        let opts = EngineOpts::default();
        let a = run_traced("det-par", &seqs, &params, &opts, 3, &plan, true).unwrap();
        let b = run_reference_named("det-par", &seqs, &params, &opts, 3, &plan, true).unwrap();
        assert!(check_replay(&a.events, &b.events).is_empty());
        assert!(outcome_divergence(&a.outcome, &b.outcome).is_none());
    }

    #[test]
    fn conform_run_passes_det_par_clean() {
        let params = ModelParams::new(8, 64, 10);
        let seqs = small_workload(8, 400, 16);
        let report =
            conform_run("det-par", &seqs, &params, 3, "clean", &FaultPlan::none()).unwrap();
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert_eq!(report.outcome, "ok");
        assert!(report.events > 0);
    }

    #[test]
    fn memory_checker_flags_oversubscription() {
        // Two concurrent height-20 grants against a budget of 32.
        let events = vec![
            TraceEvent::Grant {
                proc: ProcId(0),
                at: 0,
                height: 20,
                duration: 100,
                release_at: 100,
            },
            TraceEvent::Grant {
                proc: ProcId(1),
                at: 50,
                height: 20,
                duration: 100,
                release_at: 150,
            },
        ];
        let v = check_memory(&events, 32);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("40 pages live"), "{}", v[0]);
        // The same stream fits a 64-page budget.
        assert!(check_memory(&events, 64).is_empty());
    }

    #[test]
    fn memory_checker_tracks_mid_run_shrink() {
        use parapage_core::FaultEvent;
        // A grant of 16 fits the initial budget 32 but violates the shrunken
        // budget delivered before it.
        let events = vec![
            TraceEvent::Fault {
                at: 10,
                event: FaultEvent::MemoryPressure {
                    at: 10,
                    new_limit: 8,
                },
            },
            TraceEvent::Grant {
                proc: ProcId(0),
                at: 10,
                height: 16,
                duration: 50,
                release_at: 60,
            },
        ];
        let v = check_memory(&events, 32);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("budget 8"));
    }

    #[test]
    fn geometry_checker_flags_bad_heights() {
        let params = ModelParams::new(8, 64, 10);
        let mk = |height| TraceEvent::Grant {
            proc: ProcId(0),
            at: 0,
            height,
            duration: 10,
            release_at: 10,
        };
        // 24 is not a power of two; 128 exceeds k; 4 is below k/p̂ = 8.
        assert_eq!(check_box_geometry(&[mk(24)], &params).len(), 1);
        assert_eq!(check_box_geometry(&[mk(128)], &params).len(), 1);
        assert_eq!(check_box_geometry(&[mk(4)], &params).len(), 1);
        assert!(check_box_geometry(&[mk(8), mk(64), mk(0)], &params).is_empty());
    }

    #[test]
    fn differential_sweep_is_clean_on_a_sample() {
        let report = differential_sweep(40, 9);
        assert_eq!(report.runs, 40);
        assert!(
            report.divergences.is_empty(),
            "first: {} — {}",
            report.divergences[0].recipe,
            report.divergences[0].detail
        );
    }

    #[test]
    fn envelope_quick_passes() {
        let report = competitive_envelope(true, 42).unwrap();
        assert!(!report.entries.is_empty());
        assert!(report.passed(), "violations: {:?}", report.violations());
    }
}
