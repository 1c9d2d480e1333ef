//! # parapage
//!
//! A from-scratch Rust implementation of **Online Parallel Paging with
//! Optimal Makespan** (Agrawal, Bender, Das, Kuszmaul, Peserico,
//! Scquizzato — SPAA 2022): the `O(log p)`-competitive parallel paging
//! algorithms RAND-PAR and DET-PAR, the green-paging machinery they build
//! on, execution engines for the paper's model, workload generators
//! including the Theorem-4 adversarial construction, and the analysis
//! toolkit used to reproduce every theorem as a measurable experiment.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`cache`] (`parapage-cache`) — LRU/FIFO/Clock/LFU/Belady simulators,
//!   Mattson stack-distance analysis, box-window simulation;
//! * [`core`] (`parapage-core`) — box profiles, RAND-GREEN, green OPT DP,
//!   RAND-PAR, DET-PAR, baselines, the §4 black-box packer, and the
//!   well-roundedness auditor;
//! * [`workloads`] (`parapage-workloads`) — generators and the adversarial
//!   instance builder;
//! * [`sched`] (`parapage-sched`) — the box-driven execution engine and the
//!   shared-LRU baseline simulator;
//! * [`analysis`] (`parapage-analysis`) — `T_OPT` lower bounds, the
//!   Lemma-8 OPT schedule, statistics, regression, reporting;
//! * [`conform`] (`parapage-conform`) — the conformance oracle: streaming
//!   paper-invariant checkers over the engine trace, a naive differential
//!   reference simulator, and competitive-ratio guardrails.
//!
//! ## Quickstart
//!
//! ```
//! use parapage::prelude::*;
//!
//! // 4 processors, cache of 64 pages, miss penalty 10.
//! let params = ModelParams::new(4, 64, 10);
//!
//! // Heterogeneous workloads: different working-set widths.
//! let specs: Vec<SeqSpec> = (0..4)
//!     .map(|x| SeqSpec::Cyclic { width: 8 << x, len: 2000 })
//!     .collect();
//! let workload = build_workload(&specs, 42);
//!
//! // Run the paper's deterministic algorithm.
//! let mut policy = DetPar::new(&params);
//! let result = run_engine(&mut policy, workload.seqs(), &params,
//!                         &EngineOpts::default())
//!     .expect("engine run failed");
//!
//! // Compare against a certified lower bound on OPT.
//! let lb = per_proc_bound(workload.seqs(), params.k, params.s);
//! assert!(result.makespan >= lb);
//! println!("makespan {} (>= {:.2}x lower bound)", result.makespan,
//!          result.makespan as f64 / lb as f64);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use parapage_analysis as analysis;
pub use parapage_cache as cache;
pub use parapage_conform as conform;
pub use parapage_core as core;
pub use parapage_sched as sched;
pub use parapage_workloads as workloads;

/// One-stop imports for applications and examples.
pub mod prelude {
    pub use parapage_analysis::{
        bar_chart, fit_linear, gantt, lemma8_makespan, median, opt_lower_bound, per_proc_bound,
        quantile, sparkline, summarize, Table,
    };
    pub use parapage_cache::{
        min_misses, miss_curve, run_box, run_window, Access, ArcCache, Cache, ClockCache,
        FifoCache, LfuCache, LirsCache, LruCache, PageId, ProcId, ShardedCache, ShardedLru, Time,
        TwoQueueCache,
    };
    pub use parapage_conform::{
        check_concurrent_cache, check_corruption_rejection, check_resume, check_sharded_ledgers,
        check_wal_corruption, competitive_envelope, conform_matrix, conform_run,
        differential_sweep, explore, explore_all, net_cells, resume_matrix, scenarios,
        wal_chaos_matrix, ConcurrentCell, ConformReport, DiffReport, EnvelopeReport, ExploreMode,
        ExploreReport, NetCell, NetFaultKind, NetFaultPlan, ResumeCell, WalCell, WalCorruption,
    };
    pub use parapage_core::{
        audit_greedy, check_well_rounded, green_opt, green_opt_fast, green_opt_fast_normalized,
        green_opt_normalized, run_green, run_profile, AdaptiveGreen, BlackboxGreenPacker,
        BoxAllocator, BoxHeightDist, BoxProfile, DetPar, FaultEvent, Grant, GreenPolicy,
        HardenedAllocator, MemBox, ModelParams, PropMissPartition, RandGreen, RandPar,
        RebootingGreen, SrptPartition, StaticPartition, UcpPartition, UniversalGreen,
    };
    pub use parapage_sched::{
        capped_backoff, jittered_backoff, run_engine, run_shared_lru, CrashPlan, Engine,
        EngineError, EngineOpts, EngineSnapshot, FaultPlan, NullSink, RecoveryReport, RunResult,
        SnapshotError, Supervisor, SupervisorError, SupervisorOpts, TraceEvent, TraceRecorder,
        TraceSink, DEFAULT_MAX_TIME,
    };
    pub use parapage_workloads::{
        build_workload, fault_scenario, shared_hotset_workload, AdversarialConfig,
        AdversarialInstance, SeqBuilder, SeqSpec, Workload, FAULT_SCENARIOS,
    };
}
