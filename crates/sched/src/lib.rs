//! # parapage-sched
//!
//! Execution engines for the parallel paging model of *Online Parallel
//! Paging with Optimal Makespan* (SPAA 2022):
//!
//! * [`engine`] — the box-driven event simulator: `p` processors each serve
//!   their own request sequence through LRU caches whose heights are
//!   dictated by a [`parapage_core::BoxAllocator`] policy (RAND-PAR,
//!   DET-PAR, baselines…). Measures makespan, mean completion time, memory
//!   usage, and optionally full allocation timelines.
//! * [`shared`] — a step-level simulator of the natural practical baseline
//!   the paper's model abstracts away: one global LRU cache shared by all
//!   processors.
//! * [`interleaved`] — the *fixed-rate* model of the early literature the
//!   paper's introduction critiques (every processor advances one request
//!   per round regardless of hits/misses), kept to demonstrate what that
//!   simplification hides (E15).
//! * [`metrics`] — the result types common to both engines.
//! * [`error`] — typed abnormal-condition reporting ([`EngineError`]);
//!   the engine returns `Result` instead of panicking.
//! * [`fault`] — deterministic fault injection ([`FaultPlan`]): processor
//!   stalls, fetch-latency spikes, and mid-run memory pressure.
//! * [`snapshot`] — checkpoint/restore: [`EngineSnapshot`] captures a run's
//!   full dynamic state (engine counters, event heap, caches, policy state)
//!   in a versioned, integrity-checked byte format.
//! * [`supervisor`] — crash recovery: [`Supervisor`] runs the engine in
//!   bounded epochs under panic isolation with a watchdog, resuming from the
//!   last good snapshot after a crash.
//! * [`wal`] — incremental checkpoints: between full snapshots, each epoch
//!   appends a fixed-size [`WalMark`] record (the epoch's end tick and a
//!   progress digest) under digest-chained framing; recovery reads marks
//!   with the torn-write-tolerant [`recover`] scan and replays the engine
//!   from the base, checking each mark, so a per-epoch checkpoint costs
//!   O(1) instead of O(state).
//! * [`trace`] — the conformance trace stream: [`Engine::run`] emits
//!   every grant, served window, fault delivery, and completion as a
//!   [`TraceEvent`] through a caller-supplied [`TraceSink`] (zero-cost when
//!   disabled), the substrate of the `parapage-conform` oracle.
//!
//! Both engines implement the paper's timing model exactly: a hit costs one
//! time step, a miss costs `s`, and each processor fetches over its own
//! dedicated channel (misses do not contend).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod error;
pub mod fault;
pub mod interleaved;
pub mod metrics;
pub mod shared;
pub mod snapshot;
pub mod supervisor;
pub mod trace;
pub mod wal;

pub use engine::{run_engine, Engine, EngineOpts, DEFAULT_MAX_TIME};
pub use error::EngineError;
pub use fault::FaultPlan;
pub use interleaved::{run_interleaved_partition, run_interleaved_shared, InterleavedResult};
pub use metrics::RunResult;
pub use shared::{run_shared_lru, run_shared_lru_bandwidth};
pub use snapshot::{workload_fingerprint, EngineSnapshot, SnapshotError};
pub use supervisor::{
    capped_backoff, jittered_backoff, CrashPlan, EpochControl, EpochStatus, RecoveryReport,
    Supervisor, SupervisorError, SupervisorOpts,
};
pub use trace::{DigestSink, NullSink, TraceEvent, TraceRecorder, TraceSink};
pub use wal::{
    recover, wal_chain_seed, CheckpointStore, MemStore, WalCursor, WalMark, WalRecovery,
    WalTruncation, WAL_MARK_LEN,
};
