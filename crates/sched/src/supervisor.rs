//! Crash recovery: run the engine in bounded epochs under panic isolation,
//! resuming from the last good snapshot after a crash.
//!
//! The [`Supervisor`] wraps the steppable [`Engine`] in a recovery loop:
//!
//! 1. A run starts its [`CheckpointStore`](crate::wal::CheckpointStore)
//!    from a genesis header carrying the digest of its inputs (see
//!    [`crate::wal`]), not from a snapshot. Step the engine for one
//!    *epoch* (a bounded number of events) inside
//!    [`std::panic::catch_unwind`], with a wall-clock watchdog.
//! 2. At each epoch boundary, append a fixed-size WAL record — the epoch's
//!    end tick and an O(1) progress digest, a [`WalMark`] — after the
//!    current base. A full snapshot becomes the new base only when it pays:
//!    once the ticks since the last base reach that base's size in bytes
//!    (`BASE_BYTES_PER_PROC` per processor for genesis). Encoding then
//!    costs at most about one byte per tick, and a crash replays at most
//!    that many ticks plus the crashed epoch. A served batch is tens to a
//!    few hundred ticks against bases of one to five KB, so it writes
//!    none.
//! 3. On a crash (panic) or watchdog expiry, discard the poisoned engine
//!    and policy, wait out an exponential backoff, build a **fresh** policy
//!    from the caller's factory, and recover from the store: decode the
//!    base, read the record marks, and truncate at the first record whose
//!    frame, digest, or chain breaks (a torn write loses only the tail; an
//!    unusable base restarts from scratch under a new genesis header). A
//!    genesis header whose inputs digest is not this run's fails with
//!    [`SnapshotError::WorkloadMismatch`]. Then restore the base (a
//!    genesis header restores nothing) and step on. Every epoch boundary
//!    up to the last mark is *verify-only*: the engine's tick and progress
//!    digest must equal the mark's, or the run fails with
//!    [`SupervisorError::Divergence`]; nothing is written, no epoch is
//!    counted and the control callback is not called there. After an
//!    intact log the next record continues its chain; after a truncated
//!    one the first boundary past the last mark installs a fresh base, so
//!    records never append after a torn tail.
//! 4. A migration ([`EpochControl::Migrate`]) installs a base at its own
//!    boundary and rebuilds the engine and policy from that snapshot, so it
//!    replays nothing.
//! 5. Give up with [`SupervisorError::RetriesExhausted`] once the crash
//!    budget is spent.
//!
//! Recovery is *exact*: a snapshot captures the run's full dynamic state —
//! engine counters, event heap, caches, fault-plan position, and the
//! policy's own state including its RNG — and the run from there is a
//! pure function of that state, the sequences and the fault plan. So a
//! recovered run produces the same [`RunResult`] and the same trace stream
//! as an uninterrupted one.
//! Events re-emitted while replaying are deduplicated against the engine's
//! monotone emission counter, so the caller's [`TraceSink`] sees every
//! event exactly once.
//! The `parapage-conform` resume checker and the `parapage chaos` CLI
//! subcommand verify this byte-for-byte.
//!
//! Deterministic crash injection is built in: a [`CrashPlan`] names engine
//! ticks at which the supervised run panics (each at most once per
//! supervised run, however often the surrounding ticks replay), which is
//! how the chaos harness exercises every recovery path without randomness.
//!
//! Panic silencing ([`SupervisorOpts::silence_panics`]) never swaps the
//! process panic hook per run. The first silenced run installs, once, a
//! delegating hook that forwards every panic to the hook installed before
//! it, except panics raised on a thread that is inside a silenced run
//! (a thread-local depth the run raises on entry and lowers on exit). So
//! the embedding program's hook keeps firing after supervised runs, and
//! concurrent supervisors cannot race each other into printing injected
//! crashes or leaving the hook silenced. A hook the program installs
//! *after* the first silenced run replaces the delegate; from then on
//! injected crashes reach that hook.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use parapage_cache::{Cache, Checkpoint, Sequence};
use parapage_core::{BoxAllocator, ModelParams};

use crate::engine::{Engine, EngineOpts};
use crate::error::EngineError;
use crate::fault::FaultPlan;
use crate::metrics::RunResult;
use crate::snapshot::{workload_fingerprint, SnapshotError};
use crate::trace::{TraceEvent, TraceSink};
use crate::wal::{genesis, recover, Base, CheckpointStore, WalCursor, WalMark};

/// The size a genesis header stands in for, per processor, when deciding
/// when the first snapshot pays: a lower bound on what a snapshot holds
/// per processor (cursor, completion, flag and an empty cache's header).
const BASE_BYTES_PER_PROC: u64 = 32;

/// Capped exponential backoff: `base * 2^attempt`, saturating at `cap`.
/// `attempt` is 0-based (the first retry waits `base`). This is the one
/// backoff the workspace uses — the supervisor between crash recoveries,
/// and the resilient wire client between reconnects — so retry cadence is
/// tuned in exactly one place.
pub fn capped_backoff(base: Duration, cap: Duration, attempt: u32) -> Duration {
    base.saturating_mul(1u32 << attempt.min(16)).min(cap)
}

/// [`capped_backoff`] with deterministic jitter: the delay is scaled into
/// `[½, 1]` of the capped value by a pure function of `(seed, attempt)`,
/// so a thundering herd of clients with distinct seeds de-synchronizes
/// while any single schedule stays exactly reproducible.
pub fn jittered_backoff(base: Duration, cap: Duration, attempt: u32, seed: u64) -> Duration {
    let full = capped_backoff(base, cap, attempt);
    let mix = parapage_cache::fnv1a64_seeded(seed, &attempt.to_le_bytes());
    // Map the top 16 mix bits onto [1/2, 1] of the full delay.
    let scale = 0.5 + 0.5 * ((mix >> 48) as f64 / 65535.0);
    full.mul_f64(scale)
}

/// Deterministic crashpoints: engine ticks at which the supervised run
/// panics, each firing at most once per supervised run.
#[derive(Clone, Debug, Default)]
pub struct CrashPlan {
    ticks: Vec<u64>,
}

impl CrashPlan {
    /// A plan crashing at the given engine ticks (sorted, deduplicated).
    pub fn at_ticks(mut ticks: Vec<u64>) -> Self {
        ticks.sort_unstable();
        ticks.dedup();
        CrashPlan { ticks }
    }

    /// The empty plan: no injected crashes.
    pub fn none() -> Self {
        CrashPlan::default()
    }

    /// The scheduled crash ticks.
    pub fn ticks(&self) -> &[u64] {
        &self.ticks
    }
}

/// Supervisor tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct SupervisorOpts {
    /// Events per epoch: the snapshot cadence. Smaller epochs bound the
    /// replay after a crash but checkpoint more often. An epoch steps at
    /// least one event, so `0` runs as `1`.
    pub epoch_ticks: u64,
    /// Crashes tolerated before [`SupervisorError::RetriesExhausted`].
    pub max_retries: u32,
    /// First backoff delay; doubles per consecutive crash.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// Per-attempt wall-clock deadline; expiry is treated as a crash.
    pub watchdog: Duration,
    /// Keep the process panic hook quiet for panics raised on the running
    /// thread while the run is in progress (injected crashes would
    /// otherwise spray backtraces over test output). Other threads' panics
    /// and every panic after the run still reach the program's hook (see
    /// the module docs). Real panics still propagate as crashes either way.
    pub silence_panics: bool,
}

impl Default for SupervisorOpts {
    fn default() -> Self {
        SupervisorOpts {
            epoch_ticks: 256,
            max_retries: 8,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(50),
            watchdog: Duration::from_secs(30),
            silence_panics: true,
        }
    }
}

/// Why a supervised run failed for good.
#[derive(Clone, Debug, PartialEq)]
pub enum SupervisorError {
    /// The engine returned a typed error. Engine errors are deterministic
    /// (a policy or configuration bug, not a transient fault), so the
    /// supervisor fails fast instead of retrying.
    Engine(EngineError),
    /// A snapshot failed to encode, decode, or restore.
    Snapshot(SnapshotError),
    /// Replaying from the base disagreed with an intact WAL record: at the
    /// record's epoch boundary the engine reached a different tick or
    /// progress digest. A deterministic replay cannot do that, so the log
    /// does not describe this run; like an engine error this fails fast,
    /// never resumes and never retries.
    Divergence {
        /// The record the replay was checking.
        expected: WalMark,
        /// Where the replay was at that boundary (or at the end of the
        /// run, if it ended first).
        found: WalMark,
    },
    /// The crash budget is spent.
    RetriesExhausted {
        /// Crashes observed (including the final one).
        crashes: u32,
        /// Panic payload (or watchdog notice) of the last crash.
        last_crash: String,
    },
}

impl std::fmt::Display for SupervisorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SupervisorError::Engine(e) => write!(f, "engine error: {e}"),
            SupervisorError::Snapshot(e) => write!(f, "snapshot error: {e}"),
            SupervisorError::Divergence { expected, found } => write!(
                f,
                "replay diverged from the wal: record at tick {} (digest {:#018x}), \
                 replay at tick {} (digest {:#018x})",
                expected.ticks, expected.digest, found.ticks, found.digest
            ),
            SupervisorError::RetriesExhausted {
                crashes,
                last_crash,
            } => write!(
                f,
                "gave up after {crashes} crashes; last crash: {last_crash}"
            ),
        }
    }
}

impl std::error::Error for SupervisorError {}

impl From<EngineError> for SupervisorError {
    fn from(e: EngineError) -> Self {
        SupervisorError::Engine(e)
    }
}

impl From<SnapshotError> for SupervisorError {
    fn from(e: SnapshotError) -> Self {
        SupervisorError::Snapshot(e)
    }
}

/// A snapshot of the supervised run's progress, handed to the epoch
/// control callback of [`Supervisor::run_controlled`] at each epoch
/// boundary (just before that epoch is checkpointed).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EpochStatus {
    /// Epochs completed so far (= checkpoints taken), including this one.
    pub epochs: u64,
    /// Engine ticks executed so far.
    pub ticks: u64,
}

/// What the epoch control callback tells the supervisor to do next.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EpochControl {
    /// Keep stepping the current engine.
    Continue,
    /// Checkpoint this boundary as a base, tear the current engine and
    /// policy down and rebuild them from that snapshot — a live migration
    /// onto a fresh engine that replays nothing. Not counted as a crash;
    /// recovery determinism makes the migrated run byte-identical to an
    /// unmigrated one.
    Migrate,
}

/// The outcome of a supervised run that eventually completed.
#[derive(Clone, Debug, PartialEq)]
pub struct RecoveryReport {
    /// The run's measurements — byte-identical to an unsupervised run of
    /// the same workload/policy/faults, crashes or not.
    pub result: RunResult,
    /// Crashes survived (injected or genuine, including watchdog expiries).
    pub crashes: u32,
    /// Crashes recovered from the store (the rest restarted from scratch
    /// because the store's base was unusable).
    pub resumes: u32,
    /// Completed epochs (= checkpoints taken).
    pub epochs: u64,
    /// Total engine ticks of the finished run.
    pub ticks: u64,
    /// Total checkpoint bytes written (full-snapshot bases plus WAL
    /// records) — the deterministic cost the bench suite regression-pins.
    pub checkpoint_bytes: u64,
    /// WAL records appended across the run.
    pub wal_records: u64,
    /// Recovery scans that had to truncate: a torn or corrupt record log
    /// (resumed from the last intact record) or an unusable base snapshot
    /// (restarted from scratch).
    pub wal_truncations: u32,
    /// Live migrations performed: epoch boundaries at which the control
    /// callback returned [`EpochControl::Migrate`] and the run moved onto
    /// a freshly built engine restored from the base written there.
    pub migrations: u64,
}

/// How one isolated stretch of stepping ended.
enum Stretch {
    Done,
    EpochBoundary,
    Watchdog,
}

/// Forwards each event exactly once across crash boundaries: after a
/// resume, the engine replays (and re-emits) the events between the last
/// checkpoint and the crash, which were already forwarded before the crash.
/// Gating on the absolute emission sequence number — monotone across the
/// whole supervised run because [`Engine::restore`] restores the counter —
/// suppresses exactly those duplicates. While a replay is still verifying
/// the store's marks, its events count as delivered without being
/// forwarded: the log's writer reached those boundaries, so a store handed
/// over from another process resumes the stream at its last intact mark.
struct GatedSink<'s, S: TraceSink> {
    inner: &'s mut S,
    /// Absolute sequence number of the next event this sink will receive.
    seq: u64,
    /// Events delivered so far (= the sequence number high-water mark).
    forwarded: u64,
    /// Whether marks remain to verify.
    verifying: bool,
}

impl<'s, S: TraceSink> GatedSink<'s, S> {
    fn new(inner: &'s mut S) -> Self {
        GatedSink {
            inner,
            seq: 0,
            forwarded: 0,
            verifying: false,
        }
    }

    /// Re-anchor after a restore: the next event emitted carries this
    /// absolute sequence number.
    fn resync(&mut self, seq: u64) {
        self.seq = seq;
    }
}

impl<S: TraceSink> TraceSink for GatedSink<'_, S> {
    fn emit(&mut self, event: &TraceEvent) {
        if self.seq >= self.forwarded {
            if !self.verifying {
                self.inner.emit(event);
            }
            self.forwarded = self.seq + 1;
        }
        self.seq += 1;
    }
}

thread_local! {
    /// How many silenced supervised runs enclose this thread's current
    /// point; the process hook stays quiet for panics raised while it is
    /// above zero.
    static SILENCED: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

/// Marks this thread as inside a silenced supervised run while it lives,
/// installing the delegating process hook on first use (module docs,
/// [`SupervisorOpts::silence_panics`]).
struct HookGuard {
    active: bool,
}

impl HookGuard {
    fn install(silence: bool) -> Self {
        if silence {
            static DELEGATE: std::sync::Once = std::sync::Once::new();
            DELEGATE.call_once(|| {
                let previous = std::panic::take_hook();
                std::panic::set_hook(Box::new(move |info| {
                    if SILENCED.try_with(|d| d.get()).unwrap_or(0) == 0 {
                        previous(info);
                    }
                }));
            });
            SILENCED.with(|d| d.set(d.get() + 1));
        }
        HookGuard { active: silence }
    }
}

impl Drop for HookGuard {
    fn drop(&mut self) {
        if self.active {
            SILENCED.with(|d| d.set(d.get() - 1));
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The crash-recovery loop. See the [module docs](crate::supervisor) for
/// the state machine.
#[derive(Clone, Debug, Default)]
pub struct Supervisor {
    opts: SupervisorOpts,
}

impl Supervisor {
    /// A supervisor with the given knobs.
    pub fn new(opts: SupervisorOpts) -> Self {
        Supervisor { opts }
    }

    /// Runs the workload to completion under crash recovery.
    ///
    /// `policy_factory` must build a **deterministically identical** fresh
    /// policy on every call (same seed, same configuration): a crashed
    /// attempt's policy is discarded wholesale and a fresh one is rebuilt,
    /// then overwritten from the checkpoint via
    /// [`BoxAllocator::restore`]. `crash_plan` injects deterministic
    /// panics at the named engine ticks (each fires once).
    ///
    /// Checkpoints go to `store`: a fresh [`crate::wal::MemStore`] for a
    /// plain supervised run, or a caller-supplied [`CheckpointStore`] —
    /// the seam the chaos harness uses to corrupt what recovery reads
    /// (torn tails, flipped bytes, stale bases). A store holding a
    /// checkpoint from a previous run of the *same* workload resumes it
    /// instead of starting over.
    ///
    /// At every epoch boundary, just before that epoch is checkpointed,
    /// `control` inspects the run's [`EpochStatus`] — once per boundary
    /// tick, in increasing tick order, however often a recovery re-passes
    /// the boundary — and may order [`EpochControl::Migrate`]: the
    /// supervisor then installs a base at this boundary, discards the live
    /// engine and policy wholesale and rebuilds both from that snapshot,
    /// without burning a retry or replaying a tick. This is the
    /// live-migration seam the `parapage serve` tenant sessions use to
    /// move a tenant onto a fresh engine mid-run; recovery determinism
    /// keeps the migrated run's result and trace byte-identical to an
    /// unmigrated one. Pass
    /// `|_| EpochControl::Continue` to never migrate.
    ///
    /// # Errors
    /// [`SupervisorError::Engine`] immediately on a typed engine error
    /// (those are deterministic, retrying cannot help);
    /// [`SupervisorError::Divergence`] immediately when a replay from the
    /// base misses an intact WAL record's tick or digest;
    /// [`SupervisorError::Snapshot`] when checkpoint/restore fails (e.g. a
    /// policy without checkpoint support) or the store's genesis header
    /// belongs to other inputs ([`SnapshotError::WorkloadMismatch`]);
    /// otherwise
    /// [`SupervisorError::RetriesExhausted`] once `max_retries` crashes
    /// have been burned.
    #[allow(clippy::too_many_arguments)]
    pub fn run_controlled<C: Cache + Checkpoint, S: Sequence>(
        &self,
        seqs: &[S],
        params: &ModelParams,
        opts: &EngineOpts,
        faults: &FaultPlan,
        crash_plan: &CrashPlan,
        mut policy_factory: impl FnMut() -> Box<dyn BoxAllocator>,
        mut cache_factory: impl FnMut(usize) -> C,
        sink: &mut impl TraceSink,
        store: &mut dyn CheckpointStore,
        mut control: impl FnMut(EpochStatus) -> EpochControl,
    ) -> Result<RecoveryReport, SupervisorError> {
        let _hook = HookGuard::install(self.opts.silence_panics);
        let mut gate = GatedSink::new(sink);
        let mut fired = vec![false; crash_plan.ticks().len()];
        let mut crashes = 0u32;
        let mut resumes = 0u32;
        let mut epochs = 0u64;
        let mut checkpoint_bytes = 0u64;
        let mut wal_records = 0u64;
        let mut wal_truncations = 0u32;
        let mut migrations = 0u64;
        // Highest boundary tick handed to `control`. A recovery that lost
        // records (a torn tail, a stale or unusable base) re-executes
        // boundaries past its last intact mark; those are checkpointed
        // again but not reported again.
        let mut controlled_through = 0u64;
        // Whether the next attempt follows a crash (and a successful
        // restore should count as a resume) rather than a migration or the
        // initial entry.
        let mut resuming_from_crash = false;
        // The run's inputs digest, taken on the first attempt's fresh engine.
        let mut inputs = None;
        // The base a migration just installed, with its cursor: the next
        // attempt restores it without reading the store back.
        let mut migrated = None;
        let genesis_due = BASE_BYTES_PER_PROC.saturating_mul(params.p as u64);
        // The batch is hashed once, however many engines the run builds.
        let workload = workload_fingerprint(seqs);

        'attempt: loop {
            let mut alloc = policy_factory();
            let mut engine = Engine::for_workload(
                &mut *alloc,
                seqs,
                workload,
                params,
                opts,
                faults,
                &mut cache_factory,
            );
            let inputs = match inputs {
                Some(d) => d,
                None => *inputs.insert(engine.inputs_digest(params.k, &*alloc)?),
            };
            // Where records go (`None`: the next boundary installs a
            // base), the tick from which a base pays, and the marks a
            // replay from the base must pass in order.
            let (mut cursor, mut base_due, marks) = if let Some((snap, at, due)) = migrated.take() {
                engine.restore(&snap, &mut *alloc)?;
                (Some(at), due, Vec::new())
            } else {
                // Recover from the store: the scan truncates at the
                // first tear. An unusable base (or none) restarts from
                // a fresh genesis header — deterministic replay plus
                // the gated sink keep even that byte-identical.
                match store
                    .view()
                    .map(|(base, log)| (base.len(), recover(base, log)))
                {
                    Some((len, Ok(rec))) => {
                        let due = match rec.base {
                            Base::Genesis(found) if found != inputs => {
                                return Err(SnapshotError::WorkloadMismatch {
                                    expected: inputs,
                                    found,
                                }
                                .into());
                            }
                            Base::Genesis(_) => genesis_due,
                            Base::Snapshot(snap) => {
                                engine.restore(&snap, &mut *alloc)?;
                                snap.ticks.saturating_add(len as u64)
                            }
                        };
                        resumes += u32::from(resuming_from_crash);
                        // An intact log continues its chain; a torn one
                        // re-bases at the next boundary.
                        let torn = rec.truncation.is_some();
                        wal_truncations += u32::from(torn);
                        ((!torn).then_some(rec.cursor), due, rec.marks)
                    }
                    unusable => {
                        wal_truncations += u32::from(unusable.is_some());
                        let header = genesis(inputs);
                        checkpoint_bytes += header.len() as u64;
                        let at = WalCursor::at_base(&header);
                        store.install_base(header);
                        (Some(at), genesis_due, Vec::new())
                    }
                }
            };
            resuming_from_crash = false;
            let mut marks = marks.into_iter();
            gate.resync(engine.emitted());
            gate.verifying = marks.len() != 0;
            let attempt_start = Instant::now();

            loop {
                // One epoch of stepping, isolated from panics. Everything
                // mutably borrowed here is rebuilt (engine, policy) or
                // explicitly resynchronized (gate, via the monotone
                // emission counter) after a crash, so the unwind-safety
                // assertion is sound.
                let stretch = catch_unwind(AssertUnwindSafe(|| -> Result<Stretch, EngineError> {
                    // An epoch is `epoch_ticks` *events* on the engine's
                    // logical clock, not `epoch_ticks` step() calls: one
                    // step may process a whole timestamp batch, so the
                    // boundary can overshoot by at most one batch. At least
                    // one event per epoch, or a 0-tick epoch would
                    // checkpoint forever without stepping.
                    let epoch_end = engine.ticks() + self.opts.epoch_ticks.max(1);
                    let mut step = 0usize;
                    while engine.ticks() < epoch_end {
                        if !engine.step(&mut *alloc, &mut gate)? {
                            return Ok(Stretch::Done);
                        }
                        let tick = engine.ticks();
                        // Crossing test, not equality: one engine step may
                        // process a whole timestamp batch of events, so the
                        // logical clock can jump past a planned tick.
                        if let Some((i, _)) = crash_plan
                            .ticks()
                            .iter()
                            .enumerate()
                            .find(|&(i, &t)| t <= tick && !fired[i])
                        {
                            fired[i] = true;
                            panic!("injected crash at tick {tick}");
                        }
                        step += 1;
                        if step % 64 == 63 && attempt_start.elapsed() >= self.opts.watchdog {
                            return Ok(Stretch::Watchdog);
                        }
                    }
                    Ok(Stretch::EpochBoundary)
                }));

                let crash_note = match stretch {
                    Ok(Ok(Stretch::Done)) => {
                        if let Some(expected) = marks.next() {
                            return Err(SupervisorError::Divergence {
                                expected,
                                found: engine.wal_mark(),
                            });
                        }
                        let ticks = engine.ticks();
                        let result = engine.into_result(&*alloc);
                        return Ok(RecoveryReport {
                            result,
                            crashes,
                            resumes,
                            epochs,
                            ticks,
                            checkpoint_bytes,
                            wal_records,
                            wal_truncations,
                            migrations,
                        });
                    }
                    Ok(Ok(Stretch::EpochBoundary)) => {
                        // Verify-only: this boundary was checkpointed before
                        // the store was last read. Check the replay against
                        // its record; write nothing, count nothing.
                        if let Some(expected) = marks.next() {
                            let found = engine.wal_mark();
                            if found != expected {
                                return Err(SupervisorError::Divergence { expected, found });
                            }
                            gate.verifying = marks.len() != 0;
                            continue;
                        }
                        epochs += 1;
                        // Consult the controller on boundaries it has not
                        // seen yet; a migration checkpoints a base here.
                        let ticks = engine.ticks();
                        let migrate = ticks > controlled_through && {
                            controlled_through = ticks;
                            control(EpochStatus { epochs, ticks }) == EpochControl::Migrate
                        };
                        match cursor.as_mut() {
                            Some(at) if !migrate && ticks < base_due => {
                                let record = at.frame(&engine.wal_mark().encode());
                                checkpoint_bytes += record.len() as u64;
                                store.append_record(record);
                                wal_records += 1;
                            }
                            _ => {
                                let snap = engine.snapshot(&*alloc)?;
                                let bytes = snap.encode();
                                checkpoint_bytes += bytes.len() as u64;
                                base_due = ticks.saturating_add(bytes.len() as u64);
                                let at = WalCursor::at_base(&bytes);
                                cursor = Some(at);
                                store.install_base(bytes);
                                if migrate {
                                    // Not a crash: no retry burned, no
                                    // resume counted, no backoff slept.
                                    migrations += 1;
                                    migrated = Some((snap, at, base_due));
                                    continue 'attempt;
                                }
                            }
                        }
                        continue;
                    }
                    Ok(Ok(Stretch::Watchdog)) => format!(
                        "watchdog expired after {:?} at tick {}",
                        self.opts.watchdog,
                        engine.ticks()
                    ),
                    Ok(Err(e)) => return Err(SupervisorError::Engine(e)),
                    Err(payload) => panic_message(payload.as_ref()),
                };

                // Crash path: burn a retry, back off, rebuild.
                crashes += 1;
                if crashes > self.opts.max_retries {
                    return Err(SupervisorError::RetriesExhausted {
                        crashes,
                        last_crash: crash_note,
                    });
                }
                let backoff =
                    capped_backoff(self.opts.backoff_base, self.opts.backoff_cap, crashes - 1);
                if !backoff.is_zero() {
                    std::thread::sleep(backoff);
                }
                resuming_from_crash = true;
                continue 'attempt;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceRecorder;
    use crate::wal::MemStore;
    use parapage_cache::{LruCache, PageId, ProcId};
    use parapage_core::{DetPar, FaultEvent, RandPar, StaticPartition};

    fn params() -> ModelParams {
        ModelParams::new(4, 32, 8)
    }

    fn seqs() -> Vec<Vec<PageId>> {
        // Per-processor cyclic walks with different strides: misses keep
        // occurring at every height, so grants stay non-trivial throughout.
        (0..4usize)
            .map(|x| {
                (0..400usize)
                    .map(|i| PageId::namespaced(ProcId(x as u32), (i as u64 * (x as u64 + 1)) % 48))
                    .collect()
            })
            .collect()
    }

    fn tiny_opts() -> SupervisorOpts {
        SupervisorOpts {
            epoch_ticks: 16,
            backoff_base: Duration::ZERO,
            ..SupervisorOpts::default()
        }
    }

    /// A supervised run on LRU boxes with a fresh in-memory store and no
    /// migrations.
    fn supervise(
        opts: SupervisorOpts,
        seqs: &[Vec<PageId>],
        faults: &FaultPlan,
        crashes: CrashPlan,
        policy: impl FnMut() -> Box<dyn BoxAllocator>,
        sink: &mut impl TraceSink,
    ) -> Result<RecoveryReport, SupervisorError> {
        Supervisor::new(opts).run_controlled(
            seqs,
            &params(),
            &EngineOpts::default(),
            faults,
            &crashes,
            policy,
            |_| LruCache::new(0),
            sink,
            &mut MemStore::new(),
            |_| EpochControl::Continue,
        )
    }

    fn uninterrupted(seqs: &[Vec<PageId>], faults: &FaultPlan) -> (RunResult, Vec<TraceEvent>) {
        let mut alloc = DetPar::new(&params());
        let mut rec = TraceRecorder::new();
        let result = Engine::new(
            &mut alloc,
            seqs,
            &params(),
            &EngineOpts::default(),
            faults,
            |_| LruCache::new(0),
        )
        .run(&mut alloc, &mut rec)
        .expect("clean run");
        (result, rec.into_events())
    }

    #[test]
    fn crash_free_supervised_run_matches_plain_run() {
        let seqs = seqs();
        let (want, want_trace) = uninterrupted(&seqs, &FaultPlan::none());
        let mut rec = TraceRecorder::new();
        let report = supervise(
            tiny_opts(),
            &seqs,
            &FaultPlan::none(),
            CrashPlan::none(),
            || Box::new(DetPar::new(&params())),
            &mut rec,
        )
        .expect("supervised run");
        assert_eq!(report.crashes, 0);
        assert_eq!(report.result, want);
        assert_eq!(rec.into_events(), want_trace);
    }

    #[test]
    fn zero_tick_epochs_still_step() {
        // An epoch that steps nothing would checkpoint forever: run on a
        // thread so a regression fails instead of hanging the suite.
        let seqs = seqs();
        let (want, _) = uninterrupted(&seqs, &FaultPlan::none());
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let report = supervise(
                SupervisorOpts {
                    epoch_ticks: 0,
                    ..tiny_opts()
                },
                &seqs,
                &FaultPlan::none(),
                CrashPlan::none(),
                || Box::new(DetPar::new(&params())),
                &mut crate::trace::NullSink,
            );
            let _ = tx.send(report);
        });
        let report = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("run finishes");
        assert_eq!(report.expect("supervised run").result, want);
    }

    #[test]
    fn recovery_is_byte_identical_across_injected_crashes() {
        let seqs = seqs();
        let faults = FaultPlan::new(vec![
            FaultEvent::ProcStall {
                proc: parapage_cache::ProcId(1),
                from: 40,
                until: 200,
            },
            FaultEvent::LatencySpike {
                from: 300,
                until: 700,
                factor: 3,
            },
        ]);
        let (want, want_trace) = uninterrupted(&seqs, &faults);
        // Learn the run's length from a crash-free supervised probe, then
        // crash at early/middle/late ticks of it.
        let probe = supervise(
            tiny_opts(),
            &seqs,
            &faults,
            CrashPlan::none(),
            || Box::new(DetPar::new(&params())),
            &mut crate::trace::NullSink,
        )
        .expect("probe run");
        let total = probe.ticks;
        assert!(total >= 12, "premise: run long enough to crash into");
        let crash_ticks = vec![2, total / 2, total / 2 + 1, total - 2];
        let n_crashes = {
            let mut t = crash_ticks.clone();
            t.sort_unstable();
            t.dedup();
            t.len() as u32
        };
        let opts = SupervisorOpts {
            epoch_ticks: 4,
            ..tiny_opts()
        };
        let mut rec = TraceRecorder::new();
        let report = supervise(
            opts,
            &seqs,
            &faults,
            CrashPlan::at_ticks(crash_ticks),
            || Box::new(DetPar::new(&params())),
            &mut rec,
        )
        .expect("recovered run");
        assert_eq!(report.crashes, n_crashes);
        assert!(report.resumes >= n_crashes - 1, "late crashes resume");
        assert_eq!(report.result, want, "recovered result must be identical");
        assert_eq!(rec.into_events(), want_trace, "trace must dedup exactly");
    }

    #[test]
    fn randomized_policy_recovers_identically() {
        let seqs = seqs();
        let mk = || RandPar::new(&params(), 0xfeed);
        let mut alloc = mk();
        let mut rec = TraceRecorder::new();
        let want = Engine::new(
            &mut alloc,
            &seqs,
            &params(),
            &EngineOpts::default(),
            &FaultPlan::none(),
            |_| LruCache::new(0),
        )
        .run(&mut alloc, &mut rec)
        .expect("clean run");
        let want_trace = rec.into_events();

        let mut rec = TraceRecorder::new();
        let report = supervise(
            tiny_opts(),
            &seqs,
            &FaultPlan::none(),
            CrashPlan::at_ticks(vec![30, 75]),
            move || Box::new(mk()),
            &mut rec,
        )
        .expect("recovered run");
        assert_eq!(report.crashes, 2);
        assert_eq!(report.result, want, "RNG state must survive recovery");
        assert_eq!(rec.into_events(), want_trace);
    }

    #[test]
    fn double_crash_in_one_run_dedups_the_trace_exactly() {
        // Satellite: two distinct crash ticks in one run, chosen to land in
        // the *same* epoch window (20 and 24 with 16-tick epochs), so the
        // second crash interrupts the replay of the first crash's gap. The
        // gated sink must still forward every event exactly once.
        let seqs = seqs();
        let (want, want_trace) = uninterrupted(&seqs, &FaultPlan::none());
        let mut rec = TraceRecorder::new();
        let report = supervise(
            tiny_opts(),
            &seqs,
            &FaultPlan::none(),
            CrashPlan::at_ticks(vec![20, 24]),
            || Box::new(DetPar::new(&params())),
            &mut rec,
        )
        .expect("doubly-crashed run");
        assert_eq!(report.crashes, 2);
        assert_eq!(report.resumes, 2, "both crashes resume from checkpoints");
        assert_eq!(report.result, want);
        assert_eq!(
            rec.into_events(),
            want_trace,
            "dedup across two crash boundaries must be exact"
        );
    }

    #[test]
    fn migration_at_every_epoch_is_byte_identical() {
        // Satellite for the serve layer: a controller that orders a
        // migration at every epoch boundary forces the run through the
        // snapshot()/restore() path dozens of times. Result and trace must
        // match the uninterrupted run exactly, no crash or resume counted.
        let seqs = seqs();
        let (want, want_trace) = uninterrupted(&seqs, &FaultPlan::none());
        let mut rec = TraceRecorder::new();
        let mut store = MemStore::new();
        // Runs are only a few dozen ticks long (a tick is one event, and a
        // grant window serves many requests), so cut epochs every 4 ticks
        // to force several migration points.
        let opts = SupervisorOpts {
            epoch_ticks: 4,
            ..tiny_opts()
        };
        let report = Supervisor::new(opts)
            .run_controlled(
                &seqs,
                &params(),
                &EngineOpts::default(),
                &FaultPlan::none(),
                &CrashPlan::none(),
                || Box::new(DetPar::new(&params())),
                |_| LruCache::new(0),
                &mut rec,
                &mut store,
                |_| EpochControl::Migrate,
            )
            .expect("migrated run");
        assert!(report.migrations > 2, "premise: several epoch boundaries");
        assert_eq!(report.crashes, 0);
        assert_eq!(report.resumes, 0);
        assert_eq!(report.result, want, "migrated result must be identical");
        assert_eq!(rec.into_events(), want_trace, "no duplicate events");
    }

    #[test]
    fn migration_composes_with_injected_crashes() {
        // Migrations and crashes in the same run: the controller migrates
        // at the second epoch boundary while the crash plan panics nearby.
        // Both paths rebuild through recovery, so the run stays exact.
        let seqs = seqs();
        let (want, want_trace) = uninterrupted(&seqs, &FaultPlan::none());
        let mut rec = TraceRecorder::new();
        let mut store = MemStore::new();
        let mut boundaries = 0u64;
        let opts = SupervisorOpts {
            epoch_ticks: 4,
            ..tiny_opts()
        };
        let report = Supervisor::new(opts)
            .run_controlled(
                &seqs,
                &params(),
                &EngineOpts::default(),
                &FaultPlan::none(),
                &CrashPlan::at_ticks(vec![10, 21]),
                || Box::new(DetPar::new(&params())),
                |_| LruCache::new(0),
                &mut rec,
                &mut store,
                |_| {
                    boundaries += 1;
                    if boundaries == 2 {
                        EpochControl::Migrate
                    } else {
                        EpochControl::Continue
                    }
                },
            )
            .expect("migrated+crashed run");
        assert_eq!(report.migrations, 1);
        assert_eq!(report.crashes, 2);
        assert_eq!(report.result, want);
        assert_eq!(rec.into_events(), want_trace);
    }

    #[test]
    fn wal_checkpoints_cost_less_than_full_snapshots() {
        // Same workload, same epoch cadence, crash-free: WAL records must
        // be much cheaper than a full snapshot per epoch, and the result
        // must be identical either way. Deterministic byte counts, so the
        // margin is pinned without timing flakiness. A full snapshot
        // carries every cache and the policy state, O(p·k); a record is a
        // fixed 16-byte mark.
        let seqs: Vec<Vec<PageId>> = (0..4usize)
            .map(|x| {
                (0..4000usize)
                    .map(|i| PageId::namespaced(ProcId(x as u32), (i as u64 * (x as u64 + 1)) % 48))
                    .collect()
            })
            .collect();
        let wal = supervise(
            tiny_opts(),
            &seqs,
            &FaultPlan::none(),
            CrashPlan::none(),
            || Box::new(DetPar::new(&params())),
            &mut crate::trace::NullSink,
        )
        .expect("supervised run");
        // The same run with a full snapshot encoded at every boundary.
        let mut alloc = DetPar::new(&params());
        let plan = FaultPlan::none();
        let mut engine = Engine::new(
            &mut alloc,
            &seqs,
            &params(),
            &EngineOpts::default(),
            &plan,
            |_| LruCache::new(0),
        );
        let (mut full_bytes, mut full_epochs) = (0u64, 0u64);
        let mut epoch_end = tiny_opts().epoch_ticks;
        while engine
            .step(&mut alloc, &mut crate::trace::NullSink)
            .unwrap()
        {
            if engine.ticks() >= epoch_end {
                full_epochs += 1;
                full_bytes += engine.snapshot(&alloc).unwrap().encode().len() as u64;
                epoch_end = engine.ticks() + tiny_opts().epoch_ticks;
            }
        }
        assert_eq!(engine.into_result(&alloc), wal.result);
        assert_eq!(full_epochs, wal.epochs);
        assert!(wal.wal_records > 0, "incremental epochs must use records");
        assert!(
            wal.checkpoint_bytes * 2 < full_bytes,
            "wal {} bytes vs full {} bytes",
            wal.checkpoint_bytes,
            full_bytes
        );
    }

    /// Counts what a supervised run reads from and writes to its store.
    #[derive(Default)]
    struct CountingStore {
        inner: MemStore,
        /// `true` for each base installed, `false` for each record, in order.
        writes: Vec<bool>,
        /// Records in the log at each `view`.
        reads: Vec<usize>,
    }

    impl CheckpointStore for CountingStore {
        fn install_base(&mut self, snapshot: Vec<u8>) {
            self.writes.push(true);
            self.inner.install_base(snapshot);
        }
        fn append_record(&mut self, record: Vec<u8>) {
            self.writes.push(false);
            self.inner.append_record(record);
        }
        fn view(&mut self) -> Option<(&[u8], &[u8])> {
            let view = self.inner.view();
            if let Some((base, log)) = view {
                self.reads
                    .push(recover(base, log).expect("intact base").marks.len());
            }
            view
        }
    }

    fn supervise_counted(
        store: &mut CountingStore,
        crashes: CrashPlan,
        control: impl FnMut(EpochStatus) -> EpochControl,
    ) -> RecoveryReport {
        Supervisor::new(SupervisorOpts {
            epoch_ticks: 4,
            ..tiny_opts()
        })
        .run_controlled(
            &seqs(),
            &params(),
            &EngineOpts::default(),
            &FaultPlan::none(),
            &crashes,
            || Box::new(DetPar::new(&params())),
            |_| LruCache::new(0),
            &mut crate::trace::NullSink,
            store,
            control,
        )
        .expect("supervised run")
    }

    #[test]
    fn a_migration_replays_no_records() {
        let (want, _) = uninterrupted(&seqs(), &FaultPlan::none());
        let mut store = CountingStore::default();
        let mut boundaries = 0;
        let report = supervise_counted(&mut store, CrashPlan::none(), |_| {
            boundaries += 1;
            if boundaries % 3 == 0 {
                EpochControl::Migrate
            } else {
                EpochControl::Continue
            }
        });
        assert!(report.migrations >= 2, "premise: several migrations");
        assert_eq!(report.result, want);
        assert!(
            store.reads.iter().all(|&records| records == 0),
            "a migration's recovery read records: {:?}",
            store.reads
        );
    }

    #[test]
    fn an_intact_log_continues_after_a_crash() {
        let (want, _) = uninterrupted(&seqs(), &FaultPlan::none());
        let mut store = CountingStore::default();
        let report = supervise_counted(&mut store, CrashPlan::at_ticks(vec![10]), |_| {
            EpochControl::Continue
        });
        assert_eq!(
            (report.crashes, report.resumes, report.wal_truncations),
            (1, 1, 0)
        );
        assert_eq!(report.result, want);
        // One read, after the crash, found the two records of boundaries
        // 4 and 8; the boundary after them appends a third.
        assert_eq!(store.reads, [2]);
        assert_eq!(store.writes[..4], [true, false, false, false]);
    }

    #[test]
    fn a_genesis_log_of_other_inputs_is_a_typed_error() {
        let seqs = seqs();
        let opts = SupervisorOpts {
            max_retries: 0,
            ..tiny_opts()
        };
        let run = |params: ModelParams,
                   policy: &dyn Fn() -> Box<dyn BoxAllocator>,
                   store: &mut MemStore,
                   crashes: CrashPlan| {
            Supervisor::new(opts).run_controlled(
                &seqs,
                &params,
                &EngineOpts::default(),
                &FaultPlan::none(),
                &crashes,
                policy,
                |_| LruCache::new(0),
                &mut crate::trace::NullSink,
                store,
                |_| EpochControl::Continue,
            )
        };
        // Batch 1's crashed log handed to batch 2 must be refused, not
        // replayed against batch 2's inputs; it still resumes batch 1.
        let refused =
            |(params1, policy1): (ModelParams, &dyn Fn() -> Box<dyn BoxAllocator>),
             (params2, policy2): (ModelParams, &dyn Fn() -> Box<dyn BoxAllocator>)| {
                let mut batch1 = MemStore::new();
                let err = run(params1, policy1, &mut batch1, CrashPlan::at_ticks(vec![40]))
                    .expect_err("fatal crash");
                assert!(matches!(err, SupervisorError::RetriesExhausted { .. }));
                let (base, log) = batch1.view().expect("checkpointed");
                let rec = recover(base, log).expect("intact");
                assert!(matches!(rec.base, Base::Genesis(_)) && !rec.marks.is_empty());
                match run(params2, policy2, &mut batch1.clone(), CrashPlan::none()) {
                    Err(SupervisorError::Snapshot(SnapshotError::WorkloadMismatch {
                        expected,
                        found,
                    })) => assert_ne!(expected, found),
                    other => panic!("another batch's log was not refused: {other:?}"),
                }
                assert!(run(params1, policy1, &mut batch1, CrashPlan::none()).is_ok());
            };
        // Same sequences, different policy seeds.
        refused(
            (params(), &|| Box::new(RandPar::new(&params(), 1))),
            (params(), &|| Box::new(RandPar::new(&params(), 2))),
        );
        // Static partitions that differ only in `k`: their checkpoint is
        // empty, so only the digest's own `k` tells them apart.
        let (small, large) = (ModelParams::new(4, 16, 8), ModelParams::new(4, 32, 8));
        refused(
            (small, &move || Box::new(StaticPartition::new(&small))),
            (large, &move || Box::new(StaticPartition::new(&large))),
        );
    }

    #[test]
    fn forged_wal_record_is_a_typed_divergence() {
        // A crashed process leaves a base and several records behind.
        // Re-framing that log with one record's tick or digest altered
        // keeps every frame and the digest chain valid, so only the replay
        // check can catch the forgery.
        let seqs = seqs();
        let (want, _) = uninterrupted(&seqs, &FaultPlan::none());
        let opts = SupervisorOpts {
            epoch_ticks: 4,
            max_retries: 0,
            ..tiny_opts()
        };
        let run = |store: &mut MemStore, crashes: CrashPlan| {
            Supervisor::new(opts).run_controlled(
                &seqs,
                &params(),
                &EngineOpts::default(),
                &FaultPlan::none(),
                &crashes,
                || Box::new(DetPar::new(&params())),
                |_| LruCache::new(0),
                &mut crate::trace::NullSink,
                store,
                |_| EpochControl::Continue,
            )
        };
        let mut crashed = MemStore::new();
        let err = run(&mut crashed, CrashPlan::at_ticks(vec![20])).expect_err("fatal crash");
        assert!(matches!(err, SupervisorError::RetriesExhausted { .. }));
        let (base, log) = crashed.view().expect("checkpointed before the crash");
        let marks = recover(base, log).expect("intact base").marks;
        assert!(marks.len() >= 3, "premise: several records");
        // Record 1 re-framed with `dt` added to its tick and `dd` xored
        // into its digest.
        let forged_store = |dt: u64, dd: u64| {
            let mut store = MemStore::new();
            let mut cursor = WalCursor::at_base(base);
            store.install_base(base.to_vec());
            for (i, &mark) in marks.iter().enumerate() {
                let (dt, dd) = if i == 1 { (dt, dd) } else { (0, 0) };
                let mark = WalMark {
                    ticks: mark.ticks + dt,
                    digest: mark.digest ^ dd,
                };
                store.append_record(cursor.frame(&mark.encode()));
            }
            store
        };
        // The re-framing itself is faithful: an unaltered log resumes.
        let report = run(&mut forged_store(0, 0), CrashPlan::none()).expect("faithful log");
        assert_eq!(report.result, want);
        for (dt, dd) in [(0, 1), (1, 0)] {
            match run(&mut forged_store(dt, dd), CrashPlan::none()) {
                Err(SupervisorError::Divergence { expected, found }) => {
                    assert_ne!(expected, found);
                }
                other => panic!("forgery (+{dt} ticks, ^{dd} digest) not caught: {other:?}"),
            }
        }
    }

    #[test]
    fn prepopulated_store_resumes_a_previous_run() {
        // A store carried over from a crashed process resumes the run
        // instead of starting over: crash mid-run with one store, then
        // hand the same store to a brand-new supervisor call.
        let seqs = seqs();
        let (want, want_trace) = uninterrupted(&seqs, &FaultPlan::none());
        let mut store = MemStore::new();
        let opts = SupervisorOpts {
            max_retries: 0,
            ..tiny_opts()
        };
        let err = Supervisor::new(opts)
            .run_controlled(
                &seqs,
                &params(),
                &EngineOpts::default(),
                &FaultPlan::none(),
                &CrashPlan::at_ticks(vec![20]),
                || Box::new(DetPar::new(&params())),
                |_| LruCache::new(0),
                &mut crate::trace::NullSink,
                &mut store,
                |_| EpochControl::Continue,
            )
            .expect_err("zero retries: the injected crash is fatal");
        assert!(matches!(err, SupervisorError::RetriesExhausted { .. }));
        let mut rec = TraceRecorder::new();
        let report = Supervisor::new(tiny_opts())
            .run_controlled(
                &seqs,
                &params(),
                &EngineOpts::default(),
                &FaultPlan::none(),
                &CrashPlan::none(),
                || Box::new(DetPar::new(&params())),
                |_| LruCache::new(0),
                &mut rec,
                &mut store,
                |_| EpochControl::Continue,
            )
            .expect("second process finishes the run");
        assert_eq!(report.crashes, 0);
        assert_eq!(report.result, want);
        // The second process replays from the stored checkpoint, so its
        // stream is exactly a suffix of the uninterrupted trace.
        let evs = rec.into_events();
        assert!(!evs.is_empty() && evs.len() < want_trace.len());
        assert_eq!(evs[..], want_trace[want_trace.len() - evs.len()..]);
    }

    #[test]
    fn a_handed_over_snapshot_base_survives_another_crash_without_repeats() {
        // The first process crashes after a snapshot base paid (genesis is
        // due at 32 ticks per processor, so the boundary at 128 writes
        // one). The second process restores that base mid-stream, crashes
        // soon after, and restores it again: the events it delivered
        // before its crash are not delivered twice. `seqs()` ten times
        // over runs about 320 ticks.
        let seqs: Vec<Vec<PageId>> = seqs().iter().map(|s| s.repeat(10)).collect();
        let (want, want_trace) = uninterrupted(&seqs, &FaultPlan::none());
        let mut store = MemStore::new();
        let run = |crashes: CrashPlan,
                   max_retries: u32,
                   sink: &mut TraceRecorder,
                   store: &mut MemStore| {
            Supervisor::new(SupervisorOpts {
                max_retries,
                ..tiny_opts()
            })
            .run_controlled(
                &seqs,
                &params(),
                &EngineOpts::default(),
                &FaultPlan::none(),
                &crashes,
                || Box::new(DetPar::new(&params())),
                |_| LruCache::new(0),
                sink,
                store,
                |_| EpochControl::Continue,
            )
        };
        let err = run(
            CrashPlan::at_ticks(vec![200]),
            0,
            &mut TraceRecorder::new(),
            &mut store,
        )
        .expect_err("zero retries: the injected crash is fatal");
        assert!(matches!(err, SupervisorError::RetriesExhausted { .. }));
        let (base, log) = store.view().expect("checkpointed");
        assert!(
            matches!(recover(base, log).expect("intact").base, Base::Snapshot(_)),
            "premise: the handed-over base is a snapshot"
        );
        let mut rec = TraceRecorder::new();
        let report = run(CrashPlan::at_ticks(vec![210]), 1, &mut rec, &mut store)
            .expect("second process finishes the run");
        assert_eq!((report.crashes, report.resumes), (1, 1));
        assert_eq!(report.result, want);
        let evs = rec.into_events();
        assert!(!evs.is_empty() && evs.len() < want_trace.len());
        assert_eq!(evs[..], want_trace[want_trace.len() - evs.len()..]);
    }

    #[test]
    fn retries_exhausted_is_typed() {
        let seqs = seqs();
        let opts = SupervisorOpts {
            max_retries: 2,
            ..tiny_opts()
        };
        // More injected crashes than the budget tolerates.
        let err = supervise(
            opts,
            &seqs,
            &FaultPlan::none(),
            CrashPlan::at_ticks(vec![1, 2, 3, 4]),
            || Box::new(DetPar::new(&params())),
            &mut crate::trace::NullSink,
        )
        .expect_err("budget must run out");
        match err {
            SupervisorError::RetriesExhausted { crashes, .. } => assert_eq!(crashes, 3),
            other => panic!("wrong error: {other:?}"),
        }
    }

    #[test]
    fn corrupted_snapshot_is_rejected_not_panicked() {
        // Decode-side corruption is covered in `snapshot`; here: the
        // supervisor surfaces it as a typed error end-to-end by feeding a
        // policy that cannot checkpoint (Unsupported) — the first epoch
        // boundary must fail with SupervisorError::Snapshot.
        struct NoCkpt(DetPar);
        impl BoxAllocator for NoCkpt {
            fn name(&self) -> &'static str {
                "no-ckpt"
            }
            fn grant(
                &mut self,
                proc: parapage_cache::ProcId,
                now: parapage_cache::Time,
            ) -> parapage_core::Grant {
                self.0.grant(proc, now)
            }
            fn on_proc_finished(
                &mut self,
                proc: parapage_cache::ProcId,
                now: parapage_cache::Time,
            ) {
                self.0.on_proc_finished(proc, now);
            }
        }
        let seqs = seqs();
        let err = supervise(
            tiny_opts(),
            &seqs,
            &FaultPlan::none(),
            CrashPlan::none(),
            || Box::new(NoCkpt(DetPar::new(&params()))),
            &mut crate::trace::NullSink,
        )
        .expect_err("checkpoint-less policy cannot be supervised");
        assert!(matches!(err, SupervisorError::Snapshot(_)), "got {err:?}");
    }
}
