//! WAL corruption chaos: torn writes against the incremental checkpoint
//! log must lose at most the tail, never correctness.
//!
//! The supervisor's WAL-backed recovery contract (see `parapage-sched`'s
//! `wal` module) is: whatever happens to the bytes the recovery scan reads
//! — a torn final write, a partial tail, a truncation in the middle of the
//! log, a flipped bit, a stale base paired with a newer log, a corrupt
//! base — the supervised run either resumes from the last intact record or
//! restarts from an earlier point, and in every case finishes
//! **byte-identical** to the uninterrupted run. Corruption is detected as
//! a typed `CodecError` and surfaced as a truncation count; it is never a
//! panic and never a silent divergence.
//!
//! This module turns that contract into matrix cells: a
//! [`SabotagedStore`] wraps the supervisor's checkpoint store and serves a
//! corrupted `(base, log)` view exactly once — at the recovery read that
//! follows an injected crash — then [`check_wal_corruption`] diffs the
//! recovered run against the uninterrupted baseline field by field and
//! event by event. [`wal_chaos_matrix`] sweeps every checkpoint-capable
//! policy (RNG-backed ones included) across every corruption kind, and is
//! what `parapage chaos` and `parapage chaos --wal` run for their WAL
//! corruption section.

use parapage_cache::{parse_wal_record, LruCache, PageId, WalRecordStep, WAL_RECORD_HEADER};
use parapage_core::{policy, ModelParams};
use parapage_sched::{
    wal_chain_seed, CheckpointStore, CrashPlan, EngineOpts, EpochControl, FaultPlan, MemStore,
    NullSink, Supervisor, SupervisorOpts, TraceRecorder,
};

use crate::matrix::{CellFilter, CellRow, Matrix};
use crate::resume::{baseline_run, recovery_divergences};

/// The corruption a [`SabotagedStore`] inflicts on the recovery read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WalCorruption {
    /// The last bytes of the log vanish mid-record — the classic torn
    /// write of an append that did not complete.
    TornTail,
    /// The log ends a few bytes into the final record's header — a tear so
    /// early the record's frame is unreadable.
    PartialTail,
    /// Bytes are cut out of the *middle* of the log (an interior record is
    /// truncated), desynchronizing everything after it.
    MidRecord,
    /// One byte somewhere in the log flips — silent media corruption; the
    /// digest chain must catch it.
    BitFlip,
    /// The log is paired with the *previous* base snapshot — a stale base
    /// under a newer log, as when a base write was lost but its log
    /// survived. The chain seed must refuse every record.
    StaleBase,
    /// One byte of the base snapshot itself flips: recovery must fall back
    /// to restarting the run from scratch.
    BaseFlip,
}

impl WalCorruption {
    /// Every corruption kind, in matrix order.
    pub const ALL: [WalCorruption; 6] = [
        WalCorruption::TornTail,
        WalCorruption::PartialTail,
        WalCorruption::MidRecord,
        WalCorruption::BitFlip,
        WalCorruption::StaleBase,
        WalCorruption::BaseFlip,
    ];

    /// Stable cell name (used by `parapage chaos --cells`).
    pub fn name(&self) -> &'static str {
        match self {
            WalCorruption::TornTail => "torn-tail",
            WalCorruption::PartialTail => "partial-tail",
            WalCorruption::MidRecord => "mid-record",
            WalCorruption::BitFlip => "bit-flip",
            WalCorruption::StaleBase => "stale-base",
            WalCorruption::BaseFlip => "base-flip",
        }
    }
}

impl std::fmt::Display for WalCorruption {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Byte offset where the last complete record of `log` begins, given the
/// base that seeds the digest chain. `None` when no record parses.
fn last_record_start(base: &[u8], log: &[u8]) -> Option<usize> {
    let mut chain = wal_chain_seed(base);
    let mut off = 0usize;
    let mut last = None;
    loop {
        match parse_wal_record(&log[off..], chain) {
            WalRecordStep::Record {
                digest, consumed, ..
            } => {
                last = Some(off);
                chain = digest;
                off += consumed;
            }
            _ => return last,
        }
    }
}

/// A checkpoint store that serves a corrupted `(base, log)` view exactly
/// once — on the first recovery read that finds content — and behaves like
/// a faithful [`MemStore`] otherwise. Writes are never corrupted: the
/// sabotage models what a crash does to storage, not a broken writer.
pub struct SabotagedStore {
    inner: MemStore,
    prev_base: Option<Vec<u8>>,
    corruption: WalCorruption,
    struck: bool,
    faithful: bool,
    /// What the strike actually did, for diagnostics.
    pub strike_note: Option<String>,
    serve_base: Vec<u8>,
    serve_log: Vec<u8>,
}

impl SabotagedStore {
    /// A store that will inflict `corruption` on its first non-empty view.
    pub fn new(corruption: WalCorruption) -> Self {
        SabotagedStore {
            inner: MemStore::new(),
            prev_base: None,
            corruption,
            struck: false,
            faithful: false,
            strike_note: None,
            serve_base: Vec::new(),
            serve_log: Vec::new(),
        }
    }

    /// `true` once the corrupted view has been served.
    pub fn struck(&self) -> bool {
        self.struck
    }

    /// `true` when the strike had nothing to corrupt and the view was
    /// served unchanged (e.g. an empty log, or no previous base to serve
    /// as stale).
    pub fn served_faithfully(&self) -> bool {
        self.faithful
    }

    fn corrupt(&mut self, base: Vec<u8>, log: Vec<u8>) {
        if log.is_empty() && self.corruption != WalCorruption::BaseFlip {
            self.faithful = true;
            self.strike_note = Some("log empty; nothing to corrupt".to_string());
            self.serve_base = base;
            self.serve_log = log;
            return;
        }
        let note;
        let (serve_base, serve_log) = match self.corruption {
            WalCorruption::TornTail => {
                let keep = log.len().saturating_sub(7);
                note = format!("tore the log from {} to {keep} bytes", log.len());
                (base, log[..keep].to_vec())
            }
            WalCorruption::PartialTail => {
                let cut = last_record_start(&base, &log)
                    .map(|s| s + WAL_RECORD_HEADER - 2)
                    .unwrap_or(0)
                    .min(log.len());
                note = format!("cut the log mid-header at byte {cut} of {}", log.len());
                (base, log[..cut].to_vec())
            }
            WalCorruption::MidRecord => {
                // Remove a chunk from inside the first record's payload:
                // the log shrinks and every later byte shifts.
                let cut = (WAL_RECORD_HEADER + 4).min(log.len());
                let splice = 8usize.min(log.len().saturating_sub(cut));
                let mut l = log.clone();
                l.drain(cut..cut + splice);
                note = format!("spliced {splice} bytes out of the log at byte {cut}");
                (base, l)
            }
            WalCorruption::BitFlip => {
                let mut l = log.clone();
                if !l.is_empty() {
                    let mid = l.len() / 2;
                    l[mid] ^= 0x20;
                    note = format!("flipped a bit at log byte {mid}");
                } else {
                    self.faithful = true;
                    note = "log empty; nothing to flip".to_string();
                }
                (base, l)
            }
            WalCorruption::StaleBase => match self.prev_base.clone() {
                Some(stale) if !log.is_empty() => {
                    note = format!(
                        "served the previous base ({} bytes) under the current log",
                        stale.len()
                    );
                    (stale, log)
                }
                _ => {
                    self.faithful = true;
                    note = "no previous base or empty log; serving faithfully".to_string();
                    (base, log)
                }
            },
            WalCorruption::BaseFlip => {
                let mut b = base.clone();
                let mid = b.len() / 2;
                b[mid] ^= 0x10;
                note = format!("flipped a bit at base byte {mid}");
                (b, log)
            }
        };
        self.strike_note = Some(note);
        self.serve_base = serve_base;
        self.serve_log = serve_log;
    }
}

impl CheckpointStore for SabotagedStore {
    fn install_base(&mut self, snapshot: Vec<u8>) {
        self.prev_base = self.inner.view().map(|(base, _)| base.to_vec());
        self.inner.install_base(snapshot);
    }

    fn append_record(&mut self, record: Vec<u8>) {
        self.inner.append_record(record);
    }

    fn view(&mut self) -> Option<(&[u8], &[u8])> {
        if self.struck {
            return self.inner.view();
        }
        let (base, log) = match self.inner.view() {
            Some((b, l)) => (b.to_vec(), l.to_vec()),
            None => return None,
        };
        self.struck = true;
        self.corrupt(base, log);
        Some((&self.serve_base, &self.serve_log))
    }
}

/// The verdict of one WAL corruption cell.
pub struct WalCell {
    /// Engine tick the injected crash fired at.
    pub crash_tick: u64,
    /// Recovery truncations the supervisor reported.
    pub truncations: u32,
    /// WAL records appended across the run.
    pub wal_records: u64,
    /// Divergences from the uninterrupted baseline; empty means the cell
    /// passed.
    pub violations: Vec<String>,
}

impl CellRow for WalCell {
    fn columns(&self) -> Vec<String> {
        let counts = [self.crash_tick, self.wal_records, self.truncations.into()];
        counts.map(|n: u64| n.to_string()).to_vec()
    }
    fn violations(&self) -> &[String] {
        &self.violations
    }
}

/// One WAL corruption cell: run the policy uninterrupted, then crash it
/// once mid-run with WAL checkpoints at every epoch and the given
/// corruption inflicted on the recovery read, and demand a byte-identical
/// result and trace.
pub fn check_wal_corruption(
    policy: &str,
    seqs: &[Vec<PageId>],
    params: &ModelParams,
    seed: u64,
    corruption: WalCorruption,
) -> Result<WalCell, String> {
    let opts = EngineOpts::default();
    let plan = FaultPlan::none();

    let (baseline, baseline_trace, baseline_ticks) =
        baseline_run(policy, seqs, params, &opts, seed, &plan, false, |_| {
            LruCache::new(0)
        })?;
    if baseline_ticks < 24 {
        return Err(format!(
            "premise failed: baseline run too short ({baseline_ticks} ticks) to corrupt into"
        ));
    }

    // Policies with long-lived grants run few engine ticks even on long
    // workloads, so scale the epoch to the baseline: aim for a dozen or so
    // epoch boundaries before the run ends.
    let epoch_ticks = (baseline_ticks / 12).clamp(2, 8);

    let sup_opts = SupervisorOpts {
        epoch_ticks,
        max_retries: 3,
        backoff_base: std::time::Duration::ZERO,
        ..SupervisorOpts::default()
    };
    let factory =
        || policy::build(policy, params, seed, false).expect("factory succeeded for the baseline");
    // Stale-base needs at least two bases installed before the crash: its
    // controller migrates at boundaries 1, 4, 7, …, and a migration
    // installs a base there. The others never migrate and keep the genesis
    // base, so the log grows long.
    let stale = corruption == WalCorruption::StaleBase;
    let control = |boundaries: &mut u64| {
        *boundaries += 1;
        if stale && *boundaries % 3 == 1 {
            EpochControl::Migrate
        } else {
            EpochControl::Continue
        }
    };

    // Crash past the 60% mark, then align so the WAL actually has
    // something to corrupt at that moment. The stale-base store cycles
    // base / one record / two records over a period of three epoch
    // boundaries, so its crash must land where the log is non-empty and a
    // previous base exists (boundary count >= 5, not 1 mod 3); every other
    // cell just needs the log non-empty (boundary count >= 2).
    let mut boundaries = (baseline_ticks * 3 / 5) / epoch_ticks;
    let crash_tick = match corruption {
        WalCorruption::StaleBase => {
            let meets = |n: u64| n >= 5 && n % 3 != 1;
            while !meets(boundaries) {
                boundaries += 1;
            }
            // An epoch ends at the first step reaching `epoch_ticks` more
            // events, and a step of a batching policy processes a whole
            // timestamp batch, so epochs can overshoot and boundary `n`
            // need not sit at `n * epoch_ticks`. Count the boundaries the
            // supervisor really passes before the aligned tick on a
            // crash-free dry run; when that count misses the premise, crash
            // midway into the epoch after the next boundary that meets it.
            let mut boundary_ticks = Vec::new();
            let mut passed = 0;
            Supervisor::new(sup_opts)
                .run_controlled(
                    seqs,
                    params,
                    &opts,
                    &plan,
                    &CrashPlan::none(),
                    factory,
                    |_| LruCache::new(0),
                    &mut NullSink,
                    &mut MemStore::new(),
                    |status| {
                        boundary_ticks.push(status.ticks);
                        control(&mut passed)
                    },
                )
                .map_err(|e| format!("dry run failed: {e}"))?;
            let aligned = boundaries * epoch_ticks + epoch_ticks / 2;
            let mut passed = boundary_ticks.partition_point(|&t| t < aligned) as u64;
            if meets(passed) {
                aligned
            } else {
                while !meets(passed) {
                    passed += 1;
                }
                let at = boundary_ticks.get(passed as usize - 1).ok_or_else(|| {
                    format!(
                        "premise failed: the run has {} epoch boundaries, the \
                         stale-base crash needs {passed}",
                        boundary_ticks.len()
                    )
                })?;
                at + epoch_ticks / 2
            }
        }
        _ => boundaries.max(2) * epoch_ticks + epoch_ticks / 2,
    };
    if crash_tick >= baseline_ticks {
        return Err(format!(
            "premise failed: aligned crash tick {crash_tick} falls past the \
             {baseline_ticks}-tick baseline"
        ));
    }

    let mut store = SabotagedStore::new(corruption);
    let mut recovered_trace = TraceRecorder::new();
    let mut passed = 0;
    let supervised = Supervisor::new(sup_opts).run_controlled(
        seqs,
        params,
        &opts,
        &plan,
        &CrashPlan::at_ticks(vec![crash_tick]),
        factory,
        |_| LruCache::new(0),
        &mut recovered_trace,
        &mut store,
        |_| control(&mut passed),
    );

    let mut violations = Vec::new();
    let mut truncations = 0;
    let mut wal_records = 0;
    match supervised {
        Err(e) => violations.push(format!("recovery failed: {e}")),
        Ok(report) => {
            truncations = report.wal_truncations;
            wal_records = report.wal_records;
            if report.crashes != 1 {
                violations.push(format!(
                    "expected 1 injected crash, observed {}",
                    report.crashes
                ));
            }
            if !store.struck() {
                violations.push("the corrupted view was never read".to_string());
            }
            if report.wal_records == 0 {
                violations.push("premise failed: no WAL records were written".to_string());
            }
            // Every kind must be *detected* — a faithful pass-through means
            // the crash tick alignment failed to give the strike material.
            if store.served_faithfully() {
                violations.push(format!(
                    "premise failed: nothing to corrupt at the strike ({:?})",
                    store.strike_note
                ));
            } else if report.wal_truncations == 0 {
                violations.push(format!(
                    "corruption went undetected (strike: {:?})",
                    store.strike_note
                ));
            }
            violations.extend(recovery_divergences(
                (&baseline, &baseline_trace),
                (&report.result, &recovered_trace),
            ));
        }
    }

    Ok(WalCell {
        crash_tick,
        truncations,
        wal_records,
        violations,
    })
}

/// The WAL corruption matrix: every policy in [`policy::NAMES`] × every
/// [`WalCorruption`] kind that `filter` keeps (label `policy/corruption`).
pub fn wal_chaos_matrix(
    seqs: &[Vec<PageId>],
    params: &ModelParams,
    seed: u64,
    filter: &CellFilter,
) -> Matrix<WalCell> {
    let cells = policy::NAMES
        .iter()
        .flat_map(|&policy| WalCorruption::ALL.map(|corruption| (policy, corruption)));
    Matrix::run(
        &["policy", "cell", "crash@", "records", "truncs"],
        filter,
        cells,
        |&(policy, corruption)| vec![policy.to_string(), corruption.name().to_string()],
        |&(policy, corruption)| check_wal_corruption(policy, seqs, params, seed, corruption),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use parapage_workloads::{build_workload, family::conformance_mix, SeqSpec};

    fn workload(p: usize, len: usize, k: usize) -> Vec<Vec<PageId>> {
        let specs: Vec<SeqSpec> = (0..p)
            .map(|x| match x % 2 {
                0 => SeqSpec::Cyclic {
                    width: (k / 4).max(2),
                    len,
                },
                _ => SeqSpec::Zipf {
                    universe: k.max(4),
                    theta: 0.9,
                    len,
                },
            })
            .collect();
        build_workload(&specs, 42).seqs().to_vec()
    }

    #[test]
    fn every_corruption_kind_recovers_det_par_exactly() {
        let params = ModelParams::new(4, 32, 8);
        let seqs = workload(4, 2500, 32);
        for corruption in WalCorruption::ALL {
            let cell = check_wal_corruption("det-par", &seqs, &params, 7, corruption)
                .unwrap_or_else(|e| panic!("{corruption}: {e}"));
            assert!(
                cell.passed(),
                "{corruption}: violations {:?}",
                cell.violations
            );
            assert!(cell.truncations >= 1, "{corruption}: nothing truncated");
        }
    }

    #[test]
    fn rng_backed_policy_survives_a_torn_tail() {
        let params = ModelParams::new(4, 32, 8);
        let seqs = workload(4, 2500, 32);
        for corruption in [WalCorruption::TornTail, WalCorruption::StaleBase] {
            let cell = check_wal_corruption("rand-par", &seqs, &params, 11, corruption)
                .unwrap_or_else(|e| panic!("{corruption}: {e}"));
            assert!(
                cell.passed(),
                "{corruption}: violations {:?}",
                cell.violations
            );
        }
    }

    /// The full-size `parapage chaos --wal` stale-base cell for DET-PAR
    /// (p=8, k=64, s=10, 2000 requests per processor of the conformance
    /// mix, seed 42). Batched grant dispatch makes its epochs
    /// overshoot, so boundary `n` sits past `n * epoch_ticks`; the crash
    /// must still land where a previous base and a non-empty log exist.
    #[test]
    fn batching_policy_stale_base_at_full_length() {
        let (p, k, len) = (8, 64, 2000);
        let seqs = build_workload(&conformance_mix(p, k, len), 42).into_seqs();
        let params = ModelParams::new(p, k, 10);
        let cell = check_wal_corruption("det-par", &seqs, &params, 42, WalCorruption::StaleBase)
            .expect("stale-base cell");
        assert!(cell.passed(), "violations {:?}", cell.violations);
    }
}
