//! Resume equivalence: snapshot/restore recovery must be invisible.
//!
//! The contract (see `parapage-sched`'s `supervisor` module): a run that
//! crashes at arbitrary points and resumes from checkpoints must produce
//! the **byte-identical** [`RunResult`] and trace stream of an
//! uninterrupted run. This module turns that contract into a checkable
//! oracle:
//!
//! * [`check_resume`] — one cell: runs a policy uninterrupted through the
//!   steppable engine (capturing result, trace, and tick count), then
//!   re-runs it under the [`Supervisor`] with deterministic crashes
//!   injected at ticks chosen from that baseline's length, and diffs the
//!   two runs field by field and event by event.
//! * [`resume_matrix`] — the chaos grid: every checkpoint-capable policy ×
//!   every named fault scenario × a set of crashpoints expressed as
//!   fractions of the baseline run's tick count.
//! * [`check_corruption_rejection`] — a snapshot with a flipped byte must
//!   be rejected with a typed error (never a panic, never a silent
//!   mis-restore); [`corruption_rejection_matrix`] runs it per policy.
//!
//! `parapage chaos` runs both matrices through the [`crate::matrix`]
//! runner and exits non-zero on any divergence or failed recovery.

use parapage_cache::{Cache, LruCache, PageId};
use parapage_core::{policy, FaultEvent, ModelParams};
use parapage_sched::{
    CrashPlan, Engine, EngineOpts, EngineSnapshot, EpochControl, FaultPlan, MemStore, RunResult,
    Supervisor, SupervisorOpts, TraceRecorder,
};
use parapage_workloads::fault_scenario;

use crate::checkers;
use crate::matrix::{CellFilter, CellRow, Matrix};
use crate::oracle::policy_scenarios;

/// The uninterrupted run a recovery check diffs against, through the same
/// steppable engine the supervisor drives: its result, its trace, and its
/// length in engine ticks.
#[allow(clippy::too_many_arguments)]
pub fn baseline_run<C: Cache>(
    policy: &str,
    seqs: &[Vec<PageId>],
    params: &ModelParams,
    opts: &EngineOpts,
    seed: u64,
    plan: &FaultPlan,
    hardened: bool,
    make_cache: impl FnMut(usize) -> C,
) -> Result<(RunResult, TraceRecorder, u64), String> {
    let mut alloc = policy::build(policy, params, seed, hardened)
        .ok_or_else(|| format!("unknown policy `{policy}`"))?;
    let mut engine = Engine::new(&mut *alloc, seqs, params, opts, plan, make_cache);
    let mut trace = TraceRecorder::new();
    loop {
        match engine.step(&mut *alloc, &mut trace) {
            Ok(true) => {}
            Ok(false) => break,
            Err(e) => return Err(format!("baseline run errored: {e}")),
        }
    }
    let ticks = engine.ticks();
    Ok((engine.into_result(&*alloc), trace, ticks))
}

/// How a recovered run differs from the uninterrupted `baseline`: its
/// result field by field, then its trace event by event.
pub(crate) fn recovery_divergences(
    (baseline, baseline_trace): (&RunResult, &TraceRecorder),
    (recovered, recovered_trace): (&RunResult, &TraceRecorder),
) -> Vec<String> {
    let mut violations = Vec::new();
    if recovered != baseline {
        violations.push(format!(
            "RunResult diverged: recovered {recovered:?} vs baseline {baseline:?}"
        ));
    }
    let trace = checkers::check_replay(baseline_trace.events(), recovered_trace.events());
    violations.extend(trace.into_iter().map(|v| format!("trace: {v}")));
    violations
}

/// The verdict of one resume-equivalence cell.
pub struct ResumeCell {
    /// Engine ticks the injected crashes fired at.
    pub crash_ticks: Vec<u64>,
    /// Baseline run length in engine ticks.
    pub baseline_ticks: u64,
    /// Crashes the supervisor survived (should equal the crashpoint count).
    pub crashes: u32,
    /// Divergences between the recovered and the uninterrupted run; empty
    /// means the cell passed.
    pub violations: Vec<String>,
}

impl CellRow for ResumeCell {
    fn columns(&self) -> Vec<String> {
        vec![self.baseline_ticks.to_string(), self.crashes.to_string()]
    }
    fn violations(&self) -> &[String] {
        &self.violations
    }
}

/// Supervisor knobs for the checker: small epochs so crashes land between
/// checkpoints, no backoff (the crashes are injected, not environmental).
fn checker_sup_opts(crashes: usize) -> SupervisorOpts {
    SupervisorOpts {
        epoch_ticks: 32,
        max_retries: crashes as u32 + 2,
        backoff_base: std::time::Duration::ZERO,
        ..SupervisorOpts::default()
    }
}

/// One resume-equivalence check: uninterrupted vs crash-and-recover.
///
/// `crash_ticks` maps the baseline's length in ticks to the ticks to crash
/// at, so one baseline run both places and judges the crashes; ticks past
/// the baseline never fire and are dropped from the comparison.
pub fn check_resume(
    policy: &str,
    seqs: &[Vec<PageId>],
    params: &ModelParams,
    opts: &EngineOpts,
    seed: u64,
    plan: &FaultPlan,
    crash_ticks: impl FnOnce(u64) -> Vec<u64>,
) -> Result<ResumeCell, String> {
    let hardened = plan
        .events()
        .iter()
        .any(|e| matches!(e, FaultEvent::MemoryPressure { .. }));

    let (baseline, baseline_trace, baseline_ticks) =
        baseline_run(policy, seqs, params, opts, seed, plan, hardened, |_| {
            LruCache::new(0)
        })?;

    let crash_ticks: Vec<u64> = {
        let mut t: Vec<u64> = crash_ticks(baseline_ticks)
            .into_iter()
            .filter(|&t| t >= 1 && t <= baseline_ticks)
            .collect();
        t.sort_unstable();
        t.dedup();
        t
    };

    // Recovered: same inputs, crashes injected, supervisor in the loop.
    let mut recovered_trace = TraceRecorder::new();
    let supervised = Supervisor::new(checker_sup_opts(crash_ticks.len())).run_controlled(
        seqs,
        params,
        opts,
        plan,
        &CrashPlan::at_ticks(crash_ticks.clone()),
        || {
            policy::build(policy, params, seed, hardened)
                .expect("factory succeeded for the baseline")
        },
        |_| LruCache::new(0),
        &mut recovered_trace,
        &mut MemStore::new(),
        |_| EpochControl::Continue,
    );

    let mut violations = Vec::new();
    let mut crashes = 0;
    match supervised {
        Err(e) => violations.push(format!("recovery failed: {e}")),
        Ok(report) => {
            crashes = report.crashes;
            if report.crashes as usize != crash_ticks.len() {
                violations.push(format!(
                    "expected {} injected crashes, observed {}",
                    crash_ticks.len(),
                    report.crashes
                ));
            }
            violations.extend(recovery_divergences(
                (&baseline, &baseline_trace),
                (&report.result, &recovered_trace),
            ));
        }
    }

    Ok(ResumeCell {
        crash_ticks,
        baseline_ticks,
        crashes,
        violations,
    })
}

/// The chaos grid: every policy in [`policy::NAMES`] × every named
/// fault scenario that `filter` keeps (label `policy/scenario`) × one
/// crashpoint per entry of `crash_fracs` (a fraction in `(0, 1)` of the
/// cell's baseline tick count; each cell injects all its crashpoints into
/// a single supervised run).
pub fn resume_matrix(
    seqs: &[Vec<PageId>],
    params: &ModelParams,
    seed: u64,
    horizon: u64,
    crash_fracs: &[f64],
    filter: &CellFilter,
) -> Matrix<ResumeCell> {
    let opts = EngineOpts::default();
    let crash_ticks = |ticks: u64| -> Vec<u64> {
        let at = |f: &f64| ((ticks as f64 * f) as u64).max(1);
        crash_fracs.iter().map(at).collect()
    };
    Matrix::run(
        &["policy", "scenario", "ticks", "crashes"],
        filter,
        policy_scenarios(),
        |&(policy, scenario)| vec![policy.to_string(), scenario.to_string()],
        |&(policy, scenario)| {
            let plan = fault_scenario(scenario, params.p, params.k, horizon, seed)
                .map(FaultPlan::new)
                .ok_or_else(|| format!("unknown scenario `{scenario}`"))?;
            check_resume(policy, seqs, params, &opts, seed, &plan, crash_ticks)
        },
    )
}

/// [`check_corruption_rejection`] for every policy `filter` keeps; a
/// cell's violation is the corruption that got through.
pub fn corruption_rejection_matrix(
    seqs: &[Vec<PageId>],
    params: &ModelParams,
    seed: u64,
    filter: &CellFilter,
) -> Matrix<Vec<String>> {
    Matrix::run(
        &["policy"],
        filter,
        policy::NAMES.iter().copied(),
        |policy| vec![policy.to_string()],
        |policy| {
            Ok(check_corruption_rejection(policy, seqs, params, seed)
                .err()
                .into_iter()
                .collect())
        },
    )
}

/// Verifies that a corrupted snapshot is rejected with a typed error: for
/// every byte position in a real mid-run snapshot's encoding (sampled if
/// the blob is large), flipping that byte must make decoding fail — never
/// panic, never yield a snapshot that silently restores.
pub fn check_corruption_rejection(
    policy: &str,
    seqs: &[Vec<PageId>],
    params: &ModelParams,
    seed: u64,
) -> Result<(), String> {
    let plan = FaultPlan::none();
    let opts = EngineOpts::default();
    let mut alloc = policy::build(policy, params, seed, false)
        .ok_or_else(|| format!("unknown policy `{policy}`"))?;
    let mut engine = Engine::new(&mut *alloc, seqs, params, &opts, &plan, |_| {
        LruCache::new(0)
    });
    let mut sink = parapage_sched::NullSink;
    for _ in 0..12 {
        if !engine
            .step(&mut *alloc, &mut sink)
            .map_err(|e| format!("engine errored: {e}"))?
        {
            break;
        }
    }
    let snap = engine
        .snapshot(&*alloc)
        .map_err(|e| format!("snapshot failed: {e}"))?;
    let bytes = snap.encode();
    if EngineSnapshot::decode(&bytes).as_ref() != Ok(&snap) {
        return Err("clean snapshot failed to round-trip".to_string());
    }
    // Flip every byte for small blobs, a deterministic stride for large
    // ones — the digest must catch each single-byte corruption.
    let stride = (bytes.len() / 64).max(1);
    for i in (0..bytes.len()).step_by(stride) {
        let mut bad = bytes.clone();
        bad[i] ^= 0x40;
        // Any typed error is a rejection (a workload mismatch included).
        if EngineSnapshot::decode(&bad).is_ok() {
            return Err(format!(
                "snapshot with byte {i} flipped decoded successfully — \
                 the integrity digest missed a corruption"
            ));
        }
    }
    // Truncation must also be typed.
    match EngineSnapshot::decode(&bytes[..bytes.len() - 1]) {
        Ok(_) => Err("truncated snapshot decoded successfully".to_string()),
        Err(_) => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parapage_workloads::{build_workload, fault_scenario, SeqSpec};

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
    fn det_par_resume_cell_passes() {
        let params = ModelParams::new(4, 32, 8);
        let seqs = workload(4, 300, 32);
        let plan =
            FaultPlan::new(fault_scenario("stalls", 4, 32, 4000, 7).expect("stalls scenario"));
        let probe = check_resume(
            "det-par",
            &seqs,
            &params,
            &EngineOpts::default(),
            7,
            &plan,
            |_| Vec::new(),
        )
        .expect("probe");
        assert!(probe.passed(), "probe violations: {:?}", probe.violations);
        let mid = (probe.baseline_ticks / 2).max(1);
        let cell = check_resume(
            "det-par",
            &seqs,
            &params,
            &EngineOpts::default(),
            7,
            &plan,
            |ticks| vec![2, mid, ticks - 1],
        )
        .expect("cell");
        assert!(cell.passed(), "violations: {:?}", cell.violations);
        assert_eq!(cell.crashes as usize, cell.crash_ticks.len());
    }

    #[test]
    fn rand_par_resume_survives_crashes_under_chaos_scenario() {
        let params = ModelParams::new(4, 32, 8);
        let seqs = workload(4, 300, 32);
        let plan =
            FaultPlan::new(fault_scenario("chaos", 4, 32, 4000, 11).expect("chaos scenario"));
        let probe = check_resume(
            "rand-par",
            &seqs,
            &params,
            &EngineOpts::default(),
            11,
            &plan,
            |_| Vec::new(),
        )
        .expect("probe");
        let t = probe.baseline_ticks;
        let cell = check_resume(
            "rand-par",
            &seqs,
            &params,
            &EngineOpts::default(),
            11,
            &plan,
            |_| vec![t / 10 + 1, t / 3 + 1, (2 * t) / 3 + 1],
        )
        .expect("cell");
        assert!(cell.passed(), "violations: {:?}", cell.violations);
    }

    #[test]
    fn corruption_is_rejected_for_every_policy() {
        let params = ModelParams::new(2, 16, 6);
        let seqs = workload(2, 120, 16);
        for &policy in policy::NAMES {
            check_corruption_rejection(policy, &seqs, &params, 5)
                .unwrap_or_else(|e| panic!("{policy}: {e}"));
        }
    }
}
