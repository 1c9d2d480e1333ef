//! Empirical competitive-ratio guardrails.
//!
//! Theorem 1 promises `O(log p)`-competitive makespan; Theorem 4's
//! adversarial instances are the inputs designed to maximize the gap. These
//! guardrails run the paper's pagers on those instances, divide the
//! measured makespan by the Lemma-8 offline schedule's (an *upper bound* on
//! OPT, so the quotient *under*-states the true ratio), and assert the
//! result stays inside a generous `c·log p` envelope. A regression that
//! breaks the competitive structure — a phase that stops halving, a strip
//! that starves a processor — shows up as a ratio excursion long before a
//! proof-level audit would catch it.
//!
//! The constants are deliberately loose (≈3–4× the observed ratios): the
//! guardrail exists to catch order-of-magnitude regressions, not to flap on
//! noise.

use parapage_analysis::{lemma8_makespan, per_proc_bound};
use parapage_core::{BoxAllocator, DetPar, ModelParams, RandPar};
use parapage_sched::{run_engine, EngineOpts};
use parapage_workloads::{
    build_workload, family::conformance_mix, AdversarialConfig, AdversarialInstance, Workload,
};
use rayon::prelude::*;

/// One measured guardrail point.
pub struct EnvelopeEntry {
    /// Policy name.
    pub policy: &'static str,
    /// Instance description.
    pub instance: String,
    /// Processors.
    pub p: usize,
    /// Measured makespan / OPT-reference makespan.
    pub ratio: f64,
    /// The `c·log p` envelope the ratio must stay inside.
    pub bound: f64,
}

impl EnvelopeEntry {
    /// `true` when the ratio is inside the envelope.
    pub fn ok(&self) -> bool {
        self.ratio <= self.bound
    }
}

/// The guardrail measurements.
pub struct EnvelopeReport {
    /// All measured points.
    pub entries: Vec<EnvelopeEntry>,
}

impl EnvelopeReport {
    /// Violations (entries outside their envelope), as report lines.
    pub fn violations(&self) -> Vec<String> {
        self.entries
            .iter()
            .filter(|e| !e.ok())
            .map(|e| {
                format!(
                    "{} on {}: ratio {:.2} exceeds {:.2} (c*log p envelope)",
                    e.policy, e.instance, e.ratio, e.bound
                )
            })
            .collect()
    }

    /// `true` when every entry is inside its envelope.
    pub fn passed(&self) -> bool {
        self.entries.iter().all(EnvelopeEntry::ok)
    }
}

fn measure(
    policy: &'static str,
    alloc: &mut dyn BoxAllocator,
    seqs: &[Vec<parapage_cache::PageId>],
    params: &ModelParams,
    opt_reference: u64,
    instance: String,
    bound: f64,
) -> Result<EnvelopeEntry, String> {
    let res = run_engine(alloc, seqs, params, &EngineOpts::default())
        .map_err(|e| format!("{policy} on {instance}: {e}"))?;
    Ok(EnvelopeEntry {
        policy,
        instance,
        p: params.p,
        ratio: res.makespan as f64 / opt_reference.max(1) as f64,
        bound,
    })
}

/// Prepared measurement inputs for one `(p, k)` guardrail size.
struct SizeInput {
    params: ModelParams,
    inst: AdversarialInstance,
    opt: u64,
    name: String,
    bound: f64,
    wparams: ModelParams,
    w: Workload,
    lb: u64,
    wname: String,
    wbound: f64,
}

/// Runs the guardrails: DET-PAR and RAND-PAR on Theorem-4 adversarial
/// instances (ratio vs the Lemma-8 schedule) and on a mixed workload
/// (ratio vs the certified per-processor lower bound). `quick` audits the
/// smallest instance only.
///
/// The instances and reference bounds are prepared sequentially (cheap
/// relative to the engine runs); the `sizes × {adversarial, mixed} ×
/// {DET-PAR, RAND-PAR}` measurement grid then fans out across the pool,
/// each cell filling its pre-assigned slot so the entry order is
/// identical for every thread count.
pub fn competitive_envelope(quick: bool, seed: u64) -> Result<EnvelopeReport, String> {
    let sizes: &[(usize, usize)] = if quick {
        &[(8, 32)]
    } else {
        &[(8, 32), (16, 64)]
    };
    let inputs: Vec<SizeInput> = sizes
        .iter()
        .map(|&(p, k)| {
            let cfg = AdversarialConfig::scaled(p, k, k as u64, 0.05);
            let inst = AdversarialInstance::build(cfg);
            let params = cfg.params();
            let log_p = params.log_p() as f64;
            let opt = lemma8_makespan(&inst).makespan();
            // The adversarial construction is built to force
            // Ω(log p / log log p) against *any* online pager; 6·log p + 8
            // gives ~3× headroom over the measured ratios while still
            // scaling with the theorem.
            let bound = 6.0 * log_p + 8.0;

            // Mixed (non-adversarial) workload against the certified lower
            // bound: ratios here must be far smaller than on the
            // adversarial family.
            let len = 2000usize;
            let w = build_workload(&conformance_mix(p, k, len), seed);
            let wparams = ModelParams::new(p, k, 16);
            let lb = per_proc_bound(w.seqs(), wparams.k, wparams.s);
            SizeInput {
                params,
                inst,
                opt,
                name: format!("adversarial(p={p},k={k})"),
                bound,
                wparams,
                w,
                lb,
                wname: format!("mixed(p={p},k={k})"),
                wbound: 4.0 * wparams.log_p() as f64 + 6.0,
            }
        })
        .collect();

    let cells: Vec<(usize, usize)> = (0..inputs.len())
        .flat_map(|i| (0..4usize).map(move |j| (i, j)))
        .collect();
    let entries: Vec<EnvelopeEntry> = cells
        .par_iter()
        .map(|&(i, j)| {
            let inp = &inputs[i];
            match j {
                0 => measure(
                    "det-par",
                    &mut DetPar::new(&inp.params),
                    inp.inst.workload.seqs(),
                    &inp.params,
                    inp.opt,
                    inp.name.clone(),
                    inp.bound,
                ),
                1 => measure(
                    "rand-par",
                    &mut RandPar::new(&inp.params, seed),
                    inp.inst.workload.seqs(),
                    &inp.params,
                    inp.opt,
                    inp.name.clone(),
                    inp.bound,
                ),
                2 => measure(
                    "det-par",
                    &mut DetPar::new(&inp.wparams),
                    inp.w.seqs(),
                    &inp.wparams,
                    inp.lb,
                    inp.wname.clone(),
                    inp.wbound,
                ),
                _ => measure(
                    "rand-par",
                    &mut RandPar::new(&inp.wparams, seed),
                    inp.w.seqs(),
                    &inp.wparams,
                    inp.lb,
                    inp.wname.clone(),
                    inp.wbound,
                ),
            }
        })
        .collect::<Vec<Result<EnvelopeEntry, String>>>()
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
    Ok(EnvelopeReport { entries })
}
