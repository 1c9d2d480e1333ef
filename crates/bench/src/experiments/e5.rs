//! E5 — Lemma 6: DET-PAR is *well-rounded* with `O(k)` memory.
//!
//! Runs DET-PAR with timeline recording across `p` and workload families,
//! then audits both well-roundedness properties (base-height floor and the
//! `O(z²·s·log p / b)` gap bound for every height class) and the actual
//! resource augmentation used.

use parapage::prelude::*;
use parapage::workloads::family;
use rayon::prelude::*;

use super::{section, Opts, Report};

const CLAIM: &str = "0 Lemma-6 violations, peak ≤ 4k";

pub(super) fn run(o: Opts) -> Report {
    let ps: &[usize] = if o.quick { &[4, 8] } else { &[4, 8, 16, 32] };
    let families: &[&str] = &["mixed", "skewed", "uniform"];

    let mut table = Table::new([
        "p",
        "workload",
        "phases",
        "max gap factor",
        "violations",
        "peak mem (×k)",
        "well-rounded",
    ]);

    let mut rows: Vec<(usize, &str, usize, f64, usize, f64, bool)> = ps
        .par_iter()
        .flat_map(|&p| families.par_iter().map(move |&fam| (p, fam)))
        .map(|(p, fam)| {
            let k = 16 * p;
            let params = ModelParams::new(p, k, 16);
            let len = if o.quick { 1200 } else { 3000 };
            let specs = match fam {
                "mixed" => family::mixed(p, k, len),
                "skewed" => family::skewed(p, k, len),
                _ => family::uniform(p, k, len),
            };
            let w = build_workload(&specs, o.seed);
            let mut det = DetPar::new(&params);
            let opts = EngineOpts {
                record_timelines: true,
                ..Default::default()
            };
            let res = run_engine(&mut det, w.seqs(), &params, &opts).expect("DET-PAR run");
            let report = check_well_rounded(
                res.timelines.as_ref().expect("timelines were recorded"),
                &res.completions,
                det.phases(),
                &params,
                4.0,
            );
            (
                p,
                fam,
                det.phases().len(),
                report.max_gap_factor,
                report.violations.len(),
                res.peak_memory as f64 / k as f64,
                report.ok,
            )
        })
        .collect();
    rows.sort_by_key(|r| (r.0, r.1));

    let (mut all_ok, mut violations, mut peak_k) = (true, 0, 0.0f64);
    for (p, fam, phases, gap, viol, peak, ok) in rows {
        all_ok &= ok;
        (violations, peak_k) = (violations + viol, peak_k.max(peak));
        table.row([
            p.to_string(),
            fam.to_string(),
            phases.to_string(),
            format!("{gap:.3}"),
            viol.to_string(),
            format!("{peak:.2}"),
            if ok { "yes".into() } else { "NO".to_string() },
        ]);
    }
    let mut text = section("E5: DET-PAR well-roundedness audit (Lemma 6)", &table);
    text += &format!(
        "all audits passed: {all_ok}  (gap factor is normalized by s·z²·log p / b; \
         Lemma 6 guarantees O(1))\n"
    );
    // Peak today: at most 3.38k (1.18x slack).
    let measured = format!("{violations} violations, peak {peak_k:.2}k");
    Report::new(text, CLAIM, measured)
        .check(all_ok && violations == 0, "not well-rounded")
        .check(peak_k <= 4.0, "peak memory above 4k")
}
