//! E5 — Lemma 6: DET-PAR is *well-rounded* with `O(k)` memory.
//!
//! Runs DET-PAR with timeline recording across `p` and workload families,
//! then audits both well-roundedness properties (base-height floor and the
//! `O(z²·s·log p / b)` gap bound for every height class) and the actual
//! resource augmentation used.

use parapage::prelude::*;
use parapage::workloads::family;
use parapage_bench::{emit, parse_cli};
use rayon::prelude::*;

fn main() {
    let cli = parse_cli();
    let ps: &[usize] = if cli.quick { &[4, 8] } else { &[4, 8, 16, 32] };
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
            let len = if cli.quick { 1200 } else { 3000 };
            let specs = match fam {
                "mixed" => family::mixed(p, k, len),
                "skewed" => family::skewed(p, k, len),
                _ => family::uniform(p, k, len),
            };
            let w = build_workload(&specs, cli.seed);
            let mut det = DetPar::new(&params);
            let opts = EngineOpts {
                record_timelines: true,
                ..Default::default()
            };
            let res = run_engine(&mut det, w.seqs(), &params, &opts).unwrap();
            let report = check_well_rounded(
                res.timelines.as_ref().unwrap(),
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

    let mut all_ok = true;
    for (p, fam, phases, gap, viol, peak, ok) in rows {
        all_ok &= ok;
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
    emit("E5: DET-PAR well-roundedness audit (Lemma 6)", &table, &cli);
    println!(
        "all audits passed: {all_ok}  (gap factor is normalized by s·z²·log p / b; \
         Lemma 6 guarantees O(1))"
    );
}
