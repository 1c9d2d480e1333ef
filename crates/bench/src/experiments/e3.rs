//! E3 — Theorem 2: RAND-PAR's makespan is `O(log p · T_OPT)`.
//!
//! Sweeps `p` on the standard mixed workload, measures makespan over seeds
//! against the `T_OPT` lower bound, and fits ratio vs `log₂ p` — Theorem 2
//! predicts at most linear growth in `log p`.

use parapage::prelude::*;
use parapage::workloads::family;
use rayon::prelude::*;

use super::{fit_line, least, run_policy, section, Opts, Report};

const CLAIM: &str = "1 ≤ RAND-PAR/LB ≤ 4·log2 p";

pub(super) fn run(o: Opts) -> Report {
    let ps: &[usize] = if o.quick {
        &[4, 8, 16]
    } else {
        &[4, 8, 16, 32, 64]
    };
    let seeds: u64 = if o.quick { 3 } else { 8 };

    let rows: Vec<(usize, u64, f64, f64)> = ps
        .par_iter()
        .map(|&p| {
            let k = 16 * p;
            let params = ModelParams::new(p, k, 16);
            let len = 3000;
            let w = build_workload(&family::mixed(p, k, len), o.seed);
            let lb = opt_lower_bound(w.seqs(), k, params.s);
            let ratios: Vec<f64> = (0..seeds)
                .into_par_iter()
                .map(|seed| {
                    let mut rp = RandPar::new(&params, o.seed ^ seed);
                    let ms = run_policy(&mut rp, w.seqs(), &params).makespan;
                    ms as f64 / lb as f64
                })
                .collect();
            let s = summarize(&ratios);
            (p, lb, s.mean, s.ci95)
        })
        .collect();

    let mut table = Table::new(["p", "k", "T_OPT LB", "RAND-PAR/LB", "ci95"]);
    let mut points = Vec::new();
    for &(p, lb, mean, ci) in &rows {
        points.push(((p as f64).log2(), mean));
        table.row([
            p.to_string(),
            (16 * p).to_string(),
            lb.to_string(),
            format!("{mean:.3}"),
            format!("{ci:.3}"),
        ]);
    }
    let mut text = section("E3: RAND-PAR makespan ratio vs log p (Theorem 2)", &table);
    if let Some(f) = fit_linear(&points) {
        text += &fit_line("fit", &f);
    }

    let min = least(points.iter().map(|pt| pt.1));
    let per_log = points.iter().map(|pt| pt.1 / pt.0).fold(0.0, f64::max);
    // ratio/log2 p today: at most 2.52 full, 2.87 quick (1.39x slack).
    let measured = format!("min {min:.3}, max/log2 p {per_log:.3}");
    Report::new(text, CLAIM, measured)
        .check(min >= 1.0, "RAND-PAR/LB below 1")
        .check(per_log <= 4.0, "RAND-PAR/LB above 4·log2 p")
}
