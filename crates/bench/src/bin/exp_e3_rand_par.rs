//! E3 — Theorem 2: RAND-PAR's makespan is `O(log p · T_OPT)`.
//!
//! Sweeps `p` on the standard mixed workload, measures makespan over seeds
//! against the `T_OPT` lower bound, and fits ratio vs `log₂ p` — Theorem 2
//! predicts at most linear growth in `log p`.

use parapage::prelude::*;
use parapage::workloads::family;
use parapage_bench::{emit, parse_cli, recipes};
use rayon::prelude::*;

fn main() {
    let cli = parse_cli();
    let ps: &[usize] = if cli.quick {
        &[4, 8, 16]
    } else {
        &[4, 8, 16, 32, 64]
    };
    let seeds: u64 = if cli.quick { 3 } else { 8 };

    let rows: Vec<(usize, u64, f64, f64)> = ps
        .par_iter()
        .map(|&p| {
            let k = 16 * p;
            let params = ModelParams::new(p, k, 16);
            let len = 3000;
            let w = build_workload(&family::mixed(p, k, len), cli.seed);
            let lb = opt_lower_bound(w.seqs(), k, params.s);
            let ratios: Vec<f64> = (0..seeds)
                .into_par_iter()
                .map(|seed| {
                    let mut rp = RandPar::new(&params, cli.seed ^ seed);
                    let ms = recipes::run_policy(&mut rp, &w, &params).makespan;
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
    emit(
        "E3: RAND-PAR makespan ratio vs log p (Theorem 2)",
        &table,
        &cli,
    );
    if let Some(fit) = fit_linear(&points) {
        println!(
            "fit: ratio = {:.3} + {:.3}·log2(p)   (R² = {:.3})",
            fit.intercept, fit.slope, fit.r2
        );
    }
}
