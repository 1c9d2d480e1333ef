//! E4 — Theorem 3: DET-PAR's makespan is `O(log p · T_OPT)`,
//! deterministically, and head-to-head it matches or beats RAND-PAR.

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

    let rows: Vec<(usize, u64, f64, f64, usize)> = ps
        .par_iter()
        .map(|&p| {
            let k = 16 * p;
            let params = ModelParams::new(p, k, 16);
            let len = 3000;
            let w = build_workload(&family::mixed(p, k, len), cli.seed);
            let lb = opt_lower_bound(w.seqs(), k, params.s);
            let mut det = DetPar::new(&params);
            let res = recipes::run_policy(&mut det, &w, &params);
            let mut rnd = RandPar::new(&params, cli.seed);
            let rnd_ms = recipes::run_policy(&mut rnd, &w, &params).makespan;
            (
                p,
                lb,
                res.makespan as f64 / lb as f64,
                rnd_ms as f64 / res.makespan as f64,
                res.peak_memory,
            )
        })
        .collect();

    let mut table = Table::new([
        "p",
        "k",
        "T_OPT LB",
        "DET-PAR/LB",
        "RAND/DET",
        "peak mem (×k)",
    ]);
    let mut points = Vec::new();
    for &(p, lb, ratio, vs_rand, peak) in &rows {
        points.push(((p as f64).log2(), ratio));
        table.row([
            p.to_string(),
            (16 * p).to_string(),
            lb.to_string(),
            format!("{ratio:.3}"),
            format!("{vs_rand:.2}"),
            format!("{:.2}", peak as f64 / (16 * p) as f64),
        ]);
    }
    emit(
        "E4: DET-PAR makespan ratio vs log p (Theorem 3)",
        &table,
        &cli,
    );
    if let Some(fit) = fit_linear(&points) {
        println!(
            "fit: ratio = {:.3} + {:.3}·log2(p)   (R² = {:.3})",
            fit.intercept, fit.slope, fit.r2
        );
        println!("Theorem 3 predicts bounded-slope growth; peak memory certifies ξ = O(1).");
    }
}
