//! E6 — Corollary 3: DET-PAR is simultaneously `O(log p)`-competitive for
//! *mean completion time*.
//!
//! Reports each policy's mean completion time normalized by the mean of the
//! per-processor Belady floors (a lower bound on the optimal mean
//! completion time, since every processor individually needs at least its
//! floor).

use parapage::core::policy;
use parapage::prelude::*;
use parapage::workloads::family;
use parapage_bench::{emit, parse_cli, recipes};
use rayon::prelude::*;

fn main() {
    let cli = parse_cli();
    let ps: &[usize] = if cli.quick { &[4, 8] } else { &[4, 8, 16, 32] };

    let rows: Vec<(usize, f64, Vec<f64>)> = ps
        .par_iter()
        .map(|&p| {
            let k = 16 * p;
            let params = ModelParams::new(p, k, 16);
            let len = 3000;
            let w = build_workload(&family::mixed(p, k, len), cli.seed);
            let mean_floor: f64 = w
                .seqs()
                .iter()
                .map(|seq| (seq.len() as u64 + (params.s - 1) * min_misses(seq, k)) as f64)
                .sum::<f64>()
                / p as f64;

            let mut ratios: Vec<f64> = ["det-par", "rand-par", "static", "prop-miss"]
                .iter()
                .map(|name| {
                    let mut alloc = policy::build(name, &params, cli.seed, false).unwrap();
                    recipes::run_policy(&mut *alloc, &w, &params).mean_completion() / mean_floor
                })
                .collect();
            ratios.push(run_shared_lru(w.seqs(), k, params.s).mean_completion() / mean_floor);
            (p, mean_floor, ratios)
        })
        .collect();

    let mut table = Table::new([
        "p",
        "mean floor",
        "DET-PAR",
        "RAND-PAR",
        "STATIC",
        "PROP-MISS",
        "SHARED-LRU",
    ]);
    let mut det_points = Vec::new();
    for (p, floor, ratios) in &rows {
        det_points.push(((*p as f64).log2(), ratios[0]));
        table.row([
            p.to_string(),
            format!("{floor:.0}"),
            format!("{:.2}", ratios[0]),
            format!("{:.2}", ratios[1]),
            format!("{:.2}", ratios[2]),
            format!("{:.2}", ratios[3]),
            format!("{:.2}", ratios[4]),
        ]);
    }
    emit(
        "E6: mean completion time / mean floor (Corollary 3)",
        &table,
        &cli,
    );
    if let Some(fit) = fit_linear(&det_points) {
        println!(
            "DET-PAR fit: ratio = {:.3} + {:.3}·log2(p)   (R² = {:.3})",
            fit.intercept, fit.slope, fit.r2
        );
    }
}
