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
use rayon::prelude::*;

use super::{fit_line, least, run_policy, section, Opts, Report};

const CLAIM: &str = "every ratio ≥ 1, DET-PAR slope ≤ 2";

pub(super) fn run(o: Opts) -> Report {
    let ps: &[usize] = if o.quick { &[4, 8] } else { &[4, 8, 16, 32] };

    let rows: Vec<(usize, f64, Vec<f64>)> = ps
        .par_iter()
        .map(|&p| {
            let k = 16 * p;
            let params = ModelParams::new(p, k, 16);
            let len = 3000;
            let w = build_workload(&family::mixed(p, k, len), o.seed);
            let mean_floor: f64 = w
                .seqs()
                .iter()
                .map(|seq| (seq.len() as u64 + (params.s - 1) * min_misses(seq, k)) as f64)
                .sum::<f64>()
                / p as f64;

            let mut ratios: Vec<f64> = ["det-par", "rand-par", "static", "prop-miss"]
                .iter()
                .map(|name| {
                    let mut alloc =
                        policy::build(name, &params, o.seed, false).expect("an engine policy");
                    run_policy(&mut *alloc, w.seqs(), &params).mean_completion() / mean_floor
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
    let mut text = section(
        "E6: mean completion time / mean floor (Corollary 3)",
        &table,
    );
    let fit = fit_linear(&det_points);
    if let Some(f) = &fit {
        text += &fit_line("DET-PAR fit", f);
    }

    let slope = fit.map_or(f64::NAN, |f| f.slope);
    let min = least(rows.iter().flat_map(|r| r.2.iter().copied()));
    // Slope today: 0.956 full, 0.897 quick (2.1x slack).
    let measured = format!("min {min:.3}, slope {slope:.3}");
    Report::new(text, CLAIM, measured)
        .check(min >= 1.0, "a ratio below the floor")
        .check(slope <= 2.0, "DET-PAR fit slope above 2")
}
