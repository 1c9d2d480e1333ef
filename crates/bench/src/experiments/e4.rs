//! E4 — Theorem 3: DET-PAR's makespan is `O(log p · T_OPT)`,
//! deterministically, and head-to-head it matches or beats RAND-PAR.

use parapage::prelude::*;
use parapage::workloads::family;
use rayon::prelude::*;

use super::{fit_line, run_policy, section, Opts, Report};

const CLAIM: &str = "DET-PAR/LB ≥ 1, slope ≤ 3, peak ≤ 4k";

pub(super) fn run(o: Opts) -> Report {
    let ps: &[usize] = if o.quick {
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
            let w = build_workload(&family::mixed(p, k, len), o.seed);
            let lb = opt_lower_bound(w.seqs(), k, params.s);
            let mut det = DetPar::new(&params);
            let res = run_policy(&mut det, w.seqs(), &params);
            let mut rnd = RandPar::new(&params, o.seed);
            let rnd_ms = run_policy(&mut rnd, w.seqs(), &params).makespan;
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
    let (mut min, mut peak_k) = (f64::INFINITY, 0.0f64);
    for &(p, lb, ratio, vs_rand, peak) in &rows {
        points.push(((p as f64).log2(), ratio));
        let peak = peak as f64 / (16 * p) as f64;
        (min, peak_k) = (min.min(ratio), peak_k.max(peak));
        table.row([
            p.to_string(),
            (16 * p).to_string(),
            lb.to_string(),
            format!("{ratio:.3}"),
            format!("{vs_rand:.2}"),
            format!("{peak:.2}"),
        ]);
    }
    let mut text = section("E4: DET-PAR makespan ratio vs log p (Theorem 3)", &table);
    let fit = fit_linear(&points);
    if let Some(f) = &fit {
        text += &fit_line("fit", f);
        text += "Theorem 3 predicts bounded-slope growth; peak memory certifies ξ = O(1).\n";
    }

    let slope = fit.map_or(f64::NAN, |f| f.slope);
    // Slope today: 0.999 full, 2.022 quick (1.48x slack); peak at most
    // 3.38k (1.18x slack).
    let measured = format!("min {min:.3}, slope {slope:.3}, peak {peak_k:.2}k");
    Report::new(text, CLAIM, measured)
        .check(min >= 1.0, "DET-PAR/LB below 1")
        .check(slope <= 3.0, "fit slope above 3")
        .check(peak_k <= 4.0, "peak memory above 4k")
}
