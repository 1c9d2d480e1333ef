//! E1 — Theorem 1: RAND-GREEN is `O(log p)`-competitive for green paging.
//!
//! Sweeps `p` (with `k = 8p`), measures the memory-impact ratio of
//! RAND-GREEN (mean over seeds) and the deterministic ADAPT-GREEN baseline
//! against the exact offline optimum (DP over normalized box profiles), and
//! fits the ratio against `log₂ p`.

use parapage::prelude::*;
use rayon::prelude::*;

use super::{fit_line, green_sequence, least, section, Opts, Report};

const CLAIM: &str = "0 < slope ≤ 1, every ratio ≥ 1";

pub(super) fn run(o: Opts) -> Report {
    let ps: &[usize] = if o.quick {
        &[4, 16, 64]
    } else {
        &[4, 8, 16, 32, 64, 128, 256]
    };
    let seeds: u64 = if o.quick { 4 } else { 16 };

    #[allow(clippy::type_complexity)]
    let rows: Vec<(usize, f64, f64, f64, f64, f64)> = ps
        .par_iter()
        .map(|&p| {
            let k = 8 * p;
            let params = ModelParams::new(p, k, 16);
            let seq = green_sequence(k, o.seed);
            let opt = green_opt_normalized(&seq, &params);
            let ratios: Vec<f64> = (0..seeds)
                .map(|seed| {
                    let run = run_green(&mut RandGreen::new(&params, o.seed ^ seed), &seq, &params);
                    run.impact as f64 / opt.impact as f64
                })
                .collect();
            let s = summarize(&ratios);
            let ad = run_green(&mut AdaptiveGreen::new(&params), &seq, &params);
            let un = run_green(&mut UniversalGreen::new(&params), &seq, &params);
            (
                p,
                opt.impact as f64,
                s.mean,
                s.ci95,
                ad.impact as f64 / opt.impact as f64,
                un.impact as f64 / opt.impact as f64,
            )
        })
        .collect();

    let mut table = Table::new([
        "p",
        "log2(p)",
        "OPT impact",
        "RAND-GREEN ratio",
        "ci95",
        "ADAPT-GREEN ratio",
        "UNIV-GREEN ratio",
    ]);
    let mut points = Vec::new();
    for &(p, opt, mean, ci, ad, un) in &rows {
        let lg = (p as f64).log2();
        points.push((lg, mean));
        table.row([
            p.to_string(),
            format!("{lg:.0}"),
            format!("{opt:.0}"),
            format!("{mean:.3}"),
            format!("{ci:.3}"),
            format!("{ad:.3}"),
            format!("{un:.3}"),
        ]);
    }
    let mut text = section(
        "E1: RAND-GREEN competitive ratio vs log p (Theorem 1)",
        &table,
    );
    let fit = fit_linear(&points);
    if let Some(f) = &fit {
        text += &fit_line("fit", f);
        text += "Theorem 1 predicts a positive, bounded slope (O(log p) growth).\n";
    }

    let slope = fit.map_or(f64::NAN, |f| f.slope);
    let min = least(rows.iter().flat_map(|r| [r.2, r.4, r.5]));
    // Slope today: 0.302 full, 0.379 quick (2.6x slack under 1).
    let measured = format!("slope {slope:.3}, min {min:.3}");
    Report::new(text, CLAIM, measured)
        .check(slope > 0.0 && slope <= 1.0, "fit slope outside (0, 1]")
        .check(min >= 1.0, "a ratio below the optimum")
}
