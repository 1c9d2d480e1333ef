//! E9 — ablations of the `Θ(·)` design constants:
//!
//! * the box-height distribution exponent (`Pr[j] ∝ j^-e`): the paper's
//!   `e = 2` equalizes impact contributions; `e = 1` over-spends on tall
//!   boxes, `e = 3` starves them (which only a tall-box-hungry sequence
//!   would punish; E9a's is not one);
//! * RAND-PAR's primary-part length multiplier: longer primaries help
//!   time-bound workloads and waste time on impact-bound ones.

use parapage::core::RandParConfig;
use parapage::prelude::*;
use parapage::workloads::family;
use rayon::prelude::*;

use super::{green_sequence, least, run_policy, section, Opts, Report};

const CLAIM: &str = "every ratio ≥ 1 (certified bounds)";

/// E9a's table and its impact ratios.
fn green_ablation(o: Opts) -> (String, Vec<f64>) {
    let p = 32usize;
    let k = 8 * p;
    let params = ModelParams::new(p, k, 16);
    let seq = green_sequence(k, o.seed);
    let opt = green_opt_normalized(&seq, &params);
    let exps = [1.0f64, 1.5, 2.0, 2.5, 3.0];
    let seeds = if o.quick { 4u64 } else { 12 };

    let rows: Vec<(f64, f64, f64)> = exps
        .par_iter()
        .map(|&e| {
            let dist = BoxHeightDist::with_exponent(&params, e);
            let ratios: Vec<f64> = (0..seeds)
                .map(|seed| {
                    let mut g = RandGreen::with_dist(dist.clone(), o.seed ^ seed);
                    run_green(&mut g, &seq, &params).impact as f64 / opt.impact as f64
                })
                .collect();
            let s = summarize(&ratios);
            (e, s.mean, s.ci95)
        })
        .collect();

    let mut table = Table::new(["exponent", "impact ratio", "ci95"]);
    for &(e, mean, ci) in &rows {
        table.row([format!("{e:.1}"), format!("{mean:.3}"), format!("{ci:.3}")]);
    }
    let title = "E9a: RAND-GREEN height-distribution exponent (paper: 2)";
    (section(title, &table), rows.iter().map(|r| r.1).collect())
}

/// E9b's table and its makespan ratios.
fn rand_par_ablation(o: Opts) -> (String, Vec<f64>) {
    let p = 16usize;
    let k = 16 * p;
    let params = ModelParams::new(p, k, 16);
    let len = if o.quick { 1500 } else { 4000 };
    let w = build_workload(&family::mixed(p, k, len), o.seed);
    let lb = opt_lower_bound(w.seqs(), k, params.s);

    let configs: Vec<(String, RandParConfig)> = vec![
        (
            "exp=1".into(),
            RandParConfig {
                exponent: 1.0,
                ..Default::default()
            },
        ),
        ("exp=2 (paper)".into(), RandParConfig::default()),
        (
            "exp=3".into(),
            RandParConfig {
                exponent: 3.0,
                ..Default::default()
            },
        ),
        (
            "primary×2".into(),
            RandParConfig {
                primary_factor: 2,
                ..Default::default()
            },
        ),
        (
            "primary×4".into(),
            RandParConfig {
                primary_factor: 4,
                ..Default::default()
            },
        ),
    ];
    let seeds = if o.quick { 3u64 } else { 6 };

    let rows: Vec<(String, f64, f64)> = configs
        .into_par_iter()
        .map(|(name, cfg)| {
            let ratios: Vec<f64> = (0..seeds)
                .map(|seed| {
                    let mut rp = RandPar::with_config(&params, cfg, o.seed ^ seed);
                    run_policy(&mut rp, w.seqs(), &params).makespan as f64 / lb as f64
                })
                .collect();
            let s = summarize(&ratios);
            (name, s.mean, s.ci95)
        })
        .collect();

    let mut table = Table::new(["config", "makespan/LB", "ci95"]);
    let means = rows.iter().map(|r| r.1).collect();
    for (name, mean, ci) in rows {
        table.row([name, format!("{mean:.3}"), format!("{ci:.3}")]);
    }
    let title = "E9b: RAND-PAR constants (mixed workload)";
    (section(title, &table), means)
}

pub(super) fn run(o: Opts) -> Report {
    let (green, impact) = green_ablation(o);
    let (rand_par, makespan) = rand_par_ablation(o);
    let min = least(impact.into_iter().chain(makespan));
    let measured = format!("min {min:.3}");
    Report::new(green + &rand_par, CLAIM, measured).check(min >= 1.0, "a ratio below its bound")
}
