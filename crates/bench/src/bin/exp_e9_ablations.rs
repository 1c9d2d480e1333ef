//! E9 — ablations of the `Θ(·)` design constants:
//!
//! * the box-height distribution exponent (`Pr[j] ∝ j^-e`): the paper's
//!   `e = 2` equalizes impact contributions; `e = 1` over-spends on tall
//!   boxes, `e = 3` starves them (hurts green ratio on tall-box workloads);
//! * RAND-PAR's primary-part length multiplier: longer primaries help
//!   time-bound workloads and waste time on impact-bound ones.

use parapage::core::RandParConfig;
use parapage::prelude::*;
use parapage::workloads::family;
use parapage_bench::{emit, parse_cli, recipes};
use rayon::prelude::*;

fn green_ablation(cli: &parapage_bench::Cli) {
    let p = 32usize;
    let k = 8 * p;
    let params = ModelParams::new(p, k, 16);
    let seq = recipes::green_sequence(k, cli.seed);
    let opt = green_opt_normalized(&seq, &params);
    let exps = [1.0f64, 1.5, 2.0, 2.5, 3.0];
    let seeds = if cli.quick { 4u64 } else { 12 };

    let rows: Vec<(f64, f64, f64)> = exps
        .par_iter()
        .map(|&e| {
            let dist = BoxHeightDist::with_exponent(&params, e);
            let ratios: Vec<f64> = (0..seeds)
                .map(|seed| {
                    let mut g = RandGreen::with_dist(dist.clone(), cli.seed ^ seed);
                    run_green(&mut g, &seq, &params).impact as f64 / opt.impact as f64
                })
                .collect();
            let s = summarize(&ratios);
            (e, s.mean, s.ci95)
        })
        .collect();

    let mut table = Table::new(["exponent", "impact ratio", "ci95"]);
    for (e, mean, ci) in rows {
        table.row([format!("{e:.1}"), format!("{mean:.3}"), format!("{ci:.3}")]);
    }
    emit(
        "E9a: RAND-GREEN height-distribution exponent (paper: 2)",
        &table,
        cli,
    );
}

fn rand_par_ablation(cli: &parapage_bench::Cli) {
    let p = 16usize;
    let k = 16 * p;
    let params = ModelParams::new(p, k, 16);
    let len = if cli.quick { 1500 } else { 4000 };
    let w = build_workload(&family::mixed(p, k, len), cli.seed);
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
    let seeds = if cli.quick { 3u64 } else { 6 };

    let rows: Vec<(String, f64, f64)> = configs
        .into_par_iter()
        .map(|(name, cfg)| {
            let ratios: Vec<f64> = (0..seeds)
                .map(|seed| {
                    let mut rp = RandPar::with_config(&params, cfg, cli.seed ^ seed);
                    recipes::run_policy(&mut rp, &w, &params).makespan as f64 / lb as f64
                })
                .collect();
            let s = summarize(&ratios);
            (name, s.mean, s.ci95)
        })
        .collect();

    let mut table = Table::new(["config", "makespan/LB", "ci95"]);
    for (name, mean, ci) in rows {
        table.row([name, format!("{mean:.3}"), format!("{ci:.3}")]);
    }
    emit("E9b: RAND-PAR constants (mixed workload)", &table, cli);
}

fn main() {
    let cli = parse_cli();
    green_ablation(&cli);
    rand_par_ablation(&cli);
}
