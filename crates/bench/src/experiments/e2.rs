//! E2 — Lemma 1: under the distribution `Pr[j] ∝ k²/(j²p²)`, every box
//! height contributes the same expected memory impact `Θ(k²s/p²)`.
//!
//! Monte-Carlo estimates `E[X_j·Y]` (indicator of height `j` times box
//! impact) per height and compares against the analytic value; the flatness
//! across heights is the lemma.

use parapage::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::{section, Opts, Report};

const CLAIM: &str = "max/min ≤ 1.25";

pub(super) fn run(o: Opts) -> Report {
    let p = 32usize;
    let k = 8 * p;
    let s = 16u64;
    let params = ModelParams::new(p, k, s);
    let dist = BoxHeightDist::paper(&params);
    let n: u64 = if o.quick { 200_000 } else { 2_000_000 };

    let mut rng = StdRng::seed_from_u64(o.seed);
    let heights = dist.heights().to_vec();
    let mut impact_sum = vec![0u128; heights.len()];
    let mut count = vec![0u64; heights.len()];
    for _ in 0..n {
        let j = dist.sample(&mut rng);
        let idx = heights
            .iter()
            .position(|&h| h == j)
            .expect("a drawn height");
        count[idx] += 1;
        impact_sum[idx] += (s as u128) * (j as u128) * (j as u128);
    }

    let flat_theory = (k as f64 / p as f64).powi(2) * s as f64; // s·(k/p)² per level (up to the normalization)
    let mut table = Table::new([
        "height j",
        "Pr[j] (theory)",
        "Pr[j] (empirical)",
        "E[X·Y] per draw",
        "normalized",
    ]);
    for (idx, &j) in heights.iter().enumerate() {
        let emp_pr = count[idx] as f64 / n as f64;
        let exy = impact_sum[idx] as f64 / n as f64;
        table.row([
            j.to_string(),
            format!("{:.5}", dist.probs()[idx]),
            format!("{emp_pr:.5}"),
            format!("{exy:.1}"),
            format!("{:.3}", exy / (flat_theory * dist.probs()[0])),
        ]);
    }
    let mut text = section(
        "E2: per-height expected impact contribution is flat (Lemma 1)",
        &table,
    );
    let exys: Vec<f64> = (0..heights.len())
        .map(|i| impact_sum[i] as f64 / n as f64)
        .collect();
    let max = exys.iter().cloned().fold(f64::MIN, f64::max);
    let min = exys.iter().cloned().fold(f64::MAX, f64::min);
    let spread = max / min;
    text += &format!("max/min contribution across heights = {spread:.3} (Lemma 1 predicts ≈ 1)\n");
    text += &format!(
        "expected impact per draw = {:.0}; per-level contribution × {} levels = {:.0}\n",
        dist.expected_impact(s),
        heights.len(),
        exys.iter().sum::<f64>()
    );
    // Today: 1.052 full, 1.024 quick (1.19x slack).
    let measured = format!("max/min {spread:.3}");
    Report::new(text, CLAIM, measured).check(spread <= 1.25, "contributions are not flat")
}
