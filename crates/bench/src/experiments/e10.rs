//! E10 — Observation 1: within RAND-PAR, the primary and secondary parts of
//! each chunk have equal expected length and memory impact.
//!
//! Runs RAND-PAR instrumented and aggregates the chunk log, grouped by the
//! active-processor count `r` at chunk start.

use std::collections::BTreeMap;

use parapage::prelude::*;

use super::{run_policy, section, Opts, Report};

const CLAIM: &str = "both overall ratios in [1/2, 2]";

pub(super) fn run(o: Opts) -> Report {
    let p = 32usize;
    let k = 16 * p;
    let params = ModelParams::new(p, k, 16);
    let len = if o.quick { 1500 } else { 5000 };
    // Uniform lengths with varied widths so completions stagger and several
    // phases occur.
    let specs: Vec<SeqSpec> = (0..p)
        .map(|x| SeqSpec::Cyclic {
            width: (4 << (x % 5)).min(k / 2),
            len: len * (1 + x % 3),
        })
        .collect();
    let w = build_workload(&specs, o.seed);

    let mut rp = RandPar::new(&params, o.seed);
    let _ = run_policy(&mut rp, w.seqs(), &params);

    // Group chunks by r (active processors at chunk start).
    let mut by_r: BTreeMap<usize, (u128, u128, u128, u128, usize)> = BTreeMap::new();
    for c in rp.chunks() {
        let e = by_r.entry(c.r).or_insert((0, 0, 0, 0, 0));
        e.0 += c.primary_len as u128;
        e.1 += c.secondary_len as u128;
        e.2 += c.primary_impact;
        e.3 += c.secondary_impact;
        e.4 += 1;
    }

    let mut table = Table::new([
        "r",
        "chunks",
        "Σ primary len",
        "Σ secondary len",
        "len ratio",
        "impact ratio",
    ]);
    for (r, (l1, l2, i1, i2, n)) in &by_r {
        table.row([
            r.to_string(),
            n.to_string(),
            l1.to_string(),
            l2.to_string(),
            format!("{:.3}", *l2 as f64 / *l1 as f64),
            format!("{:.3}", *i2 as f64 / *i1 as f64),
        ]);
    }
    let mut text = section(
        "E10: RAND-PAR chunk balance by active count r (Observation 1)",
        &table,
    );

    let tot: (u128, u128, u128, u128) = rp.chunks().iter().fold((0, 0, 0, 0), |acc, c| {
        (
            acc.0 + c.primary_len as u128,
            acc.1 + c.secondary_len as u128,
            acc.2 + c.primary_impact,
            acc.3 + c.secondary_impact,
        )
    });
    let len_ratio = tot.1 as f64 / tot.0 as f64;
    let impact_ratio = tot.3 as f64 / tot.2 as f64;
    text += &format!(
        "overall: {} chunks, E[l2]/l1 = {len_ratio:.3}, E[impact2]/impact1 = {impact_ratio:.3} \
         (Observation 1 predicts Θ(1) for both)\n",
        rp.chunks().len(),
    );

    // Today: 1.355 and 1.497 full, 1.021 and 1.023 quick (1.34x slack).
    let within = |r: f64| (0.5..=2.0).contains(&r);
    let measured = format!("l2/l1 {len_ratio:.3}, impact {impact_ratio:.3}");
    Report::new(text, CLAIM, measured)
        .check(within(len_ratio), "l2/l1 outside [1/2, 2]")
        .check(within(impact_ratio), "impact outside [1/2, 2]")
}
