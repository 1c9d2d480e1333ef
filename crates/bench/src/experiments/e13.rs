//! E13 — the WLOG check: the paper fixes LRU inside boxes "without loss of
//! generality" (up to constants). This experiment quantifies those
//! constants: DET-PAR run with LRU, FIFO, Clock, LFU, ARC, and 2Q inside
//! the boxes, on each workload family.
//!
//! The takeaway the model predicts: the *partitioning* decision dominates;
//! swapping the replacement policy moves makespan by small constant
//! factors only.

use parapage::prelude::*;
use parapage::workloads::family;
use rayon::prelude::*;

use super::{section, Opts, Report};

const CLAIM: &str = "max/min ≤ 2 without ARC";

fn run_with(w: &Workload, params: &ModelParams, name: &str) -> u64 {
    fn go<C: Cache>(w: &Workload, params: &ModelParams, cache: fn(usize) -> C) -> u64 {
        let mut det = DetPar::new(params);
        let plan = FaultPlan::none();
        Engine::new(
            &mut det,
            w.seqs(),
            params,
            &EngineOpts::default(),
            &plan,
            cache,
        )
        .run(&mut det, &mut NullSink)
        .expect("DET-PAR run")
        .makespan
    }
    match name {
        "LRU" => go(w, params, |_| LruCache::new(0)),
        "FIFO" => go(w, params, |_| FifoCache::new(0)),
        "Clock" => go(w, params, |_| ClockCache::new(0)),
        "LFU" => go(w, params, |_| LfuCache::new(0)),
        "ARC" => go(w, params, |_| ArcCache::new(0)),
        "2Q" => go(w, params, |_| TwoQueueCache::new(0)),
        "LIRS" => go(w, params, |_| LirsCache::new(0)),
        _ => unreachable!(),
    }
}

/// max/min of `makespans`.
fn spread(makespans: impl Iterator<Item = u64> + Clone) -> f64 {
    let (hi, lo) = (makespans.clone().max(), makespans.min());
    hi.expect("seven policies") as f64 / lo.expect("seven policies") as f64
}

pub(super) fn run(o: Opts) -> Report {
    let p = if o.quick { 8 } else { 16 };
    let k = 16 * p;
    let params = ModelParams::new(p, k, 16);
    let len = if o.quick { 2000 } else { 5000 };

    let policies = ["LRU", "FIFO", "Clock", "LFU", "ARC", "2Q", "LIRS"];
    let mut table = Table::new([
        "workload", "LRU", "FIFO", "Clock", "LFU", "ARC", "2Q", "LIRS", "max/min",
    ]);
    let mut worst: f64 = 0.0;
    for (fam, specs) in [
        ("mixed", family::mixed(p, k, len)),
        ("skewed", family::skewed(p, k, len)),
        ("uniform", family::uniform(p, k, len)),
    ] {
        let w = build_workload(&specs, o.seed);
        // One engine run per replacement policy; the pool returns them in
        // column order regardless of thread count.
        let makespans: Vec<u64> = policies
            .par_iter()
            .map(|n| run_with(&w, &params, n))
            .collect();
        let without_arc = policies
            .iter()
            .zip(&makespans)
            .filter(|(n, _)| **n != "ARC");
        worst = worst.max(spread(without_arc.map(|(_, &m)| m)));
        let mut row = vec![fam.to_string()];
        row.extend(makespans.iter().map(|m| m.to_string()));
        row.push(format!("{:.2}", spread(makespans.iter().copied())));
        table.row(row);
    }
    let mut text = section(
        "E13: replacement policy inside DET-PAR boxes (the paper's LRU WLOG)",
        &table,
    );
    text += "The spread (max/min) stays a small constant — consistent with the\n\
             WLOG: partitioning, not replacement, dominates. (ARC is the\n\
             outlier where it appears: its scan resistance actively refuses to\n\
             cache pure loops, the pattern these workloads are made of.)\n";
    // Today: 1.40 full, 1.60 quick (1.25x slack).
    let measured = format!("max/min without ARC {worst:.2}");
    Report::new(text, CLAIM, measured).check(worst <= 2.0, "spread above 2")
}
