//! E15 — the paper's §1 critique of fixed-rate models, measured.
//!
//! Early parallel-paging work assumed every processor advances one request
//! per round regardless of hits/misses, scoring policies by total miss
//! count. The paper argues this "sequentializes the interleaving" and hides
//! the real interactions.
//!
//! The demonstration: two static allocations engineered to incur **the same
//! total number of misses** — the fixed-rate model scores them as exact
//! ties — while their true makespans differ by ~3×, because it matters
//! enormously *which* processor eats the misses (starving one long
//! sequence puts `s·L` on the critical path; starving three short ones
//! puts only `s·L/3` there).

use parapage::prelude::*;
use parapage::sched::run_interleaved_partition;

use super::{run_policy, section, Opts, Report};

const CLAIM: &str = "misses tie within 10%, makespans ≥ 2x apart";

struct FixedAlloc(Vec<usize>, u64);
impl BoxAllocator for FixedAlloc {
    fn grant(&mut self, x: ProcId, _now: u64) -> Grant {
        let h = self.0[x.idx()];
        Grant {
            height: h.max(1),
            duration: self.1 * h.max(1) as u64,
        }
    }
    fn on_proc_finished(&mut self, _x: ProcId, _now: u64) {}
    fn name(&self) -> &'static str {
        "fixed-partition"
    }
}

pub(super) fn run(o: Opts) -> Report {
    let k = 64usize;
    let s = 16u64;
    let long = if o.quick { 6000 } else { 24000 };
    let width = 20usize; // loop width: fits in 20 pages, thrashes in 4
    let params = ModelParams::new(4, k, s);

    // Proc 0 is 3x longer than procs 1-3.
    let specs: Vec<SeqSpec> = (0..4)
        .map(|x| SeqSpec::Cyclic {
            width,
            len: if x == 0 { long } else { long / 3 },
        })
        .collect();
    let w = build_workload(&specs, o.seed);

    // A starves the long processor; B starves the three short ones.
    // Both incur ~`long` misses in total.
    let alloc_a = vec![4usize, 20, 20, 20];
    let alloc_b = vec![20usize, 4, 4, 4];

    let mut table = Table::new([
        "allocation",
        "total misses (fixed-rate model)",
        "true makespan",
    ]);
    let mut results = Vec::new();
    for (name, alloc) in [
        ("A: starve the long proc", &alloc_a),
        ("B: starve the short procs", &alloc_b),
    ] {
        let inter = run_interleaved_partition(w.seqs(), alloc);
        let mut policy = FixedAlloc(alloc.clone(), s);
        let res = run_policy(&mut policy, w.seqs(), &params);
        table.row([
            name.to_string(),
            inter.stats.misses.to_string(),
            res.makespan.to_string(),
        ]);
        results.push((inter.stats.misses, res.makespan));
    }
    let mut text = section(
        "E15: the fixed-rate (interleaved) model cannot tell these apart",
        &table,
    );
    let miss_ratio = results[0].0 as f64 / results[1].0.max(1) as f64;
    let mk_ratio = results[0].1 as f64 / results[1].1.max(1) as f64;
    text += &format!(
        "fixed-rate model verdict: {miss_ratio:.2}x (a tie). \
         true-model verdict: {mk_ratio:.2}x.\n\
         Counting misses at a fixed progress rate hides *whose* time the \
         misses consume —\nexactly the interaction the paper's model \
         restores (§1).\n"
    );
    // Today: misses 1.00x full, 1.01x quick; makespans 3.00x (1.5x slack).
    let measured = format!("misses {miss_ratio:.2}x, makespans {mk_ratio:.2}x");
    Report::new(text, CLAIM, measured)
        .check((miss_ratio - 1.0).abs() <= 0.1, "misses differ")
        .check(mk_ratio >= 2.0, "makespans within 2x")
}
