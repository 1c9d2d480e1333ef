//! `parapage conform`: the conformance oracle as a pre-PR gate.
//!
//! Three sections, each with its own table:
//!
//! 1. **Invariant matrix** — every engine policy under every named fault
//!    scenario, checked for replay determinism, agreement with the naive
//!    reference simulator, stream/result consistency, memory envelopes,
//!    box geometry, and (DET-PAR, clean) the paper's phase/strip structure.
//! 2. **Differential sweep** — the optimized engine vs the reference
//!    simulator, event-for-event, on generated workloads.
//! 3. **Competitive envelope** — measured makespan ratios on Theorem-4
//!    adversarial instances must stay inside a `c·log p` envelope.
//!
//! Exits non-zero on any violation, divergence, or envelope excursion.

use parapage::conform::fault_horizon;
use parapage::conform::matrix::{CellFilter, Totals};
use parapage::prelude::*;
use parapage::workloads::family::conformance_mix;
use parapage_server::explore::{exploration_matrix, sabotage_matrix};

use crate::args::Args;

/// Executes the subcommand.
pub fn exec(args: &Args) -> Result<(), String> {
    if args.flag("concurrent") {
        return exec_concurrent(args);
    }
    let quick = args.flag("quick");
    let p: usize = args.get("p", 8)?;
    let k: usize = args.get("k", 8 * p)?;
    let s: u64 = args.get("s", 10)?;
    if !k.is_power_of_two() || k < p {
        // The §2 normal form (and the black-box packer's capacity
        // assertion) want a power-of-two budget; insisting here keeps the
        // geometry checker meaningful.
        return Err(format!("--k {k} must be a power of two >= --p {p}"));
    }
    let seed: u64 = args.get("seed", 42)?;
    let len: usize = args.get("len", if quick { 600 } else { 2000 })?;
    let diff: usize = args.get("diff", if quick { 150 } else { 1000 })?;
    args.finish()?;
    let params = ModelParams::new(p, k, s);

    // The conformance mix: heterogeneous working-set widths so phases,
    // strips, and partitions all get exercised.
    let w = build_workload(&conformance_mix(p, k, len), seed);

    let horizon = fault_horizon(w.seqs(), &params)?;

    println!(
        "conformance oracle: {} ({} requests, fault horizon {})\n",
        params,
        w.total_requests(),
        horizon
    );

    // 1. Invariant matrix.
    println!("invariant matrix (engine policies x fault scenarios):");
    let invariants = conform_matrix(w.seqs(), &params, seed, horizon);
    print!("{}", invariants.render());
    let mut totals = Totals::default();
    totals.add(&invariants);

    // 2. Differential sweep.
    let sweep = differential_sweep(diff, seed);
    println!(
        "differential sweep: {} generated workloads, {} divergences",
        sweep.runs,
        sweep.divergences.len()
    );
    for d in sweep.divergences.iter().take(10) {
        println!("  divergence: {} — {}", d.recipe, d.detail);
    }
    totals.failures += sweep.divergences.len();

    // 3. Competitive envelope.
    let env = competitive_envelope(quick, seed)?;
    println!("\ncompetitive envelope (measured ratio vs c*log p bound):");
    let mut t = Table::new(["policy", "instance", "p", "ratio", "bound", "verdict"]);
    for e in &env.entries {
        t.row([
            e.policy.to_string(),
            e.instance.clone(),
            e.p.to_string(),
            format!("{:.2}", e.ratio),
            format!("{:.2}", e.bound),
            if e.ok() { "pass" } else { "FAIL" }.to_string(),
        ]);
    }
    println!("{t}");
    totals.failures += env.violations().len();

    // The shared failure summary; the passing line is conform's own.
    totals.verdict("conformance", "checked")?;
    println!("conformance: all checks passed");
    Ok(())
}

/// `parapage conform --concurrent`: the server's locks under the schedule
/// explorer ([`parapage_server::explore`]), as two matrices on the one
/// runner. The exploration cells run every scenario by DFS and by random
/// sampling; the full run must reach 10^4 distinct interleavings. The
/// sabotage cells must each catch their failure, as what it is, and the
/// first catch of each is printed with the choices that replay it.
fn exec_concurrent(args: &Args) -> Result<(), String> {
    let quick = args.flag("quick");
    let budget: usize = args.get("budget", if quick { 1_000 } else { 6_000 })?;
    let seed: u64 = args.get("seed", 42)?;
    let filter = CellFilter::parse(args.opt("cells").as_deref());
    args.finish()?;

    let exploration = exploration_matrix(budget, seed, &filter);
    // Executions each sabotage gets to be caught in.
    let sabotage = sabotage_matrix(2_000, &filter);
    let mut totals = Totals::default();
    totals.add(&exploration);
    totals.add(&sabotage);
    totals.require_cells(&filter)?;

    let distinct: usize = exploration
        .cells
        .iter()
        .filter_map(|c| c.outcome.as_ref().ok())
        .map(|r| r.distinct)
        .sum();
    const MIN_DISTINCT: usize = 10_000;
    let mut coverage = String::new();
    if !quick && totals.skipped == 0 && distinct < MIN_DISTINCT {
        totals.failures += 1;
        coverage = format!(
            "  violation: coverage: only {distinct} distinct interleavings (need >= {MIN_DISTINCT})\n"
        );
    }
    let caught: String = sabotage
        .cells
        .iter()
        .filter_map(|c| c.outcome.as_ref().ok()?.report.violations.first())
        .map(|v| format!("  caught: {v}\n"))
        .collect();
    println!("concurrent conformance: server schedule exploration, budget {budget}\n");
    print!("{}", exploration.render());
    println!("distinct interleavings: {distinct}\n{coverage}");
    println!("sabotage self-check (each must be caught, as what it is):");
    print!("{}{caught}", sabotage.render());
    println!(
        "\n{}",
        totals.verdict("concurrent conformance", "explored")?
    );
    Ok(())
}
