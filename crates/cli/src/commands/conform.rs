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
use parapage::conform::matrix::Totals;
use parapage::prelude::*;
use parapage::workloads::family::conformance_mix;

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

/// `parapage conform --concurrent`: the concurrent-cache sweep.
///
/// Four sections:
///
/// 1. **Schedule exploration (exhaustive)** — DFS over thread
///    interleavings of `ShardedCache<LruCache>`'s locked `*_shared` ops,
///    every history checked for linearizability against per-shard
///    sequential LRU twins.
/// 2. **Schedule exploration (random)** — seeded random sampling past the
///    DFS frontier of the deeper scenarios.
/// 3. **Sharded stress cells** — real OS threads hammering a sharded LRU;
///    per-shard ledgers replayed exactly against the sequential policy,
///    aggregate misses checked against the hit/miss envelope.
/// 4. **Sabotage self-check** — explores the scenario whose
///    fit-checked access is split over two lock acquisitions and
///    *requires* the explorer to catch the race: a harness that cannot
///    fail proves nothing.
fn exec_concurrent(args: &Args) -> Result<(), String> {
    let quick = args.flag("quick");
    let budget: usize = args.get("budget", if quick { 4_000 } else { 24_000 })?;
    let seed: u64 = args.get("seed", 42)?;
    args.finish()?;

    println!("concurrent conformance: schedule exploration budget {budget}\n");
    let mut failures = 0usize;
    let mut details: Vec<String> = Vec::new();

    // 1 + 2. Schedule exploration, exhaustive then random.
    let mut distinct_total = 0usize;
    let mut t = Table::new([
        "scenario",
        "mode",
        "executions",
        "distinct",
        "complete",
        "verdict",
    ]);
    for (mode_name, mode, share) in [
        ("exhaustive", ExploreMode::Exhaustive, budget),
        ("random", ExploreMode::Random { seed }, budget / 4),
    ] {
        for r in explore_all(share, mode) {
            distinct_total += r.distinct;
            failures += r.violating;
            details.extend(r.violations.iter().cloned());
            t.row([
                r.scenario.clone(),
                mode_name.to_string(),
                r.executions.to_string(),
                r.distinct.to_string(),
                r.complete.to_string(),
                if r.passed() {
                    "pass".to_string()
                } else {
                    format!("FAIL ({})", r.violating)
                },
            ]);
        }
    }
    println!("{t}");
    println!("distinct interleavings: {distinct_total}");
    if !quick && distinct_total < 10_000 {
        failures += 1;
        details.push(format!(
            "exploration coverage: only {distinct_total} distinct interleavings (need >= 10000)"
        ));
    }

    // 3. Sharded stress cells.
    println!("\nsharded stress (ledger replay + hit/miss envelope):");
    let ops = if quick { 400 } else { 2_000 };
    let mut t = Table::new(["threads", "capacity", "shards", "ops", "misses", "verdict"]);
    for (threads, capacity, shards) in [(2, 64, 4), (4, 128, 8), (8, 256, 8)] {
        let cell = check_concurrent_cache(threads, ops, capacity, shards, seed);
        if !cell.passed() {
            failures += cell.violations.len();
            for v in &cell.violations {
                details.push(format!("stress {threads}x{ops}/{shards}: {v}"));
            }
        }
        t.row([
            threads.to_string(),
            capacity.to_string(),
            shards.to_string(),
            cell.ops.to_string(),
            cell.misses.to_string(),
            if cell.passed() {
                "pass".to_string()
            } else {
                format!("FAIL ({})", cell.violations.len())
            },
        ]);
    }
    println!("{t}");

    // 4. Sabotage self-check: the harness must catch the seeded race.
    let sabotaged = explore(
        &parapage::conform::sabotage_scenario(),
        400,
        ExploreMode::Exhaustive,
    );
    if sabotaged.passed() {
        failures += 1;
        details.push(format!(
            "sabotage self-check: explorer missed the seeded split fit-check \
             race in {} executions — the harness cannot fail",
            sabotaged.executions
        ));
        println!("\nsabotage self-check: FAIL (seeded race not caught)");
    } else {
        println!(
            "\nsabotage self-check: pass (seeded split fit-check race caught in {} \
             of {} executions)",
            sabotaged.violating, sabotaged.executions
        );
    }

    for d in &details {
        println!("  violation: {d}");
    }
    if failures > 0 {
        return Err(format!(
            "concurrent conformance FAILED: {failures} violation(s)"
        ));
    }
    println!("concurrent conformance: all checks passed");
    Ok(())
}
