//! `parapage chaos`: the crash-recovery matrix as a pre-PR gate.
//!
//! Drives the conformance resume-equivalence oracle over the full grid:
//! every engine policy × every named fault scenario × a set of
//! deterministic crashpoints (fractions of each cell's baseline tick
//! count). Each cell runs the workload once uninterrupted and once under
//! the supervisor with all the cell's crashes injected, and demands a
//! byte-identical [`RunResult`] and trace stream. A corrupted-snapshot
//! section verifies that bit-flipped and truncated snapshots are rejected
//! with typed errors for every policy, and a WAL corruption section
//! inflicts torn tails, partial tails, mid-record truncations, bit flips,
//! and stale-base/newer-log pairings on the incremental checkpoint log at
//! recovery time — each must surface as a typed truncation and still
//! recover byte-identically.
//!
//! Flags: `--seed N` re-seeds every workload and policy deterministically
//! (two runs with the same seed are byte-identical); `--cells SUBSTR[,..]`
//! runs only the cells whose `policy/scenario` or `policy/corruption`
//! label contains one of the given substrings; `--wal` skips the resume
//! and snapshot-corruption sections and runs the WAL matrix alone (the CI
//! smoke job's configuration); `--net` runs the network chaos matrix
//! instead — every transport fault kind × cut point × tenant count
//! against a live server, each cell required to produce reply streams
//! byte-identical to a clean run after retries, plus the idle-expiry and
//! load-shedding cells (`--quick` reduces the grid for CI).
//!
//! Exits non-zero on any divergence, failed recovery, or accepted
//! corruption.

use parapage::core::policy;
use parapage::prelude::*;
use parapage_server::netchaos::{net_chaos_matrix, NetChaosOpts};

use crate::args::Args;

/// Crashpoints as fractions of each cell's baseline run: early, two
/// mid-run points straddling typical phase transitions, and late.
const CRASH_FRACS: &[f64] = &[0.1, 0.35, 0.6, 0.85];

/// The WAL corruption cells need enough baseline ticks for several epoch
/// boundaries (and, for the stale-base cell, two base installs) before the
/// crash, so their workload is stretched to at least this many requests
/// per processor.
const WAL_MIN_LEN: usize = 2000;

/// Workload family shared by every section: mixed working-set widths.
fn specs_for(p: usize, k: usize, len: usize) -> Vec<SeqSpec> {
    (0..p)
        .map(|x| match x % 3 {
            0 => SeqSpec::Cyclic {
                width: (k / 8).max(2),
                len,
            },
            1 => SeqSpec::Cyclic { width: k / 2, len },
            _ => SeqSpec::Zipf {
                universe: (k / 2).max(4),
                theta: 0.9,
                len,
            },
        })
        .collect()
}

/// The `--net` section: the transport-fault matrix against a live server.
fn exec_net(seed: u64, quick: bool, filters: Vec<String>) -> Result<(), String> {
    let opts = NetChaosOpts {
        seed,
        quick,
        filters,
        ..NetChaosOpts::default()
    };
    println!(
        "net chaos matrix: fault kind x cut point x tenant count{} \
         (bar: reply streams byte-identical to a clean run after retries)\n",
        if quick { " [quick]" } else { "" }
    );
    let report = net_chaos_matrix(&opts)?;
    let mut t = Table::new([
        "cell", "reconn", "retry", "replay", "shed", "t/o", "verdict",
    ]);
    let mut details: Vec<String> = Vec::new();
    for cell in &report.cells {
        let verdict = if cell.passed {
            "pass".to_string()
        } else {
            details.push(format!("{}: {}", cell.label, cell.detail));
            "FAIL".to_string()
        };
        t.row([
            cell.label.clone(),
            cell.retry.reconnects.to_string(),
            cell.retry.retries.to_string(),
            cell.retry.replays.to_string(),
            cell.retry.sheds.to_string(),
            cell.retry.timeouts.to_string(),
            verdict,
        ]);
    }
    println!("{t}");
    for d in &details {
        println!("  violation: {d}");
    }
    if report.failures() > 0 {
        return Err(format!(
            "net chaos matrix FAILED: {} of {} cells",
            report.failures(),
            report.cells.len()
        ));
    }
    if report.cells.is_empty() {
        return Err("--cells matched no net chaos cells".into());
    }
    println!(
        "\nnet chaos matrix passed: {} cells byte-identical after recovery{}",
        report.cells.len(),
        if report.skipped > 0 {
            format!(" ({} filtered out by --cells)", report.skipped)
        } else {
            String::new()
        }
    );
    Ok(())
}

/// Executes the subcommand.
pub fn exec(args: &Args) -> Result<(), String> {
    let quick = args.flag("quick");
    let wal_only = args.flag("wal");
    let p: usize = args.get("p", if quick { 4 } else { 8 })?;
    let k: usize = args.get("k", 8 * p)?;
    let s: u64 = args.get("s", 10)?;
    if !k.is_power_of_two() || k < p {
        return Err(format!("--k {k} must be a power of two >= --p {p}"));
    }
    let seed: u64 = args.get("seed", 42)?;
    let len: usize = args.get("len", if quick { 300 } else { 1200 })?;
    let filters: Vec<String> = args
        .opt("cells")
        .map(|s| {
            s.split(',')
                .map(|c| c.trim().to_ascii_lowercase())
                .filter(|c| !c.is_empty())
                .collect()
        })
        .unwrap_or_default();
    if args.flag("net") {
        return exec_net(seed, quick, filters);
    }
    let keep = |label: &str| {
        filters.is_empty()
            || filters
                .iter()
                .any(|f| label.to_ascii_lowercase().contains(f))
    };
    let params = ModelParams::new(p, k, s);

    let w = build_workload(&specs_for(p, k, len), seed);

    let mut failures = 0usize;
    let mut cells_run = 0usize;
    let mut cells_skipped = 0usize;

    if !wal_only {
        let horizon = {
            let mut alloc = DetPar::new(&params);
            run_engine(&mut alloc, w.seqs(), &params, &EngineOpts::default())
                .map_err(|e| format!("clean det-par run failed: {e}"))?
                .makespan
                .max(1)
        };

        println!(
            "chaos matrix: {} ({} requests, crashpoints at {:?} of each baseline)\n",
            params,
            w.total_requests(),
            CRASH_FRACS
        );

        // 1. Resume-equivalence grid.
        let mut t = Table::new(["policy", "scenario", "ticks", "crashes", "verdict"]);
        let mut details: Vec<String> = Vec::new();
        for &policy in policy::NAMES {
            for &scenario in FAULT_SCENARIOS {
                if !keep(&format!("{policy}/{scenario}")) {
                    cells_skipped += 1;
                    continue;
                }
                cells_run += 1;
                let events = fault_scenario(scenario, p, k, horizon, seed)
                    .ok_or_else(|| format!("unknown scenario `{scenario}`"))?;
                let plan = FaultPlan::new(events);
                let probe = check_resume(
                    policy,
                    w.seqs(),
                    &params,
                    &EngineOpts::default(),
                    seed,
                    scenario,
                    &plan,
                    &[],
                )?;
                let crash_ticks: Vec<u64> = CRASH_FRACS
                    .iter()
                    .map(|f| ((probe.baseline_ticks as f64 * f) as u64).max(1))
                    .collect();
                let c = check_resume(
                    policy,
                    w.seqs(),
                    &params,
                    &EngineOpts::default(),
                    seed,
                    scenario,
                    &plan,
                    &crash_ticks,
                )?;
                let verdict = if c.passed() {
                    "pass".to_string()
                } else {
                    failures += c.violations.len();
                    for v in &c.violations {
                        details.push(format!("{}/{}: {v}", c.policy, c.scenario));
                    }
                    format!("FAIL ({})", c.violations.len())
                };
                t.row([
                    c.policy.clone(),
                    c.scenario.clone(),
                    c.baseline_ticks.to_string(),
                    c.crashes.to_string(),
                    verdict,
                ]);
            }
        }
        println!("{t}");
        for d in &details {
            println!("  violation: {d}");
        }

        // 2. Corrupted snapshots must be rejected, typed, for every policy.
        println!("\ncorruption rejection (bit flips + truncation, typed errors):");
        for &policy in policy::NAMES {
            if !keep(policy) {
                cells_skipped += 1;
                continue;
            }
            cells_run += 1;
            match check_corruption_rejection(policy, w.seqs(), &params, seed) {
                Ok(()) => println!("  {policy}: pass"),
                Err(e) => {
                    println!("  {policy}: FAIL — {e}");
                    failures += 1;
                }
            }
        }
    }

    // 3. WAL corruption matrix: the incremental checkpoint log is torn,
    // truncated, bit-flipped, or paired with a stale base at recovery
    // time; the supervised run must detect it (typed truncation) and still
    // finish byte-identical to the uninterrupted run.
    let wal_w = if len >= WAL_MIN_LEN {
        w
    } else {
        build_workload(&specs_for(p, k, WAL_MIN_LEN), seed)
    };
    println!(
        "\nWAL corruption matrix ({} requests, epoch-per-record checkpoints):",
        wal_w.total_requests()
    );
    let mut t = Table::new(["policy", "cell", "crash@", "records", "truncs", "verdict"]);
    let mut details: Vec<String> = Vec::new();
    for &policy in policy::NAMES {
        for corruption in WalCorruption::ALL {
            let label = format!("{policy}/{corruption}");
            if !keep(&label) {
                cells_skipped += 1;
                continue;
            }
            cells_run += 1;
            let (row, cell_failures) =
                match check_wal_corruption(policy, wal_w.seqs(), &params, seed, corruption) {
                    Ok(c) => {
                        let verdict = if c.passed() {
                            "pass".to_string()
                        } else {
                            for v in &c.violations {
                                details.push(format!("{label}: {v}"));
                            }
                            format!("FAIL ({})", c.violations.len())
                        };
                        (
                            [
                                c.policy.clone(),
                                c.corruption.name().to_string(),
                                c.crash_tick.to_string(),
                                c.wal_records.to_string(),
                                c.truncations.to_string(),
                                verdict,
                            ],
                            c.violations.len(),
                        )
                    }
                    Err(e) => {
                        details.push(format!("{label}: {e}"));
                        (
                            [
                                policy.to_string(),
                                corruption.name().to_string(),
                                "-".to_string(),
                                "-".to_string(),
                                "-".to_string(),
                                "ERROR".to_string(),
                            ],
                            1,
                        )
                    }
                };
            failures += cell_failures;
            t.row(row);
        }
    }
    println!("{t}");
    for d in &details {
        println!("  violation: {d}");
    }

    if failures > 0 {
        return Err(format!("chaos matrix FAILED: {failures} violation(s)"));
    }
    if cells_run == 0 {
        return Err(format!(
            "--cells {:?} matched no cells ({cells_skipped} skipped)",
            filters
        ));
    }
    println!(
        "\nchaos matrix passed: {cells_run} cells recovered byte-identically{}",
        if cells_skipped > 0 {
            format!(" ({cells_skipped} filtered out by --cells)")
        } else {
            String::new()
        }
    );
    Ok(())
}
