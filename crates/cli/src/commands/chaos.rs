//! `parapage chaos`: the crash-recovery matrices as a pre-PR gate.
//!
//! Three sections, all run before anything prints:
//!
//! 1. **Resume grid** — every engine policy × named fault scenario, each
//!    cell run once uninterrupted and once under the supervisor with
//!    crashes injected at fractions of its baseline; the recovered
//!    [`RunResult`] and trace stream must be byte-identical.
//! 2. **Snapshot rejection** — bit-flipped and truncated snapshots must be
//!    rejected with typed errors, for every policy.
//! 3. **WAL corruption** — torn tails, partial tails, mid-record cuts, bit
//!    flips and stale or corrupt bases on the checkpoint log at recovery
//!    time must surface as typed truncations and still recover exactly.
//!
//! `--wal` runs section 3 alone; `--net` runs the network chaos matrix
//! instead (every transport fault kind × cut point × tenant count against
//! a live server, plus the idle-expiry and load-shedding cells) and takes
//! only `--quick`, `--seed` and `--cells`. `--seed N` re-seeds every
//! workload and policy; `--cells SUBSTR[,..]` keeps the cells whose label
//! contains a substring, and fails with empty stdout when it keeps none.
//! Exits non-zero on any divergence, failed recovery, accepted corruption
//! or erroring cell.

use parapage::conform::matrix::{CellFilter, Totals};
use parapage::conform::{
    corruption_rejection_matrix, fault_horizon, resume_matrix, wal_chaos_matrix,
};
use parapage::prelude::*;
use parapage::workloads::family::conformance_mix;
use parapage_server::netchaos::net_chaos_matrix;

use crate::args::Args;

/// Crashpoints as fractions of each cell's baseline run: early, two
/// mid-run points straddling typical phase transitions, and late.
const CRASH_FRACS: &[f64] = &[0.1, 0.35, 0.6, 0.85];

/// The WAL corruption cells need enough baseline ticks for several epoch
/// boundaries (and, for the stale-base cell, two base installs) before the
/// crash, so their workload is stretched to at least this many requests
/// per processor.
const WAL_MIN_LEN: usize = 2000;

/// Executes the subcommand.
pub fn exec(args: &Args) -> Result<(), String> {
    let quick = args.flag("quick");
    let seed: u64 = args.get("seed", 42)?;
    let filter = CellFilter::parse(args.opt("cells").as_deref());
    let mut totals = Totals::default();
    let (what, claim, out) = if args.flag("net") {
        args.finish()?;
        let net = net_chaos_matrix(seed, quick, &filter);
        totals.add(&net);
        let header = format!(
            "net chaos matrix: fault kind x cut point x tenant count{} \
             (bar: reply streams byte-identical to a clean run after retries)\n",
            if quick { " [quick]" } else { "" }
        );
        let out = format!("{header}\n{}", net.render());
        ("net chaos matrix", "byte-identical after recovery", out)
    } else {
        let out = exec_recovery(args, quick, seed, &filter, &mut totals)?;
        ("chaos matrix", "recovered byte-identically", out)
    };
    totals.require_cells(&filter)?;
    print!("{out}");
    println!("\n{}", totals.verdict(what, claim)?);
    Ok(())
}

/// The resume grid, snapshot rejection and WAL sections (the WAL section
/// alone under `--wal`), rendered.
fn exec_recovery(
    args: &Args,
    quick: bool,
    seed: u64,
    filter: &CellFilter,
    totals: &mut Totals,
) -> Result<String, String> {
    let wal_only = args.flag("wal");
    let p: usize = args.get("p", if quick { 4 } else { 8 })?;
    let k: usize = args.get("k", 8 * p)?;
    let s: u64 = args.get("s", 10)?;
    let len: usize = args.get("len", if quick { 300 } else { 1200 })?;
    args.finish()?;
    if !k.is_power_of_two() || k < p {
        return Err(format!("--k {k} must be a power of two >= --p {p}"));
    }
    let params = ModelParams::new(p, k, s);
    let w = build_workload(&conformance_mix(p, k, len), seed);
    let mut out = String::new();
    if !wal_only {
        let horizon = fault_horizon(w.seqs(), &params)?;
        let grid = resume_matrix(w.seqs(), &params, seed, horizon, CRASH_FRACS, filter);
        let rejection = corruption_rejection_matrix(w.seqs(), &params, seed, filter);
        totals.add(&grid);
        totals.add(&rejection);
        out = format!(
            "chaos matrix: {params} ({} requests, crashpoints at {CRASH_FRACS:?} of each \
             baseline)\n\n{}\ncorruption rejection (bit flips + truncation, typed errors):\n{}",
            w.total_requests(),
            grid.render(),
            rejection.render_list()
        );
    }
    let wal_w = if len >= WAL_MIN_LEN {
        w
    } else {
        build_workload(&conformance_mix(p, k, WAL_MIN_LEN), seed)
    };
    let wal = wal_chaos_matrix(wal_w.seqs(), &params, seed, filter);
    totals.add(&wal);
    Ok(format!(
        "{out}\nWAL corruption matrix ({} requests, epoch-per-record checkpoints):\n{}",
        wal_w.total_requests(),
        wal.render()
    ))
}
