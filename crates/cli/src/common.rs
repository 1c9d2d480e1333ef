//! Shared helpers for the CLI subcommands: workload construction and policy
//! dispatch by name.

use parapage::core::policy;
use parapage::prelude::*;
use parapage::workloads::family;

use crate::args::Args;

/// Model parameters from `--p/--k/--s` (defaults 8/128/16).
pub fn model_from(args: &Args) -> Result<ModelParams, String> {
    let p: usize = args.get("p", 8)?;
    let k: usize = args.get("k", 16 * p)?;
    let s: u64 = args.get("s", 16)?;
    if k < p {
        return Err(format!("--k {k} must be at least --p {p}"));
    }
    if s < 2 {
        return Err("--s must be at least 2".into());
    }
    Ok(ModelParams::new(p, k, s))
}

/// Reads the workload flags (`--workload`, default `mixed`, `--len`,
/// `--seed`, `--trace`) and returns the builder for that workload, so a
/// command can check its flags ([`Args::finish`]) before building it.
pub fn workload_from(
    args: &Args,
) -> Result<impl Fn(&ModelParams) -> Result<Workload, String>, String> {
    let name = args.opt("workload").unwrap_or_else(|| "mixed".into());
    let len: usize = args.get("len", 5000)?;
    let seed: u64 = args.get("seed", 42)?;
    let trace = args.opt("trace");
    Ok(move |params: &ModelParams| {
        if let Some(path) = &trace {
            return parapage::workloads::trace::load(std::path::Path::new(path))
                .map_err(|e| format!("--trace {path}: {e}"));
        }
        let (p, k) = (params.p, params.k);
        let specs: Vec<SeqSpec> = match name.as_str() {
            "mixed" => family::mixed(p, k, len),
            "skewed" => family::skewed(p, k, len),
            "uniform" => family::uniform(p, k, len),
            "fresh" => (0..p).map(|_| SeqSpec::Fresh { len }).collect(),
            "zipf" => (0..p)
                .map(|_| SeqSpec::Zipf {
                    universe: k,
                    theta: 0.9,
                    len,
                })
                .collect(),
            other => {
                return Err(format!(
                    "unknown --workload `{other}` (mixed|skewed|uniform|fresh|zipf, \
                     or --trace FILE)"
                ))
            }
        };
        Ok(build_workload(&specs, seed))
    })
}

/// Runs the named policy (any of [`policy::NAMES`], or `shared-lru`) on
/// the workload.
pub fn run_named_policy(
    name: &str,
    w: &Workload,
    params: &ModelParams,
    opts: &EngineOpts,
    seed: u64,
) -> Result<RunResult, String> {
    if name == "shared-lru" {
        return Ok(run_shared_lru(w.seqs(), params.k, params.s));
    }
    run_named_policy_faults(name, w, params, opts, seed, &FaultPlan::none(), false)?
        .map_err(|e| format!("policy `{name}`: {e}"))
}

/// Runs a named *box* policy under a fault plan, optionally wrapped in
/// [`HardenedAllocator`] (budget = `k`, so the wrapper reacts to pressure
/// events instead of tripping the engine's limit).
///
/// The outer `Err(String)` is a usage error (unknown policy name, or
/// `shared-lru`, which runs outside the box engine and takes no faults);
/// the inner `Result` is the run outcome, with [`EngineError`] reported as
/// data so callers like the fault matrix can tabulate failures.
pub fn run_named_policy_faults(
    name: &str,
    w: &Workload,
    params: &ModelParams,
    opts: &EngineOpts,
    seed: u64,
    plan: &FaultPlan,
    hardened: bool,
) -> Result<Result<RunResult, EngineError>, String> {
    if name == "shared-lru" {
        return Err("`shared-lru` runs outside the box engine (no fault injection)".into());
    }
    let mut alloc = policy::build(name, params, seed, hardened).ok_or_else(|| {
        format!(
            "unknown --policy `{name}` ({}|shared-lru)",
            policy::NAMES.join("|")
        )
    })?;
    Ok(Engine::new(&mut *alloc, w.seqs(), params, opts, plan, |_| {
        LruCache::new(0)
    })
    .run(&mut *alloc, &mut NullSink))
}
