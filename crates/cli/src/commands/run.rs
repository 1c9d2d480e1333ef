//! `parapage run`: one policy, one workload, full metrics.

use parapage::prelude::*;

use crate::args::Args;
use crate::common::{model_from, run_named_policy, workload_from};

/// Executes the subcommand.
pub fn exec(args: &Args) -> Result<(), String> {
    let params = model_from(args)?;
    let workload = workload_from(args)?;
    let policy = args.opt("policy").unwrap_or_else(|| "det-par".into());
    let seed: u64 = args.get("seed", 42)?;
    let want_gantt = args.flag("gantt");
    let opts = EngineOpts {
        record_timelines: want_gantt,
        compartmentalized: args.flag("compartmentalized"),
        ..Default::default()
    };
    args.finish()?;
    let w = workload(&params)?;

    let res = run_named_policy(&policy, &w, &params, &opts, seed)?;
    let lb = per_proc_bound(w.seqs(), params.k, params.s);

    println!(
        "policy {policy} on {} ({} requests)\n",
        params,
        w.total_requests()
    );
    let mut t = Table::new(["metric", "value"]);
    t.row(["makespan", &res.makespan.to_string()]);
    t.row(["mean completion", &format!("{:.1}", res.mean_completion())]);
    t.row(["per-proc lower bound", &lb.to_string()]);
    t.row([
        "makespan / bound",
        &format!("{:.3}", res.makespan as f64 / lb.max(1) as f64),
    ]);
    t.row(["hits", &res.stats.hits.to_string()]);
    t.row(["misses", &res.stats.misses.to_string()]);
    t.row([
        "miss ratio",
        &format!("{:.2}%", 100.0 * res.stats.miss_ratio()),
    ]);
    t.row(["peak memory", &res.peak_memory.to_string()]);
    t.row(["memory integral", &res.memory_integral.to_string()]);
    t.row(["grants issued", &res.grants_issued.to_string()]);
    println!("{t}");

    if want_gantt {
        if let Some(tls) = &res.timelines {
            println!("allocation Gantt (height, log-scaled to k={}):", params.k);
            print!("{}", gantt(tls, res.makespan, params.k, 72));
        }
    }
    Ok(())
}
