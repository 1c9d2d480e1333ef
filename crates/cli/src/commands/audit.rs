//! `parapage audit`: run DET-PAR with timeline recording and audit the
//! well-roundedness property (Lemma 6) on the actual execution.

use parapage::prelude::*;

use crate::args::Args;
use crate::common::{model_from, workload_from};

/// Executes the subcommand.
pub fn exec(args: &Args) -> Result<(), String> {
    let params = model_from(args)?;
    let workload = workload_from(args)?;
    let slack: f64 = args.get("slack", 4.0)?;
    args.finish()?;
    let w = workload(&params)?;

    let mut det = DetPar::new(&params);
    let opts = EngineOpts {
        record_timelines: true,
        ..Default::default()
    };
    let res = run_engine(&mut det, w.seqs(), &params, &opts).map_err(|e| e.to_string())?;
    let report = check_well_rounded(
        res.timelines.as_ref().unwrap(),
        &res.completions,
        det.phases(),
        &params,
        slack,
    );

    println!(
        "DET-PAR on {} — makespan {}, peak memory {} ({:.2}k)\n",
        params,
        res.makespan,
        res.peak_memory,
        res.peak_memory as f64 / params.k as f64
    );
    let mut t = Table::new(["phase", "start", "base height", "roster"]);
    for (i, ph) in det.phases().iter().enumerate() {
        t.row([
            i.to_string(),
            ph.start.to_string(),
            ph.base_height.to_string(),
            ph.roster_len.to_string(),
        ]);
    }
    println!("{t}");
    println!(
        "well-rounded: {}   max gap factor {:.3} (× the Lemma-6 period; slack {slack})",
        report.ok, report.max_gap_factor
    );
    for v in report.violations.iter().take(10) {
        println!("  violation: {v}");
    }
    if !report.ok {
        return Err("well-roundedness audit failed".into());
    }
    Ok(())
}
