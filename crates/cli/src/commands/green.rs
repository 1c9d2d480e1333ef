//! `parapage green`: single-processor green paging, RAND-GREEN and
//! ADAPT-GREEN versus the offline optimum.

use parapage::prelude::*;

use crate::args::Args;
use crate::common::{model_from, workload_from};

/// Executes the subcommand.
pub fn exec(args: &Args) -> Result<(), String> {
    let params = model_from(args)?;
    let workload = workload_from(args)?;
    let seeds: u64 = args.get("seeds", 8)?;
    args.finish()?;
    let w = workload(&params)?;
    let seq = &w.seqs()[0];

    let opt = green_opt_fast_normalized(seq, &params);
    println!(
        "green paging on processor 0's sequence ({} requests), {}\n",
        seq.len(),
        params
    );

    let mut ratios = Vec::new();
    for seed in 0..seeds {
        let run = run_green(&mut RandGreen::new(&params, seed), seq, &params);
        ratios.push(run.impact as f64 / opt.impact as f64);
    }
    let rg = summarize(&ratios);
    let ad = run_green(&mut AdaptiveGreen::new(&params), seq, &params);

    let mut t = Table::new(["algorithm", "impact", "vs OPT", "boxes"]);
    t.row([
        "OPT (offline DP)".to_string(),
        opt.impact.to_string(),
        "1.00".to_string(),
        opt.profile.len().to_string(),
    ]);
    t.row([
        format!("RAND-GREEN (mean of {seeds})"),
        format!("{:.0}", rg.mean * opt.impact as f64),
        format!("{:.3} ± {:.3}", rg.mean, rg.ci95),
        "-".to_string(),
    ]);
    t.row([
        "ADAPT-GREEN".to_string(),
        ad.impact.to_string(),
        format!("{:.3}", ad.impact as f64 / opt.impact as f64),
        ad.profile.len().to_string(),
    ]);
    println!("{t}");
    println!(
        "Theorem 1: RAND-GREEN's expected ratio is O(log p) = O({})",
        params.log_p()
    );
    Ok(())
}
