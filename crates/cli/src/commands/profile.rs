//! `parapage profile`: visualize green-paging box profiles — the offline
//! optimum next to RAND-GREEN's randomized profile on the same sequence.

use parapage::prelude::*;

use crate::args::Args;
use crate::common::{model_from, workload_from};

/// Executes the subcommand.
pub fn exec(args: &Args) -> Result<(), String> {
    let params = model_from(args)?;
    let workload = workload_from(args)?;
    let seed: u64 = args.get("seed", 42)?;
    let width: usize = args.get("width", 72)?;
    args.finish()?;
    let w = workload(&params)?;
    let seq = &w.seqs()[0];

    let opt = green_opt_fast_normalized(seq, &params);
    let rg = run_green(&mut RandGreen::new(&params, seed), seq, &params);

    println!(
        "green profiles on processor 0's sequence ({} requests), {}\n",
        seq.len(),
        params
    );
    println!(
        "OPT     impact {:>12}   {} boxes",
        opt.impact,
        opt.profile.len()
    );
    println!("{}", render_profile(&opt.profile, params.k, width));
    println!(
        "RAND    impact {:>12}   {} boxes   (ratio {:.2})",
        rg.impact,
        rg.profile.len(),
        rg.impact as f64 / opt.impact.max(1) as f64
    );
    println!("{}", render_profile(&rg.profile, params.k, width));
    println!("(each column is one slice of the profile's duration; bar height = box height, log-scaled to k)");
    Ok(())
}

/// Renders a box profile as a one-line strip: each column samples the
/// profile's height at an even fraction of its total duration.
fn render_profile(profile: &BoxProfile, k: usize, width: usize) -> String {
    const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let total: u64 = profile.duration();
    if total == 0 {
        return String::new();
    }
    // Prefix-sum walk over the boxes.
    let mut out = String::with_capacity(width);
    let mut box_iter = profile.boxes().iter();
    let mut cur = box_iter.next().copied();
    let mut consumed: u64 = 0;
    for col in 0..width {
        let t = total * col as u64 / width as u64;
        while let Some(b) = cur {
            if t < consumed + b.duration {
                break;
            }
            consumed += b.duration;
            cur = box_iter.next().copied();
        }
        let h = cur.map(|b| b.height).unwrap_or(0);
        let level = if h == 0 {
            0
        } else {
            let ratio = (k as f64 / h as f64).log2();
            (7.0 - ratio).clamp(0.0, 7.0) as usize
        };
        out.push(GLYPHS[level]);
    }
    out
}
