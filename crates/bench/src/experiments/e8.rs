//! E8 — positioning against practical baselines (the paper's §1
//! motivation): the oblivious DET-PAR/RAND-PAR versus static partition,
//! adaptive proportional partition, and a globally shared LRU, across
//! workload families.

use parapage::core::policy;
use parapage::prelude::*;
use parapage::workloads::family;
use rayon::prelude::*;

use super::{run_policy, section, Opts, Report};

const CLAIM: &str = "every makespan ≥ the certified LB";

pub(super) fn run(o: Opts) -> Report {
    let p = if o.quick { 8 } else { 16 };
    let k = 16 * p;
    let s = 16u64;
    let len = if o.quick { 2000 } else { 6000 };
    let params = ModelParams::new(p, k, s);

    let families: Vec<(&str, Vec<SeqSpec>)> = vec![
        ("mixed", family::mixed(p, k, len)),
        ("skewed", family::skewed(p, k, len)),
        ("uniform", family::uniform(p, k, len)),
        (
            "fresh-heavy",
            (0..p)
                .map(|x| {
                    if x % 2 == 0 {
                        SeqSpec::Fresh { len }
                    } else {
                        SeqSpec::Cyclic { width: k / 4, len }
                    }
                })
                .collect(),
        ),
    ];

    let (mut text, mut below_lb) = (String::new(), 0);
    for (fam, specs) in families {
        let w = build_workload(&specs, o.seed);
        let lb = opt_lower_bound(w.seqs(), k, s);

        let names = [
            "det-par",
            "rand-par",
            "static",
            "prop-miss",
            "ucp",
            "shared-lru",
        ];
        let results: Vec<RunResult> = names
            .par_iter()
            .map(|&name| match policy::build(name, &params, o.seed, false) {
                Some(mut alloc) => run_policy(&mut *alloc, w.seqs(), &params),
                None => run_shared_lru(w.seqs(), k, s),
            })
            .collect();

        let mut table = Table::new(["policy", "makespan", "vs LB", "mean compl", "miss %"]);
        for (name, r) in names.iter().zip(&results) {
            below_lb += usize::from(r.makespan < lb);
            table.row([
                name.to_ascii_uppercase(),
                r.makespan.to_string(),
                format!("{:.2}", r.makespan as f64 / lb as f64),
                format!("{:.0}", r.mean_completion()),
                format!("{:.1}", 100.0 * r.stats.miss_ratio()),
            ]);
        }
        let title = format!("E8: workload `{fam}` (p={p}, k={k}, LB={lb})");
        text += &section(&title, &table);
    }
    let measured = format!("{below_lb} below LB");
    Report::new(text, CLAIM, measured).check(below_lb == 0, "a makespan below the LB")
}
