//! Scheduler shoot-out across workload families: how the paper's oblivious
//! algorithms compare to practical baselines on non-adversarial inputs.
//!
//! ```sh
//! cargo run --release --example scheduler_comparison
//! ```

use parapage::core::policy;
use parapage::prelude::*;

fn mixed(p: usize, len: usize, k: usize) -> Vec<SeqSpec> {
    (0..p)
        .map(|x| match x % 4 {
            0 => SeqSpec::Cyclic { width: k / 16, len },
            1 => SeqSpec::Cyclic { width: k / 2, len },
            2 => SeqSpec::Zipf {
                universe: k,
                theta: 0.9,
                len,
            },
            _ => SeqSpec::Phased {
                phases: vec![(k / 16, len / 2), (k / 2, len / 2)],
            },
        })
        .collect()
}

fn skewed(p: usize, len: usize, k: usize) -> Vec<SeqSpec> {
    // One cache-hungry processor among small loops.
    (0..p)
        .map(|x| {
            if x == 0 {
                SeqSpec::Cyclic {
                    width: 3 * k / 4,
                    len,
                }
            } else {
                SeqSpec::Cyclic { width: 4, len }
            }
        })
        .collect()
}

fn uniform_small(p: usize, len: usize, k: usize) -> Vec<SeqSpec> {
    (0..p)
        .map(|_| SeqSpec::Uniform {
            universe: 2 * k / p,
            len,
        })
        .collect()
}

fn main() {
    let p = 8;
    let k = 128;
    let s = 16;
    let len = 8_000;
    let params = ModelParams::new(p, k, s);

    let families: Vec<(&str, Vec<SeqSpec>)> = vec![
        ("mixed", mixed(p, len, k)),
        ("skewed", skewed(p, len, k)),
        ("uniform", uniform_small(p, len, k)),
    ];

    for (name, specs) in families {
        let workload = build_workload(&specs, 3);
        let lb = opt_lower_bound(workload.seqs(), k, s);
        println!("== workload `{name}`  (T_OPT lower bound {lb}) ==");
        let mut table = Table::new(["policy", "makespan", "vs LB", "mean compl", "miss %"]);
        let opts = EngineOpts::default();

        // Box policies come from the registry by name; seed 5 drives the
        // randomized one.
        let mut results: Vec<(&str, RunResult)> = ["det-par", "rand-par", "static", "prop-miss"]
            .iter()
            .map(|name| {
                let mut alloc = policy::build(name, &params, 5, false).unwrap();
                let r = run_engine(&mut *alloc, workload.seqs(), &params, &opts).unwrap();
                (alloc.name(), r)
            })
            .collect();
        results.push(("SHARED-LRU", run_shared_lru(workload.seqs(), k, s)));

        for (pname, r) in results {
            table.row([
                pname.to_string(),
                r.makespan.to_string(),
                format!("{:.2}x", r.makespan as f64 / lb as f64),
                format!("{:.0}", r.mean_completion()),
                format!("{:.1}", 100.0 * r.stats.miss_ratio()),
            ]);
        }
        println!("{table}");
    }
}
