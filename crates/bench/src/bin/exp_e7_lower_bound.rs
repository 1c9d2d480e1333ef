//! E7 — Theorem 4 + Lemmas 8–9: on the adversarial instances, every online
//! pager built from green allocations pays a ratio over OPT that grows with
//! `p` (toward `Ω(log p / log log p)`), while the Lemma-8 offline schedule
//! stays suffix-dominated.
//!
//! Reported per `p`: the Lemma-8 OPT makespan (split into prefix/suffix
//! stages), the makespans of BB-GREEN (the explicit §4 black-box
//! construction), DET-PAR and RAND-PAR, and each ratio together with the
//! theory curve `log p / log log p`.

use parapage::core::policy;
use parapage::prelude::*;
use parapage_bench::{emit, parse_cli};
use rayon::prelude::*;

fn main() {
    let cli = parse_cli();
    let pks: &[(usize, usize)] = if cli.quick {
        &[(8, 32), (16, 64)]
    } else {
        &[(8, 32), (16, 64), (32, 128), (64, 256), (128, 512)]
    };

    #[allow(clippy::type_complexity)]
    let rows: Vec<(usize, u64, u64, u64, u64, u64, u64)> = pks
        .par_iter()
        .map(|&(p, k)| {
            // Theorem 4 wants s > c·k; scale s with k.
            let cfg = AdversarialConfig::scaled(p, k, k as u64, 0.05);
            let inst = AdversarialInstance::build(cfg);
            let params = cfg.params();
            let seqs = inst.workload.seqs();
            let opts = EngineOpts::default();

            let sched = lemma8_makespan(&inst);

            let makespan = |name| {
                let mut alloc = policy::build(name, &params, cli.seed, false).unwrap();
                run_engine(&mut *alloc, seqs, &params, &opts)
                    .unwrap()
                    .makespan
            };
            let (det_ms, rnd_ms, bb_ms) = (
                makespan("det-par"),
                makespan("rand-par"),
                makespan("bb-green"),
            );

            (
                p,
                sched.prefix_time,
                sched.suffix_time,
                sched.makespan(),
                bb_ms,
                det_ms,
                rnd_ms,
            )
        })
        .collect();

    let mut table = Table::new([
        "p",
        "OPT prefix",
        "OPT suffix",
        "OPT total",
        "BB/OPT",
        "DET/OPT",
        "RAND/OPT",
        "logp/loglogp",
    ]);
    for &(p, pre, suf, opt, bb, det, rnd) in &rows {
        let lg = (p as f64).log2();
        let theory = lg / lg.log2().max(1.0);
        table.row([
            p.to_string(),
            pre.to_string(),
            suf.to_string(),
            opt.to_string(),
            format!("{:.3}", bb as f64 / opt as f64),
            format!("{:.3}", det as f64 / opt as f64),
            format!("{:.3}", rnd as f64 / opt as f64),
            format!("{theory:.2}"),
        ]);
    }
    emit(
        "E7: adversarial instances — green-ness forces growing ratios (Theorem 4)",
        &table,
        &cli,
    );
    println!(
        "All online columns must be ≥ 1 and grow with p; Corollaries 1-2 put\n\
         DET-PAR/RAND-PAR in the theorem's scope too — their O(log p) upper\n\
         bound caps how fast the growth can be."
    );
}
