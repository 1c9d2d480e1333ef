//! E16 — exact ratios on micro instances.
//!
//! On tiny instances (p = 2–3, short sequences) the round-synchronized
//! schedule class can be searched exhaustively (`analysis::micro_opt`),
//! giving a certified **upper bound** on `T_OPT` to complement the
//! certified lower bound. The sandwich
//! `per_proc_bound ≤ T_OPT ≤ micro_opt` pins the true optimum to a narrow
//! interval, so the online algorithms' true competitive ratios are known
//! up to that interval — the only place in the whole reproduction where
//! "competitive ratio" needs no estimate at all.

use parapage::analysis::micro_opt_makespan;
use parapage::prelude::*;
use rayon::prelude::*;

use super::{run_policy, section, Opts, Report};

const CLAIM: &str = "LB ≤ T_OPT UB on every instance";

pub(super) fn run(o: Opts) -> Report {
    let s = 10u64;
    let k = 8usize;
    let len = if o.quick { 60 } else { 120 };

    let instances: Vec<(&str, Vec<SeqSpec>)> = vec![
        (
            "2x small loops",
            vec![
                SeqSpec::Cyclic { width: 3, len },
                SeqSpec::Cyclic { width: 3, len },
            ],
        ),
        (
            "big + small loop",
            vec![
                SeqSpec::Cyclic { width: 6, len },
                SeqSpec::Cyclic { width: 2, len },
            ],
        ),
        (
            "2x big loops",
            vec![
                SeqSpec::Cyclic { width: 6, len },
                SeqSpec::Cyclic { width: 6, len },
            ],
        ),
        (
            "3x big loops",
            vec![
                SeqSpec::Cyclic { width: 6, len },
                SeqSpec::Cyclic { width: 6, len },
                SeqSpec::Cyclic { width: 6, len },
            ],
        ),
        (
            "3x mixed",
            vec![
                SeqSpec::Cyclic { width: 7, len },
                SeqSpec::Fresh { len },
                SeqSpec::Cyclic { width: 5, len },
            ],
        ),
    ];

    let mut table = Table::new([
        "instance",
        "LB (certified)",
        "T_OPT UB (certified)",
        "gap",
        "DET-PAR",
        "true ratio range",
    ]);
    // The exhaustive micro-OPT search dominates each instance, and the
    // instances are independent — fan them out; rows land in slot order.
    let rows: Vec<([String; 6], bool)> = instances
        .par_iter()
        .map(|(name, specs)| {
            let w = build_workload(specs, o.seed);
            let params = ModelParams::new(specs.len(), k, s);
            let lb = per_proc_bound(w.seqs(), k, s);
            let ub = micro_opt_makespan(w.seqs(), k, s);
            let mut det = DetPar::new(&params);
            let det_ms = run_policy(&mut det, w.seqs(), &params).makespan;
            // Every feasible schedule upper-bounds T_OPT — including
            // DET-PAR's own run, so the certified interval is
            // [LB, min(micro, DET)].
            let tight_ub = ub.min(det_ms);
            let row = [
                name.to_string(),
                lb.to_string(),
                tight_ub.to_string(),
                format!("{:.2}x", tight_ub as f64 / lb.max(1) as f64),
                det_ms.to_string(),
                format!(
                    "{:.2} – {:.2}",
                    det_ms as f64 / tight_ub as f64,
                    det_ms as f64 / lb.max(1) as f64
                ),
            ];
            (row, lb <= tight_ub)
        })
        .collect();
    let mut crossed = 0;
    for (row, sandwiched) in rows {
        crossed += usize::from(!sandwiched);
        table.row(row);
    }
    let mut text = section(
        "E16: certified T_OPT sandwich on micro instances (p=2-3, k=8)",
        &table,
    );
    text += "T_OPT is certified inside [LB, UB] (UB = min(micro-OPT, DET-PAR's\n\
             own feasible run)), so the last column brackets DET-PAR's *true*\n\
             competitive ratio with no estimation. Per the paper's framework,\n\
             DET-PAR runs with O(1) resource augmentation while OPT does not.\n\
             At p=2 DET-PAR matches the lower bound exactly; contention appears\n\
             from p=3.\n";
    let measured = format!("{crossed} crossed");
    Report::new(text, CLAIM, measured).check(crossed == 0, "an LB above its UB")
}
