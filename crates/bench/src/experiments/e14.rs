//! E14 — the value of *dynamic* allocation: DET-PAR versus the **exact**
//! optimal static partition (computable in polynomial time from Mattson
//! curves), versus UCP (the best practical adaptive heuristic).
//!
//! The paper's whole subject is reallocating cache over time; this
//! experiment quantifies the gap between "the best you can do without ever
//! reallocating" (OPT-STATIC, an oracle that already knows the workloads)
//! and the online dynamic algorithms.

use parapage::analysis::{static_opt_makespan, static_opt_total_time};
use parapage::prelude::*;
use parapage::workloads::family;

use super::{run_policy, section, Opts, Report};

const CLAIM: &str = "DET-PAR beats OPT-STATIC on phase-shift";

pub(super) fn run(o: Opts) -> Report {
    let p = if o.quick { 8 } else { 16 };
    let k = 16 * p;
    let s = 16u64;
    let len = if o.quick { 2000 } else { 6000 };
    let params = ModelParams::new(p, k, s);

    let mut table = Table::new([
        "workload",
        "OPT-STATIC mkspan",
        "DET-PAR",
        "UCP",
        "DET/OPT-STATIC",
        "OPT-STATIC Σtime",
        "DET Σtime",
    ]);

    let mut phase_shift = f64::NAN;
    for (fam, specs) in [
        ("mixed", family::mixed(p, k, len)),
        ("skewed", family::skewed(p, k, len)),
        ("phase-shift", {
            // Workload designed so NO static split is good: every processor
            // needs a lot of cache, but at different times.
            (0..p)
                .map(|x| SeqSpec::Phased {
                    phases: vec![
                        (if x % 2 == 0 { k / 2 } else { 4 }, len / 2),
                        (if x % 2 == 0 { 4 } else { k / 2 }, len - len / 2),
                    ],
                })
                .collect()
        }),
    ] {
        let w = build_workload(&specs, o.seed);

        let st_mk = static_opt_makespan(w.seqs(), k, s);
        let st_tot = static_opt_total_time(w.seqs(), k, s);

        let mut det = DetPar::new(&params);
        let det_res = run_policy(&mut det, w.seqs(), &params);
        let mut ucp = UcpPartition::new(&params);
        let ucp_res = run_policy(&mut ucp, w.seqs(), &params);

        let det_total: u64 = det_res.completions.iter().sum();
        let vs_static = det_res.makespan as f64 / st_mk.objective as f64;
        if fam == "phase-shift" {
            phase_shift = vs_static;
        }
        table.row([
            fam.to_string(),
            st_mk.objective.to_string(),
            det_res.makespan.to_string(),
            ucp_res.makespan.to_string(),
            format!("{vs_static:.2}"),
            st_tot.objective.to_string(),
            det_total.to_string(),
        ]);
    }
    let mut text = section(
        "E14: dynamic policies vs the exact optimal static partition",
        &table,
    );
    text += "OPT-STATIC is an offline oracle for the static class. On stationary\n\
             workloads it is hard to beat; on the phase-shift family no static\n\
             split works and the dynamic algorithms take the lead — the paper's\n\
             reason for existing.\n";
    let measured = format!("DET/OPT-STATIC {phase_shift:.2}");
    Report::new(text, CLAIM, measured).check(phase_shift < 1.0, "OPT-STATIC wins phase-shift")
}
