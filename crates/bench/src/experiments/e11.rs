//! E11 — systems table: simulator throughput (requests/second) as `p`
//! scales, per engine/policy. Not a paper claim; it characterizes the
//! testbed itself, so readers can judge what problem sizes are reachable.
//! The `Mreq/s` columns are wall-clock measurements and differ run to run.

use std::time::Instant;

use parapage::prelude::*;
use parapage::workloads::family;

use super::{run_policy, section, Opts, Report};

const CLAIM: &str = "DET-PAR grants grow with p";

pub(super) fn run(o: Opts) -> Report {
    let ps: &[usize] = if o.quick { &[4, 16] } else { &[4, 16, 64, 256] };
    let len = if o.quick { 2000 } else { 5000 };

    let mut table = Table::new([
        "p",
        "requests",
        "DET-PAR Mreq/s",
        "RAND-PAR Mreq/s",
        "SHARED-LRU Mreq/s",
        "grants (DET)",
    ]);
    let mut grants = Vec::new();
    for &p in ps {
        let k = 8 * p;
        let params = ModelParams::new(p, k, 16);
        let w = build_workload(&family::mixed(p, k, len), o.seed);
        let total = w.total_requests() as f64;

        let t0 = Instant::now();
        let mut det = DetPar::new(&params);
        let res_det = run_policy(&mut det, w.seqs(), &params);
        let det_rate = total / t0.elapsed().as_secs_f64() / 1e6;

        let t1 = Instant::now();
        let mut rnd = RandPar::new(&params, o.seed);
        let _ = run_policy(&mut rnd, w.seqs(), &params);
        let rnd_rate = total / t1.elapsed().as_secs_f64() / 1e6;

        let t2 = Instant::now();
        let _ = run_shared_lru(w.seqs(), k, params.s);
        let shared_rate = total / t2.elapsed().as_secs_f64() / 1e6;

        grants.push(res_det.grants_issued);
        table.row([
            p.to_string(),
            format!("{}", w.total_requests()),
            format!("{det_rate:.2}"),
            format!("{rnd_rate:.2}"),
            format!("{shared_rate:.2}"),
            res_det.grants_issued.to_string(),
        ]);
    }

    let grows = grants[0] > 0 && grants.windows(2).all(|w| w[1] > w[0]);
    let text = section("E11: simulator throughput scaling", &table);
    let measured = format!("grants {grants:?}");
    Report::new(text, CLAIM, measured).check(grows, "grants do not grow with p")
}
