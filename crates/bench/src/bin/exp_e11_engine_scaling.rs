//! E11 — systems table: simulator throughput (requests/second) as `p`
//! scales, per engine/policy. Not a paper claim; it characterizes the
//! testbed itself, so readers can judge what problem sizes are reachable.

use std::time::Instant;

use parapage::prelude::*;
use parapage::workloads::family;
use parapage_bench::{emit, parse_cli};

fn main() {
    let cli = parse_cli();
    let ps: &[usize] = if cli.quick {
        &[4, 16]
    } else {
        &[4, 16, 64, 256]
    };
    let len = if cli.quick { 2000 } else { 5000 };

    let mut table = Table::new([
        "p",
        "requests",
        "DET-PAR Mreq/s",
        "RAND-PAR Mreq/s",
        "SHARED-LRU Mreq/s",
        "grants (DET)",
    ]);
    for &p in ps {
        let k = 8 * p;
        let params = ModelParams::new(p, k, 16);
        let w = build_workload(&family::mixed(p, k, len), cli.seed);
        let total = w.total_requests() as f64;
        let opts = EngineOpts::default();

        let t0 = Instant::now();
        let mut det = DetPar::new(&params);
        let res_det = run_engine(&mut det, w.seqs(), &params, &opts).unwrap();
        let det_rate = total / t0.elapsed().as_secs_f64() / 1e6;

        let t1 = Instant::now();
        let mut rnd = RandPar::new(&params, cli.seed);
        let _ = run_engine(&mut rnd, w.seqs(), &params, &opts).unwrap();
        let rnd_rate = total / t1.elapsed().as_secs_f64() / 1e6;

        let t2 = Instant::now();
        let _ = run_shared_lru(w.seqs(), k, params.s);
        let shared_rate = total / t2.elapsed().as_secs_f64() / 1e6;

        table.row([
            p.to_string(),
            format!("{}", w.total_requests()),
            format!("{det_rate:.2}"),
            format!("{rnd_rate:.2}"),
            format!("{shared_rate:.2}"),
            res_det.grants_issued.to_string(),
        ]);
    }
    emit("E11: simulator throughput scaling", &table, &cli);
}
