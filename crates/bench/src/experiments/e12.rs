//! E12 — the paper's future-work scenario (§5): sequences that *share*
//! pages. The model's disjointness assumption is deliberately violated with
//! a common hot set; partition-based algorithms (DET-PAR and friends)
//! replicate the shared pages in every partition, while the global shared
//! LRU deduplicates them — quantifying the gap the open problem is about.

use parapage::prelude::*;

use super::{run_policy, section, Opts, Report};

const CLAIM: &str = "DET-PAR makespan grows with sharing";

pub(super) fn run(o: Opts) -> Report {
    let p = if o.quick { 8 } else { 16 };
    let k = 16 * p;
    let s = 16u64;
    let len = if o.quick { 3000 } else { 8000 };
    let params = ModelParams::new(p, k, s);

    // Sweep the sharing intensity: share_every = ∞ (disjoint) … 2 (half the
    // accesses hit the shared set).
    let mut table = Table::new([
        "share freq",
        "shared width",
        "DET-PAR",
        "STATIC",
        "SHARED-LRU",
        "DET/SHARED",
    ]);
    let mut det = Vec::new();
    for &(every, label) in &[
        (usize::MAX, "never"),
        (8usize, "1/8"),
        (4, "1/4"),
        (2, "1/2"),
    ] {
        let shared_width = k / 2;
        let private_width = k / 8;
        let seqs = if every == usize::MAX {
            // Disjoint control with the same request volume.
            (0..p)
                .map(|x| {
                    let mut b = SeqBuilder::new(ProcId(x as u32), o.seed);
                    b.cyclic(private_width, len);
                    b.build()
                })
                .collect::<Vec<_>>()
        } else {
            shared_hotset_workload(p, private_width, shared_width, every, len)
        };

        let det_ms = run_policy(&mut DetPar::new(&params), &seqs, &params).makespan;
        let st_ms = run_policy(&mut StaticPartition::new(&params), &seqs, &params).makespan;
        let sh_ms = run_shared_lru(&seqs, k, s).makespan;

        det.push(det_ms);
        table.row([
            label.to_string(),
            shared_width.to_string(),
            det_ms.to_string(),
            st_ms.to_string(),
            sh_ms.to_string(),
            format!("{:.2}", det_ms as f64 / sh_ms as f64),
        ]);
    }
    let mut text = section(
        "E12: page sharing (paper §5 future work) — partitioning replicates, \
         a shared cache deduplicates",
        &table,
    );
    text += "Sharing hurts every policy: partitioning replicates the hot set in\n\
             every partition (DET-PAR's makespan grows several-fold), while the\n\
             shared cache deduplicates it but loses isolation on the private\n\
             sets. Neither dominates across the sweep — which is exactly why the\n\
             paper's conclusion calls paging with shared pages an open problem.\n";

    let grows = det.windows(2).all(|w| w[1] > w[0]);
    let measured = format!("DET-PAR {det:?}");
    Report::new(text, CLAIM, measured).check(grows, "makespan does not grow")
}
