//! Shared workload recipes for the experiment binaries, so that E3/E4/E6/E8
//! compare policies on identical inputs.

use parapage::prelude::*;

/// A phase-changing single-processor sequence for green paging experiments:
/// tiny loop → large loop → medium loop.
pub fn green_sequence(k: usize, seed: u64) -> Vec<PageId> {
    let mut b = SeqBuilder::new(ProcId(0), seed);
    b.cyclic(4, 1500)
        .cyclic(3 * k / 4, 3000)
        .cyclic((k / 8).max(2), 1500);
    b.build()
}

/// Runs one policy end-to-end on a workload and returns the result.
pub fn run_policy(alloc: &mut dyn BoxAllocator, w: &Workload, params: &ModelParams) -> RunResult {
    run_engine(alloc, w.seqs(), params, &EngineOpts::default()).unwrap()
}
