//! The named workload families the CLI, the conformance oracle and the
//! benchmark suite share, each defined once: every function returns one
//! [`SeqSpec`] per processor for a `p`-processor, `k`-page model with
//! `len` requests per processor.

use crate::spec::SeqSpec;

/// The conformance mix: small loops, half-cache loops and Zipf hotspots,
/// one of each class per group of three processors. The `chaos` and
/// `conform` matrices, the competitive envelope and the benchmark suite
/// run on it.
pub fn conformance_mix(p: usize, k: usize, len: usize) -> Vec<SeqSpec> {
    (0..p)
        .map(|x| match x % 3 {
            0 => SeqSpec::Cyclic {
                width: (k / 8).max(2),
                len,
            },
            1 => SeqSpec::Cyclic { width: k / 2, len },
            _ => SeqSpec::Zipf {
                universe: (k / 2).max(4),
                theta: 0.9,
                len,
            },
        })
        .collect()
}

/// The standard heterogeneous mix (`--workload mixed`): small loops, big
/// loops, Zipf hotspots and phase changers, one of each class per group of
/// four processors.
pub fn mixed(p: usize, k: usize, len: usize) -> Vec<SeqSpec> {
    (0..p)
        .map(|x| match x % 4 {
            0 => SeqSpec::Cyclic {
                width: (k / 16).max(2),
                len,
            },
            1 => SeqSpec::Cyclic { width: k / 2, len },
            2 => SeqSpec::Zipf {
                universe: (k / 2).max(4),
                theta: 0.9,
                len,
            },
            _ => SeqSpec::Phased {
                phases: vec![((k / 16).max(2), len / 2), (k / 2, len - len / 2)],
            },
        })
        .collect()
}

/// One cache-hungry processor among tiny loops (`--workload skewed`): the
/// workload where a static equal partition is maximally wrong.
pub fn skewed(p: usize, k: usize, len: usize) -> Vec<SeqSpec> {
    (0..p)
        .map(|x| {
            let width = if x == 0 { 3 * k / 4 } else { 4 };
            SeqSpec::Cyclic { width, len }
        })
        .collect()
}

/// Balanced uniform working sets, each `2k/p` wide (`--workload
/// uniform`): every processor is mildly memory-hungry.
pub fn uniform(p: usize, k: usize, len: usize) -> Vec<SeqSpec> {
    (0..p)
        .map(|_| SeqSpec::Uniform {
            universe: (2 * k / p).max(2),
            len,
        })
        .collect()
}
