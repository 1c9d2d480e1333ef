//! Differential test: [`UcpPartition`] (shared stack-distance kernel,
//! cached per-processor lookahead) vs the frozen full-scan oracle
//! [`ScanUcp`] (`testshim`).
//!
//! The rebuilt repartition must decide exactly what the old one decided.
//! Random scripts of observed streams, grants (mid-epoch and jumping
//! several epochs), processor finishes and mid-epoch checkpoint → restore
//! round trips drive both side by side; every grant, every allocation and
//! every checkpoint's bytes must agree.

use proptest::prelude::*;

use parapage_cache::{PageId, ProcId, SnapReader, SnapWriter, Time};
use parapage_core::testshim::ScanUcp;
use parapage_core::{BoxAllocator, ModelParams, UcpPartition};

/// xorshift64*: the script generator, so one proptest seed fixes a script.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

fn checkpoint_bytes(a: &dyn BoxAllocator) -> Vec<u8> {
    let mut w = SnapWriter::new();
    a.checkpoint(&mut w).expect("UCP checkpoint");
    w.into_bytes()
}

/// How one processor's requests are drawn: a cycle, uniform draws, or a
/// skewed draw that favours low ids (distinct curve shapes, so gains tie
/// on some scripts and differ on others).
#[derive(Clone, Copy)]
enum Shape {
    Cyclic,
    Uniform,
    Skewed,
}

/// Runs one generated script through both policies, asserting agreement
/// after every step. Returns the number of grants compared.
fn run_script(p: usize, k: usize, epoch: Time, seed: u64) -> usize {
    let params = ModelParams::new(p, k, 2);
    let mut fast = UcpPartition::with_epoch(&params, epoch);
    let mut oracle = ScanUcp::with_epoch(&params, epoch);
    let mut rng = Rng(seed | 1);
    let shapes: Vec<(Shape, u64)> = (0..p)
        .map(|_| {
            let shape = [Shape::Cyclic, Shape::Uniform, Shape::Skewed][rng.below(3) as usize];
            (shape, 1 + rng.below(2 * k as u64))
        })
        .collect();
    let mut cursor = vec![0u64; p];
    let mut finished = vec![false; p];
    let mut now: Time = 0;
    let mut grants = 0;
    let steps = 20 + rng.below(60);
    let forced_checkpoint = rng.below(steps);
    for step in 0..steps {
        let unfinished: Vec<usize> = (0..p).filter(|&x| !finished[x]).collect();
        if unfinished.is_empty() {
            break;
        }
        let x = unfinished[rng.below(unfinished.len() as u64) as usize];
        let event = if step == forced_checkpoint {
            9
        } else {
            rng.below(10)
        };
        match event {
            0..=3 => {
                let (shape, universe) = shapes[x];
                let len = rng.below(3 * k as u64) as usize;
                let pages: Vec<PageId> = (0..len)
                    .map(|_| {
                        let local = match shape {
                            Shape::Cyclic => {
                                cursor[x] = (cursor[x] + 1) % universe;
                                cursor[x]
                            }
                            Shape::Uniform => rng.below(universe),
                            Shape::Skewed => {
                                let a = rng.below(universe);
                                rng.below(a + 1)
                            }
                        };
                        PageId::namespaced(ProcId(x as u32), local)
                    })
                    .collect();
                fast.observe_accesses(ProcId(x as u32), &pages);
                oracle.observe_accesses(ProcId(x as u32), &pages);
            }
            4..=7 => {
                now += match rng.below(10) {
                    0..=6 => rng.below(epoch),
                    7 => 0,
                    _ => epoch * (1 + rng.below(4)) + rng.below(epoch),
                };
                let a = fast.grant(ProcId(x as u32), now);
                let b = oracle.grant(ProcId(x as u32), now);
                assert_eq!(a, b, "grant #{grants} to proc {x} at t={now}");
                grants += 1;
            }
            8 => {
                fast.on_proc_finished(ProcId(x as u32), now);
                oracle.on_proc_finished(ProcId(x as u32), now);
                finished[x] = true;
            }
            _ => {
                let fast_bytes = checkpoint_bytes(&fast);
                let oracle_bytes = checkpoint_bytes(&oracle);
                assert_eq!(fast_bytes, oracle_bytes, "checkpoint bytes at step {step}");
                // Restore into fresh instances: nothing outside the
                // checkpoint may influence later decisions.
                fast = UcpPartition::with_epoch(&params, epoch);
                fast.restore(&mut SnapReader::new(&fast_bytes))
                    .expect("restore fast");
                oracle = ScanUcp::with_epoch(&params, epoch);
                oracle
                    .restore(&mut SnapReader::new(&oracle_bytes))
                    .expect("restore oracle");
            }
        }
        assert_eq!(
            fast.allocation(),
            oracle.allocation(),
            "allocation after step {step}"
        );
    }
    assert_eq!(
        checkpoint_bytes(&fast),
        checkpoint_bytes(&oracle),
        "final checkpoint"
    );
    grants
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// Same grants, allocations and checkpoint bytes on random scripts:
    /// p from 1 to 16, k up to p + 160, epoch lengths from 1 to 4·k.
    #[test]
    fn repartitions_match_the_frozen_full_scan(
        p in 1usize..=16,
        k_extra in 0usize..=160,
        epoch_pick in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let k = p + k_extra;
        let epoch = 1 + epoch_pick % (4 * k as u64);
        run_script(p, k, epoch, seed);
    }
}

/// The monitor-ucp serving shape (p=8, k=128, epoch s·k with s=16) on
/// fixed seeds, so the production configuration is always covered.
#[test]
fn serving_shape_matches_the_frozen_full_scan() {
    let grants: usize = (0..24u64)
        .map(|seed| run_script(8, 128, 16 * 128, 0x5eed ^ seed.wrapping_mul(0x9e37_79b9)))
        .sum();
    assert!(grants > 0, "scripts issued no grants");
}
