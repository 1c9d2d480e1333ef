//! Property test of the bulk integrity digest: random multi-bit corruption
//! of random buffers is always detected. (Exhaustive single-bit flips over
//! short buffers, the known-answer vectors and the length edges are unit
//! tests in `checkpoint.rs`.)

use proptest::prelude::*;

use parapage_cache::digest64_seeded;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn one_to_three_bit_flips_are_detected(
        bytes in prop::collection::vec(any::<u8>(), 1..=4096),
        flips in prop::collection::vec((any::<u64>(), 0u32..8), 1..=3),
        seed in any::<u64>(),
    ) {
        let mut bad = bytes.clone();
        for &(at, bit) in &flips {
            bad[(at % bytes.len() as u64) as usize] ^= 1 << bit;
        }
        // Two flips of the same bit cancel out: nothing left to detect.
        prop_assume!(bad != bytes);
        prop_assert_ne!(digest64_seeded(seed, &bad), digest64_seeded(seed, &bytes));
    }
}
