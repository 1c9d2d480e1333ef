//! Oracle test: the stack-distance kernel behind [`stack_distances`] and
//! [`miss_curve`] against a naive LRU stack kept in a `Vec`.
//!
//! The naive stack is the definition: an access's distance is its page's
//! depth in the recency stack (1 = most recent), a first touch has none.
//! Page ids include 0 and `u64::MAX`, and streams run long enough, with
//! enough distinct pages, to grow the kernel's page index and its Fenwick
//! tree several times within one pass.

use proptest::prelude::*;

use parapage_cache::{miss_curve, stack_distances, MissCurve, PageId, StackDistanceKernel};

/// Distances by brute force: the stack holds pages most recent first.
fn naive_distances(seq: &[PageId]) -> Vec<Option<usize>> {
    let mut stack: Vec<PageId> = Vec::new();
    seq.iter()
        .map(|&page| {
            let depth = stack.iter().position(|&q| q == page);
            if let Some(at) = depth {
                stack.remove(at);
            }
            stack.insert(0, page);
            depth.map(|at| at + 1)
        })
        .collect()
}

/// Asserts `curve` is the miss curve the naive distances imply, for every
/// tabulated capacity and past it.
fn assert_curve_matches(curve: &MissCurve, naive: &[Option<usize>], max_capacity: usize) {
    let distinct = naive.iter().filter(|d| d.is_none()).count() as u64;
    assert_eq!(curve.total_requests(), naive.len() as u64, "total");
    assert_eq!(curve.distinct_pages(), distinct, "distinct");
    assert_eq!(curve.max_capacity(), max_capacity, "max capacity");
    for c in 0..=max_capacity + 2 {
        let misses = if c > max_capacity {
            distinct
        } else {
            naive.iter().filter(|d| d.is_none_or(|d| d > c)).count() as u64
        };
        assert_eq!(curve.misses(c), misses, "misses at capacity {c}");
    }
}

/// Page ids that stress the index: 0 and `u64::MAX` (no id can be a
/// sentinel), ids near the top of the range, a small hot set and wide
/// random ids.
fn page_strategy() -> impl Strategy<Value = PageId> {
    (0u8..6, any::<u64>(), 0u64..160).prop_map(|(pick, wide, small)| match pick {
        0 => PageId(0),
        1 => PageId(u64::MAX),
        2 => PageId(u64::MAX - small % 8),
        3 => PageId(wide),
        _ => PageId(small),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Per-access distances and the miss curve equal the naive stack's.
    #[test]
    fn kernel_matches_the_naive_stack(
        seq in prop::collection::vec(page_strategy(), 0..700),
        max_capacity in 0usize..200,
    ) {
        let naive = naive_distances(&seq);
        prop_assert_eq!(stack_distances(&seq), naive.clone());
        assert_curve_matches(&miss_curve(&seq, max_capacity), &naive, max_capacity);
    }

    /// One kernel reused across streams of very different lengths gives
    /// every stream the curve a fresh pass gives it: no count, index entry
    /// or histogram bucket leaks from one pass into the next.
    #[test]
    fn reused_kernel_matches_fresh_passes(
        seqs in prop::collection::vec(prop::collection::vec(page_strategy(), 0..400), 1..6),
        max_capacity in 0usize..64,
    ) {
        let mut kernel = StackDistanceKernel::new();
        for seq in &seqs {
            prop_assert_eq!(kernel.miss_curve(seq, max_capacity), miss_curve(seq, max_capacity));
            let mut reused = Vec::new();
            kernel.for_each(seq.iter().copied(), |d| reused.push(d));
            prop_assert_eq!(reused, naive_distances(seq));
        }
    }
}

/// A stream far past the starting sizes: thousands of distinct pages grow
/// the index and the Fenwick tree many times in one pass.
#[test]
fn long_stream_with_many_distinct_pages() {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let seq: Vec<PageId> = (0..6000u64)
        .map(|i| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            match i % 5 {
                0 => PageId(u64::MAX - x % 1500),
                1 => PageId(x % 40),
                _ => PageId(x % 2500),
            }
        })
        .collect();
    let naive = naive_distances(&seq);
    assert_eq!(stack_distances(&seq), naive);
    assert_curve_matches(&miss_curve(&seq, 300), &naive, 300);
}
