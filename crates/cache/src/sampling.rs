//! SHARDS-style sampled stack-distance analysis (Waldspurger et al.,
//! FAST 2015).
//!
//! Exact Mattson analysis is O(n log n); for very long traces a *spatially
//! hashed* sample suffices: keep only pages whose hash falls below a
//! threshold `T` (sampling rate `R = T/2⁶⁴`), run the exact analysis on the
//! sampled sub-trace, and scale distances by `1/R` and counts by `1/R`.
//! Because the filter is per-*page* (not per-access), reuse structure is
//! preserved exactly within the sample.
//!
//! Used by the analysis pipeline when estimating miss curves of multi-
//! million-request workloads (e.g. paper-scale adversarial instances).

use crate::mattson::{MissCurve, StackDistanceKernel};
use crate::types::PageId;

/// A sampled approximation of the LRU miss curve.
#[derive(Clone, Debug)]
pub struct SampledCurve {
    /// Scaled misses per capacity (index = capacity).
    misses: Vec<f64>,
    /// Scaled total requests.
    total: f64,
    /// Scaled distinct pages (compulsory misses).
    distinct: f64,
    /// The sampling rate actually used.
    pub rate: f64,
    /// Number of sampled accesses (diagnostic).
    pub sampled_accesses: usize,
}

impl SampledCurve {
    /// Estimated LRU misses at capacity `c` (clamped like
    /// [`MissCurve::misses`]).
    pub fn misses(&self, c: usize) -> f64 {
        if c < self.misses.len() {
            self.misses[c]
        } else {
            self.distinct
        }
    }

    /// Estimated total requests.
    pub fn total_requests(&self) -> f64 {
        self.total
    }

    /// Estimated miss ratio at capacity `c`.
    pub fn miss_ratio(&self, c: usize) -> f64 {
        if self.total == 0.0 {
            0.0
        } else {
            self.misses(c) / self.total
        }
    }
}

/// SplitMix64: a fast, well-mixed page hash (spatial filter).
#[inline]
fn hash_page(p: PageId) -> u64 {
    let mut z = p.0.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Computes a sampled miss curve at the given `rate ∈ (0, 1]` for
/// capacities `0..=max_capacity`.
///
/// Distances measured in the sampled sub-trace are scaled by `1/rate`
/// (a sampled distance `d` witnesses ≈ `d/rate` distinct pages in the full
/// trace), and each sampled access stands for `1/rate` real accesses.
///
/// ```
/// use parapage_cache::{miss_curve, sampled_miss_curve, PageId};
/// let seq: Vec<PageId> = (0..50_000).map(|i| PageId(i * 7 % 400)).collect();
/// let exact = miss_curve(&seq, 512);
/// let approx = sampled_miss_curve(&seq, 512, 0.5);
/// // At capacities above the working set only compulsory misses remain;
/// // the sampled estimate recovers them within sampling noise.
/// let err = (exact.misses(512) as f64 - approx.misses(512)).abs()
///     / exact.misses(512) as f64;
/// assert!(err < 0.2, "relative error {err}");
/// // Total request count scales back accurately too.
/// assert!((approx.total_requests() - 50_000.0).abs() / 50_000.0 < 0.1);
/// ```
pub fn sampled_miss_curve(seq: &[PageId], max_capacity: usize, rate: f64) -> SampledCurve {
    assert!(rate > 0.0 && rate <= 1.0, "rate must be in (0, 1]");
    let threshold = (rate * (u64::MAX as f64)) as u64;
    let scale = 1.0 / rate;

    // Exact Mattson pass over the sampled accesses only.
    let mut hist: Vec<u64> = vec![0; max_capacity + 2];
    let mut compulsory = 0u64;
    let mut sampled = 0usize;
    let sample = seq.iter().copied().filter(|&p| hash_page(p) <= threshold);
    StackDistanceKernel::new().for_each(sample, |d| {
        sampled += 1;
        match d {
            None => compulsory += 1,
            Some(d_sampled) => {
                // Scale the distance back to the full trace.
                let d = ((d_sampled as f64) * scale).round() as usize;
                hist[d.clamp(1, max_capacity + 1)] += 1;
            }
        }
    });

    let total_sampled = sampled as u64;
    let mut misses = vec![0f64; max_capacity + 1];
    let mut hits_upto = 0u64;
    for c in 0..=max_capacity {
        hits_upto += hist[c];
        misses[c] = (total_sampled - hits_upto) as f64 * scale;
    }
    SampledCurve {
        misses,
        total: total_sampled as f64 * scale,
        distinct: compulsory as f64 * scale,
        rate,
        sampled_accesses: sampled,
    }
}

/// Convenience: compare a sampled curve against the exact one (max absolute
/// miss-ratio error over capacities `1..=max_capacity`). Used by tests and
/// diagnostics.
pub fn max_miss_ratio_error(exact: &MissCurve, approx: &SampledCurve, max_capacity: usize) -> f64 {
    let n = exact.total_requests().max(1) as f64;
    (1..=max_capacity)
        .map(|c| {
            let e = exact.misses(c) as f64 / n;
            let a = approx.miss_ratio(c);
            (e - a).abs()
        })
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mattson::miss_curve;

    fn zipfish(n: usize, universe: u64) -> Vec<PageId> {
        // Deterministic skewed trace without rand: quadratic residues bias
        // low ids.
        (0..n)
            .map(|i| {
                let x = (i as u64).wrapping_mul(2654435761) % (universe * universe);
                PageId((x as f64).sqrt() as u64 % universe)
            })
            .collect()
    }

    #[test]
    fn rate_one_matches_exact() {
        let seq = zipfish(5000, 200);
        let exact = miss_curve(&seq, 128);
        let approx = sampled_miss_curve(&seq, 128, 1.0);
        for c in 0..=128 {
            assert_eq!(approx.misses(c), exact.misses(c) as f64, "capacity {c}");
        }
        assert_eq!(approx.sampled_accesses, seq.len());
    }

    #[test]
    fn sampled_curve_tracks_exact_within_tolerance() {
        let seq = zipfish(60_000, 500);
        let exact = miss_curve(&seq, 256);
        let approx = sampled_miss_curve(&seq, 256, 0.25);
        // Knee regions are coarse at rate 0.25 (distance granularity 1/R);
        // SHARDS accuracy claims are about large traces and averaged error.
        let err = max_miss_ratio_error(&exact, &approx, 256);
        assert!(err < 0.3, "miss-ratio error {err}");
        // Away from the knee the estimate is tight.
        let tail_err = (192..=256)
            .map(|c| (exact.misses(c) as f64 / seq.len() as f64 - approx.miss_ratio(c)).abs())
            .fold(0.0, f64::max);
        assert!(tail_err < 0.1, "tail error {tail_err}");
        // Totals scale back to within 25%.
        let total_err = (approx.total_requests() - seq.len() as f64).abs() / seq.len() as f64;
        assert!(total_err < 0.25, "total error {total_err}");
    }

    #[test]
    fn monotone_in_capacity() {
        let seq = zipfish(20_000, 300);
        let approx = sampled_miss_curve(&seq, 128, 0.3);
        for c in 1..=128 {
            assert!(approx.misses(c) <= approx.misses(c - 1) + 1e-9);
        }
    }

    #[test]
    fn lower_rates_sample_fewer_accesses() {
        let seq = zipfish(30_000, 400);
        let a = sampled_miss_curve(&seq, 64, 0.5);
        let b = sampled_miss_curve(&seq, 64, 0.05);
        assert!(b.sampled_accesses < a.sampled_accesses);
        assert!(b.sampled_accesses > 0);
    }

    /// Order-sensitive fold of every field's bits.
    fn fingerprint(c: &SampledCurve) -> u64 {
        let words = c.misses.iter().map(|m| m.to_bits()).chain([
            c.total.to_bits(),
            c.distinct.to_bits(),
            c.rate.to_bits(),
            c.sampled_accesses as u64,
            c.misses.len() as u64,
        ]);
        words.fold(0xcbf2_9ce4_8422_2325, |h, w| {
            (h ^ w).wrapping_mul(0x0000_0100_0000_01b3).rotate_left(17)
        })
    }

    /// The curves of this module's test and doc inputs, pinned bit for bit
    /// to the values of the `HashMap` + `Fenwick` pass the shared
    /// stack-distance kernel replaced.
    #[test]
    fn fields_match_the_pinned_hashmap_pass() {
        let cases: Vec<(Vec<PageId>, usize, f64, u64)> = vec![
            (zipfish(5000, 200), 128, 1.0, 0x4a1a_7f95_6eaf_1168),
            (zipfish(60_000, 500), 256, 0.25, 0x05cc_3059_a662_7b4b),
            (zipfish(20_000, 300), 128, 0.3, 0x6067_d04b_928e_469f),
            (zipfish(30_000, 400), 64, 0.5, 0x4ccf_3122_e1a2_3bf7),
            (zipfish(30_000, 400), 64, 0.05, 0xd8e4_f7e9_7b07_7256),
            (Vec::new(), 16, 0.5, 0x64e2_ae12_aad7_6721),
            (
                (0..50_000).map(|i| PageId(i * 7 % 400)).collect(),
                512,
                0.5,
                0x5044_00d6_4ed7_09ff,
            ),
        ];
        for (seq, cap, rate, pinned) in &cases {
            let c = sampled_miss_curve(seq, *cap, *rate);
            assert_eq!(
                fingerprint(&c),
                *pinned,
                "len {} cap {cap} rate {rate}",
                seq.len()
            );
        }
    }

    #[test]
    fn empty_trace() {
        let approx = sampled_miss_curve(&[], 16, 0.5);
        assert_eq!(approx.total_requests(), 0.0);
        assert_eq!(approx.miss_ratio(4), 0.0);
    }

    #[test]
    #[should_panic(expected = "rate")]
    fn rejects_zero_rate() {
        sampled_miss_curve(&[PageId(1)], 4, 0.0);
    }
}
