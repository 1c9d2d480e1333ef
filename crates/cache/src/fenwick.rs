//! Fenwick (binary indexed) tree over `u64` counts.
//!
//! Substrate for the Fenwick-accelerated green-OPT DP
//! (`parapage_core::green_opt_fast`), which counts, over request
//! positions, the hits whose reuse interval crosses a window start. The
//! Mattson pass itself runs on [`crate::StackDistanceKernel`], whose `u32`
//! tree counts marks per 64-time word.

/// A Fenwick tree supporting point update and prefix sum over `u64`.
#[derive(Clone, Debug)]
pub struct Fenwick {
    tree: Vec<u64>,
}

impl Fenwick {
    /// Creates a tree over indices `0..n` with all counts zero.
    pub fn new(n: usize) -> Self {
        Fenwick {
            tree: vec![0; n + 1],
        }
    }

    /// Number of indices the tree covers.
    pub fn len(&self) -> usize {
        self.tree.len() - 1
    }

    /// `true` if the tree covers no indices.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Adds `delta` at `idx` (0-based).
    pub fn add(&mut self, idx: usize, delta: i64) {
        let mut i = idx + 1;
        while i < self.tree.len() {
            self.tree[i] = self.tree[i].wrapping_add(delta as u64);
            i += i & i.wrapping_neg();
        }
    }

    /// Sum of counts over `0..=idx` (0-based, inclusive).
    pub fn prefix_sum(&self, idx: usize) -> u64 {
        let mut i = (idx + 1).min(self.tree.len() - 1);
        let mut acc = 0u64;
        while i > 0 {
            acc = acc.wrapping_add(self.tree[i]);
            i -= i & i.wrapping_neg();
        }
        acc
    }

    /// Sum of counts over the closed range `[lo, hi]`; zero if `lo > hi`.
    pub fn range_sum(&self, lo: usize, hi: usize) -> u64 {
        if lo > hi {
            return 0;
        }
        let upper = self.prefix_sum(hi);
        if lo == 0 {
            upper
        } else {
            upper.wrapping_sub(self.prefix_sum(lo - 1))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_sums_match_naive() {
        let n = 100;
        let mut fw = Fenwick::new(n);
        let mut naive = vec![0i64; n];
        // Deterministic pseudo-random updates.
        let mut x: u64 = 0x9e3779b97f4a7c15;
        for _ in 0..500 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let idx = (x % n as u64) as usize;
            let delta = ((x >> 32) % 7) as i64 - 3;
            fw.add(idx, delta);
            naive[idx] += delta;
        }
        let mut acc = 0i64;
        for (i, &v) in naive.iter().enumerate() {
            acc += v;
            assert_eq!(fw.prefix_sum(i), acc as u64, "prefix mismatch at {i}");
        }
    }

    #[test]
    fn range_sum_handles_edges() {
        let mut fw = Fenwick::new(10);
        for i in 0..10 {
            fw.add(i, 1);
        }
        assert_eq!(fw.range_sum(0, 9), 10);
        assert_eq!(fw.range_sum(3, 3), 1);
        assert_eq!(fw.range_sum(5, 4), 0);
        assert_eq!(fw.range_sum(0, 0), 1);
    }

    #[test]
    fn add_then_remove_cancels() {
        let mut fw = Fenwick::new(8);
        fw.add(4, 1);
        fw.add(4, -1);
        assert_eq!(fw.prefix_sum(7), 0);
    }

    #[test]
    fn empty_tree() {
        let fw = Fenwick::new(0);
        assert!(fw.is_empty());
    }
}
