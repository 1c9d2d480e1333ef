//! Mattson stack-distance analysis: the LRU miss count for *every* cache
//! capacity from a single O(n log n) pass.
//!
//! LRU has the *inclusion property* (Mattson et al., IBM Systems Journal
//! 1970): the contents of an LRU cache of capacity `c` are always a subset of
//! those of capacity `c+1`. Consequently each access has a well-defined
//! *stack distance* `d` — its depth in the LRU stack — and the access hits
//! under capacity `c` iff `c ≥ d`. Recording the histogram of distances
//! yields the full miss-ratio curve in one pass.
//!
//! This is the workhorse behind:
//! * the offline green-paging OPT dynamic program (`parapage-core`), which
//!   needs "how far does a box of height h get" for many heights;
//! * the `T_OPT` lower-bound calculator (`parapage-analysis`);
//! * property tests asserting the direct [`crate::LruCache`] simulator agrees
//!   with the analytic curve for every capacity.

use crate::recency::HASH_MUL;
use crate::types::PageId;

/// One slot of the kernel's page index: a page and `1 +` the time of its
/// latest access. `last == 0` marks an empty slot, because page ids span
/// all of `u64` and no id is free to act as the sentinel.
#[derive(Clone, Copy, Debug, Default)]
struct Slot {
    page: u64,
    last: u32,
}

/// Smallest page index; it doubles at a ¾ load.
const MIN_SLOTS: usize = 64;
/// Longest stream one pass accepts: times are stored as `u32`.
const MAX_TIMES: usize = 1 << 31;

/// The exact Mattson stack-distance pass, with every buffer kept for the
/// next call.
///
/// * Pages are found in an open-addressing index (linear probing,
///   Fibonacci hashing, the scheme [`crate::LruCache`] uses), not a
///   SipHash `HashMap`.
/// * A bitset over time indices holds a 1 at the latest access time of
///   every page seen so far, and a `u32` Fenwick tree counts the ones per
///   64-time word of every word the stream has moved past. Both double as
///   the stream runs past them, so one pass never needs the stream's
///   length up front.
/// * An access whose page was last seen at time `prev` has distance
///   `distinct_so_far − prefix(prev) + 1`: the pages whose latest access
///   lies after `prev`, plus the page itself. `prefix(prev)` is one Fenwick
///   query over the words before `prev`'s (six levels shallower than a
///   tree over single times) plus a popcount inside it. Moving the page's
///   mark to now flips two bits; the tree changes only when `prev` lies
///   in a closed word, and once per 64 accesses when a word closes.
///
/// Every miss curve in the workspace comes out of this one pass:
/// [`stack_distances`] and [`miss_curve`] wrap it, the SHARDS sampler
/// feeds it a filtered stream, and a UCP repartition runs every
/// processor's pass on one kernel.
#[derive(Clone, Debug, Default)]
pub struct StackDistanceKernel {
    /// Open-addressing page index; its length is zero or a power of two.
    slots: Vec<Slot>,
    /// `64 - log2(slots.len())`.
    shift: u32,
    /// Occupied slots (distinct pages seen in the current pass).
    distinct: usize,
    /// Bit `t % 64` of word `t / 64` is set iff time `t` is some page's
    /// latest access. Bits of times the pass has not reached may still
    /// hold an earlier pass's marks; nothing reads them before the pass
    /// reaches them and sets them, so the bitset is never cleared.
    marks: Vec<u64>,
    /// 1-based Fenwick tree over the closed words of `marks` (those before
    /// the current time's): node `w + 1` counts word `w`'s set bits.
    /// Entries `1..=words` are live this pass.
    fenwick: Vec<u32>,
    /// Words the bitset and the tree cover this pass (a power of two).
    words: usize,
    /// Capped histogram scratch for [`StackDistanceKernel::miss_curve`].
    hist: Vec<u64>,
}

impl StackDistanceKernel {
    /// A kernel with no buffers yet; the first pass sizes them.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears the buffers for a new pass, keeping their capacity.
    fn reset(&mut self) {
        if self.slots.is_empty() {
            self.slots = vec![Slot::default(); MIN_SLOTS];
            self.shift = 64 - MIN_SLOTS.trailing_zeros();
        } else {
            self.slots.fill(Slot::default());
        }
        self.distinct = 0;
        // Only entries inside the last pass's range can be non-zero.
        if let Some(live) = self.fenwick.get_mut(..=self.words) {
            live.fill(0);
        }
        self.words = 1;
        if self.marks.is_empty() {
            self.marks.push(0);
            self.fenwick.resize(2, 0);
        }
    }

    /// Doubles the time range. Tree node `2n` covers words `(0, 2n]`,
    /// which hold every mark so far, so it takes node `n`'s sum; the other
    /// new nodes cover words past the old end and stay zero.
    #[cold]
    fn grow_times(&mut self) {
        let n = self.words;
        assert!(
            64 * n < MAX_TIMES,
            "stack-distance pass: stream longer than {MAX_TIMES} requests"
        );
        if self.marks.len() < 2 * n {
            self.marks.resize(2 * n, 0);
            self.fenwick.resize(2 * n + 1, 0);
        }
        self.fenwick[2 * n] = self.fenwick[n];
        self.words = 2 * n;
    }

    /// Doubles the page index and reinserts every occupied slot.
    #[cold]
    fn grow_slots(&mut self) {
        let grown = vec![Slot::default(); 2 * self.slots.len()];
        let old = std::mem::replace(&mut self.slots, grown);
        self.shift -= 1;
        let mask = self.slots.len() - 1;
        for slot in old.into_iter().filter(|s| s.last != 0) {
            let mut pos = (slot.page.wrapping_mul(HASH_MUL) >> self.shift) as usize;
            while self.slots[pos].last != 0 {
                pos = (pos + 1) & mask;
            }
            self.slots[pos] = slot;
        }
    }

    /// Adds `delta` (wrapping) to word `w`'s count.
    #[inline(always)]
    fn fenwick_add(&mut self, w: usize, delta: u32) {
        let tree = &mut self.fenwick[..=self.words];
        let mut i = w + 1;
        while i < tree.len() {
            tree[i] = tree[i].wrapping_add(delta);
            i += i & i.wrapping_neg();
        }
    }

    /// Marks at times `0..=t`, for `t` in a closed word or the current one.
    #[inline(always)]
    fn marks_upto(&self, t: usize) -> usize {
        let (w, bit) = (t / 64, t % 64);
        let mut acc = (self.marks[w] & (u64::MAX >> (63 - bit))).count_ones();
        let mut i = w;
        while i > 0 {
            acc = acc.wrapping_add(self.fenwick[i]);
            i &= i - 1;
        }
        acc as usize
    }

    /// Runs one pass over `seq`, calling `visit` with each access's stack
    /// distance in stream order: `Some(d)` hits under any capacity `≥ d`,
    /// `None` is a first touch.
    ///
    /// # Panics
    /// If the stream has more than 2³¹ requests.
    pub fn for_each<I, F>(&mut self, seq: I, mut visit: F)
    where
        I: IntoIterator<Item = PageId>,
        F: FnMut(Option<usize>),
    {
        self.reset();
        for (t, page) in seq.into_iter().enumerate() {
            if t % 64 == 0 && t > 0 {
                if t == 64 * self.words {
                    self.grow_times();
                }
                // The word before t is closed: its marks enter the tree.
                let closed = t / 64 - 1;
                self.fenwick_add(closed, self.marks[closed].count_ones());
            }
            let mask = self.slots.len() - 1;
            let mut pos = (page.0.wrapping_mul(HASH_MUL) >> self.shift) as usize;
            loop {
                let slot = self.slots[pos];
                if slot.last == 0 {
                    self.slots[pos] = Slot {
                        page: page.0,
                        last: t as u32 + 1,
                    };
                    self.distinct += 1;
                    if 4 * self.distinct > 3 * self.slots.len() {
                        self.grow_slots();
                    }
                    visit(None);
                    break;
                }
                if slot.page == page.0 {
                    let prev = slot.last as usize - 1;
                    let after = self.distinct - self.marks_upto(prev);
                    self.marks[prev / 64] &= !(1 << (prev % 64));
                    if prev / 64 < t / 64 {
                        self.fenwick_add(prev / 64, u32::MAX);
                    }
                    self.slots[pos].last = t as u32 + 1;
                    visit(Some(after + 1));
                    break;
                }
                pos = (pos + 1) & mask;
            }
            self.marks[t / 64] |= 1 << (t % 64);
        }
    }

    /// The LRU miss curve of `seq` for capacities `0..=max_capacity`, equal
    /// to [`miss_curve`]`(seq, max_capacity)`.
    pub fn miss_curve(&mut self, seq: &[PageId], max_capacity: usize) -> MissCurve {
        let mut hist = std::mem::take(&mut self.hist);
        hist.clear();
        hist.resize(max_capacity + 2, 0);
        let mut compulsory = 0u64;
        self.for_each(seq.iter().copied(), |d| match d {
            None => compulsory += 1,
            Some(d) => hist[d.min(max_capacity + 1)] += 1,
        });
        // misses(c) = total − #(d ≤ c); d ≥ 1, so hist[0] is always 0.
        let total = seq.len() as u64;
        let mut hits_upto = 0u64;
        let misses = hist[..=max_capacity]
            .iter()
            .map(|&h| {
                hits_upto += h;
                total - hits_upto
            })
            .collect();
        self.hist = hist;
        MissCurve {
            misses,
            total,
            distinct: compulsory,
        }
    }
}

/// Stack distance of each access: `Some(d)` means the access hits under any
/// capacity `≥ d`; `None` marks a compulsory (first-touch) miss.
///
/// `d` counts the accessed page itself, so the minimum distance is 1
/// (immediate re-access).
pub fn stack_distances(seq: &[PageId]) -> Vec<Option<usize>> {
    let mut out = Vec::with_capacity(seq.len());
    StackDistanceKernel::new().for_each(seq.iter().copied(), |d| out.push(d));
    out
}

/// The LRU miss count as a function of cache capacity.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MissCurve {
    /// `misses[c]` = LRU misses with capacity `c`, for `c ∈ 0..=max_capacity`.
    misses: Vec<u64>,
    /// Number of requests in the analyzed sequence.
    total: u64,
    /// Number of distinct pages (equals misses at infinite capacity).
    distinct: u64,
}

impl MissCurve {
    /// LRU misses at capacity `c`; capacities beyond the curve's range clamp
    /// to the infinite-capacity (compulsory-only) miss count.
    pub fn misses(&self, c: usize) -> u64 {
        if c < self.misses.len() {
            self.misses[c]
        } else {
            self.distinct
        }
    }

    /// LRU hits at capacity `c`.
    pub fn hits(&self, c: usize) -> u64 {
        self.total - self.misses(c)
    }

    /// Total requests analyzed.
    pub fn total_requests(&self) -> u64 {
        self.total
    }

    /// Number of distinct pages in the sequence.
    pub fn distinct_pages(&self) -> u64 {
        self.distinct
    }

    /// Largest capacity explicitly tabulated.
    pub fn max_capacity(&self) -> usize {
        self.misses.len() - 1
    }

    /// Total service time at capacity `c` under miss penalty `s`
    /// (`hits + s·misses`).
    pub fn service_time(&self, c: usize, s: u64) -> u64 {
        self.hits(c) + s * self.misses(c)
    }
}

/// Computes the full LRU miss curve of `seq` for capacities `0..=max_capacity`.
///
/// ```
/// use parapage_cache::{miss_curve, PageId};
/// let seq: Vec<PageId> = [1, 2, 1, 3, 2, 1].iter().map(|&v| PageId(v)).collect();
/// let curve = miss_curve(&seq, 4);
/// assert_eq!(curve.misses(0), 6);   // no cache: every access misses
/// assert_eq!(curve.misses(3), 3);   // whole working set fits: compulsory only
/// assert!(curve.misses(1) >= curve.misses(2)); // monotone
/// ```
pub fn miss_curve(seq: &[PageId], max_capacity: usize) -> MissCurve {
    StackDistanceKernel::new().miss_curve(seq, max_capacity)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lru::LruCache;
    use crate::policy::Cache;

    fn seq(vals: &[u64]) -> Vec<PageId> {
        vals.iter().map(|&v| PageId(v)).collect()
    }

    fn lru_misses(s: &[PageId], cap: usize) -> u64 {
        let mut c = LruCache::new(cap);
        s.iter().filter(|&&p| !c.access(p).is_hit()).count() as u64
    }

    #[test]
    fn distances_on_small_example() {
        let s = seq(&[1, 2, 1, 1, 3, 2]);
        let d = stack_distances(&s);
        assert_eq!(d, vec![None, None, Some(2), Some(1), None, Some(3)]);
    }

    #[test]
    fn curve_matches_direct_lru_simulation() {
        let patterns: Vec<Vec<u64>> = vec![
            (0..100).map(|i| i % 9).collect(),
            (0..100).map(|i| (i * 7) % 13).collect(),
            (0..100)
                .map(|i| if i % 4 == 0 { 100 + i } else { i % 6 })
                .collect(),
        ];
        for pat in patterns {
            let s = seq(&pat);
            let curve = miss_curve(&s, 16);
            for cap in 0..=16 {
                assert_eq!(
                    curve.misses(cap),
                    lru_misses(&s, cap),
                    "capacity {cap} on {pat:?}"
                );
            }
        }
    }

    #[test]
    fn curve_is_monotone_nonincreasing() {
        let s = seq(&(0..200).map(|i| (i * i + i / 3) % 23).collect::<Vec<_>>());
        let curve = miss_curve(&s, 30);
        for c in 1..=30 {
            assert!(curve.misses(c) <= curve.misses(c - 1));
        }
    }

    #[test]
    fn clamps_beyond_tabulated_capacity() {
        let s = seq(&[1, 2, 3, 1]);
        let curve = miss_curve(&s, 2);
        assert_eq!(curve.misses(100), 3); // distinct pages
        assert_eq!(curve.distinct_pages(), 3);
    }

    #[test]
    fn service_time_accounts_for_miss_penalty() {
        let s = seq(&[1, 1, 2]);
        let curve = miss_curve(&s, 4);
        // cap 2: misses = 2 (compulsory), hits = 1 -> 1 + 2s.
        assert_eq!(curve.service_time(2, 10), 21);
    }

    #[test]
    fn empty_sequence() {
        let curve = miss_curve(&[], 4);
        assert_eq!(curve.total_requests(), 0);
        assert_eq!(curve.misses(0), 0);
    }
}
