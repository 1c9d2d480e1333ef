//! Utility-based cache partitioning (UCP — Qureshi & Patt, MICRO 2006),
//! adapted to the paper's model as the strongest practical adaptive
//! baseline.
//!
//! Each processor carries a *shadow monitor*: the page stream it served in
//! the current epoch. At every epoch boundary the policy computes each
//! processor's miss curve over the epoch (one Mattson pass) and partitions
//! the cache greedily by *lookahead marginal utility*: repeatedly give the
//! block of pages with the highest miss-reduction-per-page to whichever
//! processor values it most. Unlike the paper's oblivious algorithms, UCP
//! reads access streams — it represents what a well-engineered system
//! without the paper's theory would deploy, and E8 measures the gap.
//!
//! Two things keep a repartition cheap without changing any decision:
//!
//! * The Mattson passes of one repartition share one
//!   [`StackDistanceKernel`], so its index, bitset, Fenwick tree and
//!   histogram are sized once per epoch instead of once per processor.
//!   The kernel lives only as long as the repartition: kept across epochs
//!   it would add its buffers to every tenant's heap peak.
//! * The lookahead caches, per processor, the best gain over its
//!   extensions and the first block size reaching it (see
//!   `UcpPartition::repartition`), instead of rescanning every
//!   `(processor, block)` pair for each block it hands out.

use parapage_cache::{
    CodecError, MissCurve, PageId, ProcId, Served, SnapReader, SnapWriter, StackDistanceKernel,
    Time,
};

use crate::config::ModelParams;
use crate::parallel::{BoxAllocator, Grant};

/// The UCP policy.
pub struct UcpPartition {
    k: usize,
    epoch: Time,
    epoch_end: Time,
    alloc: Vec<usize>,
    streams: Vec<Vec<PageId>>,
    active: Vec<bool>,
}

/// The best lookahead gain `Δmisses / delta` over `delta ∈ 1..=limit` for a
/// processor holding `cur` pages, with the first `delta` that reaches it;
/// `None` when `limit` is 0.
fn lookahead(curve: &MissCurve, cur: usize, limit: usize) -> Option<(f64, usize)> {
    let base = curve.misses(cur);
    let mut best: Option<(f64, usize)> = None;
    for delta in 1..=limit {
        let gain = base.saturating_sub(curve.misses(cur + delta)) as f64 / delta as f64;
        if best.is_none_or(|(g, _)| gain > g) {
            best = Some((gain, delta));
        }
    }
    best
}

impl UcpPartition {
    /// Creates UCP with the default epoch `s·k`.
    pub fn new(params: &ModelParams) -> Self {
        Self::with_epoch(params, params.s * params.k as u64)
    }

    /// Creates UCP with an explicit epoch length.
    pub fn with_epoch(params: &ModelParams, epoch: Time) -> Self {
        assert!(epoch >= 1);
        UcpPartition {
            k: params.k,
            epoch,
            epoch_end: epoch,
            alloc: vec![params.min_height(); params.p],
            streams: vec![Vec::new(); params.p],
            active: vec![true; params.p],
        }
    }

    /// Current allocation (pages per processor).
    pub fn allocation(&self) -> &[usize] {
        &self.alloc
    }

    /// Greedy lookahead partitioning from the epoch's miss curves.
    ///
    /// Each step hands `delta` pages to the processor `i` whose
    /// `Δmisses/delta` is largest over every live `(i, delta)` with
    /// `delta ≤ min(remaining, k − alloc[i])`, taking the first such pair
    /// in `(i, delta)` order on ties, provided that gain is positive. The
    /// first maximum of a concatenation is the first maximum of the first
    /// part that reaches the overall maximum, so the choice decomposes:
    /// cache each processor's `(best gain, first delta reaching it)` and
    /// take the first live processor with the strictly greatest cached
    /// gain. A grant changes the granted processor's `alloc`, so it is
    /// recomputed; for everyone else only `remaining` shrank, which removes
    /// candidates from the end of their range. Their cached maximum and
    /// its first delta survive unless that delta is no longer in range, so
    /// only those are recomputed. The gain is the same float expression as
    /// a full rescan's, so ties break identically.
    fn repartition(&mut self) {
        let live: Vec<usize> = (0..self.alloc.len()).filter(|&i| self.active[i]).collect();
        if live.is_empty() {
            return;
        }
        let mut kernel = StackDistanceKernel::new();
        let curves: Vec<Option<MissCurve>> = (0..self.alloc.len())
            .map(|i| {
                (self.active[i] && !self.streams[i].is_empty())
                    .then(|| kernel.miss_curve(&self.streams[i], self.k))
            })
            .collect();
        // Everyone starts with one page; distribute the rest by lookahead
        // marginal utility.
        for (i, a) in self.alloc.iter_mut().enumerate() {
            *a = usize::from(self.active[i]);
        }
        let k = self.k;
        let mut remaining = k.saturating_sub(live.len());
        // Per processor: (best gain, first delta reaching it), or None
        // without a curve or room to grow.
        let mut best: Vec<Option<(f64, usize)>> = curves
            .iter()
            .zip(&self.alloc)
            .map(|(curve, &cur)| lookahead(curve.as_ref()?, cur, remaining.min(k - cur)))
            .collect();
        while remaining > 0 {
            let mut pick: Option<(f64, usize, usize)> = None; // (gain/page, proc, delta)
            for &i in &live {
                if let Some((gain, delta)) = best[i] {
                    if pick.map_or(gain > 0.0, |(g, _, _)| gain > g) {
                        pick = Some((gain, i, delta));
                    }
                }
            }
            match pick {
                Some((_, i, delta)) => {
                    self.alloc[i] += delta;
                    remaining -= delta;
                    for &j in &live {
                        if j == i || best[j].is_some_and(|(_, d)| d > remaining) {
                            let cur = self.alloc[j];
                            best[j] = curves[j]
                                .as_ref()
                                .and_then(|c| lookahead(c, cur, remaining.min(k - cur)));
                        }
                    }
                }
                None => {
                    // No measurable utility anywhere: spread evenly.
                    let share = remaining / live.len();
                    for &i in &live {
                        self.alloc[i] += share;
                    }
                    break;
                }
            }
        }
        for s in &mut self.streams {
            s.clear();
        }
    }
}

impl BoxAllocator for UcpPartition {
    /// A grant at or past the epoch boundary repartitions once per
    /// boundary crossed. The monitors hold the streams served since the
    /// last repartition, and the first repartition clears them, so when
    /// one grant crosses several boundaries the second and later
    /// repartitions see no stream at all and fall back to an even spread
    /// over the live processors: the epochs nobody was granted in carry no
    /// evidence.
    fn grant(&mut self, proc: ProcId, now: Time) -> Grant {
        while now >= self.epoch_end {
            self.repartition();
            self.epoch_end += self.epoch;
        }
        Grant {
            height: self.alloc[proc.idx()].max(1),
            duration: self.epoch_end - now,
        }
    }

    fn on_proc_finished(&mut self, proc: ProcId, _now: Time) {
        self.active[proc.idx()] = false;
    }

    fn observe_accesses(&mut self, proc: ProcId, served: &[PageId]) {
        self.streams[proc.idx()].extend_from_slice(served);
    }

    fn observe_served(&mut self, proc: ProcId, served: Served<'_>) {
        served.append_to(&mut self.streams[proc.idx()]);
    }

    fn checkpoint(&self, w: &mut SnapWriter) -> Result<(), CodecError> {
        w.put_u64(self.epoch_end);
        w.put_len(self.alloc.len());
        for &a in &self.alloc {
            w.put_usize(a);
        }
        for s in &self.streams {
            w.put_len(s.len());
            for &pg in s {
                w.put_page(pg);
            }
        }
        for &a in &self.active {
            w.put_bool(a);
        }
        Ok(())
    }

    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), CodecError> {
        let epoch_end = r.get_u64()?;
        let p = r.get_len()?;
        if p != self.alloc.len() {
            return Err(CodecError::Invalid("UCP processor count mismatch"));
        }
        let mut alloc = Vec::with_capacity(p);
        for _ in 0..p {
            alloc.push(r.get_usize()?);
        }
        let mut streams = Vec::with_capacity(p);
        for _ in 0..p {
            let n = r.get_len()?;
            let mut s = Vec::with_capacity(n);
            for _ in 0..n {
                s.push(r.get_page()?);
            }
            streams.push(s);
        }
        let mut active = Vec::with_capacity(p);
        for _ in 0..p {
            active.push(r.get_bool()?);
        }
        self.epoch_end = epoch_end;
        self.alloc = alloc;
        self.streams = streams;
        self.active = active;
        Ok(())
    }

    fn name(&self) -> &'static str {
        "UCP"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> ModelParams {
        ModelParams::new(2, 16, 10)
    }

    fn feed_cycle(ucp: &mut UcpPartition, proc: u32, width: u64, len: usize) {
        let pages: Vec<PageId> = (0..len)
            .map(|i| PageId::namespaced(ProcId(proc), i as u64 % width))
            .collect();
        ucp.observe_accesses(ProcId(proc), &pages);
    }

    #[test]
    fn starts_with_equal_shares() {
        let mut ucp = UcpPartition::with_epoch(&params(), 100);
        let g = ucp.grant(ProcId(0), 0);
        assert_eq!(g.height, 8);
        assert_eq!(g.duration, 100);
    }

    #[test]
    fn reallocates_toward_utility() {
        let mut ucp = UcpPartition::with_epoch(&params(), 100);
        // Proc 0 cycles 12 pages (huge utility up to 12); proc 1 cycles 2.
        feed_cycle(&mut ucp, 0, 12, 240);
        feed_cycle(&mut ucp, 1, 2, 240);
        let g0 = ucp.grant(ProcId(0), 100);
        let g1 = ucp.grant(ProcId(1), 100);
        assert!(g0.height >= 12, "hungry proc got {}", g0.height);
        assert!(
            g1.height >= 2 && g1.height <= 4,
            "small proc got {}",
            g1.height
        );
        assert!(g0.height + g1.height <= 16);
    }

    #[test]
    fn idle_streams_fall_back_to_even_spread() {
        let mut ucp = UcpPartition::with_epoch(&params(), 100);
        // No observations at all: repartition spreads evenly.
        let g = ucp.grant(ProcId(0), 100);
        assert_eq!(g.height, 8);
    }

    #[test]
    fn grants_clip_to_epoch_boundary() {
        let mut ucp = UcpPartition::with_epoch(&params(), 100);
        let g = ucp.grant(ProcId(1), 130);
        assert_eq!(g.duration, 70);
    }

    #[test]
    fn checkpoint_round_trips_streams_and_allocation() {
        let mut ucp = UcpPartition::with_epoch(&params(), 100);
        feed_cycle(&mut ucp, 0, 12, 150);
        feed_cycle(&mut ucp, 1, 2, 90);
        ucp.grant(ProcId(0), 0);
        let mut w = SnapWriter::new();
        ucp.checkpoint(&mut w).unwrap();
        let bytes = w.into_bytes();
        let mut restored = UcpPartition::with_epoch(&params(), 100);
        restored.restore(&mut SnapReader::new(&bytes)).unwrap();
        // The pending monitor streams crossed the snapshot: the next epoch's
        // repartition must agree.
        let a = restored.grant(ProcId(0), 100);
        let b = ucp.grant(ProcId(0), 100);
        assert_eq!(a, b);
        assert_eq!(restored.allocation(), ucp.allocation());
    }

    #[test]
    fn multi_epoch_catch_up_spreads_evenly() {
        // Crossing one boundary: the monitors steer the split.
        let mut one = UcpPartition::with_epoch(&params(), 100);
        feed_cycle(&mut one, 0, 12, 240);
        feed_cycle(&mut one, 1, 2, 240);
        one.grant(ProcId(0), 199);
        assert!(one.allocation()[0] >= 12, "{:?}", one.allocation());
        // Crossing two at once (t = 200 is the second boundary): the
        // first repartition consumes the same monitors, the second sees
        // none and spreads the cache evenly, 1 + (16 - 2) / 2 pages each.
        let mut two = UcpPartition::with_epoch(&params(), 100);
        feed_cycle(&mut two, 0, 12, 240);
        feed_cycle(&mut two, 1, 2, 240);
        let g = two.grant(ProcId(0), 200);
        assert_eq!(two.allocation(), &[8, 8]);
        assert_eq!(
            g,
            Grant {
                height: 8,
                duration: 100
            }
        );
    }

    #[test]
    fn finished_procs_release_their_share() {
        let mut ucp = UcpPartition::with_epoch(&params(), 100);
        feed_cycle(&mut ucp, 0, 12, 240);
        ucp.on_proc_finished(ProcId(1), 50);
        let g0 = ucp.grant(ProcId(0), 100);
        assert!(g0.height >= 12);
    }
}
