//! Test-only reference implementations kept for differential testing.
//!
//! [`ScanUcp`] is the UCP policy before its repartition was rebuilt on the
//! reusable stack-distance kernel and the cached per-processor lookahead:
//! it computes a fresh [`miss_curve`] per processor per epoch and rescans
//! every `(processor, delta)` pair for each block it hands out. It is
//! *not* used anywhere outside tests — it exists so
//! `tests/ucp_differential.rs` can drive random streams, finish times and
//! grant times through both implementations and assert identical grants,
//! allocations and checkpoint bytes, the way
//! `parapage_cache::testshim::MapLru` pins the packed LRU.

use parapage_cache::{
    miss_curve, CodecError, MissCurve, PageId, ProcId, SnapReader, SnapWriter, Time,
};

use crate::config::ModelParams;
use crate::parallel::{BoxAllocator, Grant};

/// UCP as it was before the shared stack-distance kernel and the cached
/// lookahead, preserved as a differential-test oracle.
///
/// Behaviour (including the checkpoint byte encoding) is intentionally
/// frozen; do not "improve" this type — fixes belong in
/// [`crate::UcpPartition`], and this oracle exists to catch them diverging.
pub struct ScanUcp {
    k: usize,
    epoch: Time,
    epoch_end: Time,
    alloc: Vec<usize>,
    streams: Vec<Vec<PageId>>,
    active: Vec<bool>,
}

impl ScanUcp {
    /// Creates UCP with the default epoch `s·k`.
    pub fn new(params: &ModelParams) -> Self {
        Self::with_epoch(params, params.s * params.k as u64)
    }

    /// Creates UCP with an explicit epoch length.
    pub fn with_epoch(params: &ModelParams, epoch: Time) -> Self {
        assert!(epoch >= 1);
        ScanUcp {
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
    fn repartition(&mut self) {
        let live: Vec<usize> = (0..self.alloc.len()).filter(|&i| self.active[i]).collect();
        if live.is_empty() {
            return;
        }
        let curves: Vec<Option<MissCurve>> = (0..self.alloc.len())
            .map(|i| {
                if self.active[i] && !self.streams[i].is_empty() {
                    Some(miss_curve(&self.streams[i], self.k))
                } else {
                    None
                }
            })
            .collect();
        // Everyone starts with one page; distribute the rest by lookahead
        // marginal utility.
        for (i, a) in self.alloc.iter_mut().enumerate() {
            *a = usize::from(self.active[i]);
        }
        let mut remaining = self.k.saturating_sub(live.len());
        while remaining > 0 {
            let mut best: Option<(f64, usize, usize)> = None; // (gain/page, proc, delta)
            for &i in &live {
                let Some(curve) = &curves[i] else { continue };
                let cur = self.alloc[i];
                let base = curve.misses(cur);
                // Lookahead: the best average gain over any extension.
                for delta in 1..=remaining.min(self.k - cur) {
                    let gain = base.saturating_sub(curve.misses(cur + delta)) as f64 / delta as f64;
                    if best.map(|(g, _, _)| gain > g).unwrap_or(gain > 0.0) {
                        best = Some((gain, i, delta));
                    }
                }
            }
            match best {
                Some((_, i, delta)) => {
                    self.alloc[i] += delta;
                    remaining -= delta;
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

impl BoxAllocator for ScanUcp {
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
