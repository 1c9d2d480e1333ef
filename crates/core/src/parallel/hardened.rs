//! Degraded-mode hardening for arbitrary parallel pagers.
//!
//! [`HardenedAllocator`] wraps any [`BoxAllocator`] and guarantees that the
//! heights it emits never oversubscribe a (possibly shrinking) global
//! budget. The paper's policies are analyzed against a fixed cache of `k`
//! pages; under an injected [`FaultEvent::MemoryPressure`] the budget drops
//! to `k' < k` and an unhardened policy — DET-PAR's well-rounded schedule,
//! RAND-GREEN's sampled box heights — will keep allocating against `k` and
//! trip the engine's limit enforcement. The wrapper instead:
//!
//! 1. **clamps** every inner grant's height to the current budget (this is
//!    what bounds RAND-GREEN-sampled boxes arriving via RAND-PAR or the
//!    black-box packer);
//! 2. **backs off exponentially** when the clamped height still does not
//!    fit next to the wrapper's outstanding grants: `h, h/2, h/4, … , 1`;
//! 3. **stalls** the processor until the next outstanding grant expires
//!    when not even a single page fits.
//!
//! On pressure the wrapper also calls the inner policy's
//! [`BoxAllocator::on_budget_shrunk`] hook, so policies with their own
//! degraded path (DET-PAR rescales its base height to `b = k'/p_Q`) adapt
//! *and* stay safe: the wrapper is the enforcement backstop, the inner
//! reaction is the performance recovery. All other fault notifications are
//! forwarded unchanged via [`BoxAllocator::on_fault`].
//!
//! ### Accounting is conservative
//!
//! The wrapper releases a grant's pages at the grant's scheduled end, while
//! the engine reclaims early when a processor finishes mid-grant. The
//! wrapper's view of usage therefore never undercounts the engine's, which
//! is what makes the guarantee sound: if the wrapper's ledger fits the
//! budget, the engine's enforcement can never fire.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use parapage_cache::{
    CodecError, PageId, ProcId, Served, SnapReader, SnapWriter, Time, WindowOutcome,
};

use crate::parallel::det_par::PhaseRecord;
use crate::parallel::{BoxAllocator, FaultEvent, Grant};

/// Wraps a policy so its grants never exceed a (shrinkable) memory budget.
///
/// ```
/// use parapage_core::{BoxAllocator, DetPar, FaultEvent, ModelParams};
/// use parapage_core::parallel::hardened::HardenedAllocator;
/// use parapage_cache::ProcId;
///
/// let params = ModelParams::new(8, 64, 10);
/// let mut hard = HardenedAllocator::new(DetPar::new(&params), params.k);
/// hard.on_fault(&FaultEvent::MemoryPressure { at: 0, new_limit: 16 });
/// let g = hard.grant(ProcId(0), 0);
/// assert!(g.height <= 16);
/// ```
pub struct HardenedAllocator<A> {
    inner: A,
    budget: usize,
    used: usize,
    /// Outstanding grants as `(scheduled end, height)`, a min-heap.
    outstanding: BinaryHeap<Reverse<(Time, usize)>>,
    degraded: u64,
}

impl<A: BoxAllocator> HardenedAllocator<A> {
    /// Hardens `inner` against the initial budget (usually `k`).
    pub fn new(inner: A, budget: usize) -> Self {
        HardenedAllocator {
            inner,
            budget: budget.max(1),
            used: 0,
            outstanding: BinaryHeap::new(),
            degraded: 0,
        }
    }

    /// The budget grants are currently clamped to.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// The wrapped policy.
    pub fn inner(&self) -> &A {
        &self.inner
    }

    /// Unwraps the inner policy.
    pub fn into_inner(self) -> A {
        self.inner
    }

    fn release_expired(&mut self, now: Time) {
        while let Some(&Reverse((t, h))) = self.outstanding.peek() {
            if t <= now {
                self.outstanding.pop();
                self.used -= h;
            } else {
                break;
            }
        }
    }
}

impl<A: BoxAllocator> BoxAllocator for HardenedAllocator<A> {
    fn grant(&mut self, proc: ProcId, now: Time) -> Grant {
        self.release_expired(now);
        let wanted = self.inner.grant(proc, now);
        if wanted.height == 0 {
            return wanted;
        }
        // Clamp to the budget, then back off exponentially until the grant
        // fits beside the outstanding ones.
        let mut h = wanted.height.min(self.budget);
        while h > 1 && self.used + h > self.budget {
            h /= 2;
        }
        if self.used + h > self.budget {
            // Not even one page fits: stall until the earliest outstanding
            // grant releases its pages (all outstanding ends are > now
            // after release_expired, so the stall makes progress).
            self.degraded += 1;
            let wake = self
                .outstanding
                .peek()
                .map(|&Reverse((t, _))| t)
                .unwrap_or_else(|| now.saturating_add(wanted.duration));
            let duration = wake.saturating_sub(now).max(1);
            return Grant::stall(duration);
        }
        if h != wanted.height {
            self.degraded += 1;
        }
        self.used += h;
        self.outstanding
            .push(Reverse((now.saturating_add(wanted.duration), h)));
        Grant {
            height: h,
            duration: wanted.duration,
        }
    }

    fn on_proc_finished(&mut self, proc: ProcId, now: Time) {
        self.inner.on_proc_finished(proc, now);
    }

    fn observe(&mut self, proc: ProcId, outcome: &WindowOutcome) {
        self.inner.observe(proc, outcome);
    }

    fn observe_accesses(&mut self, proc: ProcId, served: &[PageId]) {
        self.inner.observe_accesses(proc, served);
    }

    fn observe_served(&mut self, proc: ProcId, served: Served<'_>) {
        self.inner.observe_served(proc, served);
    }

    fn on_fault(&mut self, event: &FaultEvent) {
        if let FaultEvent::MemoryPressure { new_limit, .. } = *event {
            // Budgets only tighten, mirroring the engine's enforcement
            // (which takes the running minimum over pressure events): a
            // later event with a larger limit must not let the wrapper
            // allocate above the engine's enforced floor.
            self.budget = self.budget.min(new_limit.max(1));
            // Ask the policy to reshape future grants to the tightened
            // budget (DET-PAR rescales b = k'/p_Q; policies without a
            // degraded path ignore this and rely on the clamp above).
            self.inner.on_budget_shrunk(self.budget);
        }
        self.inner.on_fault(event);
    }

    fn degraded_grants(&self) -> u64 {
        self.degraded + self.inner.degraded_grants()
    }

    fn checkpoint(&self, w: &mut SnapWriter) -> Result<(), CodecError> {
        w.put_usize(self.budget);
        w.put_u64(self.degraded);
        // Canonical order: the heap's internal layout is
        // insertion-dependent, so serialize sorted.
        let mut entries: Vec<(Time, usize)> =
            self.outstanding.iter().map(|&Reverse(e)| e).collect();
        entries.sort_unstable();
        w.put_len(entries.len());
        for (t, h) in entries {
            w.put_u64(t);
            w.put_usize(h);
        }
        self.inner.checkpoint(w)
    }

    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), CodecError> {
        let budget = r.get_usize()?;
        let degraded = r.get_u64()?;
        let n = r.get_len()?;
        let mut outstanding = BinaryHeap::with_capacity(n);
        let mut used = 0usize;
        for _ in 0..n {
            let t = r.get_u64()?;
            let h = r.get_usize()?;
            used = used
                .checked_add(h)
                .ok_or(CodecError::Invalid("hardened outstanding overflow"))?;
            outstanding.push(Reverse((t, h)));
        }
        // Note: `used` may legitimately exceed `budget` — grants issued
        // before a pressure event stay on the ledger after it shrinks.
        self.inner.restore(r)?;
        self.budget = budget;
        self.used = used;
        self.outstanding = outstanding;
        self.degraded = degraded;
        Ok(())
    }

    fn oblivious(&self) -> bool {
        // The wrapper's own state (budget ledger) evolves only through
        // grant/on_fault, so batch-safety is exactly the inner policy's.
        self.inner.oblivious()
    }

    fn phase_log(&self) -> Option<&[PhaseRecord]> {
        self.inner.phase_log()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelParams;
    use crate::parallel::baselines::StaticPartition;
    use crate::parallel::det_par::DetPar;

    /// Grants a fixed tall box forever.
    struct Tall(usize);
    impl BoxAllocator for Tall {
        fn grant(&mut self, _proc: ProcId, _now: Time) -> Grant {
            Grant {
                height: self.0,
                duration: 10,
            }
        }
        fn on_proc_finished(&mut self, _proc: ProcId, _now: Time) {}
        fn name(&self) -> &'static str {
            "tall"
        }
    }

    #[test]
    fn clamps_to_initial_budget() {
        let mut hard = HardenedAllocator::new(Tall(100), 16);
        let g = hard.grant(ProcId(0), 0);
        assert_eq!(g.height, 16);
        assert_eq!(hard.degraded_grants(), 1);
    }

    #[test]
    fn pressure_event_shrinks_budget() {
        let mut hard = HardenedAllocator::new(Tall(100), 64);
        assert_eq!(hard.grant(ProcId(0), 0).height, 64);
        hard.on_fault(&FaultEvent::MemoryPressure {
            at: 5,
            new_limit: 8,
        });
        assert_eq!(hard.budget(), 8);
        // t=10: the first grant has expired; the next is clamped to 8.
        assert_eq!(hard.grant(ProcId(0), 10).height, 8);
    }

    #[test]
    fn backoff_halves_until_fit() {
        let mut hard = HardenedAllocator::new(Tall(16), 20);
        assert_eq!(hard.grant(ProcId(0), 0).height, 16);
        // 4 pages left: 16 → 8 → 4 fits.
        assert_eq!(hard.grant(ProcId(1), 0).height, 4);
        // Budget exhausted by 16+4: not even 1 page → stall until t=10.
        let g = hard.grant(ProcId(2), 1);
        assert_eq!(g.height, 0);
        assert_eq!(g.duration, 9);
    }

    #[test]
    fn concurrent_usage_never_exceeds_budget() {
        let budget = 24;
        let mut hard = HardenedAllocator::new(Tall(16), budget);
        for t in 0..200u64 {
            let _ = hard.grant(ProcId((t % 4) as u32), t);
            assert!(hard.used <= budget, "used {} at t={t}", hard.used);
        }
    }

    #[test]
    fn budget_only_tightens() {
        let mut hard = HardenedAllocator::new(Tall(4), 32);
        hard.on_fault(&FaultEvent::MemoryPressure {
            at: 0,
            new_limit: 8,
        });
        hard.on_fault(&FaultEvent::MemoryPressure {
            at: 1,
            new_limit: 16,
        });
        assert_eq!(hard.budget(), 8);
    }

    #[test]
    fn non_pressure_faults_leave_budget_alone() {
        let mut hard = HardenedAllocator::new(Tall(4), 32);
        hard.on_fault(&FaultEvent::LatencySpike {
            from: 0,
            until: 10,
            factor: 4,
        });
        assert_eq!(hard.budget(), 32);
    }

    #[test]
    fn forwards_name_and_finish() {
        let params = ModelParams::new(2, 8, 10);
        let mut hard = HardenedAllocator::new(StaticPartition::new(&params), params.k);
        assert_eq!(hard.name(), "STATIC-EQUAL");
        hard.on_proc_finished(ProcId(0), 3);
        let g = hard.grant(ProcId(1), 3);
        assert!(g.duration >= 1);
    }

    #[test]
    fn checkpoint_round_trips_ledger_and_inner() {
        let params = ModelParams::new(8, 64, 10);
        let mut hard = HardenedAllocator::new(DetPar::new(&params), params.k);
        hard.grant(ProcId(0), 0);
        hard.grant(ProcId(1), 0);
        hard.on_fault(&FaultEvent::MemoryPressure {
            at: 5,
            new_limit: 32,
        });
        hard.grant(ProcId(2), 6);
        let mut w = parapage_cache::SnapWriter::new();
        hard.checkpoint(&mut w).unwrap();
        let bytes = w.into_bytes();
        let mut restored = HardenedAllocator::new(DetPar::new(&params), params.k);
        restored
            .restore(&mut parapage_cache::SnapReader::new(&bytes))
            .unwrap();
        assert_eq!(restored.budget(), hard.budget());
        assert_eq!(restored.used, hard.used);
        assert_eq!(restored.degraded_grants(), hard.degraded_grants());
        for t in [10u64, 200, 400] {
            for x in 3..8 {
                assert_eq!(restored.grant(ProcId(x), t), hard.grant(ProcId(x), t));
            }
        }
    }

    #[test]
    fn det_par_under_pressure_rescales_and_fits() {
        let params = ModelParams::new(8, 64, 10);
        let mut hard = HardenedAllocator::new(DetPar::new(&params), params.k);
        hard.on_fault(&FaultEvent::MemoryPressure {
            at: 0,
            new_limit: 16,
        });
        // The inner DET-PAR rescaled b = k'/p_Q; the wrapper clamps any
        // leftover tall boxes. Either way no grant exceeds 16.
        for x in 0..8 {
            let g = hard.grant(ProcId(x), 0);
            assert!(g.height <= 16, "height {} exceeds budget", g.height);
        }
    }
}
