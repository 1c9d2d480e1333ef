//! Parallel paging algorithms (paper §3.2–§3.3) and baselines.
//!
//! A parallel pager is a [`BoxAllocator`]: a policy that, whenever a
//! processor has no active allocation, grants it a box (or a stall
//! interval). The execution engine in `parapage-sched` drives allocators
//! against concrete request sequences and measures makespan, mean completion
//! time, and memory usage.
//!
//! Implemented policies:
//!
//! * [`rand_par::RandPar`] — the paper's randomized `O(log p)`-competitive
//!   algorithm (Theorem 2): phases → chunks, primary part of `k/r` boxes for
//!   everyone, secondary part of one RAND-GREEN-sampled box per processor,
//!   packed `k/j` at a time.
//! * [`det_par::DetPar`] — the paper's deterministic *well-rounded*
//!   algorithm (Theorem 3): per-phase base boxes for everyone, one cycling
//!   box per tall height, and a `k/log p`-wide round-robin strip per short
//!   height.
//! * [`baselines::StaticPartition`] — `k/p` to everyone, forever.
//! * [`baselines::PropMissPartition`] — adaptive epoch-based partition
//!   proportional to recent miss counts (a practical, non-oblivious
//!   comparator).
//! * [`ucp::UcpPartition`] — utility-based cache partitioning
//!   (Qureshi & Patt, MICRO 2006): epoch-based greedy allocation by
//!   marginal miss-curve utility from shadow Mattson monitors — the
//!   strongest practical adaptive baseline here.
//! * [`blackbox::BlackboxGreenPacker`] — the §4 construction: each processor
//!   runs a green pager as a black box and the packer fits the requested
//!   boxes into memory, handing out minimum boxes while a request waits.
//!   This is the `O(log² p)`-style comparator that Theorem 4 shows cannot be
//!   optimal.

pub mod baselines;
pub mod blackbox;
pub mod det_par;
pub mod hardened;
pub mod rand_par;
pub mod ucp;

use parapage_cache::{CodecError, ProcId, Served, SnapReader, SnapWriter, Time, WindowOutcome};

/// An environmental fault injected into a run, delivered to the policy by
/// the engine when simulated time reaches the event.
///
/// Faults model the failure modes a production pager must survive: a
/// processor freezing, fetch latency spiking, and the global memory budget
/// shrinking under pressure. The engine applies each fault's *mechanical*
/// effect itself (freezing grant issuance, scaling the miss penalty,
/// tightening the enforced memory limit); this notification exists so that
/// policies can *adapt* — see [`hardened::HardenedAllocator`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultEvent {
    /// Processor `proc` is frozen during `[from, until)`: the engine issues
    /// it no grants in that window (in-flight grants run to completion).
    ProcStall {
        /// The frozen processor.
        proc: ProcId,
        /// Window start (inclusive).
        from: Time,
        /// Window end (exclusive).
        until: Time,
    },
    /// The miss penalty is multiplied by `factor` for grants starting in
    /// `[from, until)` (a fetch-latency spike: contended bus, slow tier).
    LatencySpike {
        /// Window start (inclusive).
        from: Time,
        /// Window end (exclusive).
        until: Time,
        /// Multiplier applied to the model's `s` (≥ 1).
        factor: u64,
    },
    /// From time `at` on, the global memory budget shrinks to `new_limit`
    /// pages (`k → k'`); the engine enforces the tightened limit on every
    /// subsequent grant.
    MemoryPressure {
        /// Time the pressure hits.
        at: Time,
        /// The shrunken budget `k'`, in pages.
        new_limit: usize,
    },
}

impl FaultEvent {
    /// The simulated time at which the fault takes effect.
    pub fn at(&self) -> Time {
        match *self {
            FaultEvent::ProcStall { from, .. } => from,
            FaultEvent::LatencySpike { from, .. } => from,
            FaultEvent::MemoryPressure { at, .. } => at,
        }
    }
}

/// One allocation decision: `height` cache pages for `duration` time steps.
///
/// `height == 0` is a *stall*: the processor makes no progress for the
/// duration (the paper explicitly allows stalling).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Grant {
    /// Cache pages available to the processor for this interval.
    pub height: usize,
    /// Length of the interval; must be ≥ 1.
    pub duration: Time,
}

impl Grant {
    /// A stall interval of the given length.
    pub fn stall(duration: Time) -> Self {
        Grant {
            height: 0,
            duration,
        }
    }
}

/// A parallel paging policy, driven by the execution engine.
///
/// Contract with the engine:
/// * [`BoxAllocator::grant`] is called exactly when the processor has no
///   active allocation, with `now` equal to the expiry of its previous grant
///   (or 0 initially); calls arrive in global time order.
/// * [`BoxAllocator::observe`] is called after each grant elapses, before
///   the next `grant` call for that processor. **Oblivious** policies (all
///   of the paper's) must keep the default no-op implementation — this is
///   what "oblivious" means operationally.
/// * [`BoxAllocator::on_proc_finished`] is called once when a processor
///   serves its last request; the engine never asks for grants for it again.
pub trait BoxAllocator {
    /// Next allocation for processor `proc` starting at time `now`.
    fn grant(&mut self, proc: ProcId, now: Time) -> Grant;

    /// `true` when this policy's decisions are a pure function of its own
    /// grant/finish history — it never reads the feedback channels
    /// ([`BoxAllocator::observe`] / [`BoxAllocator::observe_accesses`] keep
    /// their no-op defaults). All of the paper's algorithms are oblivious;
    /// the monitors (PROP-MISS, SRPT, UCP, bb-green) are not.
    ///
    /// The engine uses this as a *batching license*: for an oblivious
    /// policy, several processors whose grants expire at the same timestamp
    /// can be decided with one [`BoxAllocator::grant_batch`] call before
    /// any of their windows run, because no feedback from window `x` can
    /// influence the decision for window `y`. Declaring `true` while
    /// implementing `observe*` is a contract violation — the conform
    /// differential sweep will catch the divergence.
    fn oblivious(&self) -> bool {
        false
    }

    /// Decide grants for a batch of processors whose previous grants all
    /// expired at the same `now`, in the engine's canonical (ascending
    /// processor-id) order. `procs` holds the ids; the result must be the
    /// grants in the same order.
    ///
    /// The default simply loops over [`BoxAllocator::grant`], which is
    /// always correct; policies with per-call overhead worth amortizing can
    /// override it. Only called when [`BoxAllocator::oblivious`] is `true`.
    fn grant_batch(&mut self, procs: &[ProcId], now: Time, out: &mut Vec<Grant>) {
        out.extend(procs.iter().map(|&p| self.grant(p, now)));
    }

    /// Notification that `proc` completed its sequence at time `now`.
    fn on_proc_finished(&mut self, proc: ProcId, now: Time);

    /// Feedback about the interval that just elapsed (default: ignored).
    fn observe(&mut self, _proc: ProcId, _outcome: &WindowOutcome) {}

    /// The page stream served during the interval that just elapsed
    /// (default: ignored). Non-oblivious policies that need reuse
    /// information — e.g. [`ucp::UcpPartition`]'s shadow Mattson monitors —
    /// read it here; the paper's oblivious algorithms never implement this.
    fn observe_accesses(&mut self, _proc: ProcId, _served: &[parapage_cache::PageId]) {}

    /// What the engine calls with the pages a window served: by default
    /// [`BoxAllocator::observe_accesses`] of them as a slice. A policy that
    /// keeps the stream appends it into its own buffer here, so pages read
    /// from a run are copied once, not expanded and then copied.
    fn observe_served(&mut self, proc: ProcId, served: Served<'_>) {
        self.observe_accesses(proc, served.pages());
    }

    /// Notification that a fault was injected at the event's timestamp
    /// (default: ignored). The engine delivers every injected
    /// [`FaultEvent`] here before making any decision at that time;
    /// [`hardened::HardenedAllocator`] reacts by tightening the budget it
    /// clamps grants to. A bare paper policy deliberately keeps the default
    /// — obliviousness means it cannot see the environment change, which is
    /// exactly what the hardened wrapper compensates for.
    fn on_fault(&mut self, _event: &FaultEvent) {}

    /// Degraded-mode request: the global budget shrank to `new_k` pages and
    /// the policy should reshape future grants accordingly (default:
    /// ignored). Unlike [`BoxAllocator::on_fault`], this is *not* called by
    /// the engine — only by a supervising wrapper such as
    /// [`hardened::HardenedAllocator`], which invokes it on
    /// [`FaultEvent::MemoryPressure`] so that, e.g.,
    /// [`det_par::DetPar`] rescales its base height to `b = k'/p_Q` while
    /// the wrapper clamps whatever the policy still gets wrong.
    fn on_budget_shrunk(&mut self, _new_k: usize) {}

    /// Number of grants this policy degraded (clamped, backed off, or
    /// converted to stalls) to stay within a shrunken budget. Policies
    /// without a degraded mode report 0; the engine copies this into
    /// `RunResult::degraded_grants`.
    fn degraded_grants(&self) -> u64 {
        0
    }

    /// The phase log of a phase-structured policy, for the conformance
    /// oracle's structure checkers (default: `None`). [`det_par::DetPar`]
    /// reports its phases; wrappers forward their inner policy's.
    fn phase_log(&self) -> Option<&[det_par::PhaseRecord]> {
        None
    }

    /// Serializes the policy's full dynamic state into `w` so a run can be
    /// snapshotted and resumed byte-identically (see
    /// `parapage-sched`'s `EngineSnapshot`). Canonical encoding: equal
    /// states must write equal bytes. The default refuses with
    /// [`CodecError::Unsupported`]; every shipped policy overrides it.
    fn checkpoint(&self, _w: &mut SnapWriter) -> Result<(), CodecError> {
        Err(CodecError::Unsupported(self.name()))
    }

    /// Replaces the policy's dynamic state with one previously written by
    /// [`BoxAllocator::checkpoint`]. The receiver must have been
    /// constructed with the same parameters (and, for randomized policies,
    /// any seed — the saved RNG state replaces it). After a successful
    /// restore the policy must behave byte-identically to the saved one.
    fn restore(&mut self, _r: &mut SnapReader<'_>) -> Result<(), CodecError> {
        Err(CodecError::Unsupported(self.name()))
    }

    /// Short policy name for reports.
    fn name(&self) -> &'static str;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stall_grant_has_zero_height() {
        let g = Grant::stall(10);
        assert_eq!(g.height, 0);
        assert_eq!(g.duration, 10);
    }
}
