//! DET-PAR (paper §3.3, Lemma 6): the deterministic *well-rounded* parallel
//! pager achieving the optimal `O(log p)` competitive ratio for makespan —
//! and simultaneously for mean completion time (Corollary 3).
//!
//! Execution proceeds in **phases**; a phase ends when the number of active
//! processors halves. Within a phase with base height `b = k/p_Q`:
//!
//! * every active processor always holds a box of height at least `b`
//!   (property 1 of well-roundedness);
//! * for each **tall** height `z > k/log p`, a single box of height `z`
//!   cycles round-robin through the processors;
//! * for each **short** height `b ≤ z ≤ k/log p`, a `z`-*strip* of
//!   `k/log p` memory runs `k/(z·log p)` concurrent height-`z` boxes,
//!   assigned round-robin, so every processor receives a height-`z` box
//!   every `s·z²·log p / b` steps (property 2).
//!
//! The policy is *oblivious*: it reads only the active-processor set.
//!
//! ### Scheduling grid
//!
//! Every class-`z` box lasts `s·z`, and all heights are `b·2^c`, so every
//! box boundary falls on a multiple of `d_b = s·b` in phase-local time. The
//! allocator therefore emits grants of length (at most) `d_b`, each carrying
//! the **maximum** height over the classes currently serving that processor;
//! consecutive equal-or-growing heights let the engine keep cache contents,
//! so a tall box experienced as `2^c` consecutive grants behaves exactly
//! like one box.

use parapage_cache::{CodecError, ProcId, SnapReader, SnapWriter, Time};

use crate::config::{log2_ceil, log2_floor, ModelParams};
use crate::parallel::{BoxAllocator, Grant};

/// One phase of DET-PAR, for analysis and the well-roundedness checker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PhaseRecord {
    /// Phase start time.
    pub start: Time,
    /// Base height `b = k/p_Q` for the phase.
    pub base_height: usize,
    /// Number of processors in the phase roster (active at phase start).
    pub roster_len: usize,
}

#[derive(Clone, Copy, Debug)]
struct ClassSched {
    /// Box height of this class.
    z: usize,
    /// Concurrent boxes of this class (`k/(z·log p)` for strips, 1 for
    /// tall heights).
    slots: usize,
    /// Box duration `s·z`.
    period: Time,
}

/// The paper's deterministic well-rounded parallel pager.
///
/// ```
/// use parapage_core::{BoxAllocator, DetPar, ModelParams};
/// use parapage_cache::ProcId;
///
/// let params = ModelParams::new(8, 64, 10);
/// let mut det = DetPar::new(&params);
/// let grant = det.grant(ProcId(0), 0);
/// // First phase: base height k/(p/2) = 16; every grant is at least that.
/// assert!(grant.height >= 16);
/// assert_eq!(det.phases()[0].base_height, 16);
/// ```
pub struct DetPar {
    params: ModelParams,
    /// The global `log p` used for strip sizing.
    log_p: usize,
    active: Vec<bool>,
    active_count: usize,
    /// Roster index of each processor in the current phase
    /// (`usize::MAX` when not in the roster).
    roster_index: Vec<usize>,
    roster_len: usize,
    base_height: usize,
    base_period: Time,
    classes: Vec<ClassSched>,
    phase_start: Time,
    pending_new_phase: bool,
    phases: Vec<PhaseRecord>,
}

impl DetPar {
    /// Creates DET-PAR for the given (normalized) model parameters.
    pub fn new(params: &ModelParams) -> Self {
        let params = params.normalized_k();
        DetPar {
            params,
            log_p: log2_ceil(params.p).max(1) as usize,
            active: vec![true; params.p],
            active_count: params.p,
            roster_index: vec![usize::MAX; params.p],
            roster_len: 0,
            base_height: 1,
            base_period: 1,
            classes: Vec::new(),
            phase_start: 0,
            pending_new_phase: true,
            phases: Vec::new(),
        }
    }

    /// The phases executed so far (the current one last).
    pub fn phases(&self) -> &[PhaseRecord] {
        &self.phases
    }

    /// Upper bound on concurrent memory, as a multiple of `k` (the resource
    /// augmentation `ξ`): base boxes `≤ 2k`, strips `≤ k`, tall boxes
    /// `≤ 2k`. The engine audit (experiments E4/E5) observes ≤ 3.4k in
    /// practice; `O(1)`, as Lemma 6 requires.
    pub const MEMORY_FACTOR: usize = 5;

    fn start_phase(&mut self, now: Time) {
        let k = self.params.k;
        let s = self.params.s;
        let mut rank = 0usize;
        for x in 0..self.params.p {
            self.roster_index[x] = if self.active[x] {
                let r = rank;
                rank += 1;
                r
            } else {
                usize::MAX
            };
        }
        self.roster_len = rank.max(1);
        let r_pow = self.roster_len.next_power_of_two();
        // p_Q = active count at phase END = half the (rounded) start count.
        let p_q = (r_pow / 2).max(1);
        self.base_height = (k / p_q).max(1).min(k);
        self.base_period = s * self.base_height as u64;
        self.phase_start = now;
        // Height classes above the base.
        self.classes.clear();
        let tall_threshold = (k / self.log_p).max(1);
        let mut z = self.base_height * 2;
        while z <= k {
            let slots = if z > tall_threshold {
                1
            } else {
                (k / (z * self.log_p)).max(1)
            };
            self.classes.push(ClassSched {
                z,
                slots,
                period: s * z as u64,
            });
            z *= 2;
        }
        self.phases.push(PhaseRecord {
            start: now,
            base_height: self.base_height,
            roster_len: self.roster_len,
        });
    }

    /// Whether roster position `ix` is served by a class at generation `g`.
    fn served(ix: usize, g: u64, slots: usize, roster: usize) -> bool {
        if slots >= roster {
            return true;
        }
        let start = ((g % roster as u64) as usize * (slots % roster)) % roster;
        let pos = (ix + roster - start) % roster;
        pos < slots
    }

    /// Height of processor with roster index `ix` at phase-local time `tau`.
    fn height_at(&self, ix: usize, tau: Time) -> usize {
        let mut h = self.base_height;
        for c in &self.classes {
            let g = tau / c.period;
            if Self::served(ix, g, c.slots, self.roster_len) && c.z > h {
                h = c.z;
            }
        }
        h
    }
}

impl BoxAllocator for DetPar {
    fn grant(&mut self, proc: ProcId, now: Time) -> Grant {
        if self.pending_new_phase {
            self.start_phase(now);
            self.pending_new_phase = false;
        }
        let ix = self.roster_index[proc.idx()];
        debug_assert!(ix != usize::MAX, "grant for a processor not in roster");
        let tau = now - self.phase_start;
        let height = self.height_at(ix, tau);
        let duration = self.base_period - (tau % self.base_period);
        Grant { height, duration }
    }

    fn on_proc_finished(&mut self, proc: ProcId, _now: Time) {
        if self.active[proc.idx()] {
            self.active[proc.idx()] = false;
            self.active_count -= 1;
        }
        // The phase ends once the roster has halved.
        if self.active_count <= self.roster_len / 2 {
            self.pending_new_phase = true;
        }
    }

    /// Degraded mode, entered only when a supervising wrapper (e.g.
    /// `HardenedAllocator`) asks for it: on `k → k'`, shrink the working
    /// `k` to the largest power of two ≤ `k'` and cut the current phase
    /// short, so the next grant opens a phase with rescaled base height
    /// `b = k'/p_Q` and rebuilt height classes. Budgets never grow back:
    /// pressure only tightens. A bare (unwrapped) DET-PAR stays oblivious
    /// and keeps allocating against the original `k`.
    fn on_budget_shrunk(&mut self, new_k: usize) {
        let k_new = 1usize << log2_floor(new_k.max(1));
        if k_new < self.params.k {
            self.params.k = k_new;
            self.pending_new_phase = true;
        }
    }

    fn checkpoint(&self, w: &mut SnapWriter) -> Result<(), CodecError> {
        // params.k is dynamic (shrinks under on_budget_shrunk); p, s and
        // log_p are construction-time constants.
        w.put_usize(self.params.k);
        w.put_len(self.active.len());
        for &a in &self.active {
            w.put_bool(a);
        }
        for &ix in &self.roster_index {
            w.put_u64(if ix == usize::MAX {
                u64::MAX
            } else {
                ix as u64
            });
        }
        w.put_usize(self.roster_len);
        w.put_usize(self.base_height);
        w.put_u64(self.base_period);
        w.put_len(self.classes.len());
        for c in &self.classes {
            w.put_usize(c.z);
            w.put_usize(c.slots);
            w.put_u64(c.period);
        }
        w.put_u64(self.phase_start);
        w.put_bool(self.pending_new_phase);
        w.put_len(self.phases.len());
        for ph in &self.phases {
            w.put_u64(ph.start);
            w.put_usize(ph.base_height);
            w.put_usize(ph.roster_len);
        }
        Ok(())
    }

    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), CodecError> {
        let k = r.get_usize()?;
        let p = r.get_len()?;
        if p != self.params.p {
            return Err(CodecError::Invalid("DET-PAR processor count mismatch"));
        }
        let mut active = Vec::with_capacity(p);
        for _ in 0..p {
            active.push(r.get_bool()?);
        }
        let mut roster_index = Vec::with_capacity(p);
        for _ in 0..p {
            let raw = r.get_u64()?;
            roster_index.push(if raw == u64::MAX {
                usize::MAX
            } else {
                usize::try_from(raw)
                    .map_err(|_| CodecError::Invalid("DET-PAR roster index overflow"))?
            });
        }
        let roster_len = r.get_usize()?;
        let base_height = r.get_usize()?;
        let base_period = r.get_u64()?;
        let n_classes = r.get_len()?;
        let mut classes = Vec::with_capacity(n_classes);
        for _ in 0..n_classes {
            let z = r.get_usize()?;
            let slots = r.get_usize()?;
            let period = r.get_u64()?;
            classes.push(ClassSched { z, slots, period });
        }
        let phase_start = r.get_u64()?;
        let pending_new_phase = r.get_bool()?;
        let n_phases = r.get_len()?;
        let mut phases = Vec::with_capacity(n_phases);
        for _ in 0..n_phases {
            let start = r.get_u64()?;
            let bh = r.get_usize()?;
            let rl = r.get_usize()?;
            phases.push(PhaseRecord {
                start,
                base_height: bh,
                roster_len: rl,
            });
        }
        if base_period == 0 && !pending_new_phase {
            return Err(CodecError::Invalid("DET-PAR zero base period"));
        }
        self.params.k = k;
        self.active_count = active.iter().filter(|&&a| a).count();
        self.active = active;
        self.roster_index = roster_index;
        self.roster_len = roster_len;
        self.base_height = base_height;
        self.base_period = base_period;
        self.classes = classes;
        self.phase_start = phase_start;
        self.pending_new_phase = pending_new_phase;
        self.phases = phases;
        Ok(())
    }

    fn oblivious(&self) -> bool {
        // The paper's Algorithm 1 is oblivious by construction: decisions
        // depend only on the grant/finish history, never on hit/miss
        // feedback (observe/observe_accesses keep their no-op defaults).
        true
    }

    fn phase_log(&self) -> Option<&[PhaseRecord]> {
        Some(&self.phases)
    }

    fn name(&self) -> &'static str {
        "DET-PAR"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> ModelParams {
        ModelParams::new(8, 64, 10)
    }

    /// The class rotation is fair: any `roster` consecutive periods serve
    /// every roster index exactly `slots` times, wherever they start.
    #[test]
    fn rotation_serves_every_roster_index_equally() {
        for roster in 2..=40usize {
            for slots in 1..roster {
                for g0 in [0u64, 1, 7, roster as u64 - 1, 1_000_003] {
                    let mut served = vec![0usize; roster];
                    for g in g0..g0 + roster as u64 {
                        for (ix, n) in served.iter_mut().enumerate() {
                            *n += usize::from(DetPar::served(ix, g, slots, roster));
                        }
                    }
                    assert!(
                        served.iter().all(|&n| n == slots),
                        "roster {roster} slots {slots} from g={g0}: {served:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn first_phase_base_height_is_2k_over_p() {
        let p = params();
        let mut dp = DetPar::new(&p);
        let g = dp.grant(ProcId(0), 0);
        // r0 = 8, p_Q = 4, b = 64/4 = 16.
        assert_eq!(dp.phases()[0].base_height, 16);
        assert!(g.height >= 16);
        assert!(g.duration >= 1 && g.duration <= 10 * 16);
    }

    #[test]
    fn heights_are_power_of_two_multiples_of_base() {
        let p = params();
        let mut dp = DetPar::new(&p);
        dp.grant(ProcId(0), 0);
        let b = dp.base_height;
        for ix in 0..8 {
            for g in 0..200u64 {
                let h = dp.height_at(ix, g * dp.base_period);
                assert!(h >= b && h <= p.k);
                assert!((h / b).is_power_of_two() && h % b == 0);
            }
        }
    }

    #[test]
    fn every_processor_gets_every_height_periodically() {
        // Property 2 of well-roundedness: for each height z, each roster
        // index sees a box of height >= z within the class period bound.
        let p = params();
        let mut dp = DetPar::new(&p);
        dp.grant(ProcId(0), 0);
        let roster = dp.roster_len;
        let b = dp.base_height;
        let s = p.s;
        let log_p = dp.log_p as u64;
        for c in dp.classes.clone() {
            let z = c.z as u64;
            // Bound from Lemma 6 (slack 2 covers tall classes).
            let bound = 2 * s * z * z * log_p / b as u64 + c.period;
            for ix in 0..roster {
                let mut last_served_end: Option<u64> = None;
                let mut max_gap = 0u64;
                let mut prev_end = 0u64;
                let horizon = bound * 4;
                let mut t = 0u64;
                while t < horizon {
                    let g = t / c.period;
                    if DetPar::served(ix, g, c.slots, roster) {
                        let start = g * c.period;
                        max_gap = max_gap.max(start.saturating_sub(prev_end));
                        prev_end = (g + 1) * c.period;
                        last_served_end = Some(prev_end);
                    }
                    t += c.period;
                }
                assert!(
                    last_served_end.is_some(),
                    "roster {ix} never served by class z={z}"
                );
                assert!(
                    max_gap <= bound,
                    "class z={z} roster {ix}: gap {max_gap} > bound {bound}"
                );
            }
        }
    }

    #[test]
    fn concurrent_memory_stays_within_factor() {
        let p = params();
        let mut dp = DetPar::new(&p);
        dp.grant(ProcId(0), 0);
        let roster = dp.roster_len;
        for step in 0..500u64 {
            let tau = step * dp.base_period;
            let total: usize = (0..roster).map(|ix| dp.height_at(ix, tau)).sum();
            assert!(
                total <= DetPar::MEMORY_FACTOR * p.k,
                "step {step}: {total} > {}k",
                DetPar::MEMORY_FACTOR
            );
        }
    }

    #[test]
    fn phase_transition_halves_roster_and_doubles_base() {
        let p = params();
        let mut dp = DetPar::new(&p);
        dp.grant(ProcId(0), 0);
        assert_eq!(dp.phases().len(), 1);
        // Finish half the processors.
        for x in 0..4 {
            dp.on_proc_finished(ProcId(x), 100);
        }
        // Next grant starts the new phase.
        let g = dp.grant(ProcId(5), 160);
        assert_eq!(dp.phases().len(), 2);
        let ph = dp.phases()[1];
        assert_eq!(ph.roster_len, 4);
        assert_eq!(ph.base_height, 32); // k/(4/2) = 64/2
        assert!(g.height >= 32);
    }

    #[test]
    fn single_processor_gets_whole_cache() {
        let p = ModelParams::new(1, 16, 10);
        let mut dp = DetPar::new(&p);
        let g = dp.grant(ProcId(0), 0);
        assert_eq!(g.height, 16);
    }

    #[test]
    fn grants_align_to_base_grid() {
        let p = params();
        let mut dp = DetPar::new(&p);
        let g0 = dp.grant(ProcId(0), 0);
        assert_eq!(g0.duration, dp.base_period);
        // Asking mid-period returns the remainder.
        let g1 = dp.grant(ProcId(1), 13);
        assert_eq!(g1.duration, dp.base_period - 13);
    }

    #[test]
    fn memory_pressure_rescales_base_height() {
        let p = params();
        let mut dp = DetPar::new(&p);
        dp.grant(ProcId(0), 0);
        assert_eq!(dp.phases()[0].base_height, 16);
        // k: 64 → 16. Next grant opens a rescaled phase: all 8 processors
        // still active, p_Q = 4, b = 16/4 = 4.
        dp.on_budget_shrunk(16);
        let g = dp.grant(ProcId(1), 160);
        assert_eq!(dp.phases().len(), 2);
        assert_eq!(dp.phases()[1].base_height, 4);
        assert!(g.height <= 16);
    }

    #[test]
    fn pressure_never_grows_the_budget() {
        let p = params();
        let mut dp = DetPar::new(&p);
        dp.grant(ProcId(0), 0);
        dp.on_budget_shrunk(16);
        dp.on_budget_shrunk(4096);
        assert_eq!(dp.params.k, 16);
    }

    #[test]
    fn checkpoint_round_trips_mid_phase() {
        let p = params();
        let mut dp = DetPar::new(&p);
        dp.grant(ProcId(0), 0);
        for x in 0..3 {
            dp.on_proc_finished(ProcId(x), 50 + x as u64);
        }
        let mut w = SnapWriter::new();
        dp.checkpoint(&mut w).unwrap();
        let bytes = w.into_bytes();
        let mut restored = DetPar::new(&p);
        restored.restore(&mut SnapReader::new(&bytes)).unwrap();
        assert_eq!(restored.phases(), dp.phases());
        assert_eq!(restored.active_count, dp.active_count);
        // Identical future behaviour, across the next phase boundary.
        restored.on_proc_finished(ProcId(3), 90);
        dp.on_proc_finished(ProcId(3), 90);
        for t in [100u64, 160, 320, 480] {
            for x in 4..8 {
                assert_eq!(restored.grant(ProcId(x), t), dp.grant(ProcId(x), t));
            }
        }
        assert_eq!(restored.phases(), dp.phases());
    }

    #[test]
    fn checkpoint_rejects_wrong_processor_count() {
        let mut dp = DetPar::new(&params());
        dp.grant(ProcId(0), 0);
        let mut w = SnapWriter::new();
        dp.checkpoint(&mut w).unwrap();
        let bytes = w.into_bytes();
        let mut other = DetPar::new(&ModelParams::new(4, 64, 10));
        assert!(matches!(
            other.restore(&mut SnapReader::new(&bytes)),
            Err(CodecError::Invalid(_))
        ));
    }

    #[test]
    fn oblivious_policy_ignores_observe() {
        // DET-PAR inherits the default no-op observe; compile-time check
        // that calling it does not disturb state.
        let p = params();
        let mut dp = DetPar::new(&p);
        let before = dp.grant(ProcId(0), 0);
        dp.observe(
            ProcId(0),
            &parapage_cache::WindowOutcome {
                end_index: 1,
                stats: Default::default(),
                time_used: 1,
                finished: false,
            },
        );
        let after = dp.grant(ProcId(0), before.duration);
        assert!(after.duration >= 1);
    }
}
