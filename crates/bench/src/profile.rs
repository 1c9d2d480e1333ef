//! Coarse per-phase wall-clock attribution behind `parapage bench
//! --profile`.
//!
//! The suite's `ops/*` entries say *how fast* the hot paths are; this
//! module says *where the time goes*. One representative det-par run is
//! executed with timing shims wrapped around the two extension points the
//! engine already exposes — the [`BoxAllocator`] (policy decisions) and
//! the per-processor [`Cache`] (LRU work) — and one pool-driven grid is
//! timed as a whole, yielding four coarse buckets:
//!
//! * **alloc** — run setup: workload generation plus engine construction
//!   (event heap, per-processor caches);
//! * **policy** — time inside `BoxAllocator` calls (`grant`,
//!   `grant_batch`, completion/fault notifications);
//! * **cache** — time inside `Cache` calls (`access`, `access_if_fits`,
//!   `resize`, `clear`) across all processors;
//! * **pool** — wall time of a policy × seed grid on the worker pool (the
//!   sweep shape; includes its own policy/cache time — it is a separate
//!   measurement, not a disjoint slice of the engine run);
//! * **other** — the engine run's remainder (event heap, window
//!   bookkeeping, usage accounting) = run wall time − policy − cache.
//!
//! The shims cost one `Instant::now` pair per call, which inflates the
//! phases they wrap by a few percent — acceptable for a coarse profile,
//! which is why the numbers are reported separately from the suite's
//! untimed entries and never gated.
//!
//! Determinism: the shims delegate faithfully (`oblivious`,
//! `grant_batch`, checkpointing), so the profiled run takes exactly the
//! production code paths — including batched grant dispatch — and its
//! result digest matches an unshimmed run.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

use parapage::cache::{CodecError, Served, SnapReader, SnapWriter, WindowOutcome};
use parapage::prelude::*;
use parapage::workloads::family::conformance_mix;

use crate::suite::Digest;

/// Nanoseconds accumulated by one family of shims (shared by clones, so
/// every per-processor cache adds into the same bucket).
type SharedNanos = Rc<Cell<u64>>;

/// Times one closure and adds the elapsed nanoseconds to `bucket`.
fn timed<T>(bucket: &SharedNanos, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    bucket.set(bucket.get() + t0.elapsed().as_nanos() as u64);
    out
}

/// A [`BoxAllocator`] shim that forwards every call to the wrapped policy
/// and charges the wall time of the decision entry points (`grant`,
/// `grant_batch`, `on_proc_finished`, `on_fault`) to a shared bucket.
struct TimingAlloc<A> {
    inner: A,
    nanos: SharedNanos,
}

impl<A: BoxAllocator> BoxAllocator for TimingAlloc<A> {
    fn grant(&mut self, proc: ProcId, now: Time) -> Grant {
        let nanos = self.nanos.clone();
        timed(&nanos, || self.inner.grant(proc, now))
    }

    fn oblivious(&self) -> bool {
        self.inner.oblivious()
    }

    fn grant_batch(&mut self, procs: &[ProcId], now: Time, out: &mut Vec<Grant>) {
        let nanos = self.nanos.clone();
        timed(&nanos, || self.inner.grant_batch(procs, now, out));
    }

    fn on_proc_finished(&mut self, proc: ProcId, now: Time) {
        let nanos = self.nanos.clone();
        timed(&nanos, || self.inner.on_proc_finished(proc, now));
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
        let nanos = self.nanos.clone();
        timed(&nanos, || self.inner.on_fault(event));
    }

    fn on_budget_shrunk(&mut self, new_k: usize) {
        self.inner.on_budget_shrunk(new_k);
    }

    fn degraded_grants(&self) -> u64 {
        self.inner.degraded_grants()
    }

    fn checkpoint(&self, w: &mut SnapWriter) -> Result<(), CodecError> {
        self.inner.checkpoint(w)
    }

    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), CodecError> {
        self.inner.restore(r)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// A [`Cache`] shim charging every cache operation to a shared bucket.
/// Cheap read-only queries (`contains`, `len`, `capacity`) are forwarded
/// untimed: the `Instant` pair would cost more than the query and the
/// window loop's per-request lookups already flow through
/// [`Cache::access_if_fits`].
struct TimingCache<C> {
    inner: C,
    nanos: SharedNanos,
}

impl<C: Cache> Cache for TimingCache<C> {
    fn access(&mut self, page: PageId) -> Access {
        let nanos = self.nanos.clone();
        timed(&nanos, || self.inner.access(page))
    }

    fn access_if_fits(
        &mut self,
        page: PageId,
        remaining: Time,
        miss_penalty: u64,
    ) -> Option<Access> {
        let nanos = self.nanos.clone();
        timed(&nanos, || {
            self.inner.access_if_fits(page, remaining, miss_penalty)
        })
    }

    fn contains(&self, page: PageId) -> bool {
        self.inner.contains(page)
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    fn resize(&mut self, capacity: usize) {
        let nanos = self.nanos.clone();
        timed(&nanos, || self.inner.resize(capacity));
    }

    fn clear(&mut self) {
        let nanos = self.nanos.clone();
        timed(&nanos, || self.inner.clear());
    }
}

/// The coarse phase breakdown of one profiled bench run.
#[derive(Clone, Copy, Debug)]
pub struct PhaseProfile {
    /// Run setup: workload generation + engine construction.
    pub alloc_secs: f64,
    /// Time inside `BoxAllocator` decision calls.
    pub policy_secs: f64,
    /// Time inside `Cache` operations, summed over processors.
    pub cache_secs: f64,
    /// Wall time of the pool-driven policy × seed grid.
    pub pool_secs: f64,
    /// Engine-run remainder (heap, windows, usage accounting).
    pub other_secs: f64,
    /// Total wall time of the profiled engine run (= policy + cache +
    /// other).
    pub engine_secs: f64,
    /// Events the profiled engine run processed.
    pub engine_events: u64,
    /// Result digest of the profiled run — must match an unshimmed run of
    /// the same recipe (the shims may cost time, never behavior).
    pub digest: u64,
}

impl PhaseProfile {
    /// Serializes the profile as a small JSON document (the `--profile`
    /// side output).
    pub fn to_json(&self, quick: bool, seed: u64) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"profile\": \"bench-phases\",\n");
        s.push_str(&format!("  \"quick\": {quick},\n"));
        s.push_str(&format!("  \"seed\": {seed},\n"));
        s.push_str(&format!("  \"engine_events\": {},\n", self.engine_events));
        s.push_str(&format!("  \"engine_secs\": {:.6},\n", self.engine_secs));
        s.push_str("  \"phases\": {\n");
        s.push_str(&format!("    \"alloc\": {:.6},\n", self.alloc_secs));
        s.push_str(&format!("    \"policy\": {:.6},\n", self.policy_secs));
        s.push_str(&format!("    \"cache\": {:.6},\n", self.cache_secs));
        s.push_str(&format!("    \"pool\": {:.6},\n", self.pool_secs));
        s.push_str(&format!("    \"other\": {:.6}\n", self.other_secs));
        s.push_str("  },\n");
        s.push_str(&format!("  \"digest\": \"{:016x}\"\n", self.digest));
        s.push_str("}\n");
        s
    }
}

/// Runs the profiled recipe: one shimmed det-par engine run (same shape
/// as the suite's `ops/engine-step` entry) plus one pool-driven policy
/// grid, and attributes the wall time to the coarse phases.
pub fn profile_run(quick: bool, seed: u64) -> PhaseProfile {
    let policy_nanos: SharedNanos = Rc::new(Cell::new(0));
    let cache_nanos: SharedNanos = Rc::new(Cell::new(0));

    // Phase: alloc — workload + engine construction.
    let t0 = Instant::now();
    let params = ModelParams::new(8, 128, 16);
    let len = if quick { 4000 } else { 20000 };
    let w = build_workload(&conformance_mix(8, 128, len), seed);
    let opts = EngineOpts::default();
    let plan = FaultPlan::none();
    let mut alloc = TimingAlloc {
        inner: DetPar::new(&params),
        nanos: policy_nanos.clone(),
    };
    let mut engine = Engine::new(&mut alloc, w.seqs(), &params, &opts, &plan, |_| {
        TimingCache {
            inner: LruCache::new(0),
            nanos: cache_nanos.clone(),
        }
    });
    let alloc_secs = t0.elapsed().as_secs_f64();

    // The engine run: policy + cache buckets accumulate inside it.
    let mut sink = NullSink;
    let t1 = Instant::now();
    while engine.step(&mut alloc, &mut sink).expect("profile step") {}
    let engine_secs = t1.elapsed().as_secs_f64();
    let engine_events = engine.ticks();
    let res = engine.into_result(&alloc);
    let mut d = Digest::new();
    d.write(&format!(
        "ticks={engine_events} makespan={} misses={} hits={}",
        res.makespan, res.stats.misses, res.stats.hits
    ));

    // Phase: pool — a small policy × seed grid at the session's width.
    let pool_secs = {
        use rayon::prelude::*;
        let grid_len = if quick { 600 } else { 1500 };
        let gw = {
            // Workload generation happens outside the timed region; the
            // bucket measures pool execution, not setup.
            let gspecs: Vec<SeqSpec> = (0..4)
                .map(|_| SeqSpec::Cyclic {
                    width: 16,
                    len: grid_len,
                })
                .collect();
            build_workload(&gspecs, seed ^ 0x9E37)
        };
        let gparams = ModelParams::new(4, 64, 10);
        let cells: Vec<u64> = (0..if quick { 8 } else { 16 }).collect();
        let t2 = Instant::now();
        let results: Vec<u64> = cells
            .par_iter()
            .map(|&s| {
                let mut p = RandPar::new(&gparams, seed ^ s);
                run_engine(&mut p, gw.seqs(), &gparams, &EngineOpts::default())
                    .expect("profile grid run")
                    .makespan
            })
            .collect();
        for (s, m) in cells.iter().zip(&results) {
            d.write(&format!("grid {s}={m}"));
        }
        t2.elapsed().as_secs_f64()
    };

    let policy_secs = policy_nanos.get() as f64 * 1e-9;
    let cache_secs = cache_nanos.get() as f64 * 1e-9;
    PhaseProfile {
        alloc_secs,
        policy_secs,
        cache_secs,
        pool_secs,
        other_secs: (engine_secs - policy_secs - cache_secs).max(0.0),
        engine_secs,
        engine_events,
        digest: d.finish(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayon::pool;

    /// The shims must not change behavior: a profiled run's engine-leg
    /// digest prefix is a pure function of (workload, policy), so two
    /// profiled runs agree, and the phase accounting is self-consistent.
    #[test]
    fn profile_is_deterministic_and_consistent() {
        let _g = pool::threads(2);
        let a = profile_run(true, 42);
        let b = profile_run(true, 42);
        assert_eq!(a.digest, b.digest, "profiled run must be deterministic");
        assert_eq!(a.engine_events, b.engine_events);
        assert!(a.engine_events > 0);
        assert!(a.engine_secs >= 0.0);
        // other = engine − policy − cache (clamped), so the parts never
        // exceed the whole by more than float noise.
        assert!(a.policy_secs + a.cache_secs <= a.engine_secs + 1e-3);
        let json = a.to_json(true, 42);
        assert!(json.contains("\"phases\""), "json: {json}");
        assert!(json.contains("\"policy\""));
        assert!(json.contains(&format!("{:016x}", a.digest)));
    }
}
