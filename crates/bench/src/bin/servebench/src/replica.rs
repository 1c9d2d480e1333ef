//! Outside replicas of one tenant batch, built from the server's public
//! parts, for the traced run and the spot checks.
//!
//! * [`supervised`] repeats what `TenantSession::run_batch` does — the
//!   same `Supervisor::run_controlled` call with the tenant's options — with
//!   timing shims around the coarse checkpoint calls only (policy and cache
//!   checkpoint/restore, and the `CheckpointStore`), so its wall time stays
//!   comparable to the real run's.
//! * [`unsupervised`] runs the same batch on a bare `Engine`, timing every
//!   policy call and *recording* every cache call. An `Instant` pair around
//!   each cache access would triple the run time, so [`replay`] times the
//!   recorded calls afterwards, against fresh `ShardedLru`s.
//!
//! [`batch_seed`], [`make_policy`] and [`result_digest`] mirror private
//! helpers of `parapage_server::tenant`. Should those drift, every batch's
//! replica digest stops matching its `BatchDone` and the benchmark fails
//! its correctness gate instead of measuring a different computation.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Duration;

use parapage::cache::{
    fnv1a64, Access, Cache, Checkpoint, CodecError, PageId, ProcId, ShardedLru, SnapReader,
    SnapWriter, Time, WindowOutcome,
};
use parapage::core::{BoxAllocator, DetPar, FaultEvent, Grant, ModelParams, RandPar, UcpPartition};
use parapage::sched::{
    CheckpointStore, CrashPlan, Engine, EngineOpts, EpochControl, FaultPlan, MemStore, NullSink,
    RecoveryReport, RunResult, Supervisor, SupervisorOpts,
};
use parapage_server::{TenantConfig, TenantOpts};

use crate::trace::Tracer;
use crate::workloads::{Workload, KILL_TICK, MIGRATE_TICK};

/// The server's per-batch policy seed.
pub fn batch_seed(seed: u64, batch: u64) -> u64 {
    seed ^ (batch.wrapping_add(1)).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// The server's policy factory, for the policies the workloads use.
pub fn make_policy(name: &str, params: &ModelParams, seed: u64) -> Box<dyn BoxAllocator> {
    match name {
        "det-par" => Box::new(DetPar::new(params)),
        "rand-par" => Box::new(RandPar::new(params, seed)),
        "ucp" => Box::new(UcpPartition::new(params)),
        other => panic!("no servebench workload uses policy `{other}`"),
    }
}

/// `BatchDone.digest` of a batch outcome: FNV-1a over the server's
/// canonical result encoding.
pub fn result_digest(batch: u64, r: &RunResult) -> u64 {
    let mut w = SnapWriter::new();
    w.put_u64(batch);
    w.put_u64(r.makespan);
    w.put_len(r.completions.len());
    for &c in &r.completions {
        w.put_u64(c);
    }
    w.put_u64(r.stats.hits);
    w.put_u64(r.stats.misses);
    w.put_u128(r.memory_integral);
    w.put_usize(r.peak_memory);
    w.put_u64(r.grants_issued);
    w.put_u64(r.faults_injected);
    w.put_u64(r.degraded_grants);
    fnv1a64(&w.into_bytes())
}

fn params(cfg: &TenantConfig) -> ModelParams {
    ModelParams::new(cfg.p, cfg.k, cfg.s)
}

/// Kill and migration ticks queued for one batch.
#[derive(Clone, Debug, Default)]
pub struct Orders {
    pub kills: Vec<u64>,
    pub migrations: Vec<u64>,
}

impl Orders {
    /// What `w`'s control connection orders before every batch.
    pub fn of(w: &Workload) -> Orders {
        if w.control {
            Orders {
                kills: vec![KILL_TICK],
                migrations: vec![MIGRATE_TICK],
            }
        } else {
            Orders::default()
        }
    }
}

/// Supervised-replica policy wrapper: times `checkpoint`/`restore` only.
struct CkptAlloc {
    inner: Box<dyn BoxAllocator>,
    tracer: Rc<Tracer>,
}

impl BoxAllocator for CkptAlloc {
    fn grant(&mut self, proc: ProcId, now: Time) -> Grant {
        self.inner.grant(proc, now)
    }
    fn oblivious(&self) -> bool {
        self.inner.oblivious()
    }
    fn grant_batch(&mut self, procs: &[ProcId], now: Time, out: &mut Vec<Grant>) {
        self.inner.grant_batch(procs, now, out);
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
    fn on_fault(&mut self, event: &FaultEvent) {
        self.inner.on_fault(event);
    }
    fn on_budget_shrunk(&mut self, new_k: usize) {
        self.inner.on_budget_shrunk(new_k);
    }
    fn degraded_grants(&self) -> u64 {
        self.inner.degraded_grants()
    }
    fn checkpoint(&self, w: &mut SnapWriter) -> Result<(), CodecError> {
        self.tracer
            .time("checkpoint.encode", || self.inner.checkpoint(w))
    }
    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), CodecError> {
        let tracer = Rc::clone(&self.tracer);
        tracer.time("checkpoint.restore", || self.inner.restore(r))
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Supervised-replica cache wrapper: times `save`/`load`; forwards the
/// rest. `drop_call` is a sabotage hook: when it counts down to zero, one
/// `access_if_fits` never reaches the cache and reports that the request
/// did not fit, ending its window early, which must break the replica's
/// digest. (A made-up hit would not do: the page then misses on its next
/// access instead, and the run's totals can come out the same.)
struct CkptCache {
    inner: ShardedLru,
    tracer: Rc<Tracer>,
    drop_call: Rc<Cell<Option<u64>>>,
}

impl Cache for CkptCache {
    fn access(&mut self, page: PageId) -> Access {
        self.inner.access(page)
    }
    fn access_if_fits(
        &mut self,
        page: PageId,
        remaining: Time,
        miss_penalty: u64,
    ) -> Option<Access> {
        if let Some(n) = self.drop_call.get() {
            self.drop_call.set(n.checked_sub(1));
            if n == 0 {
                return None;
            }
        }
        self.inner.access_if_fits(page, remaining, miss_penalty)
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
        self.inner.resize(capacity);
    }
    fn clear(&mut self) {
        self.inner.clear();
    }
}

impl Checkpoint for CkptCache {
    fn save(&self, w: &mut SnapWriter) {
        self.tracer.time("checkpoint.encode", || self.inner.save(w));
    }
    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), CodecError> {
        let tracer = Rc::clone(&self.tracer);
        tracer.time("checkpoint.restore", || self.inner.load(r))
    }
}

/// The tenant's in-memory WAL store, with every call timed.
struct TimingStore {
    inner: MemStore,
    tracer: Rc<Tracer>,
}

impl CheckpointStore for TimingStore {
    fn install_base(&mut self, snapshot: Vec<u8>) {
        self.tracer
            .time("wal.store", || self.inner.install_base(snapshot));
    }
    fn append_record(&mut self, record: Vec<u8>) {
        self.tracer
            .time("wal.store", || self.inner.append_record(record));
    }
    fn view(&mut self) -> Option<(&[u8], &[u8])> {
        let start = self.tracer.now();
        let view = self.inner.view();
        self.tracer.record("wal.store", start, self.tracer.now());
        view
    }
}

/// Runs batch `batch` of `cfg` exactly as the tenant session does, under
/// the supervisor with the tenant's options.
pub fn supervised(
    cfg: &TenantConfig,
    batch: u64,
    seqs: &[Vec<PageId>],
    orders: &Orders,
    tracer: &Rc<Tracer>,
    drop_call: &Rc<Cell<Option<u64>>>,
) -> Result<RecoveryReport, String> {
    let params = params(cfg);
    let opts = TenantOpts::default();
    let seed = batch_seed(cfg.seed, batch);
    let mut migrations = orders.migrations.clone();
    migrations.sort_unstable();
    let mut next_mig = 0usize;
    let mut store = TimingStore {
        inner: MemStore::new(),
        tracer: Rc::clone(tracer),
    };
    Supervisor::new(SupervisorOpts {
        epoch_ticks: opts.epoch_ticks,
        max_retries: opts.max_retries,
        backoff_base: Duration::ZERO,
        silence_panics: true,
        ..SupervisorOpts::default()
    })
    .run_controlled(
        seqs,
        &params,
        &EngineOpts::default(),
        &FaultPlan::none(),
        &CrashPlan::at_ticks(orders.kills.clone()),
        || {
            Box::new(CkptAlloc {
                inner: make_policy(&cfg.policy, &params, seed),
                tracer: Rc::clone(tracer),
            })
        },
        |_| CkptCache {
            inner: ShardedLru::with_shards(0, cfg.shards),
            tracer: Rc::clone(tracer),
            drop_call: Rc::clone(drop_call),
        },
        &mut NullSink,
        &mut store,
        |status| {
            if next_mig < migrations.len() && status.ticks >= migrations[next_mig] {
                next_mig += 1;
                EpochControl::Migrate
            } else {
                EpochControl::Continue
            }
        },
    )
    .map_err(|e| format!("supervised replica of batch {batch}: {e}"))
}

/// Unsupervised-run policy wrapper: every call that makes a decision or
/// consumes feedback is a `policy` span.
struct PolicyTimer {
    inner: Box<dyn BoxAllocator>,
    tracer: Rc<Tracer>,
}

impl BoxAllocator for PolicyTimer {
    fn grant(&mut self, proc: ProcId, now: Time) -> Grant {
        let tracer = Rc::clone(&self.tracer);
        tracer.time("policy", || self.inner.grant(proc, now))
    }
    fn oblivious(&self) -> bool {
        self.inner.oblivious()
    }
    fn grant_batch(&mut self, procs: &[ProcId], now: Time, out: &mut Vec<Grant>) {
        let tracer = Rc::clone(&self.tracer);
        tracer.time("policy", || self.inner.grant_batch(procs, now, out));
    }
    fn on_proc_finished(&mut self, proc: ProcId, now: Time) {
        let tracer = Rc::clone(&self.tracer);
        tracer.time("policy", || self.inner.on_proc_finished(proc, now));
    }
    fn observe(&mut self, proc: ProcId, outcome: &WindowOutcome) {
        let tracer = Rc::clone(&self.tracer);
        tracer.time("policy", || self.inner.observe(proc, outcome));
    }
    fn observe_accesses(&mut self, proc: ProcId, served: &[PageId]) {
        let tracer = Rc::clone(&self.tracer);
        tracer.time("policy", || self.inner.observe_accesses(proc, served));
    }
    fn on_fault(&mut self, event: &FaultEvent) {
        let tracer = Rc::clone(&self.tracer);
        tracer.time("policy", || self.inner.on_fault(event));
    }
    fn degraded_grants(&self) -> u64 {
        self.inner.degraded_grants()
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// One recorded cache call, with the outcome the engine saw.
#[derive(Clone, Copy, Debug)]
pub enum CacheOp {
    Fits {
        page: PageId,
        remaining: Time,
        penalty: u64,
        out: Option<Access>,
    },
    Access {
        page: PageId,
        out: Access,
    },
    Resize(usize),
    Clear,
}

/// Call logs of the caches of one unsupervised run; buffers are reused
/// across batches so recording does not allocate in steady state.
#[derive(Default)]
pub struct CacheLogs {
    free: RefCell<Vec<Vec<CacheOp>>>,
    done: RefCell<Vec<Vec<CacheOp>>>,
}

/// Unsupervised-run cache wrapper: forwards every call and logs the
/// mutating ones; the log moves to [`CacheLogs`] when the engine drops it.
struct RecordingCache {
    inner: ShardedLru,
    ops: Vec<CacheOp>,
    logs: Rc<CacheLogs>,
}

impl Drop for RecordingCache {
    fn drop(&mut self) {
        self.logs
            .done
            .borrow_mut()
            .push(std::mem::take(&mut self.ops));
    }
}

impl Cache for RecordingCache {
    fn access(&mut self, page: PageId) -> Access {
        let out = self.inner.access(page);
        self.ops.push(CacheOp::Access { page, out });
        out
    }
    fn access_if_fits(&mut self, page: PageId, remaining: Time, penalty: u64) -> Option<Access> {
        let out = self.inner.access_if_fits(page, remaining, penalty);
        self.ops.push(CacheOp::Fits {
            page,
            remaining,
            penalty,
            out,
        });
        out
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
        self.inner.resize(capacity);
        self.ops.push(CacheOp::Resize(capacity));
    }
    fn clear(&mut self) {
        self.inner.clear();
        self.ops.push(CacheOp::Clear);
    }
}

/// What an unsupervised run produced.
pub struct Unsupervised {
    pub result: RunResult,
    pub ticks: u64,
}

/// Runs batch `batch` of `cfg` on a bare engine with the timing and
/// recording shims.
pub fn unsupervised(
    cfg: &TenantConfig,
    batch: u64,
    seqs: &[Vec<PageId>],
    tracer: &Rc<Tracer>,
    logs: &Rc<CacheLogs>,
) -> Result<Unsupervised, String> {
    let params = params(cfg);
    let mut alloc = PolicyTimer {
        inner: make_policy(&cfg.policy, &params, batch_seed(cfg.seed, batch)),
        tracer: Rc::clone(tracer),
    };
    let faults = FaultPlan::none();
    let mut engine = Engine::new(
        &mut alloc,
        seqs,
        &params,
        &EngineOpts::default(),
        &faults,
        |_| RecordingCache {
            inner: ShardedLru::with_shards(0, cfg.shards),
            ops: logs.free.borrow_mut().pop().unwrap_or_default(),
            logs: Rc::clone(logs),
        },
    );
    while engine
        .step(&mut alloc, &mut NullSink)
        .map_err(|e| format!("unsupervised run of batch {batch}: {e}"))?
    {}
    let ticks = engine.ticks();
    Ok(Unsupervised {
        result: engine.into_result(&alloc),
        ticks,
    })
}

/// Replays every finished call log into a fresh `ShardedLru` of `shards`
/// shards, one `cache.replay` span per log, and checks each outcome
/// against the recorded one. Returns the access calls replayed.
pub fn replay(logs: &CacheLogs, shards: usize, tracer: &Tracer) -> Result<u64, String> {
    let mut calls = 0u64;
    let mut done = logs.done.borrow_mut();
    let mut free = logs.free.borrow_mut();
    for mut ops in done.drain(..) {
        let mut cache = ShardedLru::with_shards(0, shards);
        let mut diverged = false;
        let start = tracer.now();
        for op in &ops {
            match *op {
                CacheOp::Fits {
                    page,
                    remaining,
                    penalty,
                    out: seen,
                } => {
                    diverged |= cache.access_if_fits(page, remaining, penalty) != seen;
                    calls += 1;
                }
                CacheOp::Access { page, out: seen } => {
                    diverged |= cache.access(page) != seen;
                    calls += 1;
                }
                CacheOp::Resize(capacity) => cache.resize(capacity),
                CacheOp::Clear => cache.clear(),
            }
        }
        tracer.record("cache.replay", start, tracer.now());
        if diverged {
            return Err("cache replay diverged from the recorded outcomes".into());
        }
        ops.clear();
        free.push(ops);
    }
    Ok(calls)
}
