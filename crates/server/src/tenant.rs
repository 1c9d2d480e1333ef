//! Per-tenant session state: a supervised, WAL-checkpointed engine run per
//! batch, with deterministic replies across crashes, kills, and
//! migrations.
//!
//! Each [`Frame::Batch`](crate::protocol::Frame::Batch) is executed as one
//! run of the existing [`Supervisor`]: the policy is rebuilt from the
//! tenant's declared configuration and a batch-mixed seed, each
//! processor's cache is a single-owner
//! [`ShardedLru`](parapage::cache::ShardedLru) of the tenant's `shards`
//! (one arena, one index, one recency list per shard), and checkpoints go
//! to the tenant's in-memory [`MemStore`] as a genesis header (the
//! batch's inputs digest) plus one fixed-size WAL record (end tick and
//! progress digest) per epoch; a batch is too short for a periodic
//! snapshot to pay. A [`Frame::Kill`](crate::protocol::Frame::Kill)
//! becomes a deterministic [`CrashPlan`] tick — the supervisor absorbs
//! the panic, replays from genesis to the last record and continues the
//! log — and a [`Frame::Migrate`](crate::protocol::Frame::Migrate)
//! becomes an [`EpochControl::Migrate`] order at the first epoch boundary
//! at-or-after the requested tick, which snapshots the engine there and
//! rebuilds it from that snapshot mid-batch, replaying nothing.
//!
//! Because supervised recovery is byte-exact (the chaos matrix pins this),
//! the tenant's [`Frame::BatchDone`](crate::protocol::Frame::BatchDone)
//! stream — including its running reply chain — is byte-identical whether
//! or not the engine crashed or migrated along the way. Operational
//! counters (restarts, migrations, checkpoint bytes) are deliberately kept
//! out of the reply chain and surface only through `Stats`.

use parapage::cache::{fnv1a64, fnv1a64_seeded, Sequence, ShardedLru, SnapWriter};
use parapage::core::{policy, ModelParams};
use parapage::sched::{
    CrashPlan, EngineOpts, EpochControl, FaultPlan, MemStore, NullSink, RunResult, Supervisor,
    SupervisorOpts,
};

use crate::protocol::{error_code, Frame, TenantConfig};

/// Chain seed of a tenant's `BatchDone` reply chain.
pub(crate) fn reply_chain_seed(tenant: &str) -> u64 {
    fnv1a64_seeded(fnv1a64(b"parapage-reply/1"), tenant.as_bytes())
}

/// Golden-ratio mix so consecutive batch seeds are far apart.
fn batch_seed(seed: u64, batch: u64) -> u64 {
    seed ^ (batch.wrapping_add(1)).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Server-side tuning for tenant engine runs.
#[derive(Clone, Copy, Debug)]
pub struct TenantOpts {
    /// Engine events per supervisor epoch (= WAL checkpoint cadence).
    /// Engine runs are event-granular — one grant window serves many
    /// requests — so this is much smaller than a request count.
    pub epoch_ticks: u64,
    /// Crashes tolerated per batch before the batch fails terminally.
    pub max_retries: u32,
    /// Cumulative page-request budget across all of the tenant's batches.
    pub request_budget: u64,
}

impl Default for TenantOpts {
    fn default() -> Self {
        TenantOpts {
            epoch_ticks: 8,
            max_retries: 8,
            request_budget: u64::MAX,
        }
    }
}

/// A pending kill or migrate order: applies to one batch at one tick.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct PendingAt {
    batch: u64,
    at_tick: u64,
}

/// One tenant's server-side session.
#[derive(Debug)]
pub struct TenantSession {
    config: TenantConfig,
    opts: TenantOpts,
    /// Requests this tenant may still submit.
    budget_left: u64,
    /// Next expected batch sequence number.
    next_batch: u64,
    /// Running reply-chain digest over every `BatchDone`.
    chain: u64,
    kills: Vec<PendingAt>,
    migrations_pending: Vec<PendingAt>,
    /// The last `BatchDone` served, cached verbatim for
    /// [`Frame::Replay`](crate::protocol::Frame::Replay). Because the
    /// protocol is strictly request/reply, at most one reply can ever be
    /// in doubt, so a one-frame cache suffices for byte-identical
    /// resumption.
    last_reply: Option<Frame>,
    /// Operational counters (outside the reply chain).
    counters: TenantCounters,
}

/// Aggregate operational counters of one session, for `Stats`.
#[derive(Clone, Copy, Debug, Default)]
pub struct TenantCounters {
    /// Batches served.
    pub batches: u64,
    /// Requests served.
    pub requests: u64,
    /// Engine crashes absorbed.
    pub restarts: u64,
    /// Live migrations performed.
    pub migrations: u64,
    /// WAL records appended.
    pub wal_records: u64,
    /// Checkpoint bytes written.
    pub checkpoint_bytes: u64,
}

impl TenantCounters {
    /// Adds `other`'s counts to these.
    pub(crate) fn add(&mut self, other: &TenantCounters) {
        self.batches += other.batches;
        self.requests += other.requests;
        self.restarts += other.restarts;
        self.migrations += other.migrations;
        self.wal_records += other.wal_records;
        self.checkpoint_bytes += other.checkpoint_bytes;
    }
}

impl TenantSession {
    /// A fresh session for an admitted tenant.
    pub fn new(config: TenantConfig, opts: TenantOpts) -> Self {
        let chain = reply_chain_seed(&config.tenant);
        TenantSession {
            config,
            opts,
            budget_left: opts.request_budget,
            next_batch: 0,
            chain,
            kills: Vec::new(),
            migrations_pending: Vec::new(),
            last_reply: None,
            counters: TenantCounters::default(),
        }
    }

    /// Remaining request budget.
    pub fn budget_left(&self) -> u64 {
        self.budget_left
    }

    /// The batch sequence number this session expects next — the resume
    /// coordinate a re-attaching client sees in `HelloAck`.
    pub fn next_batch(&self) -> u64 {
        self.next_batch
    }

    /// The reply-chain digest after the last acked batch.
    pub fn chain(&self) -> u64 {
        self.chain
    }

    /// Re-delivers the cached reply for `batch` verbatim — the recovery
    /// path for a client whose `BatchDone` was lost to a transport fault.
    ///
    /// # Errors
    /// `BAD_STATE` when `batch` is not the last served batch (only the
    /// most recent reply is cached; asking for anything else means the
    /// client's cursor has diverged beyond recovery).
    pub fn replay(&self, batch: u64) -> Result<Frame, (u16, String)> {
        match &self.last_reply {
            Some(frame @ Frame::BatchDone { batch: b, .. }) if *b == batch => Ok(frame.clone()),
            _ => Err((
                error_code::BAD_STATE,
                format!(
                    "no cached reply for batch {batch} (next expected batch is {})",
                    self.next_batch
                ),
            )),
        }
    }

    /// Operational counters for `Stats` aggregation.
    pub fn counters(&self) -> TenantCounters {
        self.counters
    }

    /// Queues a kill order; returns the pending count.
    pub fn queue_kill(&mut self, batch: u64, at_tick: u64) -> u32 {
        self.kills.push(PendingAt { batch, at_tick });
        self.kills.len() as u32
    }

    /// Queues a migration order; returns the pending count.
    pub fn queue_migration(&mut self, batch: u64, at_tick: u64) -> u32 {
        self.migrations_pending.push(PendingAt { batch, at_tick });
        self.migrations_pending.len() as u32
    }

    /// Drops the pending kill and migrate orders: what idle expiry does to
    /// a session it parks.
    pub(crate) fn park(&mut self) {
        self.kills.clear();
        self.migrations_pending.clear();
    }

    /// Runs one batch through the supervised engine and builds the
    /// deterministic `BatchDone` reply. `seqs` is one sequence per
    /// processor, as page runs (what the server decodes) or expanded pages;
    /// the reply is the same either way.
    ///
    /// # Errors
    /// `(code, message)` pairs matching [`error_code`]: a batch-sequence
    /// break or processor-count mismatch is `BAD_STATE`, an exhausted
    /// budget is `BUDGET_EXHAUSTED`, and a terminal engine failure is
    /// `ENGINE_FAILED`. The session survives all of them; only a served
    /// batch advances the sequence and the reply chain.
    pub fn run_batch<S: Sequence>(
        &mut self,
        batch: u64,
        seqs: &[S],
    ) -> Result<Frame, (u16, String)> {
        if batch != self.next_batch {
            return Err((
                error_code::BAD_STATE,
                format!("batch {batch} out of order (expected {})", self.next_batch),
            ));
        }
        if seqs.len() != self.config.p {
            return Err((
                error_code::BAD_STATE,
                format!(
                    "batch carries {} sequences for a p={} tenant",
                    seqs.len(),
                    self.config.p
                ),
            ));
        }
        let batch_requests = S::sequences(seqs).total_len() as u64;
        if batch_requests > self.budget_left {
            return Err((
                error_code::BUDGET_EXHAUSTED,
                format!(
                    "batch of {batch_requests} requests exceeds remaining budget {}",
                    self.budget_left
                ),
            ));
        }

        let params = ModelParams::new(self.config.p, self.config.k, self.config.s);
        let engine_opts = EngineOpts::default();
        let seed = batch_seed(self.config.seed, batch);
        let policy_name = self.config.policy.clone();
        let shards = self.config.shards;

        // This batch's injected crashes and pending migration ticks.
        let kill_ticks: Vec<u64> = self
            .kills
            .iter()
            .filter(|k| k.batch == batch)
            .map(|k| k.at_tick)
            .collect();
        self.kills.retain(|k| k.batch != batch);
        let mut mig_ticks: Vec<u64> = self
            .migrations_pending
            .iter()
            .filter(|m| m.batch == batch)
            .map(|m| m.at_tick)
            .collect();
        mig_ticks.sort_unstable();
        self.migrations_pending.retain(|m| m.batch != batch);

        let sup = Supervisor::new(SupervisorOpts {
            epoch_ticks: self.opts.epoch_ticks,
            max_retries: self.opts.max_retries,
            backoff_base: std::time::Duration::ZERO,
            silence_panics: true,
            ..SupervisorOpts::default()
        });
        // A fresh store per batch: batches are independent runs, and the
        // WAL only needs to survive crashes *within* one.
        let mut store = MemStore::new();
        let mut next_mig = 0usize;
        let report = sup
            .run_controlled(
                seqs,
                &params,
                &engine_opts,
                &FaultPlan::none(),
                &CrashPlan::at_ticks(kill_ticks),
                || {
                    policy::build(&policy_name, &params, seed, false)
                        .expect("policy validated at Hello")
                },
                |_| ShardedLru::with_shards(0, shards),
                &mut NullSink,
                &mut store,
                |status| {
                    // Consume at most one pending migration per boundary,
                    // once the run has reached its tick threshold.
                    if next_mig < mig_ticks.len() && status.ticks >= mig_ticks[next_mig] {
                        next_mig += 1;
                        EpochControl::Migrate
                    } else {
                        EpochControl::Continue
                    }
                },
            )
            .map_err(|e| (error_code::ENGINE_FAILED, format!("batch {batch}: {e}")))?;

        self.next_batch += 1;
        self.budget_left -= batch_requests;
        let c = &mut self.counters;
        c.batches += 1;
        c.requests += batch_requests;
        c.restarts += u64::from(report.crashes);
        c.migrations += report.migrations;
        c.wal_records += report.wal_records;
        c.checkpoint_bytes += report.checkpoint_bytes;

        let reply = self.reply_for(batch, &report.result);
        self.last_reply = Some(reply.clone());
        Ok(reply)
    }

    /// Builds the deterministic `BatchDone` for a result, folding it into
    /// the reply chain.
    fn reply_for(&mut self, batch: u64, result: &RunResult) -> Frame {
        let bytes = canonical_result_bytes(batch, result);
        let digest = fnv1a64(&bytes);
        self.chain = fnv1a64_seeded(self.chain, &bytes);
        Frame::BatchDone {
            batch,
            makespan: result.makespan,
            hits: result.stats.hits,
            misses: result.stats.misses,
            grants: result.grants_issued,
            digest,
            chain: self.chain,
        }
    }
}

/// Canonical byte encoding of a batch outcome — every deterministic scalar
/// of the [`RunResult`], so any divergence (completions included) flips
/// the reply digest and chain.
fn canonical_result_bytes(batch: u64, r: &RunResult) -> Vec<u8> {
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
    w.into_bytes()
}
