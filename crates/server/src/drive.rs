//! The `parapage drive` load driver: replays deterministic page-request
//! batches against a running server from many concurrent tenant threads and
//! reports throughput, per-batch latency percentiles, and every reply it
//! received.
//!
//! Workloads are a pure function of `(base seed, tenant index, batch)`, so
//! two drives with the same configuration submit byte-identical requests —
//! which is what lets the crash-isolation and migration tests compare full
//! reply streams across runs.
//!
//! Every tenant drives through a
//! [`ResilientClient`](crate::resilient::ResilientClient): transport
//! faults (optionally injected with [`DriveCfg::fault`]) are absorbed by
//! reconnect/re-attach/replay, the recovery work is tallied in
//! [`DriveReport::retry`], and only *unrecovered* failures count as
//! [`DriveReport::protocol_errors`] — the number `--expect-clean` gates
//! on.

use std::net::SocketAddr;
use std::time::Instant;

use parapage::cache::PageId;
use parapage::conform::{NetFaultKind, NetFaultPlan};
use parapage::workloads::{build_workload, SeqSpec};

use crate::client::Client;
use crate::protocol::{Frame, ServerStats, TenantConfig};
use crate::resilient::{ResilientClient, RetryCounters, RetryOpts};

/// What to replay and against whom.
#[derive(Clone, Debug)]
pub struct DriveCfg {
    /// Server address.
    pub addr: SocketAddr,
    /// Concurrent tenants (each gets its own connection and thread).
    pub tenants: usize,
    /// Batches per tenant.
    pub batches: u64,
    /// Total page requests to spread across all tenants and batches
    /// (rounded up so every sequence has at least one request).
    pub requests: u64,
    /// Processors per tenant engine.
    pub p: usize,
    /// Cache capacity `k`.
    pub k: usize,
    /// Miss penalty `s`.
    pub s: u64,
    /// Policy name (must be servable: one of
    /// [`parapage::core::policy::NAMES`]).
    pub policy: String,
    /// Base RNG seed.
    pub seed: u64,
    /// Shard count of each tenant's cache.
    pub shards: usize,
    /// Send `Shutdown` after the drive completes.
    pub shutdown: bool,
    /// Inject this transport fault into every tenant's *first* connection
    /// (`None` drives clean). The resilient client is expected to absorb
    /// it; anything unrecovered shows up in `protocol_errors`.
    pub fault: Option<NetFaultKind>,
    /// Byte offset at which an injected fault takes effect.
    pub fault_at: u64,
}

impl Default for DriveCfg {
    fn default() -> Self {
        DriveCfg {
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            tenants: 4,
            batches: 4,
            requests: 100_000,
            p: 4,
            k: 64,
            s: 16,
            policy: "det-par".into(),
            seed: 42,
            shards: 4,
            shutdown: false,
            fault: None,
            fault_at: 4096,
        }
    }
}

impl DriveCfg {
    /// The tenant name of driver tenant `t`.
    pub fn tenant_name(&self, t: usize) -> String {
        format!("drive-{t}")
    }

    /// The [`TenantConfig`] driver tenant `t` declares in its `Hello`.
    pub fn tenant_config(&self, t: usize) -> TenantConfig {
        TenantConfig {
            tenant: self.tenant_name(t),
            p: self.p,
            k: self.k,
            s: self.s,
            policy: self.policy.clone(),
            seed: self.seed ^ (t as u64).wrapping_mul(0x517c_c1b7_2722_0a95),
            shards: self.shards,
        }
    }

    /// Requests per processor sequence per batch (≥ 1).
    pub fn seq_len(&self) -> usize {
        let cells = (self.tenants as u64)
            .saturating_mul(self.batches)
            .saturating_mul(self.p as u64)
            .max(1);
        usize::try_from(self.requests.div_ceil(cells))
            .unwrap_or(usize::MAX)
            .max(1)
    }

    /// The deterministic request sequences driver tenant `t` submits as
    /// batch `batch` — a mixed locality family, like the CLI's default
    /// workload, seeded per `(tenant, batch)`.
    pub fn workload(&self, t: usize, batch: u64) -> Vec<Vec<PageId>> {
        let len = self.seq_len();
        let k = self.k;
        let specs: Vec<SeqSpec> = (0..self.p)
            .map(|x| match x % 3 {
                0 => SeqSpec::Cyclic {
                    width: (k / 8).max(2),
                    len,
                },
                1 => SeqSpec::Zipf {
                    universe: (k / 2).max(4),
                    theta: 0.9,
                    len,
                },
                _ => SeqSpec::Uniform {
                    universe: (2 * k / self.p.max(1)).max(2),
                    len,
                },
            })
            .collect();
        let seed = self
            .tenant_config(t)
            .seed
            .wrapping_add(batch.wrapping_mul(0x2545_f491_4f6c_dd1d));
        build_workload(&specs, seed).seqs().to_vec()
    }
}

/// Latency percentiles over per-batch round trips, in microseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LatencyUs {
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Worst batch.
    pub max: u64,
}

/// What one drive run observed.
#[derive(Clone, Debug)]
pub struct DriveReport {
    /// Page requests actually submitted.
    pub requests: u64,
    /// Batches acknowledged with `BatchDone`.
    pub batches: u64,
    /// Wall-clock seconds of the replay phase.
    pub elapsed_s: f64,
    /// Requests per second over the replay phase.
    pub throughput: f64,
    /// Per-batch round-trip latency percentiles.
    pub latency: LatencyUs,
    /// *Unrecovered* failures: typed client errors after the retry budget,
    /// plus `Stats`/`Shutdown` call failures. Zero on a healthy run —
    /// including runs whose transport faults were absorbed by retries.
    pub protocol_errors: u64,
    /// Recovery work the resilient clients performed: reconnects,
    /// retries, replays, shed notices absorbed, deadline expiries.
    pub retry: RetryCounters,
    /// Every reply frame each tenant received, in order — the stream the
    /// equivalence tests compare byte-for-byte (via `Frame`'s `Eq`).
    pub replies: Vec<Vec<Frame>>,
    /// Server-wide counters fetched after the replay (`None` if the
    /// `Stats` call itself failed).
    pub stats: Option<ServerStats>,
}

impl DriveReport {
    /// One-line human summary (the top-line number `parapage drive`
    /// prints).
    pub fn summary_line(&self) -> String {
        format!(
            "{} requests in {} batches over {:.2}s = {:.0} req/s | \
             latency p50 {}us p90 {}us p99 {}us max {}us | {} protocol errors",
            self.requests,
            self.batches,
            self.elapsed_s,
            self.throughput,
            self.latency.p50,
            self.latency.p90,
            self.latency.p99,
            self.latency.max,
            self.protocol_errors
        )
    }

    /// One-line recovery summary (reconnects, retries, replays, sheds,
    /// timeouts — the work the resilient clients did to keep
    /// `protocol_errors` at zero).
    pub fn retry_line(&self) -> String {
        format!(
            "recovered: {} reconnects, {} retries, {} replays, {} sheds, {} timeouts",
            self.retry.reconnects,
            self.retry.retries,
            self.retry.replays,
            self.retry.sheds,
            self.retry.timeouts
        )
    }
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// One tenant thread's tally.
struct TenantOutcome {
    requests: u64,
    batches: u64,
    latencies_us: Vec<u64>,
    errors: u64,
    replies: Vec<Frame>,
    retry: RetryCounters,
}

fn drive_tenant(cfg: &DriveCfg, t: usize) -> TenantOutcome {
    let mut out = TenantOutcome {
        requests: 0,
        batches: 0,
        latencies_us: Vec::new(),
        errors: 0,
        replies: Vec::new(),
        retry: RetryCounters::default(),
    };
    let opts = RetryOpts {
        seed: cfg.seed ^ (t as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
        ..RetryOpts::default()
    };
    let mut client = ResilientClient::new(cfg.addr, cfg.tenant_config(t), opts);
    if let Some(kind) = cfg.fault {
        client = client.with_faults(vec![NetFaultPlan::new(
            kind,
            cfg.seed ^ t as u64,
            0,
            cfg.fault_at,
        )]);
    }
    for batch in 0..cfg.batches {
        let seqs = cfg.workload(t, batch);
        let submitted: u64 = seqs.iter().map(|s| s.len() as u64).sum();
        let start = Instant::now();
        match client.run_batch(&seqs) {
            Ok(reply) => {
                let us = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
                out.latencies_us.push(us);
                out.requests += submitted;
                out.batches += 1;
                out.replies.push(reply);
            }
            Err(_) => {
                // Typed and final (budget exhausted, rejected, or
                // divergence): an unrecovered error ends this tenant.
                out.errors += 1;
                break;
            }
        }
    }
    client.goodbye();
    out.retry = client.counters();
    out
}

/// Replays the configured load and gathers the report.
///
/// Tenant threads run concurrently, one connection each; the final `Stats`
/// fetch (and optional `Shutdown`) uses its own connection once the replay
/// has drained.
pub fn drive(cfg: &DriveCfg) -> DriveReport {
    let started = Instant::now();
    let outcomes: Vec<TenantOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.tenants)
            .map(|t| scope.spawn(move || drive_tenant(cfg, t)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("tenant driver thread panicked"))
            .collect()
    });
    let elapsed_s = started.elapsed().as_secs_f64();

    let mut requests = 0u64;
    let mut batches = 0u64;
    let mut protocol_errors = 0u64;
    let mut retry = RetryCounters::default();
    let mut latencies: Vec<u64> = Vec::new();
    let mut replies = Vec::with_capacity(outcomes.len());
    for o in outcomes {
        requests += o.requests;
        batches += o.batches;
        protocol_errors += o.errors;
        retry.absorb(&o.retry);
        latencies.extend_from_slice(&o.latencies_us);
        replies.push(o.replies);
    }
    latencies.sort_unstable();

    let mut stats = None;
    if let Ok(mut c) = Client::connect(cfg.addr) {
        match c.call(&Frame::Stats) {
            Ok(Frame::StatsReply { stats: s }) => stats = Some(s),
            Ok(_) | Err(_) => protocol_errors += 1,
        }
        if cfg.shutdown {
            match c.call(&Frame::Shutdown) {
                Ok(Frame::ShutdownAck) => {}
                Ok(_) | Err(_) => protocol_errors += 1,
            }
        }
    } else {
        protocol_errors += 1;
    }

    DriveReport {
        requests,
        batches,
        elapsed_s,
        throughput: if elapsed_s > 0.0 {
            requests as f64 / elapsed_s
        } else {
            0.0
        },
        latency: LatencyUs {
            p50: percentile(&latencies, 0.50),
            p90: percentile(&latencies, 0.90),
            p99: percentile(&latencies, 0.99),
            max: latencies.last().copied().unwrap_or(0),
        },
        protocol_errors,
        retry,
        replies,
        stats,
    }
}
