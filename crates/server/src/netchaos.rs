//! The `parapage chaos --net` matrix: every transport fault kind × cut
//! point × tenant count, each cell checked byte-for-byte against a clean
//! run.
//!
//! Each cell boots a fresh server, drives the same deterministic workload
//! the clean baseline ran (same tenant names, so the reply-chain seeds
//! match), and injects one [`NetFaultPlan`] per tenant into the *first*
//! connection. Cut points are sized from the clean run's observed
//! per-tenant byte counts ([`NetCell::cut_offset`]), so a fraction of
//! `0.6` reliably lands inside the traffic — usually mid-frame. The bar,
//! per cell:
//!
//! * every tenant's reply stream is **byte-identical** to the clean run's
//!   (`Frame` equality over the full stream — chain digests included);
//! * **zero unrecovered errors** — the resilient client absorbed every
//!   fault;
//! * for severing faults (cuts, slow-loris), the client actually
//!   reconnected at least once — proof the fault bit.
//!
//! Two special cells extend the grid: **idle-expiry** parks a tenant via
//! the server's idle TTL and requires a re-attach to *continue* the reply
//! chain byte-identically, and **shed** drives a
//! client through a connection-capped server and requires the typed
//! [`Frame::Busy`] path to absorb the overload.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use parapage::cache::fnv1a64_seeded;
use parapage::conform::matrix::{CellFilter, CellRow, Matrix};
use parapage::conform::{net_cells, NetCell, NetFaultPlan};

use crate::client::Client;
use crate::drive::DriveCfg;
use crate::protocol::Frame;
use crate::resilient::{ResilientClient, RetryCounters, RetryOpts};
use crate::server::{serve, ServeOpts};

/// One cell's row: the recovery work its clients performed, and why it
/// missed the bar (at most one reason; empty on a pass).
#[derive(Clone, Debug)]
pub struct NetCellOutcome {
    /// Recovery work the clients performed.
    pub retry: RetryCounters,
    /// The failure reason, if the cell failed.
    pub violations: Vec<String>,
}

impl NetCellOutcome {
    fn failed(retry: RetryCounters, reason: String) -> Self {
        NetCellOutcome {
            retry,
            violations: vec![reason],
        }
    }
}

impl CellRow for NetCellOutcome {
    fn columns(&self) -> Vec<String> {
        let r = &self.retry;
        [r.reconnects, r.retries, r.replays, r.sheds, r.timeouts]
            .iter()
            .map(u64::to_string)
            .collect()
    }
    fn violations(&self) -> &[String] {
        &self.violations
    }
}

/// A matrix cell: a transport fault cell or one of the two special cells.
enum Candidate {
    Fault(NetCell),
    IdleExpiry,
    Shed,
}

impl Candidate {
    fn label(&self) -> String {
        match self {
            Candidate::Fault(cell) => cell.label(),
            Candidate::IdleExpiry => "idle-expiry/t1".into(),
            Candidate::Shed => "shed/t1".into(),
        }
    }
}

/// The small, fast engine configuration every cell drives.
fn drive_cfg(addr: SocketAddr, tenants: usize, seed: u64) -> DriveCfg {
    DriveCfg {
        addr,
        tenants,
        batches: 3,
        requests: 3_000,
        p: 2,
        k: 16,
        s: 8,
        policy: "det-par".into(),
        seed,
        shards: 2,
        shutdown: false,
        fault: None,
        fault_at: 0,
    }
}

/// Server options for matrix cells: a short read deadline (the trickle
/// cell's long stall must trip it) and no idle expiry.
fn cell_serve_opts() -> ServeOpts {
    ServeOpts {
        read_timeout: Some(Duration::from_millis(80)),
        ..ServeOpts::default()
    }
}

/// One tenant's observed run: its reply stream, recovery counters, and
/// clean wire byte counts (used to size later cut points).
struct TenantRun {
    replies: Vec<Frame>,
    retry: RetryCounters,
    sent: u64,
    received: u64,
    error: Option<String>,
}

/// Drives `cfg.tenants` resilient clients concurrently, tenant `t` using
/// `plans[t]` on its first connection.
fn run_group(cfg: &DriveCfg, plans: &[Option<NetFaultPlan>], seed: u64) -> Vec<TenantRun> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.tenants)
            .map(|t| {
                let plan = plans.get(t).copied().flatten();
                scope.spawn(move || {
                    let opts = RetryOpts {
                        seed: seed ^ (t as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                        ..RetryOpts::default()
                    };
                    let mut client = ResilientClient::new(cfg.addr, cfg.tenant_config(t), opts);
                    if let Some(plan) = plan {
                        client = client.with_faults(vec![plan]);
                    }
                    let mut run = TenantRun {
                        replies: Vec::new(),
                        retry: RetryCounters::default(),
                        sent: 0,
                        received: 0,
                        error: None,
                    };
                    for batch in 0..cfg.batches {
                        let seqs = cfg.workload(t, batch);
                        match client.run_batch(&seqs) {
                            Ok(reply) => run.replies.push(reply),
                            Err(e) => {
                                run.error = Some(format!("batch {batch}: {e}"));
                                break;
                            }
                        }
                    }
                    client.goodbye();
                    run.retry = client.counters();
                    (run.sent, run.received) = client.wire_bytes();
                    run
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("tenant thread panicked"))
            .collect()
    })
}

/// Boots a server, runs a clean baseline, and returns its per-tenant runs.
fn clean_baseline(tenants: usize, seed: u64) -> Result<Vec<TenantRun>, String> {
    let handle =
        serve("127.0.0.1:0", cell_serve_opts()).map_err(|e| format!("clean baseline bind: {e}"))?;
    let cfg = drive_cfg(handle.addr(), tenants, seed);
    let runs = run_group(&cfg, &vec![None; tenants], seed);
    // Shut down through the handle, not the wire: a wire `Shutdown` is
    // admission-gated, so a still-draining connection slot could shed it
    // (`Busy`) and strand the join.
    handle.shutdown();
    handle.join();
    for (t, run) in runs.iter().enumerate() {
        if let Some(e) = &run.error {
            return Err(format!("clean baseline tenant {t} failed: {e}"));
        }
    }
    Ok(runs)
}

/// Runs one fault cell against a fresh server and judges it against the
/// clean baseline.
fn run_cell(cell: &NetCell, clean: &[TenantRun], seed: u64) -> Result<NetCellOutcome, String> {
    let handle = serve("127.0.0.1:0", cell_serve_opts()).map_err(|e| format!("bind: {e}"))?;
    let cfg = drive_cfg(handle.addr(), cell.tenants, seed);
    let plans: Vec<Option<NetFaultPlan>> = (0..cell.tenants)
        .map(|t| {
            // Write-side faults cut against the clean run's sent bytes,
            // read-side faults against its received bytes, so the cut
            // lands inside the traffic it perturbs.
            let clean_bytes = if cell.kind.on_recv() {
                clean[t].received
            } else {
                clean[t].sent
            };
            let cell_seed = fnv1a64_seeded(seed, cell.label().as_bytes()) ^ t as u64;
            Some(NetFaultPlan::new(
                cell.kind,
                cell_seed,
                0,
                cell.cut_offset(clean_bytes),
            ))
        })
        .collect();
    let runs = run_group(&cfg, &plans, seed ^ 0xbeef);
    handle.shutdown();
    handle.join();

    let mut retry = RetryCounters::default();
    for (t, run) in runs.iter().enumerate() {
        retry.absorb(&run.retry);
        if let Some(e) = &run.error {
            return Ok(NetCellOutcome::failed(
                retry,
                format!("tenant {t} unrecovered: {e}"),
            ));
        }
        if run.replies != clean[t].replies {
            let reason = format!(
                "tenant {t} reply stream diverged from clean run ({} vs {} replies)",
                run.replies.len(),
                clean[t].replies.len()
            );
            return Ok(NetCellOutcome::failed(retry, reason));
        }
    }
    if cell.kind.severs() && retry.reconnects == 0 {
        let reason = "severing fault produced no reconnects (cut never landed)".to_string();
        return Ok(NetCellOutcome::failed(retry, reason));
    }
    Ok(NetCellOutcome {
        retry,
        violations: Vec::new(),
    })
}

/// The idle-expiry cell: a tenant goes idle past the TTL, is parked, and
/// a re-attach must *continue* the session —
/// same reply chain, byte-identical `BatchDone`s as the one-tenant clean
/// run `control` — with at least one expiry counted.
fn run_expiry_cell(control: &[TenantRun], seed: u64) -> Result<NetCellOutcome, String> {
    if control[0].replies.len() < 2 {
        return Err("control run produced fewer than 2 batches".into());
    }

    let ttl = Duration::from_millis(30);
    let handle = serve(
        "127.0.0.1:0",
        ServeOpts {
            idle_ttl: Some(ttl),
            ..cell_serve_opts()
        },
    )
    .map_err(|e| format!("bind: {e}"))?;
    let cfg = drive_cfg(handle.addr(), 1, seed);
    let verdict = (|| -> Result<(), String> {
        // Batch 0 on a first connection, then detach.
        let mut c = Client::connect(cfg.addr).map_err(|e| format!("connect: {e}"))?;
        match c.hello(cfg.tenant_config(0)) {
            Ok(Frame::HelloAck { next_batch: 0, .. }) => {}
            other => return Err(format!("first hello: {other:?}")),
        }
        let first = c
            .call(&Frame::Batch {
                batch: 0,
                seqs: cfg.workload(0, 0),
            })
            .map_err(|e| format!("batch 0: {e}"))?;
        if first != control[0].replies[0] {
            return Err("batch 0 reply diverged from control".into());
        }
        let chain_after_0 = match first {
            Frame::BatchDone { chain, .. } => chain,
            ref other => return Err(format!("batch 0 reply: {other:?}")),
        };
        let _ = c.call(&Frame::Goodbye);
        drop(c);

        // Wait for the reaper to park the tenant.
        let deadline = Instant::now() + Duration::from_secs(5);
        while handle.stats().expiries == 0 {
            if Instant::now() >= deadline {
                return Err("tenant never expired (reaper idle?)".into());
            }
            std::thread::sleep(Duration::from_millis(5));
        }

        // Re-attach: the parked session must continue, not restart.
        let mut c = Client::connect(cfg.addr).map_err(|e| format!("reconnect: {e}"))?;
        match c.hello(cfg.tenant_config(0)) {
            Ok(Frame::HelloAck {
                next_batch,
                reply_chain,
                ..
            }) => {
                if next_batch != 1 {
                    return Err(format!(
                        "re-attached session expects batch {next_batch}, not 1 — restarted?"
                    ));
                }
                if reply_chain != chain_after_0 {
                    return Err("re-attached reply chain does not continue batch 0's".into());
                }
            }
            other => return Err(format!("re-attach hello: {other:?}")),
        }
        let second = c
            .call(&Frame::Batch {
                batch: 1,
                seqs: cfg.workload(0, 1),
            })
            .map_err(|e| format!("batch 1: {e}"))?;
        if second != control[0].replies[1] {
            return Err("batch 1 reply diverged from control after expiry and re-attach".into());
        }
        let _ = c.call(&Frame::Goodbye);
        Ok(())
    })();
    handle.shutdown();
    handle.join();
    Ok(NetCellOutcome {
        retry: RetryCounters::default(),
        violations: verdict.err().into_iter().collect(),
    })
}

/// The shed cell: a connection-capped server answers overload with a
/// typed [`Frame::Busy`]; the resilient client absorbs the shed notices
/// and still gets the one-tenant clean run's (`control`) replies.
fn run_shed_cell(control: &[TenantRun], seed: u64) -> Result<NetCellOutcome, String> {
    let handle = serve(
        "127.0.0.1:0",
        ServeOpts {
            max_conns: 1,
            busy_retry_ms: 5,
            ..cell_serve_opts()
        },
    )
    .map_err(|e| format!("bind: {e}"))?;
    let cfg = drive_cfg(handle.addr(), 1, seed);

    // Occupy the single connection slot, then release it mid-retry.
    let occupier = Client::connect(cfg.addr);
    let verdict = (|| -> Result<RetryCounters, String> {
        let mut occupier = occupier.map_err(|e| format!("occupier connect: {e}"))?;
        let release = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(40));
            let _ = occupier.call(&Frame::Goodbye);
        });
        let retry_opts = RetryOpts {
            max_attempts: 16,
            seed,
            ..RetryOpts::default()
        };
        let mut client = ResilientClient::new(cfg.addr, cfg.tenant_config(0), retry_opts);
        let mut replies = Vec::new();
        for batch in 0..cfg.batches {
            let seqs = cfg.workload(0, batch);
            let reply = client
                .run_batch(&seqs)
                .map_err(|e| format!("batch {batch} through shedding: {e}"))?;
            replies.push(reply);
        }
        client.goodbye();
        let _ = release.join();
        if replies != control[0].replies {
            return Err("reply stream diverged from clean run".into());
        }
        let counters = client.counters();
        if counters.sheds == 0 {
            return Err("client never observed a typed Busy (cap never hit)".into());
        }
        Ok(counters)
    })();
    let shed = handle.stats().shed;
    handle.shutdown();
    handle.join();
    Ok(match verdict {
        Ok(retry) if shed == 0 => {
            NetCellOutcome::failed(retry, "server counted no shed connections".into())
        }
        Ok(retry) => NetCellOutcome {
            retry,
            violations: Vec::new(),
        },
        Err(e) => NetCellOutcome::failed(RetryCounters::default(), e),
    })
}

/// Runs the full matrix (or the `quick` reduction: one cut fraction, one
/// tenant count) over the cells `filter` keeps, every fault schedule
/// derived from `seed`. Each tenant count's clean baseline runs once,
/// before the first kept cell that needs it; when it cannot run, the
/// cells that need it are erroring cells.
pub fn net_chaos_matrix(seed: u64, quick: bool, filter: &CellFilter) -> Matrix<NetCellOutcome> {
    let tenant_counts: &[usize] = if quick { &[2] } else { &[1, 3] };
    let fracs: &[f64] = if quick { &[0.6] } else { &[0.25, 0.6, 0.9] };
    let candidates = net_cells(tenant_counts, fracs)
        .into_iter()
        .map(Candidate::Fault)
        .chain([Candidate::IdleExpiry, Candidate::Shed]);
    let mut baselines = HashMap::new();
    Matrix::run(
        &["cell", "reconn", "retry", "replay", "shed", "t/o"],
        filter,
        candidates,
        |c| vec![c.label()],
        |c| {
            let tenants = match c {
                Candidate::Fault(cell) => cell.tenants,
                Candidate::IdleExpiry | Candidate::Shed => 1,
            };
            let clean = baselines
                .entry(tenants)
                .or_insert_with(|| clean_baseline(tenants, seed))
                .as_ref()
                .map_err(Clone::clone)?;
            match c {
                Candidate::Fault(cell) => run_cell(cell, clean, seed),
                Candidate::IdleExpiry => run_expiry_cell(clean, seed),
                Candidate::Shed => run_shed_cell(clean, seed),
            }
        },
    )
}
