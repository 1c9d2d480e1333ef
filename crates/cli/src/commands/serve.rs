//! `parapage serve`: the long-lived multi-tenant paging daemon.
//!
//! Binds a TCP listener and serves the digest-framed wire protocol: each
//! connected tenant streams page-request batches through its own
//! supervised, WAL-checkpointed engine. Runs until a client sends
//! `Shutdown`, then prints the final operational counters.
//!
//! Flags: `--addr HOST:PORT` (default `127.0.0.1:7717`), `--max-tenants N`,
//! `--budget N` (per-tenant cumulative request budget, default unlimited),
//! `--epoch-ticks N` (WAL checkpoint cadence), `--max-retries N` (crash
//! budget per batch), `--read-timeout-ms N` (per-session read deadline, 0
//! to block forever), `--idle-ttl-ms N` (park tenants idle for N ms, out
//! of the tenant cap, until a `Hello` re-attaches them; 0 disables),
//! `--max-conns N`
//! (connection cap; beyond it new connections are shed with a typed
//! `Busy`).

use std::time::Duration;

use parapage_server::server::{serve, ServeOpts};

use crate::args::Args;

/// Executes the subcommand.
pub fn exec(args: &Args) -> Result<(), String> {
    let addr = args
        .opt("addr")
        .unwrap_or_else(|| "127.0.0.1:7717".to_string());
    let defaults = ServeOpts::default();
    let default_read_ms = defaults
        .read_timeout
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0);
    let read_timeout_ms: u64 = args.get("read-timeout-ms", default_read_ms)?;
    let idle_ttl_ms: u64 = args.get("idle-ttl-ms", 0)?;
    let opts = ServeOpts {
        max_tenants: args.get("max-tenants", defaults.max_tenants)?,
        request_budget: args.get("budget", defaults.request_budget)?,
        epoch_ticks: args.get("epoch-ticks", defaults.epoch_ticks)?,
        max_retries: args.get("max-retries", defaults.max_retries)?,
        read_timeout: (read_timeout_ms > 0).then(|| Duration::from_millis(read_timeout_ms)),
        idle_ttl: (idle_ttl_ms > 0).then(|| Duration::from_millis(idle_ttl_ms)),
        max_conns: args.get("max-conns", defaults.max_conns)?,
        busy_retry_ms: defaults.busy_retry_ms,
    };
    args.finish()?;
    let handle = serve(addr.as_str(), opts).map_err(|e| format!("bind {addr}: {e}"))?;
    println!(
        "parapage serve: listening on {} (max {} tenants, epoch every {} ticks)",
        handle.addr(),
        opts.max_tenants,
        opts.epoch_ticks
    );
    let stats = handle.join();
    println!(
        "parapage serve: shut down | {} tenants, {} batches, {} requests, \
         {} restarts, {} migrations, {} WAL records, {} checkpoint bytes, \
         {} idle expiries, {} shed connections",
        stats.tenants,
        stats.batches,
        stats.requests,
        stats.restarts,
        stats.migrations,
        stats.wal_records,
        stats.checkpoint_bytes,
        stats.expiries,
        stats.shed
    );
    Ok(())
}
