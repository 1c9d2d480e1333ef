//! End-to-end repetitions: a fresh in-process server per repetition,
//! loaded through `ResilientClient::run_batch` by one thread per tenant.

use std::cell::Cell;
use std::net::SocketAddr;
use std::rc::Rc;
use std::time::{Duration, Instant};

use parapage_server::{
    serve, Client, Frame, ResilientClient, RetryOpts, ServeOpts, ServerHandle, TenantConfig,
};

use crate::replica::{self, Orders};
use crate::stats::{median, sorted};
use crate::trace::Tracer;
use crate::workloads::{mix, Inputs, Workload, KILL_TICK, MIGRATE_TICK};
use crate::{cpu, heap};

/// What a client saw of one `BatchDone`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Reply {
    pub digest: u64,
    pub chain: u64,
}

/// `serve()` until every tenant had its `HelloAck`, in seconds: of wall
/// time, and of CPU time of all threads (server and clients).
#[derive(Clone, Copy, Debug, Default)]
pub struct Setup {
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// One repetition's raw measurements.
#[derive(Default)]
pub struct Rep {
    pub setup: Setup,
    /// Timed phase: first send until the last tenant finished.
    pub wall_s: f64,
    pub requests: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Per completed batch (µs): from its send (closed loop) or its due
    /// time (open loop).
    pub lat_us: Vec<f64>,
    /// Open loop: how late each batch was sent (µs).
    pub lag_us: Vec<f64>,
    /// Process CPU time (all threads) during the timed phase, less the
    /// open-loop generator's waits for due times.
    pub cpu_s: f64,
    /// Per tenant, every reply in batch order.
    pub replies: Vec<Vec<Reply>>,
    pub kills: u64,
    /// The server's `restarts` counter after the timed phase.
    pub restarts: u64,
    /// `RetryCounters::recovered`, summed over clients.
    pub recovered: u64,
    pub errors: Vec<String>,
}

/// A server that is shut down and joined when dropped, so every thread it
/// started has ended on every exit path.
struct Running(Option<ServerHandle>);

impl Running {
    fn handle(&self) -> &ServerHandle {
        self.0.as_ref().expect("server is running until dropped")
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        if let Some(server) = self.0.take() {
            server.shutdown();
            server.join();
        }
    }
}

/// Starts a server and attaches every tenant; returns the attached
/// connections and the set-up time.
fn start(configs: &[TenantConfig]) -> Result<(Running, Vec<Client>, Setup), String> {
    let cpu0 = cpu::process_time()?;
    let t0 = Instant::now();
    let server = Running(Some(
        serve("127.0.0.1:0", ServeOpts::default()).map_err(|e| format!("serve: {e}"))?,
    ));
    let addr = server.handle().addr();
    let mut attached = Vec::with_capacity(configs.len());
    for cfg in configs {
        let mut c = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
        match c.hello(cfg.clone()) {
            Ok(Frame::HelloAck { .. }) => attached.push(c),
            other => return Err(format!("hello for {}: {other:?}", cfg.tenant)),
        }
    }
    let setup = Setup {
        wall_s: t0.elapsed().as_secs_f64(),
        cpu_s: (cpu::process_time()? - cpu0).as_secs_f64(),
    };
    Ok((server, attached, setup))
}

fn goodbye(mut c: Client) {
    let _ = c.call(&Frame::Goodbye);
}

/// One set-up measurement on its own server.
pub fn setup_sample(configs: &[TenantConfig]) -> Result<Setup, String> {
    let (_server, attached, setup) = start(configs)?;
    attached.into_iter().for_each(goodbye);
    Ok(setup)
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Sleeps until shortly before `t`, then yields until it passes: sleep
/// alone overshoots by the timer slack, which would show up as generator
/// lag on every batch.
fn wait_until(t: Instant) {
    const SPIN: Duration = Duration::from_micros(100);
    loop {
        let now = Instant::now();
        if now >= t {
            return;
        }
        if t - now > SPIN {
            std::thread::sleep(t - now - SPIN);
        } else {
            std::thread::yield_now();
        }
    }
}

/// Open-loop samples: per sent batch, its latency and send lag, both
/// timed from its due time.
#[derive(Debug, Default)]
pub struct Paced {
    pub lat: Vec<Duration>,
    pub lag: Vec<Duration>,
    /// CPU time the calling thread spent waiting for due times.
    pub wait_cpu: Duration,
}

/// Sends batch `i` at `start + due[i]` through `send` (which returns
/// `false` on failure, ending the run). The connection is request/reply,
/// so a slow reply delays every batch due behind it, and timing from the
/// due time charges that wait to them.
pub fn open_loop(start: Instant, due: &[Duration], mut send: impl FnMut(usize) -> bool) -> Paced {
    let mut out = Paced::default();
    for (i, &d) in due.iter().enumerate() {
        let due_at = start + d;
        let cpu0 = cpu::thread_time().unwrap_or_default();
        wait_until(due_at);
        out.wait_cpu += cpu::thread_time().unwrap_or_default().saturating_sub(cpu0);
        out.lag
            .push(Instant::now().saturating_duration_since(due_at));
        if !send(i) {
            break;
        }
        out.lat.push(due_at.elapsed());
    }
    out
}

#[derive(Default)]
struct TenantLoad {
    requests: u64,
    attempted: u64,
    failed: u64,
    lat_us: Vec<f64>,
    lag_us: Vec<f64>,
    wait_cpu: Duration,
    replies: Vec<Reply>,
    kills: u64,
    recovered: u64,
    errors: Vec<String>,
}

/// Submits tenant `t`'s batch `b`, after the kill and migration orders
/// when there is a control connection. Returns the instant the batch
/// request was handed to the client, or `None` on failure.
fn send_batch(
    client: &mut ResilientClient,
    control: &mut Option<Client>,
    inputs: &Inputs,
    t: usize,
    b: u64,
    out: &mut TenantLoad,
) -> Option<Instant> {
    out.attempted += 1;
    if let Some(c) = control {
        for order in [
            Frame::Kill {
                batch: b,
                at_tick: KILL_TICK,
            },
            Frame::Migrate {
                batch: b,
                at_tick: MIGRATE_TICK,
            },
        ] {
            match c.call(&order) {
                Ok(Frame::KillAck { .. } | Frame::MigrateAck { .. }) => {}
                other => {
                    out.errors
                        .push(format!("tenant {t} batch {b}: {order:?} -> {other:?}"));
                    out.failed += 1;
                    return None;
                }
            }
        }
        out.kills += 1;
    }
    let sent = Instant::now();
    match client.run_batch(inputs.batch(t, b)) {
        Ok(Frame::BatchDone {
            batch,
            digest,
            chain,
            ..
        }) if batch == b => {
            out.replies.push(Reply { digest, chain });
            out.requests += inputs.requests(t, b);
            Some(sent)
        }
        other => {
            out.errors.push(format!("tenant {t} batch {b}: {other:?}"));
            out.failed += 1;
            None
        }
    }
}

fn load_tenant(
    inputs: &Inputs,
    t: usize,
    batches: u64,
    addr: SocketAddr,
    mut control: Option<Client>,
    start: Instant,
    due: Option<Vec<Duration>>,
) -> TenantLoad {
    heap::exclude_this_thread();
    let cfg = &inputs.configs[t];
    let mut client = ResilientClient::new(
        addr,
        cfg.clone(),
        RetryOpts {
            seed: mix(cfg.seed),
            ..RetryOpts::default()
        },
    );
    let mut out = TenantLoad::default();
    if let Some(due) = due {
        let paced = open_loop(start, &due, |i| {
            send_batch(&mut client, &mut control, inputs, t, i as u64, &mut out).is_some()
        });
        out.lat_us = paced.lat.into_iter().map(us).collect();
        out.lag_us = paced.lag.into_iter().map(us).collect();
        out.wait_cpu = paced.wait_cpu;
    } else {
        for b in 0..batches {
            let Some(sent) = send_batch(&mut client, &mut control, inputs, t, b, &mut out) else {
                break;
            };
            out.lat_us.push(us(sent.elapsed()));
        }
    }
    client.goodbye();
    if let Some(c) = control {
        goodbye(c);
    }
    out.recovered = client.counters().recovered();
    out
}

/// Repetition `rep`: fresh server, `batches` batches per tenant. The
/// calling thread and the load threads are left out of the heap count for
/// good: only the server's threads are counted.
pub fn run_rep(w: &Workload, inputs: &Inputs, rep: usize, batches: u64) -> Result<Rep, String> {
    heap::exclude_this_thread();
    let dues: Vec<Option<Vec<Duration>>> = (0..inputs.configs.len())
        .map(|t| inputs.dues(t, rep, batches))
        .collect();
    let (server, attached, setup) = start(&inputs.configs)?;
    let addr = server.handle().addr();
    let controls: Vec<Option<Client>> = attached
        .into_iter()
        .map(|c| {
            if w.control {
                Some(c)
            } else {
                goodbye(c);
                None
            }
        })
        .collect();
    let cpu0 = cpu::process_time()?;
    let start = Instant::now();
    let loads: Vec<TenantLoad> = std::thread::scope(|scope| {
        let handles: Vec<_> = controls
            .into_iter()
            .zip(dues)
            .enumerate()
            .map(|(t, (control, due))| {
                scope.spawn(move || load_tenant(inputs, t, batches, addr, control, start, due))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = (cpu::process_time()? - cpu0).as_secs_f64();
    let restarts = server.handle().stats().restarts;
    drop(server);

    let mut rep = Rep {
        setup,
        wall_s,
        cpu_s,
        restarts,
        ..Rep::default()
    };
    for l in loads {
        rep.cpu_s -= l.wait_cpu.as_secs_f64();
        rep.requests += l.requests;
        rep.attempted += l.attempted;
        rep.failed += l.failed;
        rep.lat_us.extend(l.lat_us);
        rep.lag_us.extend(l.lag_us);
        rep.replies.push(l.replies);
        rep.kills += l.kills;
        rep.recovered += l.recovered;
        rep.errors.extend(l.errors);
    }
    Ok(rep)
}

/// Checks `samples` replies per tenant, spread over the run, against a
/// supervised replica of the batch; returns the mismatches.
pub fn spot_check(
    w: &Workload,
    inputs: &Inputs,
    replies: &[Vec<Reply>],
    samples: u64,
) -> Vec<String> {
    let tracer = Tracer::new();
    let no_sabotage = Rc::new(Cell::new(None));
    let orders = Orders::of(w);
    let mut failures = Vec::new();
    for (t, seen) in replies.iter().enumerate() {
        let n = seen.len() as u64;
        for i in 0..samples.min(n) {
            let b = i * n / samples.min(n);
            let cfg = &inputs.configs[t];
            match replica::supervised(cfg, b, inputs.batch(t, b), &orders, &tracer, &no_sabotage) {
                Ok(r) if replica::result_digest(b, &r.result) == seen[b as usize].digest => {}
                Ok(_) => failures.push(format!("tenant {t} batch {b}: replica digest differs")),
                Err(e) => failures.push(format!("tenant {t} batch {b}: {e}")),
            }
        }
    }
    failures
}

/// Median round trip of `Stats` over an attached loopback connection.
pub fn ping_p50_us(cfg: &TenantConfig, samples: usize) -> Result<f64, String> {
    let (_server, attached, _) = start(std::slice::from_ref(cfg))?;
    let mut c = attached.into_iter().next().expect("one tenant attached");
    let mut lat = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t0 = Instant::now();
        match c.call(&Frame::Stats) {
            Ok(Frame::StatsReply { .. }) => lat.push(us(t0.elapsed())),
            other => return Err(format!("Stats: {other:?}")),
        }
    }
    goodbye(c);
    Ok(median(&sorted(lat)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stalled_reply_delays_the_batches_behind_it() {
        // Batches due every millisecond; the reply to batch 0 takes 20 ms.
        // Timed from their due times, the batches queued behind it carry
        // the wait, and the generator reports them as sent late.
        let due: Vec<Duration> = (0..5).map(Duration::from_millis).collect();
        let start = Instant::now();
        let paced = open_loop(start, &due, |i| {
            if i == 0 {
                std::thread::sleep(Duration::from_millis(20));
            }
            true
        });
        assert_eq!(paced.lat.len(), 5);
        assert!(paced.lat[0] >= Duration::from_millis(20));
        for i in 1..5u64 {
            let behind = Duration::from_millis(20 - i);
            assert!(
                paced.lat[i as usize] >= behind,
                "batch {i}: {:?}",
                paced.lat[i as usize]
            );
            assert!(
                paced.lag[i as usize] >= behind,
                "batch {i}: {:?}",
                paced.lag[i as usize]
            );
        }
    }

    #[test]
    fn a_failed_send_ends_the_open_loop() {
        let due = vec![Duration::ZERO; 4];
        let paced = open_loop(Instant::now(), &due, |i| i < 2);
        assert_eq!((paced.lat.len(), paced.lag.len()), (2, 3));
    }

    #[test]
    fn waiting_for_due_times_is_counted_apart_from_sending() {
        // The generator first waits 5 ms, sleeping and then yielding; the
        // sends burn 20 ms of CPU. Only the wait is in `wait_cpu`.
        let due: Vec<Duration> = (1..=4).map(|i| Duration::from_millis(5 * i)).collect();
        let paced = open_loop(Instant::now(), &due, |_| {
            let until = Instant::now() + Duration::from_millis(5);
            while Instant::now() < until {
                std::hint::black_box(());
            }
            true
        });
        assert_eq!(paced.lat.len(), 4);
        assert!(
            paced.wait_cpu > Duration::ZERO && paced.wait_cpu < Duration::from_millis(10),
            "{:?}",
            paced.wait_cpu
        );
    }
}
