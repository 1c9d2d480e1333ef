//! The traced run: spans around every call into a layer, and the
//! per-layer table they add up to.
//!
//! Single-threaded and in-memory. For each traced batch, in order:
//!
//! 1. `batch` (the real path): the client encodes the `Batch` frame into a
//!    buffer, the server decodes it, the real `TenantSession::run_batch`
//!    runs it, and the reply frame is encoded and decoded the same way;
//! 2. `supervisor.replica`: the same supervised run rebuilt from public
//!    parts ([`crate::replica::supervised`]), with `checkpoint.*` and
//!    `wal.store` spans;
//! 3. `engine.run`: an unsupervised `Engine` run of the batch with a
//!    `policy` span per policy call and every cache call recorded;
//! 4. `cache.replay`: the recorded cache calls, timed into fresh caches.
//!
//! Spans of one request share its tenant and batch number. Self times of
//! the layers decompose the real path's wall time (see [`attribute`]).

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use parapage_server::protocol::{c2s_chain_seed, s2c_chain_seed};
use parapage_server::{Frame, TenantOpts, TenantSession, WireState};

use crate::e2e::Reply;
use crate::replica::{self, CacheLogs, Orders};
use crate::workloads::{Inputs, Workload};

/// One timed interval. `start`/`end` are nanoseconds since the tracer was
/// created; `parent` indexes the enclosing span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<u32>,
    pub tenant: u32,
    pub batch: u64,
}

/// Span recorder shared by the shims of one traced run.
pub struct Tracer {
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<u32>>,
    request: Cell<(u32, u64)>,
}

impl Tracer {
    pub fn new() -> Rc<Tracer> {
        Rc::new(Tracer {
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            request: Cell::new((0, 0)),
        })
    }

    /// Nanoseconds since the tracer was created.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Tags the spans that follow with a request.
    pub fn set_request(&self, tenant: usize, batch: u64) {
        self.request.set((tenant as u32, batch));
    }

    /// Records a finished span under the innermost open one.
    pub fn record(&self, name: &'static str, start: u64, end: u64) {
        let (tenant, batch) = self.request.get();
        self.spans.borrow_mut().push(Span {
            name,
            start,
            end,
            parent: self.open.borrow().last().copied(),
            tenant,
            batch,
        });
    }

    /// Opens a span; children recorded until [`Tracer::close`] nest in it.
    pub fn open(&self, name: &'static str) -> u32 {
        let start = self.now();
        self.record(name, start, start);
        let id = (self.spans.borrow().len() - 1) as u32;
        self.open.borrow_mut().push(id);
        id
    }

    pub fn close(&self, id: u32) {
        let end = self.now();
        self.spans.borrow_mut()[id as usize].end = end;
        let top = self.open.borrow_mut().pop();
        debug_assert_eq!(top, Some(id), "spans close in LIFO order");
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut self.spans.borrow_mut())
    }
}

/// Summed span durations (ns) of one traced run, by layer boundary.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SpanTotals {
    /// The real path: both frames' codec work plus `run_batch`.
    pub batch: f64,
    pub encode: f64,
    pub decode: f64,
    pub run_batch: f64,
    pub replica: f64,
    pub ckpt_encode: f64,
    pub ckpt_restore: f64,
    pub wal_store: f64,
    pub engine_run: f64,
    pub policy: f64,
    pub cache_replay: f64,
}

impl SpanTotals {
    fn add(&mut self, s: &Span) {
        let d = (s.end - s.start) as f64;
        let slot = match s.name {
            "batch" => &mut self.batch,
            "protocol.encode" => &mut self.encode,
            "protocol.decode" => &mut self.decode,
            "tenant.run_batch" => &mut self.run_batch,
            "supervisor.replica" => &mut self.replica,
            "checkpoint.encode" => &mut self.ckpt_encode,
            "checkpoint.restore" => &mut self.ckpt_restore,
            "wal.store" => &mut self.wal_store,
            "engine.run" => &mut self.engine_run,
            "policy" => &mut self.policy,
            "cache.replay" => &mut self.cache_replay,
            other => unreachable!("unknown span `{other}`"),
        };
        *slot += d;
    }
}

/// Self time per layer (ns, summed over the traced batches) and the two
/// validity checks.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Attribution {
    /// `(layer, self ns)`; negative means the estimate that feeds it is
    /// off, and the layer counts as 0 towards the reconciliation.
    pub layers: Vec<(&'static str, f64)>,
    /// |Σ self times − real-path wall| / real-path wall.
    pub reconcile_err: f64,
    /// Supervised replica wall / real `run_batch` wall − 1.
    pub trace_overhead: f64,
}

/// Largest tolerated reconciliation error and tracing overhead.
pub const MAX_RECONCILE_ERR: f64 = 0.10;
pub const MAX_TRACE_OVERHEAD: f64 = 0.10;

impl Attribution {
    pub fn valid(&self) -> bool {
        self.reconcile_err <= MAX_RECONCILE_ERR && self.trace_overhead <= MAX_TRACE_OVERHEAD
    }
}

/// Decomposes the real path's wall time into layer self times.
///
/// The real path is the codec spans plus `run_batch`. The replica stands
/// in for the inside of `run_batch`, and the unsupervised run for the
/// engine work inside the replica:
///
/// * tenant = run_batch − replica (session bookkeeping, reply building);
/// * supervisor = replica − checkpoint − wal − engine.run (epoch loop,
///   WAL delta and snapshot encoding, recovery scans, replayed ticks);
/// * engine = engine.run − policy − cache (event heap, windows, ledgers).
///
/// With every self time non-negative the layers sum to the real path
/// exactly, up to glue inside `batch` outside any child span; a negative
/// self time (say, a cache replay slower than the run it was recorded in)
/// is clamped to 0 and shows up as reconciliation error.
pub fn attribute(t: &SpanTotals) -> Attribution {
    let layers = vec![
        ("protocol", t.encode + t.decode),
        ("tenant", t.run_batch - t.replica),
        (
            "supervisor",
            t.replica - t.ckpt_encode - t.ckpt_restore - t.wal_store - t.engine_run,
        ),
        ("checkpoint", t.ckpt_encode + t.ckpt_restore),
        ("wal", t.wal_store),
        ("engine", t.engine_run - t.policy - t.cache_replay),
        ("policy", t.policy),
        ("cache", t.cache_replay),
    ];
    let sum: f64 = layers.iter().map(|&(_, ns)| ns.max(0.0)).sum();
    Attribution {
        layers,
        reconcile_err: (sum - t.batch).abs() / t.batch,
        trace_overhead: t.replica / t.run_batch - 1.0,
    }
}

/// What one traced run measured.
#[derive(Default)]
pub struct Traced {
    pub batches: u64,
    pub totals: SpanTotals,
    pub attribution: Attribution,
    pub wire_bytes: u64,
    pub ticks: u64,
    pub restores: u64,
    pub wal_records: u64,
    pub wal_bytes: u64,
    pub cache_calls: u64,
    pub hits: u64,
    pub misses: u64,
    pub policy_calls: u64,
    pub grants: u64,
    pub spans: Vec<Span>,
    /// Correctness failures (empty when every check passed).
    pub failures: Vec<String>,
}

impl Traced {
    /// Per-layer metrics, per batch unless a count.
    pub fn metrics(&self) -> BTreeMap<&'static str, f64> {
        let n = self.batches as f64;
        let t = &self.totals;
        let us = |ns: f64| ns / n / 1e3;
        let a = &self.attribution;
        BTreeMap::from([
            ("protocol.encode_us", us(t.encode)),
            ("protocol.decode_us", us(t.decode)),
            ("protocol.wire_bytes", self.wire_bytes as f64 / n),
            ("tenant.run_batch_us", us(t.run_batch)),
            ("tenant.trace_overhead", a.trace_overhead),
            ("supervisor.overhead_us", us(t.replica - t.engine_run)),
            ("supervisor.restores_per_batch", self.restores as f64 / n),
            (
                "engine.self_us",
                us(t.engine_run - t.policy - t.cache_replay),
            ),
            ("engine.ticks_per_batch", self.ticks as f64 / n),
            ("checkpoint.encode_us", us(t.ckpt_encode)),
            ("checkpoint.restore_us", us(t.ckpt_restore)),
            ("wal.store_us", us(t.wal_store)),
            ("wal.records_per_batch", self.wal_records as f64 / n),
            ("wal.bytes_per_batch", self.wal_bytes as f64 / n),
            (
                "cache.access_ns",
                t.cache_replay / (self.cache_calls.max(1)) as f64,
            ),
            ("cache.calls_per_batch", self.cache_calls as f64 / n),
            (
                "cache.hit_ratio",
                self.hits as f64 / (self.hits + self.misses).max(1) as f64,
            ),
            ("policy.us", us(t.policy)),
            ("policy.calls_per_batch", self.policy_calls as f64 / n),
            ("policy.grants_per_batch", self.grants as f64 / n),
            ("trace.reconcile_err", a.reconcile_err),
        ])
    }
}

/// Traces the first `batches` batches of every tenant. `e2e` holds the
/// replies an end-to-end repetition received (per tenant); each traced
/// reply must match it. `drop_call` arms the replica's sabotage hook.
pub fn traced_run(
    w: &Workload,
    inputs: &Inputs,
    batches: u64,
    e2e: &[Vec<Reply>],
    drop_call: Option<u64>,
) -> Traced {
    let tracer = Tracer::new();
    let logs = Rc::new(CacheLogs::default());
    let drop_call = Rc::new(Cell::new(drop_call));
    let mut out = Traced::default();
    let failures = &mut out.failures;
    let orders = Orders::of(w);
    struct Conn {
        session: TenantSession,
        client_tx: WireState,
        server_rx: WireState,
        server_tx: WireState,
        client_rx: WireState,
    }
    let mut conns: Vec<Conn> = inputs
        .configs
        .iter()
        .map(|cfg| Conn {
            session: TenantSession::new(cfg.clone(), TenantOpts::default()),
            client_tx: WireState::new(c2s_chain_seed()),
            server_rx: WireState::new(c2s_chain_seed()),
            server_tx: WireState::new(s2c_chain_seed()),
            client_rx: WireState::new(s2c_chain_seed()),
        })
        .collect();
    let (mut request, mut response) = (Vec::new(), Vec::new());

    'run: for b in 0..batches {
        for (t, conn) in conns.iter_mut().enumerate() {
            let cfg = &inputs.configs[t];
            let seqs = inputs.batch(t, b);
            tracer.set_request(t, b);
            for &tick in &orders.kills {
                conn.session.queue_kill(b, tick);
            }
            for &tick in &orders.migrations {
                conn.session.queue_migration(b, tick);
            }

            let root = tracer.open("batch");
            request.clear();
            response.clear();
            let sent = tracer.time("protocol.encode", || {
                let frame = Frame::Batch {
                    batch: b,
                    seqs: seqs.to_vec(),
                };
                conn.client_tx.write_frame(&mut request, &frame)
            });
            let received = tracer.time("protocol.decode", || {
                conn.server_rx.read_frame(&mut request.as_slice())
            });
            let reply = match (sent, received) {
                (Ok(()), Ok(Frame::Batch { batch, seqs })) => {
                    tracer.time("tenant.run_batch", || conn.session.run_batch(batch, &seqs))
                }
                (sent, received) => {
                    tracer.close(root);
                    failures.push(format!(
                        "tenant {t} batch {b}: request frame {sent:?} / {received:?}"
                    ));
                    break 'run;
                }
            };
            let reply = match reply {
                Ok(frame) => frame,
                Err((code, message)) => {
                    tracer.close(root);
                    failures.push(format!("tenant {t} batch {b}: error {code}: {message}"));
                    break 'run;
                }
            };
            let sent = tracer.time("protocol.encode", || {
                conn.server_tx.write_frame(&mut response, &reply)
            });
            let received = tracer.time("protocol.decode", || {
                conn.client_rx.read_frame(&mut response.as_slice())
            });
            tracer.close(root);
            let (digest, chain) = match (sent, received) {
                (Ok(()), Ok(Frame::BatchDone { digest, chain, .. })) => (digest, chain),
                (sent, received) => {
                    failures.push(format!(
                        "tenant {t} batch {b}: reply frame {sent:?} / {received:?}"
                    ));
                    break 'run;
                }
            };
            out.wire_bytes += (request.len() + response.len()) as u64;
            match e2e.get(t).and_then(|r| r.get(b as usize)) {
                Some(seen) if seen.digest == digest && seen.chain == chain => {}
                Some(seen) => failures.push(format!(
                    "tenant {t} batch {b}: traced reply {digest:#x}/{chain:#x} != \
                     end-to-end {:#x}/{:#x}",
                    seen.digest, seen.chain
                )),
                None => failures.push(format!("tenant {t} batch {b}: no end-to-end reply")),
            }

            let report = tracer.time("supervisor.replica", || {
                replica::supervised(cfg, b, seqs, &orders, &tracer, &drop_call)
            });
            let bare = tracer.time("engine.run", || {
                replica::unsupervised(cfg, b, seqs, &tracer, &logs)
            });
            let calls = replica::replay(&logs, cfg.shards, &tracer);
            match (report, bare, calls) {
                (Ok(report), Ok(bare), Ok(calls)) => {
                    if replica::result_digest(b, &report.result) != digest {
                        failures.push(format!("tenant {t} batch {b}: replica digest differs"));
                    }
                    if replica::result_digest(b, &bare.result) != digest {
                        failures.push(format!("tenant {t} batch {b}: unsupervised digest differs"));
                    }
                    out.restores += u64::from(report.resumes) + report.migrations;
                    out.wal_records += report.wal_records;
                    out.wal_bytes += report.checkpoint_bytes;
                    out.ticks += bare.ticks;
                    out.hits += bare.result.stats.hits;
                    out.misses += bare.result.stats.misses;
                    out.grants += bare.result.grants_issued;
                    out.cache_calls += calls;
                }
                (report, bare, calls) => {
                    for e in [report.err(), bare.err(), calls.err()]
                        .into_iter()
                        .flatten()
                    {
                        failures.push(format!("tenant {t} batch {b}: {e}"));
                    }
                    break 'run;
                }
            }
            out.batches += 1;
        }
    }

    out.spans = tracer.take_spans();
    for s in &out.spans {
        out.totals.add(s);
        out.policy_calls += u64::from(s.name == "policy");
    }
    out.attribution = attribute(&out.totals);
    if out.batches == 0 {
        out.failures.push("no batch was traced".into());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn totals() -> SpanTotals {
        SpanTotals {
            batch: 1000.0,
            encode: 60.0,
            decode: 40.0,
            run_batch: 880.0,
            replica: 900.0,
            ckpt_encode: 100.0,
            ckpt_restore: 20.0,
            wal_store: 30.0,
            engine_run: 600.0,
            policy: 100.0,
            cache_replay: 200.0,
        }
    }

    #[test]
    fn layers_decompose_the_real_path() {
        let a = attribute(&totals());
        let get = |name| a.layers.iter().find(|l| l.0 == name).unwrap().1;
        assert_eq!(get("protocol"), 100.0);
        assert_eq!(get("tenant"), -20.0);
        assert_eq!(get("supervisor"), 150.0);
        assert_eq!(get("checkpoint"), 120.0);
        assert_eq!(get("engine"), 300.0);
        // Σ clamped self times = 100 + 0 + 150 + 120 + 30 + 300 + 100 +
        // 200 = 1000: the clamped tenant layer and the 20 ns of glue cancel.
        assert!(a.reconcile_err.abs() < 1e-12);
        // The replica ran 900 against the real 880.
        assert!((a.trace_overhead - (900.0 / 880.0 - 1.0)).abs() < 1e-12);
        assert!(a.valid());
    }

    #[test]
    fn misattributed_time_fails_reconciliation() {
        // A cache replay slower than the run it was recorded in: engine
        // self time goes negative, is clamped, and the sum overshoots by
        // the 200 ns the engine layer could not give back.
        let a = attribute(&SpanTotals {
            cache_replay: 700.0,
            ..totals()
        });
        assert!((a.reconcile_err - 0.2).abs() < 1e-12, "{}", a.reconcile_err);
        assert!(!a.valid());
        // A replica 20% slower than the real run is too much tracing.
        let a = attribute(&SpanTotals {
            run_batch: 750.0,
            ..totals()
        });
        assert!((a.trace_overhead - 0.2).abs() < 1e-12);
        assert!(!a.valid());
    }
}
