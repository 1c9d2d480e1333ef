//! `servebench`: layered end-to-end benchmark of the `parapage serve`
//! tenant path (see README.md).
//!
//! ```text
//! servebench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! ```
//!
//! Without `--trace` it runs the end-to-end repetitions and then the traced
//! run; `--trace 0` runs only the former, `--trace 1` one repetition (for
//! the reply cross-check) and the traced run, so that a runner can take the
//! end-to-end and the per-layer metrics from separate invocations. The last
//! line of standard output is a JSON object with `correct`, `attempted`,
//! `failed` and `metrics`; the exit code is non-zero when any correctness
//! check failed.

mod cpu;
mod e2e;
mod heap;
mod pins;
mod replica;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::time::{Duration, Instant};

use e2e::{Rep, Reply};
use stats::{median, sorted, tail, Summary, Tail};
use trace::Traced;
use workloads::{Inputs, Workload};

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

/// Taken by every test that starts a server or measures something
/// process-wide (the heap count, the CPU clock), so that no two of them
/// run at once.
#[cfg(test)]
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());
    SERIAL.lock().unwrap_or_else(|p| p.into_inner())
}

const USAGE: &str =
    "usage: servebench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]";

/// End-to-end metrics in report order. Only those marked `true` are in
/// BENCHMARK.json, with a regression bound: the wall-clock metrics move
/// with the time the hypervisor of a shared host takes from the guest,
/// by more than the largest bound allowed (README, Host drift);
/// `failed_frac` is 0 on a clean run and reported as the result's `failed`
/// count; and the last two exist only in the open loop.
const E2E: [(&str, &str, bool); 10] = [
    ("setup_s", "s", true),
    ("setup_wall_s", "s", false),
    ("throughput_rps", "req/s", false),
    ("batch_p50_us", "us", false),
    ("batch_p99_us", "us", false),
    ("failed_frac", "ratio", false),
    ("cpu_us_per_batch", "us", true),
    ("heap_peak_mb", "MiB", true),
    ("late_frac", "ratio", false),
    ("gen_lag_p99_us", "us", false),
];

/// Per-layer metrics with their units, in report order. Those marked
/// `true` are in BENCHMARK.json; `checkpoint.restore_us` is not, because it
/// is exactly 0 on every workload without kills or migrations.
const LAYERS: [(&str, &str, bool); 23] = [
    ("protocol.encode_us", "us", true),
    ("protocol.decode_us", "us", true),
    ("protocol.wire_bytes", "count", true),
    ("net.ping_p50_us", "us", true),
    ("tenant.run_batch_us", "us", true),
    ("tenant.trace_overhead", "ratio", true),
    ("supervisor.overhead_us", "us", true),
    ("supervisor.restores_per_batch", "count", true),
    ("engine.self_us", "us", true),
    ("engine.ticks_per_batch", "count", true),
    ("checkpoint.encode_us", "us", true),
    ("checkpoint.restore_us", "us", false),
    ("wal.store_us", "us", true),
    ("wal.records_per_batch", "count", true),
    ("wal.bytes_per_batch", "count", true),
    ("cache.access_ns", "ns", true),
    ("cache.calls_per_batch", "count", true),
    ("cache.hit_ratio", "ratio", true),
    ("policy.us", "us", true),
    ("policy.calls_per_batch", "count", true),
    ("policy.grants_per_batch", "count", true),
    ("client.recovered", "count", true),
    ("trace.reconcile_err", "ratio", true),
];

/// How much work one invocation does.
#[derive(Clone, Copy, Debug)]
struct Scale {
    pool: usize,
    /// Batches per tenant per repetition; `None` takes the workload's.
    batches: Option<u64>,
    /// Set-up measurements on their own server, per repetition.
    setups_per_rep: usize,
    min_reps: usize,
    /// Replies per tenant checked against a replica after the repetitions.
    spot_checks: u64,
    ping_samples: usize,
}

const FULL: Scale = Scale {
    pool: workloads::POOL,
    batches: None,
    setups_per_rep: 12,
    min_reps: 3,
    spot_checks: 8,
    ping_samples: 10_000,
};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: Option<bool>,
    out: Option<String>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: 15,
        trace: None,
        out: None,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if workloads::by_name(&name).is_none() {
                    let names: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
                    return Err(format!("unknown workload `{name}` (one of {names:?})"));
                }
                args.workload = Some(name);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            "--out" => args.out = Some(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// The end-to-end metric values of one repetition, computed as soon as it
/// ends so that its samples can be freed.
struct RepValues {
    throughput: f64,
    p50: f64,
    p99: Option<Tail>,
    failed_frac: f64,
    cpu_per_batch: f64,
    late_frac: f64,
    lag_p99: Option<Tail>,
}

impl RepValues {
    /// `limit_us`: the open-loop latency limit (closed loop: infinite).
    fn of(rep: &Rep, limit_us: f64) -> RepValues {
        let lat = sorted(rep.lat_us.clone());
        let attempted = rep.attempted.max(1) as f64;
        let late = lat.iter().filter(|&&l| l > limit_us).count() as u64 + rep.failed;
        RepValues {
            throughput: rep.requests as f64 / rep.wall_s,
            p50: median(&lat),
            p99: tail(&lat, 0.99),
            failed_frac: rep.failed as f64 / attempted,
            cpu_per_batch: rep.cpu_s * 1e6 / lat.len() as f64,
            late_frac: late as f64 / attempted,
            lag_p99: tail(&sorted(rep.lag_us.clone()), 0.99),
        }
    }
}

/// Everything measured and checked for one workload.
struct WorkloadRun {
    w: &'static Workload,
    inputs: Inputs,
    batches: u64,
    reps: Vec<RepValues>,
    setups: Vec<e2e::Setup>,
    /// The first repetition's replies, per tenant; every later
    /// repetition must receive the same.
    replies: Vec<Vec<Reply>>,
    attempted: u64,
    failed: u64,
    recovered: u64,
    traced: Option<Traced>,
    ping_us: f64,
    /// Peak server heap of one repetition, in MiB.
    heap_mb: Option<f64>,
    failures: Vec<String>,
}

impl WorkloadRun {
    fn new(w: &'static Workload, seed: u64, scale: &Scale) -> WorkloadRun {
        WorkloadRun {
            w,
            inputs: w.inputs(seed, scale.pool),
            batches: scale.batches.unwrap_or(w.batches),
            reps: Vec::new(),
            setups: Vec::new(),
            replies: Vec::new(),
            attempted: 0,
            failed: 0,
            recovered: 0,
            traced: None,
            ping_us: f64::NAN,
            heap_mb: None,
            failures: Vec::new(),
        }
    }

    fn rep(&mut self, scale: &Scale) {
        for _ in 0..scale.setups_per_rep {
            match e2e::setup_sample(&self.inputs.configs) {
                Ok(s) => self.setups.push(s),
                Err(e) => self.failures.push(e),
            }
        }
        if let Some(rep) = self.checked_rep() {
            self.setups.push(rep.setup);
            let limit_us = self.w.pacing.map_or(f64::INFINITY, |p| p.limit_us);
            self.reps.push(RepValues::of(&rep, limit_us));
        }
    }

    /// `heap_peak_mb`: one more repetition, untimed, with the server's
    /// heap counted (counting slows every allocation).
    fn heap(&mut self) {
        if self.reps.is_empty() {
            return;
        }
        let (rep, peak) = heap::peak_during(|| self.checked_rep());
        if rep.is_some() {
            self.heap_mb = Some(peak as f64 / (1 << 20) as f64);
        }
    }

    /// Runs a repetition and checks it: no batch failed, `recovery`'s
    /// server restarted once per kill, and the replies are the first
    /// repetition's.
    fn checked_rep(&mut self) -> Option<Rep> {
        let i = self.reps.len();
        let mut rep = match e2e::run_rep(self.w, &self.inputs, i, self.batches) {
            Ok(rep) => rep,
            Err(e) => {
                self.failures.push(e);
                return None;
            }
        };
        self.attempted += rep.attempted;
        self.failed += rep.failed;
        self.recovered += rep.recovered;
        if rep.failed > 0 {
            self.failures.push(format!(
                "rep {i}: {} of {} batches failed: {:?}",
                rep.failed,
                rep.attempted,
                rep.errors.first()
            ));
        }
        if self.w.control && rep.restarts != rep.kills {
            self.failures.push(format!(
                "rep {i}: server restarts {} != kills issued {}",
                rep.restarts, rep.kills
            ));
        }
        if self.replies.is_empty() {
            self.replies = std::mem::take(&mut rep.replies);
        } else if rep.replies != self.replies {
            self.failures
                .push(format!("rep {i}: replies differ from rep 0's"));
        }
        Some(rep)
    }

    /// The correctness checks that need every repetition.
    fn check(&mut self, seed: u64, scale: &Scale) {
        if self.reps.is_empty() {
            self.failures.push("no repetition completed".into());
            return;
        }
        if seed == pins::SEED && scale.batches.is_none() {
            let got = final_chains(&self.replies);
            match pins::chains(self.w.name) {
                Some(want) if want == got.as_slice() => {}
                want => self
                    .failures
                    .push(format!("final reply chains {got:#x?} != pinned {want:#x?}")),
            }
        }
        let spot = e2e::spot_check(self.w, &self.inputs, &self.replies, scale.spot_checks);
        self.failures.extend(spot);
    }

    fn trace(&mut self, scale: &Scale) {
        if self.reps.is_empty() {
            return;
        }
        let traced = trace::traced_run(
            self.w,
            &self.inputs,
            self.batches.div_ceil(4),
            &self.replies,
            None,
        );
        self.failures.extend(traced.failures.iter().cloned());
        self.traced = Some(traced);
        match e2e::ping_p50_us(&self.inputs.configs[0], scale.ping_samples) {
            Ok(p50) => self.ping_us = p50,
            Err(e) => self.failures.push(format!("ping: {e}")),
        }
    }

    fn attempted(&self) -> u64 {
        self.attempted + self.traced.as_ref().map_or(0, |t| t.batches)
    }

    /// End-to-end metrics: each metric's per-repetition values (per
    /// set-up for the set-up times; empty where the metric does not
    /// apply), with a note.
    fn e2e_metrics(&self) -> BTreeMap<&'static str, Measured> {
        let per_rep = |f: &dyn Fn(&RepValues) -> f64, note: String| Measured {
            values: self.reps.iter().map(f).collect(),
            note,
        };
        let tails = |f: &dyn Fn(&RepValues) -> Option<Tail>| {
            tail_metric(&self.reps.iter().map(f).collect::<Vec<_>>())
        };
        let mut m = BTreeMap::new();
        let setups = |f: fn(&e2e::Setup) -> f64, what: &str| Measured {
            values: self.setups.iter().map(f).collect(),
            note: format!("{what}, {} set-ups", self.setups.len()),
        };
        m.insert("setup_s", setups(|s| s.cpu_s, "CPU time"));
        m.insert("setup_wall_s", setups(|s| s.wall_s, "wall time"));
        m.insert("throughput_rps", per_rep(&|r| r.throughput, String::new()));
        m.insert("batch_p50_us", per_rep(&|r| r.p50, String::new()));
        m.insert("batch_p99_us", tails(&|r| r.p99));
        m.insert(
            "failed_frac",
            per_rep(
                &|r| r.failed_frac,
                format!("{} of {} batches", self.failed, self.attempted),
            ),
        );
        m.insert(
            "cpu_us_per_batch",
            per_rep(&|r| r.cpu_per_batch, String::new()),
        );
        m.insert(
            "heap_peak_mb",
            Measured {
                values: self.heap_mb.into_iter().collect(),
                note: "server threads, one repetition".into(),
            },
        );
        match self.w.pacing {
            Some(pacing) => {
                m.insert(
                    "late_frac",
                    per_rep(
                        &|r| r.late_frac,
                        format!(
                            "limit {} us at {} batches/s",
                            pacing.limit_us, pacing.rate_per_s
                        ),
                    ),
                );
                m.insert("gen_lag_p99_us", tails(&|r| r.lag_p99));
            }
            None => {
                for name in ["late_frac", "gen_lag_p99_us"] {
                    m.insert(
                        name,
                        Measured {
                            values: Vec::new(),
                            note: "closed loop".into(),
                        },
                    );
                }
            }
        }
        m
    }

    fn layer_metrics(&self) -> BTreeMap<&'static str, f64> {
        let mut m = self
            .traced
            .as_ref()
            .map(Traced::metrics)
            .unwrap_or_default();
        m.insert("net.ping_p50_us", self.ping_us);
        m.insert("client.recovered", self.recovered as f64);
        m
    }
}

/// Per-repetition values of one end-to-end metric, and a note.
struct Measured {
    values: Vec<f64>,
    note: String,
}

impl Measured {
    fn summary(&self) -> Option<Summary> {
        (!self.values.is_empty()).then(|| Summary::of(&self.values))
    }

    /// The reported value: the median of the per-repetition values.
    fn value(&self) -> f64 {
        self.summary().map_or(f64::NAN, |s| s.median)
    }
}

/// Per-repetition tail percentiles, noting the quantile used and the
/// smallest sample count.
fn tail_metric(tails: &[Option<Tail>]) -> Measured {
    let got: Vec<Tail> = tails.iter().flatten().copied().collect();
    if got.len() < tails.len() {
        return Measured {
            values: Vec::new(),
            note: "fewer than 11 samples".into(),
        };
    }
    let q = got.iter().map(|t| t.q).fold(f64::INFINITY, f64::min);
    let n = got.iter().map(|t| t.samples).min().unwrap_or(0);
    Measured {
        values: got.iter().map(|t| t.value).collect(),
        note: format!("p{:.2} of >={n} samples per rep", q * 100.0),
    }
}

fn final_chains(replies: &[Vec<Reply>]) -> Vec<u64> {
    replies
        .iter()
        .map(|r| r.last().map_or(0, |reply| reply.chain))
        .collect()
}

/// Runs the end-to-end repetitions, interleaved across workloads so host
/// drift reaches every workload alike, then the heap repetition, the
/// checks and the traced run.
fn run(
    selected: &[&'static Workload],
    seed: u64,
    seconds: u64,
    trace: Option<bool>,
    scale: &Scale,
) -> Vec<WorkloadRun> {
    let mut runs: Vec<WorkloadRun> = selected
        .iter()
        .map(|w| WorkloadRun::new(w, seed, scale))
        .collect();
    let budget = Duration::from_secs(seconds) * runs.len() as u32;
    let start = Instant::now();
    for round in 1.. {
        for r in &mut runs {
            r.rep(scale);
        }
        let enough = round >= scale.min_reps && start.elapsed() >= budget;
        if trace == Some(true) || enough {
            break;
        }
    }
    for r in &mut runs {
        if trace != Some(true) {
            r.heap();
        }
        r.check(seed, scale);
        if trace != Some(false) {
            r.trace(scale);
        }
    }
    runs
}

fn fmt_num(v: f64) -> String {
    if !v.is_finite() {
        "n/a".into()
    } else if v.abs() >= 1000.0 || v == 0.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.4}")
    }
}

fn print_report(r: &WorkloadRun, trace: Option<bool>) {
    let w = r.w;
    println!("== {}: {} ==", w.name, w.shape);
    if trace != Some(true) {
        println!(
            "  end to end, {} reps of {} batches/tenant: median [q1, q3] spread",
            r.reps.len(),
            r.batches
        );
        let metrics = r.e2e_metrics();
        for (name, unit, _) in E2E {
            let note = &metrics[name].note;
            match metrics[name].summary() {
                Some(s) => println!(
                    "  {name:<18} {:>12} {unit:<6} [{}, {}] {:>6.1}%  {note}",
                    fmt_num(metrics[name].value()),
                    fmt_num(s.q1),
                    fmt_num(s.q3),
                    s.spread() * 100.0
                ),
                None => println!("  {name:<18} {:>12} {unit:<6} {note}", "n/a"),
            }
        }
    }
    if !r.replies.is_empty() {
        println!("  final reply chains {:#x?}", final_chains(&r.replies));
    }
    if let Some(t) = &r.traced {
        let a = &t.attribution;
        println!(
            "  layers, {} traced batches: self time per batch (share of the real path)",
            t.batches
        );
        for &(layer, ns) in &a.layers {
            println!(
                "  {layer:<12} {:>12} us  {:>6.1}%",
                fmt_num(ns / t.batches as f64 / 1e3),
                ns / t.totals.batch * 100.0
            );
        }
        println!(
            "  reconcile error {:.1}%, trace overhead {:.1}%: layer table {}",
            a.reconcile_err * 100.0,
            a.trace_overhead * 100.0,
            if a.valid() { "valid" } else { "INVALID" }
        );
        let m = r.layer_metrics();
        for (name, unit, _) in LAYERS {
            println!("  {name:<30} {:>12} {unit}", fmt_num(m[name]));
        }
    }
    if r.failures.is_empty() {
        println!("  checks: ok");
    } else {
        for f in &r.failures {
            println!("  CHECK FAILED: {f}");
        }
    }
}

/// Appends `"name": {"value": v, "unit": u}`; a value that is not a
/// finite number is written as `null`.
fn json_metric(out: &mut String, key: &str, value: f64, unit: &str) {
    if !out.ends_with('{') {
        out.push_str(", ");
    }
    let _ = write!(
        out,
        "\"{key}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
        json_f64(value)
    );
}

/// The result line: with one workload the metric names are bare, with
/// several they are prefixed `workload/`.
fn result_line(runs: &[WorkloadRun], trace: Option<bool>) -> String {
    let correct = runs.iter().all(|r| r.failures.is_empty());
    let attempted: u64 = runs.iter().map(WorkloadRun::attempted).sum();
    let failed: u64 = runs.iter().map(|r| r.failed).sum();
    let mut metrics = String::from("{");
    for r in runs {
        let key = |name: &str| {
            if runs.len() == 1 {
                name.to_string()
            } else {
                format!("{}/{name}", r.w.name)
            }
        };
        if trace != Some(true) {
            let m = r.e2e_metrics();
            for (name, unit, contract) in E2E {
                if contract {
                    json_metric(&mut metrics, &key(name), m[name].value(), unit);
                }
            }
        }
        if trace != Some(false) {
            let m = r.layer_metrics();
            for (name, unit, contract) in LAYERS {
                if contract {
                    json_metric(&mut metrics, &key(name), m[name], unit);
                }
            }
        }
    }
    metrics.push('}');
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {metrics}}}",
        attempted.max(1)
    )
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The `--out` document: every metric with its spread, the layer table,
/// the chains and the failures, per workload.
fn results_json(runs: &[WorkloadRun], seed: u64) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut s = format!("{{\"schema\": \"servebench/1\", \"seed\": {seed}, \"host_cores\": {cores}, \"workloads\": {{");
    for (i, r) in runs.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}{}: {{\"reps\": {}, \"batches_per_tenant\": {}",
            json_string(r.w.name),
            r.reps.len(),
            r.batches
        );
        s.push_str(", \"end_to_end\": {");
        let m = r.e2e_metrics();
        for (j, (name, unit, _)) in E2E.iter().enumerate() {
            let sep = if j == 0 { "" } else { ", " };
            let note = &m[name].note;
            let values: Vec<String> = m[name].values.iter().map(|&v| json_f64(v)).collect();
            let _ = match m[name].summary() {
                Some(x) => write!(
                    s,
                    "{sep}\"{name}\": {{\"unit\": \"{unit}\", \"value\": {}, \"q1\": {}, \"q3\": {}, \"spread\": {}, \"values\": [{}], \"note\": {}}}",
                    json_f64(x.median), json_f64(x.q1), json_f64(x.q3), json_f64(x.spread()), values.join(", "), json_string(note)
                ),
                None => write!(s, "{sep}\"{name}\": {{\"unit\": \"{unit}\", \"value\": null, \"note\": {}}}", json_string(note)),
            };
        }
        s.push('}');
        if let Some(t) = &r.traced {
            s.push_str(", \"per_layer\": {");
            let lm = r.layer_metrics();
            for (j, (name, unit, _)) in LAYERS.iter().enumerate() {
                let sep = if j == 0 { "" } else { ", " };
                let _ = write!(
                    s,
                    "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_f64(lm[name])
                );
            }
            s.push_str("}, \"layer_self_us\": {");
            for (j, (layer, ns)) in t.attribution.layers.iter().enumerate() {
                let sep = if j == 0 { "" } else { ", " };
                let _ = write!(
                    s,
                    "{sep}\"{layer}\": {}",
                    json_f64(ns / t.batches as f64 / 1e3)
                );
            }
            let _ = write!(s, "}}, \"layer_table_valid\": {}", t.attribution.valid());
        }
        let chains: Vec<String> = final_chains(&r.replies)
            .iter()
            .map(|c| format!("\"{c:#018x}\""))
            .collect();
        let failures: Vec<String> = r.failures.iter().map(|f| json_string(f)).collect();
        let _ = write!(
            s,
            ", \"final_chains\": [{}], \"failures\": [{}]}}",
            chains.join(", "),
            failures.join(", ")
        );
    }
    s.push_str("}}\n");
    s
}

/// Writes every recorded span, per workload, as `<out>.trace.json`.
fn write_trace(path: &str, runs: &[WorkloadRun]) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(
        f,
        "{{\"schema\": \"servebench-trace/1\", \"clock\": \"ns since the start of the workload's traced run\", \"workloads\": {{"
    )?;
    let mut first = true;
    for r in runs {
        let Some(t) = &r.traced else { continue };
        write!(
            f,
            "{}{}: [",
            if first { "" } else { ", " },
            json_string(r.w.name)
        )?;
        first = false;
        for (id, s) in t.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                f,
                "{}{{\"id\": {id}, \"name\": \"{}\", \"tenant\": {}, \"batch\": {}, \"start\": {}, \"end\": {}, \"parent\": {parent}}}",
                if id == 0 { "\n" } else { ",\n" },
                s.name,
                s.tenant,
                s.batch,
                s.start,
                s.end
            )?;
        }
        write!(f, "]")?;
    }
    writeln!(f, "}}}}")?;
    f.flush()
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let selected: Vec<&'static Workload> = match &args.workload {
        Some(name) => vec![workloads::by_name(name).expect("validated in parse_args")],
        None => workloads::ALL.iter().collect(),
    };
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "servebench: seed {}, {} s per workload, {cores} host cores",
        args.seed, args.seconds
    );
    let runs = run(&selected, args.seed, args.seconds, args.trace, &FULL);
    for r in &runs {
        print_report(r, args.trace);
    }
    let mut ok = runs.iter().all(|r| r.failures.is_empty());
    if let Some(out) = &args.out {
        let mut written = std::fs::write(out, results_json(&runs, args.seed));
        if written.is_ok() && runs.iter().any(|r| r.traced.is_some()) {
            written = write_trace(&format!("{out}.trace.json"), &runs);
        }
        if let Err(e) = written {
            eprintln!("servebench: writing {out}: {e}");
            ok = false;
        }
    }
    println!("{}", result_line(&runs, args.trace));
    std::process::exit(if ok { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMOKE: Scale = Scale {
        pool: 6,
        batches: Some(10),
        setups_per_rep: 1,
        min_reps: 1,
        spot_checks: 2,
        ping_samples: 50,
    };

    #[test]
    fn every_workload_runs_clean_at_smoke_size() {
        let _serial = serial();
        let all: Vec<&'static Workload> = workloads::ALL.iter().collect();
        let runs = run(&all, 7, 0, None, &SMOKE);
        for r in &runs {
            assert!(r.failures.is_empty(), "{}: {:?}", r.w.name, r.failures);
            assert_eq!(r.failed, 0, "{}", r.w.name);
            let heap_mb = r.heap_mb.expect("heap repetition");
            assert!(
                heap_mb > 0.0 && heap_mb < 256.0,
                "{}: {heap_mb} MiB",
                r.w.name
            );
            let traced = r.traced.as_ref().expect("traced run");
            assert_eq!(traced.batches, 3 * r.w.tenants as u64, "{}", r.w.name);
            let line = result_line(std::slice::from_ref(r), None);
            assert!(line.starts_with("{\"correct\": true"), "{line}");
        }
    }

    #[test]
    fn dropping_one_cache_call_fails_the_replica_digest_check() {
        let _serial = serial();
        let w = workloads::by_name("bulk-fit").unwrap();
        let inputs = w.inputs(7, 2);
        let rep = e2e::run_rep(w, &inputs, 0, 2).expect("end-to-end repetition");
        let clean = trace::traced_run(w, &inputs, 2, &rep.replies, None);
        assert!(clean.failures.is_empty(), "{:?}", clean.failures);
        let sabotaged = trace::traced_run(w, &inputs, 2, &rep.replies, Some(0));
        assert_eq!(
            sabotaged.failures,
            vec!["tenant 0 batch 0: replica digest differs".to_string()]
        );
    }

    #[test]
    fn arguments_are_validated() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload recovery --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("recovery"), 7, 3, Some(true))
        );
        assert!(parse("--workload nope").is_err());
        assert!(parse("--trace 2").is_err());
        assert!(parse("--seed").is_err());
    }
}
