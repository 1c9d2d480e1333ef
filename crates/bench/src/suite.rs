//! The perf-trajectory benchmark suite behind `parapage bench`.
//!
//! A fixed recipe of engine and sweep hot paths, each executed twice —
//! once pinned to one pool worker (`threads(1)`) and once at the
//! requested width — timed, digested, and compared:
//!
//! * the **digest** of every entry must be byte-identical across the two
//!   legs (the pool's determinism contract, checked end-to-end on real
//!   workloads rather than toy closures);
//! * the **wall-clock ratio** over the sweep entries is the measured
//!   multi-thread speedup, recorded in `BENCH_<n>.json` so future PRs
//!   have a trajectory to be gated against.
//!
//! Entry set (names are stable identifiers — downstream tooling compares
//! them across `BENCH_*.json` generations):
//!
//! | name                  | what it exercises                          |
//! |-----------------------|--------------------------------------------|
//! | `engine/det-par`      | single-threaded engine hot path (no pool)  |
//! | `sweep/policy-grid`   | policy × seed grid, one engine run per cell|
//! | `sweep/differential`  | conform's engine-vs-reference sweep        |
//! | `sweep/conform-matrix`| conform's policy × scenario invariant grid |
//! | `sweep/envelope`      | Theorem-4 competitive-ratio guardrails     |
//! | `checkpoint/full-snapshot` | per-epoch full-snapshot encoding cost |
//! | `checkpoint/wal-delta`| per-epoch WAL record (tick + digest)       |
//! | `server/wire-codec`   | serve protocol frame encode/verify/decode  |
//! | `concurrent/sharded-access` | pool workers on one shared sharded LRU |
//! | `ops/engine-step`     | raw engine event throughput (ticks/sec)    |
//! | `ops/lru-access`      | packed-LRU access throughput (single shard)|
//! | `ops/sharded-access`  | sharded-LRU routing + access, one thread   |
//! | `ops/sharded-exclusive` | the same stream, single-owner path       |
//! | `ops/digest`          | bulk integrity digest, bytes/sec           |
//! | `ops/digest-fnv`      | byte-serial FNV-1a on the same buffer      |
//! | `ops/mattson-curve`   | single-pass LRU miss curve, requests/sec   |
//! | `ops/belady-min`      | Belady MIN simulation, requests/sec        |
//! | `ops/green-opt`       | offline green-OPT DP, naive and Fenwick    |
//! | `ops/generators`      | workload generators, pages/sec             |
//! | `ops/ucp-repartition` | UCP engine runs at the monitor-ucp shape   |
//! | `ops/lru-thrash`      | served miss path: resized sharded LRU      |
//!
//! The two `checkpoint/*` entries additionally record their total payload
//! bytes (a deterministic function of the workload), pinning the WAL's
//! O(changes) size advantage over O(state) snapshots in the trajectory.
//!
//! The `ops/*` entries are single-thread microbenchmarks of the hot
//! paths: their `runs` count individual operations (engine events, cache
//! accesses, digested bytes), so `runs_per_sec_threads1` reads directly as
//! ops/sec — bytes/sec for the two digest entries. `ops/digest-fnv` is
//! unpinned: it records the byte-serial FNV-1a rate beside `ops/digest`,
//! the digest that replaced it on the bulk byte paths. The four analysis
//! and generator entries after it are unpinned too: they record the
//! throughput of the offline machinery the experiments lean on.
//! `ops/ucp-repartition` is pinned again: it counts UCP engine runs on
//! `monitor-ucp`-shaped batches, whose cost is mostly the policy's epoch
//! repartitions. `ops/lru-thrash` is pinned too: it isolates the served
//! miss path (lookup, victim delete, admit over a small, often-resized
//! sharded LRU), which the warm, presized `ops/*-access` streams do not.
//! Release builds are pinned against the floors in
//! [`OPS_FLOORS`] by `bench/tests/ops_regression.rs` and by the
//! `parapage bench` exit gate.

use std::time::Instant;

use parapage::core::policy;
use parapage::prelude::*;
use parapage::workloads::family::conformance_mix;
use rayon::pool;

/// FNV-1a 64-bit running digest over result summaries; collision
/// resistance is irrelevant here — any single-bit divergence between two
/// legs must flip it, and FNV over the full formatted summary does that.
pub struct Digest(u64);

impl Digest {
    /// Fresh digest with the standard FNV offset basis.
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    /// Folds a summary line into the digest.
    pub fn write(&mut self, s: &str) {
        for b in s.as_bytes() {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Digest {
    fn default() -> Self {
        Self::new()
    }
}

/// One entry leg's outcome.
pub struct EntryOut {
    /// Work units executed (engine runs / sweep cells / epochs).
    pub runs: usize,
    /// Result digest.
    pub digest: u64,
    /// Payload bytes produced (checkpoint entries only).
    pub bytes: Option<u64>,
}

impl EntryOut {
    fn plain(runs: usize, digest: u64) -> Self {
        EntryOut {
            runs,
            digest,
            bytes: None,
        }
    }
}

/// One timed suite entry.
pub struct EntryResult {
    /// Stable entry identifier (see the module table).
    pub name: &'static str,
    /// Whether the entry's inner loop runs on the pool (only these count
    /// toward the speedup aggregate).
    pub parallel: bool,
    /// Work units executed per leg (engine runs / sweep cells).
    pub runs: usize,
    /// Wall seconds under `threads(1)`.
    pub secs_base: f64,
    /// Wall seconds under the parallel width.
    pub secs_par: f64,
    /// Result digest of the `threads(1)` leg.
    pub digest_base: u64,
    /// Result digest of the parallel leg.
    pub digest_par: u64,
    /// Payload bytes produced (checkpoint entries only — deterministic, so
    /// both legs agree whenever the digests do).
    pub bytes: Option<u64>,
}

impl EntryResult {
    /// Parallel-leg speedup over the sequential leg.
    pub fn speedup(&self) -> f64 {
        self.secs_base / self.secs_par.max(1e-9)
    }

    /// `true` when both legs produced byte-identical results.
    pub fn deterministic(&self) -> bool {
        self.digest_base == self.digest_par
    }
}

/// The full suite outcome, ready for reporting and `BENCH_<n>.json`.
pub struct SuiteReport {
    /// Per-entry measurements, in recipe order.
    pub entries: Vec<EntryResult>,
    /// Worker width of the parallel leg.
    pub threads_par: usize,
    /// Hardware parallelism of the host.
    pub host_cores: usize,
    /// Whether the shrunk (`--quick`) recipe ran.
    pub quick: bool,
    /// Base RNG seed.
    pub seed: u64,
}

/// The speedup bar future PRs are gated against (aggregate over sweep
/// entries, full recipe, on a multi-core host).
pub const SPEEDUP_GATE: f64 = 1.5;

impl SuiteReport {
    /// Aggregate speedup: total sequential wall time of the pool-driven
    /// entries divided by their total parallel wall time.
    pub fn aggregate_speedup(&self) -> f64 {
        let base: f64 = self
            .entries
            .iter()
            .filter(|e| e.parallel)
            .map(|e| e.secs_base)
            .sum();
        let par: f64 = self
            .entries
            .iter()
            .filter(|e| e.parallel)
            .map(|e| e.secs_par)
            .sum();
        base / par.max(1e-9)
    }

    /// `true` when every entry was byte-identical across both legs.
    pub fn deterministic(&self) -> bool {
        self.entries.iter().all(EntryResult::deterministic)
    }

    /// Whether the speedup gate applies: a sequential host cannot speed
    /// up no matter how good the pool is, and the `--quick` recipe is too
    /// small to time reliably — both only *record* the trajectory.
    pub fn gate_enforced(&self) -> bool {
        self.host_cores >= 2 && self.threads_par >= 2 && !self.quick
    }

    /// Gate verdict (vacuously true when not enforced).
    pub fn gate_passed(&self) -> bool {
        !self.gate_enforced() || self.aggregate_speedup() >= SPEEDUP_GATE
    }

    /// Why the gate is waived, when it is (`None` when enforced).
    pub fn gate_waived_reason(&self) -> Option<&'static str> {
        if self.host_cores < 2 {
            Some("single-core host")
        } else if self.threads_par < 2 {
            Some("parallel leg pinned to one worker")
        } else if self.quick {
            Some("quick recipe too small to time reliably")
        } else {
            None
        }
    }

    /// Serializes the report as the `BENCH_<n>.json` document.
    pub fn to_json(&self, bench_id: &str) -> String {
        self.to_json_with(bench_id, None)
    }

    /// Like [`SuiteReport::to_json`], with an optional `"baseline"` block
    /// comparing this generation's single-thread rates against a prior
    /// `BENCH_<n>.json` (the `parapage bench --baseline` path).
    pub fn to_json_with(&self, bench_id: &str, baseline: Option<&BaselineComparison>) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"bench_id\": \"{bench_id}\",\n"));
        s.push_str(&format!("  \"quick\": {},\n", self.quick));
        s.push_str(&format!("  \"seed\": {},\n", self.seed));
        s.push_str(&format!("  \"host_cores\": {},\n", self.host_cores));
        s.push_str(&format!(
            "  \"threads\": {{ \"baseline\": 1, \"parallel\": {} }},\n",
            self.threads_par
        ));
        s.push_str("  \"entries\": [\n");
        for (i, e) in self.entries.iter().enumerate() {
            let bytes = e
                .bytes
                .map(|b| format!("\"bytes\": {b}, "))
                .unwrap_or_default();
            s.push_str(&format!(
                "    {{ \"name\": \"{}\", \"parallel\": {}, \"runs\": {}, \
                 \"secs_threads1\": {:.6}, \"secs_parallel\": {:.6}, \
                 \"runs_per_sec_threads1\": {:.3}, \"runs_per_sec_parallel\": {:.3}, \
                 \"speedup\": {:.3}, \"deterministic\": {}, {bytes}\"digest\": \"{:016x}\" }}{}\n",
                e.name,
                e.parallel,
                e.runs,
                e.secs_base,
                e.secs_par,
                e.runs as f64 / e.secs_base.max(1e-9),
                e.runs as f64 / e.secs_par.max(1e-9),
                e.speedup(),
                e.deterministic(),
                e.digest_base,
                if i + 1 < self.entries.len() { "," } else { "" }
            ));
        }
        s.push_str("  ],\n");
        s.push_str(&format!(
            "  \"aggregate_speedup\": {:.3},\n",
            self.aggregate_speedup()
        ));
        s.push_str(&format!("  \"deterministic\": {},\n", self.deterministic()));
        // `host_cores` appears unconditionally: the gate consumer needs it
        // to interpret a pass (was this a real multi-core win?) just as
        // much as a waiver, so it cannot ride on the waiver branch.
        s.push_str(&format!(
            "  \"gate\": {{ \"min_speedup\": {SPEEDUP_GATE}, \"host_cores\": {}, \
             \"enforced\": {}, \"waived\": {}, \
             \"waived_reason\": {}, \"passed\": {} }}{}\n",
            self.host_cores,
            self.gate_enforced(),
            !self.gate_enforced(),
            self.gate_waived_reason()
                .map(|r| format!("\"{r}\""))
                .unwrap_or_else(|| "null".to_string()),
            self.gate_passed(),
            if baseline.is_some() { "," } else { "" }
        ));
        if let Some(cmp) = baseline {
            s.push_str(&cmp.to_json_block(!self.quick));
        }
        s.push_str("}\n");
        s
    }
}

/// Minimum aggregate single-thread improvement over a `--baseline`
/// generation: the geometric mean of per-entry ops/sec ratios across the
/// entries both generations share must reach this bar on a full-recipe
/// run. The geometric mean is the standard cross-benchmark throughput
/// aggregate — it weights every entry equally instead of letting the
/// slowest entry's wall time dominate.
pub const BASELINE_IMPROVEMENT_GATE: f64 = 1.3;

/// One entry shared between this report and a baseline generation.
pub struct BaselineDelta {
    /// Entry name (present in both generations).
    pub name: String,
    /// Baseline single-thread throughput (runs/sec).
    pub base_rate: f64,
    /// This report's single-thread throughput (runs/sec).
    pub new_rate: f64,
}

impl BaselineDelta {
    /// Per-entry improvement factor (`> 1` means faster now).
    pub fn ratio(&self) -> f64 {
        self.new_rate / self.base_rate.max(1e-9)
    }
}

/// The single-thread comparison of one suite run against a prior
/// `BENCH_<n>.json`.
pub struct BaselineComparison {
    /// `bench_id` of the baseline document.
    pub baseline_id: String,
    /// Shared entries, in this report's recipe order.
    pub entries: Vec<BaselineDelta>,
}

impl BaselineComparison {
    /// Aggregate improvement: geometric mean of the shared entries'
    /// per-entry ratios (1.0 when no entries are shared).
    pub fn aggregate_improvement(&self) -> f64 {
        if self.entries.is_empty() {
            return 1.0;
        }
        let log_sum: f64 = self.entries.iter().map(|e| e.ratio().max(1e-9).ln()).sum();
        (log_sum / self.entries.len() as f64).exp()
    }

    /// Gate verdict: enforced only on full-recipe runs (`--quick` is too
    /// small to time reliably), vacuously true otherwise.
    pub fn gate_passed(&self, enforced: bool) -> bool {
        !enforced || self.aggregate_improvement() >= BASELINE_IMPROVEMENT_GATE
    }

    /// The `"baseline"` JSON block embedded in `BENCH_<n>.json`.
    fn to_json_block(&self, enforced: bool) -> String {
        let mut s = String::new();
        s.push_str("  \"baseline\": {\n");
        s.push_str(&format!("    \"bench_id\": \"{}\",\n", self.baseline_id));
        s.push_str("    \"entries\": [\n");
        for (i, e) in self.entries.iter().enumerate() {
            s.push_str(&format!(
                "      {{ \"name\": \"{}\", \"base_runs_per_sec\": {:.3}, \
                 \"runs_per_sec\": {:.3}, \"improvement\": {:.3} }}{}\n",
                e.name,
                e.base_rate,
                e.new_rate,
                e.ratio(),
                if i + 1 < self.entries.len() { "," } else { "" }
            ));
        }
        s.push_str("    ],\n");
        s.push_str(&format!(
            "    \"aggregate_improvement\": {:.3},\n",
            self.aggregate_improvement()
        ));
        s.push_str(&format!(
            "    \"gate\": {{ \"min_improvement\": {BASELINE_IMPROVEMENT_GATE}, \
             \"enforced\": {enforced}, \"passed\": {} }}\n",
            self.gate_passed(enforced)
        ));
        s.push_str("  }\n");
        s
    }
}

/// Hand-parses `(bench_id, per-entry single-thread rates)` out of a prior
/// `BENCH_<n>.json` — the suite's own writer format, one entry object per
/// line, so a line scan suffices (the tree deliberately has no JSON
/// dependency).
pub fn parse_baseline(json: &str) -> Result<(String, Vec<(String, f64)>), String> {
    fn str_field(line: &str, key: &str) -> Option<String> {
        let pat = format!("\"{key}\": \"");
        let start = line.find(&pat)? + pat.len();
        let end = line[start..].find('"')? + start;
        Some(line[start..end].to_string())
    }
    fn num_field(line: &str, key: &str) -> Option<f64> {
        let pat = format!("\"{key}\": ");
        let start = line.find(&pat)? + pat.len();
        let tail = &line[start..];
        let end = tail
            .find(|c: char| c != '-' && c != '.' && !c.is_ascii_digit())
            .unwrap_or(tail.len());
        tail[..end].parse().ok()
    }
    let mut bench_id = None;
    let mut entries = Vec::new();
    let mut in_baseline_block = false;
    for line in json.lines() {
        // A baseline document may itself embed a "baseline" block from an
        // even earlier generation; its entries must not be mistaken for
        // the document's own.
        if line.trim_start().starts_with("\"baseline\"") {
            in_baseline_block = true;
        }
        if bench_id.is_none() && !in_baseline_block {
            if let Some(id) = str_field(line, "bench_id") {
                bench_id = Some(id);
            }
        }
        if in_baseline_block {
            continue;
        }
        if let (Some(name), Some(rate)) = (
            str_field(line, "name"),
            num_field(line, "runs_per_sec_threads1"),
        ) {
            entries.push((name, rate));
        }
    }
    let id = bench_id.ok_or("baseline file has no \"bench_id\" field")?;
    if entries.is_empty() {
        return Err(format!(
            "baseline {id} has no entries with runs_per_sec_threads1"
        ));
    }
    Ok((id, entries))
}

impl SuiteReport {
    /// Compares this report's single-thread rates against a parsed
    /// baseline, keeping only the entries both generations share.
    pub fn compare_baseline(
        &self,
        baseline_id: &str,
        base_rates: &[(String, f64)],
    ) -> BaselineComparison {
        let entries = self
            .entries
            .iter()
            .filter_map(|e| {
                let (_, base_rate) = base_rates.iter().find(|(n, _)| n == e.name)?;
                Some(BaselineDelta {
                    name: e.name.to_string(),
                    base_rate: *base_rate,
                    new_rate: e.runs as f64 / e.secs_base.max(1e-9),
                })
            })
            .collect();
        BaselineComparison {
            baseline_id: baseline_id.to_string(),
            entries,
        }
    }
}

/// Folds the scalar outcome of one engine run into a digest.
fn digest_run(d: &mut Digest, r: &RunResult) {
    d.write(&format!(
        "makespan={} completions={:?} misses={} hits={} peak={} integral={} grants={} \
         faults={} degraded={}",
        r.makespan,
        r.completions,
        r.stats.misses,
        r.stats.hits,
        r.peak_memory,
        r.memory_integral,
        r.grants_issued,
        r.faults_injected,
        r.degraded_grants
    ));
}

/// Runs one named box policy on the workload.
fn run_policy(name: &str, w: &Workload, params: &ModelParams, seed: u64) -> RunResult {
    let mut alloc = policy::build(name, params, seed, false).expect("suite policy");
    run_engine(&mut *alloc, w.seqs(), params, &EngineOpts::default()).expect("bench run")
}

/// The bench workload: the conformance mix.
fn bench_workload(p: usize, k: usize, len: usize, seed: u64) -> Workload {
    build_workload(&conformance_mix(p, k, len), seed)
}

/// Entry 1: the single-threaded engine hot path — no pool involvement, so
/// its speedup is expected to be ≈1; it anchors the trajectory with an
/// absolute engine-throughput number.
fn entry_engine(quick: bool, seed: u64) -> EntryOut {
    let repeats = if quick { 2 } else { 6 };
    let params = ModelParams::new(8, 128, 16);
    let w = bench_workload(8, 128, if quick { 2000 } else { 5000 }, seed);
    let mut d = Digest::new();
    for r in 0..repeats {
        let res = run_policy("det-par", &w, &params, seed ^ r as u64);
        digest_run(&mut d, &res);
    }
    EntryOut::plain(repeats, d.finish())
}

/// Entry 2: the policy × seed grid — the shape every E-binary sweep has.
fn entry_policy_grid(quick: bool, seed: u64) -> EntryOut {
    use rayon::prelude::*;
    let seeds: u64 = if quick { 2 } else { 4 };
    let params = ModelParams::new(8, 128, 16);
    let w = bench_workload(8, 128, if quick { 1200 } else { 3000 }, seed);
    let cells: Vec<(&str, u64)> = policy::NAMES
        .iter()
        .flat_map(|&pol| (0..seeds).map(move |s| (pol, s)))
        .collect();
    let results: Vec<RunResult> = cells
        .par_iter()
        .map(|&(pol, s)| run_policy(pol, &w, &params, seed ^ s))
        .collect();
    let mut d = Digest::new();
    for ((pol, s), res) in cells.iter().zip(&results) {
        d.write(&format!("{pol}/{s}:"));
        digest_run(&mut d, res);
    }
    EntryOut::plain(cells.len(), d.finish())
}

/// Entry 3: conform's engine-vs-reference differential sweep.
fn entry_differential(quick: bool, seed: u64) -> EntryOut {
    let count = if quick { 60 } else { 250 };
    let report = differential_sweep(count, seed);
    let mut d = Digest::new();
    d.write(&format!("runs={}", report.runs));
    for div in &report.divergences {
        d.write(&format!("{} — {}", div.recipe, div.detail));
    }
    EntryOut::plain(count, d.finish())
}

/// Entry 4: conform's policy × scenario invariant matrix.
fn entry_conform_matrix(quick: bool, seed: u64) -> EntryOut {
    let params = ModelParams::new(4, 32, 10);
    let w = bench_workload(4, 32, if quick { 300 } else { 800 }, seed);
    let matrix = conform_matrix(w.seqs(), &params, seed, 4000);
    let mut d = Digest::new();
    for c in &matrix.cells {
        let r = c.outcome.as_ref().expect("conform matrix cell");
        d.write(&format!(
            "{}/{} hardened={} outcome={} events={} violations={:?}",
            r.policy, r.scenario, r.hardened, r.outcome, r.events, r.violations
        ));
    }
    EntryOut::plain(matrix.cells.len(), d.finish())
}

/// Entry 5: the Theorem-4 competitive-ratio guardrails.
fn entry_envelope(quick: bool, seed: u64) -> EntryOut {
    let report = competitive_envelope(quick, seed).expect("envelope");
    let mut d = Digest::new();
    for e in &report.entries {
        d.write(&format!(
            "{} {} p={} ratio={:.6} bound={:.6}",
            e.policy, e.instance, e.p, e.ratio, e.bound
        ));
    }
    EntryOut::plain(report.entries.len(), d.finish())
}

/// Shared core of the two `checkpoint/*` entries: drive one det-par run
/// tick by tick, emitting a checkpoint every `CKPT_EPOCH` ticks — either a
/// full snapshot re-encode or a WAL record payload (the epoch's end tick
/// and progress digest) — and count the payload bytes. Byte counts are a
/// deterministic function of the workload, so they double as the
/// determinism digest.
const CKPT_EPOCH: u64 = 8;

/// Per-epoch checkpoint cost measurement; `wal` selects record vs full.
pub fn checkpoint_cost(quick: bool, seed: u64, wal: bool) -> EntryOut {
    let params = ModelParams::new(4, 32, 8);
    let w = bench_workload(4, 32, if quick { 4000 } else { 10000 }, seed);
    let mut alloc = DetPar::new(&params);
    let opts = EngineOpts::default();
    let plan = FaultPlan::none();
    let mut engine = Engine::new(&mut alloc, w.seqs(), &params, &opts, &plan, |_| {
        LruCache::new(0)
    });
    let mut sink = NullSink;
    let mut bytes = 0u64;
    let mut epochs = 0usize;
    // Cut epochs on the engine's logical clock (events processed), not on
    // step() calls: one step may process a whole timestamp batch, and an
    // epoch is a fixed amount of *work*, exactly as the supervisor counts.
    let mut next_ckpt = CKPT_EPOCH;
    while engine
        .step(&mut alloc, &mut sink)
        .expect("bench engine step")
    {
        let ticks = engine.ticks();
        if ticks >= next_ckpt {
            epochs += 1;
            bytes += if wal {
                engine.wal_mark().encode().len() as u64
            } else {
                engine.snapshot(&alloc).expect("snapshot").encode().len() as u64
            };
            next_ckpt = ticks - ticks % CKPT_EPOCH + CKPT_EPOCH;
        }
    }
    let mut d = Digest::new();
    d.write(&format!("epochs={epochs} bytes={bytes}"));
    EntryOut {
        runs: epochs,
        digest: d.finish(),
        bytes: Some(bytes),
    }
}

/// Entry 6: per-epoch full-snapshot encoding cost (the pre-WAL supervisor
/// cadence). A snapshot is O(p·k + policy) bytes, so `bytes` tracks the
/// caches and the policy state, not the run length.
fn entry_ckpt_full(quick: bool, seed: u64) -> EntryOut {
    checkpoint_cost(quick, seed, false)
}

/// Entry 7: per-epoch WAL record cost — must stay well below
/// `checkpoint/full-snapshot`.
fn entry_ckpt_wal(quick: bool, seed: u64) -> EntryOut {
    checkpoint_cost(quick, seed, true)
}

/// Entry 8: the serve wire codec — frame encode + digest-chain + decode of
/// a realistic request/reply mix (Batch frames dominating, as in a drive
/// run). Single-threaded: it measures codec throughput, not pool scaling,
/// so it stays out of the speedup aggregate.
fn entry_wire_codec(quick: bool, seed: u64) -> EntryOut {
    use parapage_server::protocol::{c2s_chain_seed, Frame, WireState};
    let frames = if quick { 2_000 } else { 10_000 };
    let mut tx = WireState::new(c2s_chain_seed());
    let mut rx = WireState::new(c2s_chain_seed());
    let mut d = Digest::new();
    let mut x = seed | 1;
    for i in 0..frames as u64 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let frame = match i % 4 {
            0..=2 => Frame::Batch {
                batch: i,
                seqs: (0..4)
                    .map(|p| {
                        (0..32)
                            .map(|j| PageId((x >> 17) ^ ((p * 131 + j) % 256)))
                            .collect()
                    })
                    .collect(),
            },
            _ => Frame::BatchDone {
                batch: i,
                makespan: x >> 40,
                hits: x & 0xffff,
                misses: (x >> 16) & 0xffff,
                grants: i,
                digest: x,
                chain: x.rotate_left(17),
            },
        };
        let mut buf = Vec::new();
        tx.write_frame(&mut buf, &frame).expect("bench wire write");
        let back = rx.read_frame(&mut &buf[..]).expect("bench wire read");
        assert_eq!(back, frame);
        d.write(&format!("i={i} len={}", buf.len()));
    }
    EntryOut::plain(frames, d.finish())
}

/// Entry 9: concurrent sharded-cache access. Pool workers hammer one
/// *shared* [`ShardedCache<LruCache>`]; each work unit owns the shards
/// whose index matches its own (pages are rejection-sampled onto owned
/// shards), so per-unit hit/miss counts are independent of interleaving
/// and the digest stays byte-identical across pool widths while the shard
/// mutexes and routing still run under real multi-thread traffic.
fn entry_concurrent_sharded(quick: bool, seed: u64) -> EntryOut {
    use rayon::prelude::*;
    const UNITS: usize = 8;
    let per = if quick { 4_000 } else { 20_000 };
    let cache = ShardedCache::<LruCache>::with_shards(256, UNITS);
    let units: Vec<usize> = (0..UNITS).collect();
    let outs: Vec<(usize, usize)> = units
        .par_iter()
        .map(|&u| {
            let mut x = seed ^ (u as u64) << 7 | 1;
            let (mut hits, mut misses) = (0usize, 0usize);
            let mut produced = 0usize;
            while produced < per {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let page = PageId((x >> 33) % 512);
                if cache.shard_of(page) != u {
                    continue; // not an owned shard: skip, stay disjoint
                }
                produced += 1;
                if cache.access_shared(page).is_hit() {
                    hits += 1;
                } else {
                    misses += 1;
                }
            }
            (hits, misses)
        })
        .collect();
    let mut d = Digest::new();
    for (u, (hits, misses)) in outs.iter().enumerate() {
        d.write(&format!("unit={u} hits={hits} misses={misses}"));
    }
    d.write(&format!("len={}", cache.len_shared()));
    EntryOut::plain(UNITS * per, d.finish())
}

/// Entry 10: raw engine event throughput. One det-par run stepped to
/// completion with a null sink and no checkpoint traffic; `runs` counts
/// events processed (the engine's tick clock), so `runs_per_sec_threads1`
/// reads as engine events per second. This is the number the batched
/// grant dispatch moves.
fn entry_ops_engine_step(quick: bool, seed: u64) -> EntryOut {
    let repeats = if quick { 3 } else { 8 };
    let params = ModelParams::new(8, 128, 16);
    let w = bench_workload(8, 128, if quick { 4000 } else { 20000 }, seed);
    let opts = EngineOpts::default();
    let plan = FaultPlan::none();
    let mut total_ticks = 0u64;
    let mut d = Digest::new();
    for _ in 0..repeats {
        let mut alloc = DetPar::new(&params);
        let mut engine = Engine::new(&mut alloc, w.seqs(), &params, &opts, &plan, |_| {
            LruCache::new(0)
        });
        let mut sink = NullSink;
        while engine.step(&mut alloc, &mut sink).expect("ops engine step") {}
        let ticks = engine.ticks();
        total_ticks += ticks;
        let res = engine.into_result(&alloc);
        d.write(&format!("ticks={ticks}"));
        digest_run(&mut d, &res);
    }
    EntryOut::plain(total_ticks as usize, d.finish())
}

/// The deterministic page stream behind both `ops/*-access` entries: an
/// LCG whose draws mostly land in a hot set half the cache's size (hits
/// after warmup) and occasionally in a universe four times the capacity
/// (misses + evictions), so the packed LRU's promote, evict, and
/// index-probe paths all stay hot.
fn ops_access_page(x: &mut u64, capacity: u64) -> PageId {
    *x = x
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    if *x & 3 != 0 {
        PageId((*x >> 16) % (capacity / 2))
    } else {
        PageId((*x >> 16) % (capacity * 4))
    }
}

/// Entry 11: packed-LRU access throughput — the innermost operation of
/// every simulated request, measured bare: one `LruCache`, one thread,
/// a mixed hit/miss stream. `runs` counts accesses.
fn entry_ops_lru_access(quick: bool, seed: u64) -> EntryOut {
    const K: usize = 256;
    let accesses = if quick { 200_000 } else { 1_000_000 };
    let mut cache = LruCache::new(K);
    let (mut hits, mut misses) = (0u64, 0u64);
    let mut x = seed | 1;
    for _ in 0..accesses {
        let page = ops_access_page(&mut x, K as u64);
        if cache.access(page).is_hit() {
            hits += 1;
        } else {
            misses += 1;
        }
    }
    let mut d = Digest::new();
    d.write(&format!("hits={hits} misses={misses} len={}", cache.len()));
    EntryOut::plain(accesses, d.finish())
}

/// Runs the `ops/lru-access` stream through `cache`, a sharded LRU of 8
/// shards, each request served by `access`; `runs` counts accesses. Both
/// sharded entries write the same digest string, so equal digests prove
/// the locked reference and the served one-arena cache served the stream
/// identically.
fn ops_sharded_with<C: Cache>(
    quick: bool,
    seed: u64,
    mut cache: C,
    access: fn(&mut C, PageId) -> Access,
) -> EntryOut {
    let accesses = if quick { 150_000 } else { 750_000 };
    let (mut hits, mut misses) = (0u64, 0u64);
    let mut x = seed | 1;
    for _ in 0..accesses {
        let page = ops_access_page(&mut x, OPS_SHARDED_K as u64);
        if access(&mut cache, page).is_hit() {
            hits += 1;
        } else {
            misses += 1;
        }
    }
    let mut d = Digest::new();
    d.write(&format!("hits={hits} misses={misses} len={}", cache.len()));
    EntryOut::plain(accesses, d.finish())
}

/// Capacity of both `ops/sharded-*` entries' cache.
const OPS_SHARDED_K: usize = 256;

/// Entry 12: sharded-LRU access throughput on a single thread through the
/// locked `access_shared` path of `ShardedCache<LruCache>` that concurrent
/// callers take: route, yield point, shard lock, access. Contention is
/// left to `concurrent/sharded-access`. Its gap to `ops/sharded-exclusive`
/// (same stream, same digest) is what the per-shard caches, the lock, the
/// yield point and the atomic ledger-flag load cost per access.
fn entry_ops_sharded_access(quick: bool, seed: u64) -> EntryOut {
    let cache = ShardedCache::<LruCache>::with_shards(OPS_SHARDED_K, 8);
    ops_sharded_with(quick, seed, cache, |c, page| c.access_shared(page))
}

/// Entry 13: the same stream through the served [`ShardedLru`]: one arena,
/// one index, 8 recency lists, the path the engine and every tenant batch
/// use. Its gap to `ops/lru-access` is what per-shard LRU semantics cost.
fn entry_ops_sharded_exclusive(quick: bool, seed: u64) -> EntryOut {
    let cache = ShardedLru::with_shards(OPS_SHARDED_K, 8);
    ops_sharded_with(quick, seed, cache, |c, page| c.access(page))
}

/// Size of the buffer the `ops/digest*` entries hash repeatedly.
const OPS_DIGEST_BUF: usize = 64 << 10;

/// Times `digest` over one 64 KiB buffer, a fresh seed per pass so no
/// pass can be hoisted; `runs` counts bytes hashed.
fn ops_digest_with(quick: bool, seed: u64, digest: fn(u64, &[u8]) -> u64) -> EntryOut {
    let passes = if quick { 512 } else { 2048 };
    let mut x = seed | 1;
    let buf: Vec<u8> = (0..OPS_DIGEST_BUF)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 56) as u8
        })
        .collect();
    let mut acc = 0u64;
    for pass in 0..passes {
        acc ^= digest(pass, std::hint::black_box(&buf));
    }
    let mut d = Digest::new();
    d.write(&format!("passes={passes} acc={acc:016x}"));
    EntryOut::plain(passes as usize * OPS_DIGEST_BUF, d.finish())
}

/// Entry 14: the bulk integrity digest (`digest64_seeded`) every snapshot,
/// WAL record and wire frame goes through.
fn entry_ops_digest(quick: bool, seed: u64) -> EntryOut {
    ops_digest_with(quick, seed, parapage::cache::digest64_seeded)
}

/// Entry 15: FNV-1a over the same buffer, for the record.
fn entry_ops_digest_fnv(quick: bool, seed: u64) -> EntryOut {
    ops_digest_with(quick, seed, parapage::cache::fnv1a64_seeded)
}

/// A Zipf stream of `len` requests over `universe` pages, the input of
/// the `ops/*` analysis entries.
fn ops_zipf(universe: usize, theta: f64, len: usize, seed: u64) -> Vec<PageId> {
    let mut b = SeqBuilder::new(ProcId(0), seed);
    b.zipf(universe, theta, len);
    b.build()
}

/// Order-sensitive fold of a page stream, so a generator entry's digest
/// pins every page it produced.
fn fold_pages(seq: &[PageId]) -> u64 {
    seq.iter().fold(0u64, |h, p| {
        h.rotate_left(5) ^ p.0.wrapping_mul(0x9e37_79b9_7f4a_7c15)
    })
}

/// Entry 16: Mattson's single-pass LRU miss curve, the stack-distance
/// analysis under the green-OPT DP and the lower-bound calculator.
/// `runs` counts requests analysed.
fn entry_ops_mattson(quick: bool, seed: u64) -> EntryOut {
    let seq = ops_zipf(2048, 0.8, if quick { 20_000 } else { 100_000 }, seed);
    let passes = if quick { 1 } else { 4 };
    let mut d = Digest::new();
    for _ in 0..passes {
        let curve = miss_curve(std::hint::black_box(&seq), 512);
        for c in [1, 2, 4, 16, 64, 128, 256, 512] {
            d.write(&format!("c={c} misses={}", curve.misses(c)));
        }
    }
    EntryOut::plain(passes * seq.len(), d.finish())
}

/// Entry 17: Belady's MIN, the per-processor term of the certified
/// `T_OPT` lower bound, on a Zipf stream and on a cyclic stream that
/// thrashes LRU. `runs` counts requests simulated.
fn entry_ops_belady(quick: bool, seed: u64) -> EntryOut {
    let len = if quick { 20_000 } else { 100_000 };
    let zipf = ops_zipf(2048, 0.8, len, seed);
    let cyclic: Vec<PageId> = (0..len as u64).map(|i| PageId(i % 700)).collect();
    let mut d = Digest::new();
    for (name, seq) in [("zipf", &zipf), ("cyclic", &cyclic)] {
        d.write(&format!("{name} misses={}", min_misses(seq, 256)));
    }
    EntryOut::plain(2 * len, d.finish())
}

/// Entry 18: the offline green-paging optimum (the `T_OPT` side of every
/// RAND-GREEN ratio), by both the naive and the Fenwick-accelerated DP,
/// which must agree. `runs` counts requests per DP times the two DPs.
fn entry_ops_green_opt(quick: bool, seed: u64) -> EntryOut {
    let params = ModelParams::new(16, 128, 16);
    let heights = params.box_heights();
    let mut seq = crate::experiments::green_sequence(params.k, seed);
    if quick {
        seq.truncate(1_000);
    }
    let naive = green_opt(&seq, &heights, params.s).impact;
    let fast = green_opt_fast(&seq, &heights, params.s).impact;
    assert_eq!(naive, fast, "the Fenwick DP must match the naive DP");
    let mut d = Digest::new();
    d.write(&format!("impact={naive}"));
    EntryOut::plain(2 * seq.len(), d.finish())
}

/// Entry 19: the workload generators — cyclic, Zipf and polluted-cycle
/// streams plus one Theorem-4 adversarial instance. `runs` counts pages
/// generated.
fn entry_ops_generators(quick: bool, seed: u64) -> EntryOut {
    let len = if quick { 20_000 } else { 100_000 };
    let stream = |fill: fn(&mut SeqBuilder, usize)| {
        let mut b = SeqBuilder::new(ProcId(0), seed);
        fill(&mut b, len);
        b.build()
    };
    let mut seqs = vec![
        stream(|b, n| {
            b.cyclic(64, n);
        }),
        stream(|b, n| {
            b.zipf(4096, 0.9, n);
        }),
        stream(|b, n| {
            b.polluted_cycle(63, n, 16);
        }),
    ];
    let p = if quick { 16 } else { 32 };
    let adversarial = AdversarialInstance::build(AdversarialConfig::scaled(p, 128, 128, 0.05));
    seqs.extend_from_slice(adversarial.workload.seqs());
    let mut d = Digest::new();
    for seq in &seqs {
        d.write(&format!("len={} fold={:016x}", seq.len(), fold_pages(seq)));
    }
    EntryOut::plain(seqs.iter().map(Vec::len).sum(), d.finish())
}

/// The `monitor-ucp` serve workload's batch shape (p=8, k=128, s=16,
/// working sets twice the fitting size, 500 requests per processor): a
/// cycle, a Zipf and a uniform stream in rotation.
fn ucp_batch(params: &ModelParams, seed: u64) -> Workload {
    let (k, len) = (params.k, 500);
    let specs: Vec<SeqSpec> = (0..params.p)
        .map(|x| match x % 3 {
            0 => SeqSpec::Cyclic {
                width: (k / 8).max(2) * 2,
                len,
            },
            1 => SeqSpec::Zipf {
                universe: (k / 2).max(4) * 2,
                theta: 0.9,
                len,
            },
            _ => SeqSpec::Uniform {
                universe: (2 * k / params.p).max(2) * 2,
                len,
            },
        })
        .collect();
    build_workload(&specs, seed)
}

/// Entry 20: UCP, the one policy whose decisions read the access streams,
/// on a fixed pool of `monitor-ucp`-shaped batches. Each batch is one
/// engine run with a fresh policy, as a served batch is; its epoch
/// repartitions (a Mattson pass per processor plus the lookahead) are
/// most of the run. `runs` counts engine runs; the digest pins every
/// run's final allocation and makespan.
fn entry_ops_ucp_repartition(quick: bool, seed: u64) -> EntryOut {
    let params = ModelParams::new(8, 128, 16);
    let pool: Vec<Workload> = (0..8).map(|b| ucp_batch(&params, seed ^ b)).collect();
    let runs = if quick { 80 } else { 400 };
    let mut d = Digest::new();
    for w in pool.iter().cycle().take(runs) {
        let mut ucp = UcpPartition::new(&params);
        let res =
            run_engine(&mut ucp, w.seqs(), &params, &EngineOpts::default()).expect("ops ucp run");
        d.write(&format!(
            "alloc={:?} makespan={}",
            ucp.allocation(),
            res.makespan
        ));
    }
    EntryOut::plain(runs, d.finish())
}

/// Entry 21: the served miss path. A tenant's sharded LRU under
/// RAND-PAR's boxes on `thrash-randpar`: 4 shards built at capacity 0,
/// resized every 16 requests — nine times in ten to height 16, else to
/// 256 — while a seeded uniform stream runs over a working set four times
/// the tallest height, so nearly every request misses, evicts and admits.
/// `runs` counts accesses.
fn entry_ops_lru_thrash(quick: bool, seed: u64) -> EntryOut {
    const TALL: u64 = 256;
    let accesses = if quick { 200_000 } else { 1_000_000 };
    let mut cache = ShardedLru::with_shards(0, 4);
    let (mut hits, mut misses) = (0u64, 0u64);
    let mut x = seed | 1;
    let mut draw = || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        x >> 16
    };
    for i in 0..accesses {
        if i % 16 == 0 {
            cache.resize(if draw() % 10 == 0 { TALL as usize } else { 16 });
        }
        if cache.access(PageId(draw() % (4 * TALL))).is_hit() {
            hits += 1;
        } else {
            misses += 1;
        }
    }
    let mut d = Digest::new();
    d.write(&format!("hits={hits} misses={misses} len={}", cache.len()));
    EntryOut::plain(accesses, d.finish())
}

/// Minimum sustained single-thread throughput, in runs (operations) per
/// second of the `threads(1)` leg, for the `ops/*` entries.
///
/// The floors are deliberately ~4× below the rates measured on the
/// development host at the time they were pinned, so scheduler noise and
/// slower CI hardware do not trip them — only a real hot-path regression
/// (an extra hash probe per access, a lost batching path) should. They
/// are meaningless for unoptimized builds; both consumers
/// (`bench/tests/ops_regression.rs` and the `parapage bench` exit gate)
/// skip them under `cfg(debug_assertions)`.
pub const OPS_FLOORS: &[(&str, f64)] = &[
    ("ops/engine-step", 50_000.0),
    ("ops/lru-access", 12_000_000.0),
    ("ops/sharded-access", 5_000_000.0),
    ("ops/sharded-exclusive", 8_000_000.0),
    // Bytes per second.
    ("ops/digest", 1_800_000_000.0),
    // Engine runs per second.
    ("ops/ucp-repartition", 800.0),
    // Accesses per second through the resized, miss-heavy sharded LRU.
    ("ops/lru-thrash", 5_000_000.0),
];

impl SuiteReport {
    /// Single-thread throughput (runs per second of the `threads(1)` leg)
    /// of the named entry, if present.
    pub fn ops_rate(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|e| e.name == name)
            .map(|e| e.runs as f64 / e.secs_base.max(1e-9))
    }

    /// The `ops/*` floors that failed: `(name, measured, floor)` per entry
    /// whose single-thread throughput fell below its [`OPS_FLOORS`] bar.
    /// Empty means pass. Callers must gate on release builds themselves —
    /// the floors are not meaningful for debug builds.
    pub fn ops_floor_failures(&self) -> Vec<(&'static str, f64, f64)> {
        OPS_FLOORS
            .iter()
            .filter_map(|&(name, floor)| {
                let rate = self.ops_rate(name)?;
                (rate < floor).then_some((name, rate, floor))
            })
            .collect()
    }
}

/// A suite entry's measurement function.
type EntryFn = fn(bool, u64) -> EntryOut;

/// Measures each recipe entry twice — `threads(1)` and
/// `threads(threads_par)` — and assembles the report.
fn measure_recipe(
    recipe: &[(&'static str, bool, EntryFn)],
    quick: bool,
    seed: u64,
    threads_par: usize,
) -> SuiteReport {
    let entries = recipe
        .iter()
        .map(|&(name, parallel, f)| {
            let (base, secs_base) = {
                let _g = pool::threads(1);
                let t = Instant::now();
                let out = f(quick, seed);
                (out, t.elapsed().as_secs_f64())
            };
            let (par, secs_par) = {
                let _g = pool::threads(threads_par);
                let t = Instant::now();
                let out = f(quick, seed);
                (out, t.elapsed().as_secs_f64())
            };
            debug_assert_eq!(base.runs, par.runs);
            EntryResult {
                name,
                parallel,
                runs: base.runs,
                secs_base,
                secs_par,
                digest_base: base.digest,
                digest_par: par.digest,
                bytes: base.bytes,
            }
        })
        .collect();
    SuiteReport {
        entries,
        threads_par,
        host_cores: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        quick,
        seed,
    }
}

/// The single-thread `ops/*` microbench entries, shared by the full
/// recipe and [`run_ops_suite`].
const OPS_RECIPE: &[(&str, bool, EntryFn)] = &[
    ("ops/engine-step", false, entry_ops_engine_step),
    ("ops/lru-access", false, entry_ops_lru_access),
    ("ops/sharded-access", false, entry_ops_sharded_access),
    ("ops/sharded-exclusive", false, entry_ops_sharded_exclusive),
    ("ops/digest", false, entry_ops_digest),
    ("ops/digest-fnv", false, entry_ops_digest_fnv),
    ("ops/mattson-curve", false, entry_ops_mattson),
    ("ops/belady-min", false, entry_ops_belady),
    ("ops/green-opt", false, entry_ops_green_opt),
    ("ops/generators", false, entry_ops_generators),
    ("ops/ucp-repartition", false, entry_ops_ucp_repartition),
    ("ops/lru-thrash", false, entry_ops_lru_thrash),
];

/// Runs only the `ops/*` entries (both legs pinned to one worker) — the
/// regression-floor test drives this without paying for the full recipe.
pub fn run_ops_suite(quick: bool, seed: u64) -> SuiteReport {
    measure_recipe(OPS_RECIPE, quick, seed, 1)
}

/// Runs the full recipe: every entry once under `threads(1)` and once
/// under `threads(threads_par)`, with wall time and result digest per leg.
pub fn run_suite(quick: bool, seed: u64, threads_par: usize) -> SuiteReport {
    let recipe: &[(&'static str, bool, EntryFn)] = &[
        ("engine/det-par", false, entry_engine),
        ("sweep/policy-grid", true, entry_policy_grid),
        ("sweep/differential", true, entry_differential),
        ("sweep/conform-matrix", true, entry_conform_matrix),
        ("sweep/envelope", true, entry_envelope),
        ("checkpoint/full-snapshot", false, entry_ckpt_full),
        ("checkpoint/wal-delta", false, entry_ckpt_wal),
        ("server/wire-codec", false, entry_wire_codec),
        ("concurrent/sharded-access", true, entry_concurrent_sharded),
    ];
    let full: Vec<(&'static str, bool, EntryFn)> =
        recipe.iter().chain(OPS_RECIPE.iter()).copied().collect();
    measure_recipe(&full, quick, seed, threads_par)
}
