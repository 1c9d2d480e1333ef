//! CLI subcommands.

pub mod adversarial;
pub mod analyze;
pub mod audit;
pub mod bench;
pub mod chaos;
pub mod compare;
pub mod conform;
pub mod drive;
pub mod experiments;
pub mod faults;
pub mod gen;
pub mod green;
pub mod profile;
pub mod run;
pub mod serve;

/// Top-level usage text.
pub const USAGE: &str = "\
parapage — online parallel paging simulators (SPAA 2022 reproduction)

USAGE:
  parapage <command> [--flags]

COMMANDS:
  run          run one policy on a workload
                 --policy det-par|rand-par|static|prop-miss|ucp|bb-green|shared-lru
                 --p N --k N --s N --workload mixed|skewed|uniform|fresh|zipf
                 --len N --seed N [--trace FILE] [--gantt] [--compartmentalized]
  compare      run every policy on the same workload (same flags as run)
  adversarial  build a Theorem-4 instance and race policies against the
                 Lemma-8 OPT schedule: --p N --k N [--s N] [--alpha F]
  green        green paging on one sequence: RAND-GREEN / ADAPT-GREEN vs
                 offline OPT: --p N --k N [--seeds N]
  audit        run DET-PAR and audit Lemma-6 well-roundedness:
                 --p N --k N [--slack F] (exits non-zero on violation)
  bench        perf-trajectory benchmark gate: run the fixed suite of
                 engine/sweep hot paths under threads(1) and threads(N),
                 check byte-identical results, and write BENCH_5.json:
                 [--quick] [--threads N] [--seed N] [--out FILE]
                 (exits non-zero on a determinism violation, or on a
                 multi-core full run whose speedup misses the 1.5x gate)
  faults       fault-injection matrix: run one policy raw and hardened
                 under each fault scenario (stalls, latency spikes, memory
                 pressure, chaos) and report makespan degradation vs the
                 clean run (same flags as run)
  conform      conformance oracle: paper-invariant checkers over the engine
                 trace for every policy x fault scenario, a differential
                 engine-vs-reference sweep, and competitive-ratio
                 guardrails: [--quick] [--p N --k N --s N --len N]
                 [--diff N] [--seed N] (exits non-zero on any violation)
                 --concurrent switches to the server's locks under the
                 schedule explorer: interleavings (exhaustive + random)
                 of Hello, Batch, Kill/Migrate, Stats, expiry and
                 Shutdown over two tenants, checked against a sequential
                 replay, for cross-tenant waits, deadlock and a worker
                 blocked outside a scheduling point, and a self-check
                 that must catch four sabotages (--budget counts
                 executions per scenario: 6000, --quick 1000):
                 [--budget N] [--quick] [--seed N] [--cells SUBSTR|=ID[,..]]
  chaos        crash-recovery matrix: every policy x fault scenario x
                 deterministic crashpoint, run under the checkpointing
                 supervisor; recovered runs must be byte-identical to
                 uninterrupted ones, corrupted snapshots must be rejected,
                 and a WAL corruption matrix (torn/partial tails,
                 mid-record truncation, bit flips, stale bases) must
                 recover byte-identically with typed truncations:
                 [--quick] [--p N --k N --s N --len N] [--seed N]
                 [--cells SUBSTR|=ID[,..]] [--wal]
                 (exits non-zero on any divergence or failed recovery)
                 --net switches to the network chaos matrix: every
                 transport fault kind (partial-writes, write-stall,
                 read-stall, cut-send, cut-recv, trickle) x cut point x
                 tenant count against a live server — after retries every
                 reply stream must be byte-identical to a clean run —
                 plus idle-expiry (a parked tenant continued on
                 re-attach) and load-shedding (typed Busy) cells:
                 [--quick] [--seed N] [--cells SUBSTR|=ID[,..]]
  experiments  the experiment index E1-E16 (DESIGN.md §5) as one verdict
                 matrix: each cell prints its table and checks the shape
                 its paper claim predicts on those numbers:
                 [--quick] [--seed N] [--cells SUBSTR|=ID[,..]]
                 [--out DIR] (writes DIR/eN.txt instead of printing)
                 (exits non-zero when a claim fails)
  profile      visualize green box profiles (OPT vs RAND-GREEN):
                 --p N --k N [--seed N] [--width N]
  analyze      miss-ratio curves of a trace file: --trace FILE [--max-cap N]
  gen          generate a workload and write it as a trace:
                 --workload NAME --out FILE [--p N --k N --len N --seed N]
  serve        long-lived multi-tenant paging daemon: tenants stream
                 page-request batches over a digest-framed wire protocol,
                 each batch runs under the WAL-checkpointing supervisor
                 (a tenant crash never takes down the process; migration
                 and kill orders are absorbed with byte-identical replies):
                 [--addr 127.0.0.1:7717] [--max-tenants N] [--budget N]
                 [--epoch-ticks N] [--max-retries N] [--read-timeout-ms N]
                 [--idle-ttl-ms N] [--max-conns N]
                 (runs until a client sends Shutdown; idle tenants past
                 the TTL are parked, out of the tenant cap, until a Hello
                 re-attaches them; connections beyond the cap are shed
                 with a typed Busy)
  drive        load driver: replay deterministic request batches from many
                 concurrent tenants and report throughput and latency
                 percentiles; spawns an in-process server when --addr is
                 absent: [--addr HOST:PORT] [--requests N] [--tenants N]
                 [--batches N] [--p N --k N --s N] [--policy NAME]
                 [--seed N] [--shards N] [--fault KIND] [--fault-at N]
                 [--expect-clean]
                 (tenants drive through the resilient client — reconnect,
                 re-attach, replay — and report recovery counters;
                 --fault injects a deterministic transport fault that the
                 retries must absorb; --expect-clean exits non-zero on
                 any unrecovered error or tenant restart — the CI
                 serve-smoke gate)
  help         this text
";
