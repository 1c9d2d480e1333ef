//! Loom-style schedule exploration for the sharded cache's locked path.
//!
//! [`ShardedCache<LruCache>`]'s `*_shared` methods announce a yield point
//! through a thread-local hook just before each shard-lock acquisition
//! (the served [`parapage_cache::ShardedLru`] takes no locks). This module
//! turns those hooks into a *virtual scheduler*: worker threads run real
//! code on real OS threads, but a token-passing controller admits exactly
//! one thread at a time and decides, at every yield point, which thread
//! runs next. An execution is therefore a deterministic function of the
//! controller's choice sequence — which makes interleavings enumerable,
//! replayable, and shrinkable.
//!
//! Three pieces:
//!
//! * **The scheduler** ([`run_schedule`]) — token passing over a
//!   mutex/condvar pair. A worker owns the token from the moment the
//!   controller grants it until its next yield point (or completion); no
//!   two workers ever run concurrently. A worker that panics hands the
//!   token back on unwind, and the panic is reported as a violation.
//! * **The explorer** ([`explore`]) — depth-first enumeration of the
//!   choice tree by prefix replay: run with a plan, record every decision
//!   point and its fan-out, then increment the deepest incrementable
//!   choice like an odometer and replay. Every execution visits a distinct
//!   interleaving; the walk is exhaustive when the budget allows. A
//!   random-sampling mode covers schedules past any feasible DFS horizon.
//! * **The linearization checker** ([`check_linearizable`]) — Wing–Gong
//!   style: each operation records an `(invoked, returned)` interval from
//!   a global clock; the checker searches for a total order, consistent
//!   with real-time precedence, under which per-shard sequential
//!   [`LruCache`] twins reproduce every observed result. No such order = a
//!   real concurrency bug, reported with the exact choice sequence that
//!   triggers it.
//!
//! Soundness rests on two facts: (1) the cache is deterministic between
//! yield points (no wall-clock, no RNG), so a choice sequence fully
//! determines an execution — replay *is* reproduction; and (2) interleaving
//! whole operations at their yield points is complete for the locked path:
//! each call reaches one yield point before each lock acquisition and runs
//! its body under the lock, so no other thread can observe it mid-body.
//! Only an op that takes a lock twice — the seeded [`Op::SplitAccessIfFits`]
//! — can be interrupted between its two halves.
//!
//! The module also carries the conform-side checks for real-thread stress:
//! per-shard ledgers replayed exactly against the sequential policy
//! ([`check_sharded_ledgers`]) and an aggregate hit/miss envelope in the
//! spirit of `envelope.rs` ([`check_concurrent_cache`]).

use std::any::Any;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use parapage_cache::concurrent::set_yield_hook;
use parapage_cache::{Access, Cache, LruCache, PageId, ShardedCache, Time};

/// One operation a virtual thread performs against the shared cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// `access_shared(page)`.
    Access(u64),
    /// `contains_shared(page)`.
    Contains(u64),
    /// `access_if_fits_shared(page, remaining, miss_penalty)`: one lock
    /// acquisition for the fit check and the access.
    AccessIfFits(u64, Time, u64),
    /// The seeded bug: the [`Cache`] trait's default peek-then-access split
    /// of [`Op::AccessIfFits`] over two lock acquisitions
    /// (`contains_shared`, then `access_shared`). Its specification is
    /// `AccessIfFits`'s, which a page evicted between the two calls breaks.
    SplitAccessIfFits(u64, Time, u64),
}

impl Op {
    /// The page the op touches.
    fn page(self) -> PageId {
        match self {
            Op::Access(p)
            | Op::Contains(p)
            | Op::AccessIfFits(p, ..)
            | Op::SplitAccessIfFits(p, ..) => PageId(p),
        }
    }
}

/// What an operation observed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// [`Op::Access`]: hit or miss.
    Access(Access),
    /// [`Op::Contains`]: whether the page was resident.
    Resident(bool),
    /// [`Op::AccessIfFits`] and [`Op::SplitAccessIfFits`]: `None` when the
    /// access did not fit the remaining budget.
    Fit(Option<Access>),
}

/// A completed operation with its real-time interval and observed outcome.
#[derive(Clone, Copy, Debug)]
pub struct OpRecord {
    /// Virtual thread that ran the op.
    pub thread: usize,
    /// The operation.
    pub op: Op,
    /// Observed outcome.
    pub outcome: Outcome,
    /// Global-clock stamp at invocation.
    pub invoked: u64,
    /// Global-clock stamp at return.
    pub returned: u64,
}

/// A schedule-exploration scenario: a shared cache shape, sequential setup,
/// and one op script per virtual thread.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Display name.
    pub name: &'static str,
    /// Total capacity of the [`ShardedCache<LruCache>`] under test.
    pub capacity: usize,
    /// Shard count (rounded up to a power of two).
    pub shards: usize,
    /// Ops applied sequentially before the threads start.
    pub setup: Vec<Op>,
    /// Per-thread op scripts (2–3 threads is the sweet spot).
    pub threads: Vec<Vec<Op>>,
}

/// How [`explore`] walks the schedule space.
#[derive(Clone, Copy, Debug)]
pub enum ExploreMode {
    /// Depth-first enumeration; every execution is a distinct interleaving.
    Exhaustive,
    /// Uniform random sampling of choices with a deterministic seed.
    Random {
        /// RNG seed (xorshift64*).
        seed: u64,
    },
}

/// Outcome of exploring one scenario.
#[derive(Clone, Debug)]
pub struct ExploreReport {
    /// Scenario name.
    pub scenario: String,
    /// Executions performed.
    pub executions: usize,
    /// Distinct interleavings visited (equals `executions` when exhaustive).
    pub distinct: usize,
    /// Whether the full choice tree was exhausted within the budget.
    pub complete: bool,
    /// Executions that produced a violation.
    pub violating: usize,
    /// The first violations found (at most [`MAX_REPORTED`] of them).
    pub violations: Vec<String>,
}

impl ExploreReport {
    /// `true` when no violation was found.
    pub fn passed(&self) -> bool {
        self.violating == 0
    }

    /// Counts one execution and its verdict.
    fn record(&mut self, violation: Option<String>) {
        self.executions += 1;
        if let Some(v) = violation {
            self.violating += 1;
            if self.violations.len() < MAX_REPORTED {
                self.violations.push(v);
            }
        }
    }
}

/// Cap on retained violation strings per report.
pub const MAX_REPORTED: usize = 5;

// ---------------------------------------------------------------------------
// Token-passing virtual scheduler
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Turn {
    Controller,
    Worker(usize),
}

struct SchedState {
    turn: Turn,
    finished: Box<[bool]>,
}

struct Sched {
    state: Mutex<SchedState>,
    cv: Condvar,
}

impl Sched {
    fn new(workers: usize) -> Sched {
        Sched {
            state: Mutex::new(SchedState {
                turn: Turn::Controller,
                finished: vec![false; workers].into_boxed_slice(),
            }),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, SchedState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Worker `i`: block until first granted the token.
    fn acquire(&self, i: usize) {
        let mut st = self.lock();
        while st.turn != Turn::Worker(i) {
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Worker `i`: hand the token back and block until granted again.
    fn yield_back(&self, i: usize) {
        let mut st = self.lock();
        st.turn = Turn::Controller;
        self.cv.notify_all();
        while st.turn != Turn::Worker(i) {
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Worker `i`: mark done and hand the token back for good.
    fn finish(&self, i: usize) {
        let mut st = self.lock();
        st.finished[i] = true;
        st.turn = Turn::Controller;
        self.cv.notify_all();
    }

    /// Controller: grant the token to worker `c`, block until it comes back.
    fn grant(&self, c: usize) {
        let mut st = self.lock();
        st.turn = Turn::Worker(c);
        self.cv.notify_all();
        while st.turn != Turn::Controller {
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn runnable(&self) -> Vec<usize> {
        let st = self.lock();
        (0..st.finished.len())
            .filter(|&i| !st.finished[i])
            .collect()
    }
}

/// Calls [`Sched::finish`] when dropped, so a worker hands the token back
/// for good however its script ends — including by panic, which would
/// otherwise leave the controller waiting in [`Sched::grant`] for ever.
struct Finish<'a>(&'a Sched, usize);

impl Drop for Finish<'_> {
    fn drop(&mut self) {
        self.0.finish(self.1);
    }
}

fn xorshift(s: &mut u64) -> u64 {
    let mut x = *s;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *s = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// Runs `scenario` once under the virtual scheduler.
///
/// `plan` fixes the first `plan.len()` choices (indices into the runnable
/// list); past the plan, choices come from `rng` when given, else default
/// to index 0 (the DFS left spine). Returns the full decision trace, the
/// history, and the execution's violation: a worker panic, or else the
/// linearization verdict for the history.
pub fn run_schedule(
    scenario: &Scenario,
    plan: &[usize],
    rng: Option<&mut u64>,
) -> (Vec<(usize, usize)>, Vec<OpRecord>, Option<String>) {
    run_with(scenario, plan, rng, apply_real)
}

/// [`run_schedule`] with the function that performs an op on the real
/// cache as a parameter, so tests can drive a faulty one.
fn run_with(
    scenario: &Scenario,
    plan: &[usize],
    mut rng: Option<&mut u64>,
    apply: fn(&ShardedCache<LruCache>, Op) -> Outcome,
) -> (Vec<(usize, usize)>, Vec<OpRecord>, Option<String>) {
    let cache = ShardedCache::with_shards(scenario.capacity, scenario.shards);
    let mut twins: Vec<LruCache> = cache
        .shard_capacities()
        .into_iter()
        .map(LruCache::new)
        .collect();
    for &op in &scenario.setup {
        apply(&cache, op);
        apply_model(&mut twins[cache.shard_of(op.page())], op);
    }
    let sched = Arc::new(Sched::new(scenario.threads.len()));
    let clock = AtomicU64::new(1);
    let history: Mutex<Vec<OpRecord>> = Mutex::new(Vec::new());
    let mut taken: Vec<(usize, usize)> = Vec::new();

    let panics: Vec<String> = std::thread::scope(|s| {
        let workers: Vec<_> = scenario
            .threads
            .iter()
            .enumerate()
            .map(|(i, script)| {
                let sched = Arc::clone(&sched);
                let (cache, clock, history) = (&cache, &clock, &history);
                s.spawn(move || {
                    sched.acquire(i);
                    let _finish = Finish(&sched, i);
                    let hook = Arc::clone(&sched);
                    set_yield_hook(Box::new(move |_| hook.yield_back(i)));
                    for &op in script {
                        let invoked = clock.fetch_add(1, Ordering::SeqCst);
                        let outcome = apply(cache, op);
                        let returned = clock.fetch_add(1, Ordering::SeqCst);
                        history
                            .lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .push(OpRecord {
                                thread: i,
                                op,
                                outcome,
                                invoked,
                                returned,
                            });
                    }
                })
            })
            .collect();
        // Controller loop: one grant per scheduling step.
        loop {
            let runnable = sched.runnable();
            if runnable.is_empty() {
                break;
            }
            let pick = if taken.len() < plan.len() {
                plan[taken.len()].min(runnable.len() - 1)
            } else {
                match rng.as_deref_mut() {
                    Some(seed) => (xorshift(seed) % runnable.len() as u64) as usize,
                    None => 0,
                }
            };
            taken.push((pick, runnable.len()));
            sched.grant(runnable[pick]);
        }
        workers
            .into_iter()
            .enumerate()
            .filter_map(|(i, w)| {
                let payload = w.join().err()?;
                Some(format!("T{i} panicked: {}", panic_message(&*payload)))
            })
            .collect()
    });

    let mut history = history.into_inner().unwrap_or_else(|e| e.into_inner());
    history.sort_by_key(|r| r.invoked);
    let verdict = if panics.is_empty() {
        check_linearizable(&twins, |page| cache.shard_of(page), &history)
    } else {
        Err(panics.join("; "))
    };
    let violation = verdict
        .err()
        .map(|v| format!("{}: {v} [choices {:?}]", scenario.name, choices_of(&taken)));
    (taken, history, violation)
}

fn panic_message(payload: &(dyn Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

fn choices_of(taken: &[(usize, usize)]) -> Vec<usize> {
    taken.iter().map(|&(c, _)| c).collect()
}

fn apply_real(cache: &ShardedCache<LruCache>, op: Op) -> Outcome {
    let page = op.page();
    match op {
        Op::Access(_) => Outcome::Access(cache.access_shared(page)),
        Op::Contains(_) => Outcome::Resident(cache.contains_shared(page)),
        Op::AccessIfFits(_, remaining, penalty) => {
            Outcome::Fit(cache.access_if_fits_shared(page, remaining, penalty))
        }
        Op::SplitAccessIfFits(_, remaining, penalty) => {
            let cost = if cache.contains_shared(page) {
                1
            } else {
                penalty
            };
            Outcome::Fit((cost <= remaining).then(|| cache.access_shared(page)))
        }
    }
}

/// Applies `op` to the sequential twin of the shard its page routes to.
fn apply_model(twin: &mut LruCache, op: Op) -> Outcome {
    let page = op.page();
    match op {
        Op::Access(_) => Outcome::Access(twin.access(page)),
        Op::Contains(_) => Outcome::Resident(twin.contains(page)),
        Op::AccessIfFits(_, remaining, penalty) | Op::SplitAccessIfFits(_, remaining, penalty) => {
            Outcome::Fit(twin.access_if_fits(page, remaining, penalty))
        }
    }
}

// ---------------------------------------------------------------------------
// Wing–Gong linearization check
// ---------------------------------------------------------------------------

/// Checks that `history` (ops with real-time intervals) is linearizable
/// against per-shard sequential LRU twins starting from `initial`, with
/// `shard_of` routing each op's page to its twin.
///
/// Searches for a total order of the ops that (a) respects real-time
/// precedence — if op `a` returned before op `b` was invoked, `a` comes
/// first — and (b) makes every observed outcome the one the twins produce
/// in that order. Memoized on (linearized-op set, every twin's recency
/// order), which keeps the search small for the short histories the
/// explorer generates.
pub fn check_linearizable(
    initial: &[LruCache],
    shard_of: impl Fn(PageId) -> usize,
    history: &[OpRecord],
) -> Result<(), String> {
    assert!(
        history.len() <= 63,
        "history too long for the bitmask search"
    );
    let full: u64 = (1u64 << history.len()) - 1;
    let mut memo: HashSet<(u64, Vec<Vec<PageId>>)> = HashSet::new();
    let mut stack = vec![(0u64, initial.to_vec())];
    while let Some((done, twins)) = stack.pop() {
        if done == full {
            return Ok(());
        }
        if !memo.insert((done, twins.iter().map(LruCache::pages_mru_first).collect())) {
            continue;
        }
        // An undone op is a linearization candidate iff no *other* undone
        // op returned before it was invoked.
        let min_ret = history
            .iter()
            .enumerate()
            .filter(|(i, _)| done & (1 << i) == 0)
            .map(|(_, r)| r.returned)
            .min()
            .unwrap_or(u64::MAX);
        for (i, r) in history.iter().enumerate() {
            if done & (1 << i) != 0 || r.invoked > min_ret {
                continue;
            }
            let mut next = twins.clone();
            if apply_model(&mut next[shard_of(r.op.page())], r.op) == r.outcome {
                stack.push((done | (1 << i), next));
            }
        }
    }
    Err(format!(
        "no linearization explains the history: {:?}",
        history
            .iter()
            .map(|r| format!(
                "T{} {:?}={:?} @[{},{}]",
                r.thread, r.op, r.outcome, r.invoked, r.returned
            ))
            .collect::<Vec<_>>()
    ))
}

// ---------------------------------------------------------------------------
// Exploration driver
// ---------------------------------------------------------------------------

/// Odometer increment over a decision trace: the next unexplored DFS plan,
/// or `None` when the whole tree is exhausted.
fn next_plan(taken: &[(usize, usize)]) -> Option<Vec<usize>> {
    let mut prefix = taken.to_vec();
    while let Some((c, n)) = prefix.pop() {
        if c + 1 < n {
            let mut plan = choices_of(&prefix);
            plan.push(c + 1);
            return Some(plan);
        }
    }
    None
}

/// Explores `scenario` for at most `budget` executions under `mode`.
pub fn explore(scenario: &Scenario, budget: usize, mode: ExploreMode) -> ExploreReport {
    let mut report = ExploreReport {
        scenario: scenario.name.to_string(),
        executions: 0,
        distinct: 0,
        complete: false,
        violating: 0,
        violations: Vec::new(),
    };
    match mode {
        ExploreMode::Exhaustive => {
            let mut plan: Vec<usize> = Vec::new();
            loop {
                if report.executions >= budget {
                    return report;
                }
                let (taken, _, violation) = run_schedule(scenario, &plan, None);
                report.record(violation);
                report.distinct += 1;
                match next_plan(&taken) {
                    Some(p) => plan = p,
                    None => {
                        report.complete = true;
                        return report;
                    }
                }
            }
        }
        ExploreMode::Random { seed } => {
            let mut rng = seed.max(1);
            let mut seen: HashSet<Vec<usize>> = HashSet::new();
            for _ in 0..budget {
                let (taken, _, violation) = run_schedule(scenario, &[], Some(&mut rng));
                report.record(violation);
                if seen.insert(choices_of(&taken)) {
                    report.distinct += 1;
                }
            }
            report
        }
    }
}

/// The built-in scenario suite: `Access`, `Contains` and `AccessIfFits`
/// under three virtual threads, on one shard and across two, ordered from
/// the smallest choice tree to the deepest. Every scenario is clean: the
/// locked path is linearizable.
pub fn scenarios() -> Vec<Scenario> {
    vec![
        // Capacity 2, one shard: every access can evict a page another
        // thread is about to touch or probe.
        Scenario {
            name: "access-contested",
            capacity: 2,
            shards: 1,
            setup: vec![Op::Access(1), Op::Access(2)],
            threads: vec![
                vec![Op::Access(3), Op::Access(1)],
                vec![Op::Access(1), Op::Contains(2)],
                vec![Op::Contains(3)],
            ],
        },
        // The race `SplitAccessIfFits` loses, run through the fused call:
        // page 1 fits only as a hit, and page 2 evicts it.
        Scenario {
            name: "fit-vs-evict",
            capacity: 1,
            shards: 1,
            setup: vec![Op::Access(1)],
            threads: vec![
                vec![Op::AccessIfFits(1, 1, 5), Op::Contains(1)],
                vec![Op::Access(2), Op::AccessIfFits(1, 1, 5)],
                vec![Op::Access(1)],
            ],
        },
        // Two shards of two pages: odd pages route to shard 0, even pages
        // to shard 1, so cross-shard ops commute and same-shard ops race.
        Scenario {
            name: "cross-shard",
            capacity: 4,
            shards: 2,
            setup: vec![Op::Access(1), Op::Access(2)],
            threads: vec![
                vec![Op::Access(1), Op::Access(3), Op::Contains(2)],
                vec![Op::Access(4), Op::AccessIfFits(1, 3, 2), Op::Access(6)],
                vec![Op::Contains(1), Op::Access(2)],
            ],
        },
        // Uneven shards (two pages and one) under every op kind.
        Scenario {
            name: "triple-mixed",
            capacity: 3,
            shards: 2,
            setup: vec![Op::Access(1)],
            threads: vec![
                vec![Op::Access(1), Op::Access(2), Op::Contains(3)],
                vec![Op::Access(3), Op::AccessIfFits(1, 2, 4), Op::Contains(2)],
                vec![Op::Access(2), Op::Contains(1), Op::Access(4)],
            ],
        },
    ]
}

/// The self-check scenario: [`Op::SplitAccessIfFits`] on a one-page cache
/// whose page another thread evicts. When the eviction lands between the
/// split's two lock acquisitions, the split reports `Some(Miss)` with a
/// budget below the miss penalty — an outcome no sequential order gives,
/// so the explorer must report violations here.
pub fn sabotage_scenario() -> Scenario {
    Scenario {
        name: "split-fit-evict",
        capacity: 1,
        shards: 1,
        setup: vec![Op::Access(1)],
        threads: vec![
            vec![Op::SplitAccessIfFits(1, 1, 5)],
            vec![Op::Access(2)],
            vec![Op::Contains(1)],
        ],
    }
}

/// Explores every built-in scenario, splitting `budget` across them.
/// Budget a small scenario exhausts without spending rolls over to the
/// deeper trees, so the whole allowance turns into distinct interleavings.
pub fn explore_all(budget: usize, mode: ExploreMode) -> Vec<ExploreReport> {
    let all = scenarios();
    let mut remaining = budget;
    let mut reports = Vec::with_capacity(all.len());
    for (i, sc) in all.iter().enumerate() {
        let share = (remaining / (all.len() - i)).max(1);
        let report = explore(sc, share, mode);
        remaining = remaining.saturating_sub(report.executions);
        reports.push(report);
    }
    reports
}

// ---------------------------------------------------------------------------
// Real-thread stress checks
// ---------------------------------------------------------------------------

/// Replays each shard's access ledger through a fresh sequential LRU of the
/// same capacity; any diverging outcome is a violation. This is the exact
/// (not envelope) check: the shard lock serialized the accesses, so the
/// ledger order *is* a linearization and must reproduce bit-for-bit.
pub fn check_sharded_ledgers(
    shard_caps: &[usize],
    ledgers: &[Vec<(PageId, Access)>],
) -> Vec<String> {
    let mut violations = Vec::new();
    for (i, ledger) in ledgers.iter().enumerate() {
        let mut twin = LruCache::new(shard_caps[i]);
        for (at, &(page, outcome)) in ledger.iter().enumerate() {
            let expect = twin.access(page);
            if expect != outcome {
                violations.push(format!(
                    "shard {i} op {at}: page {} observed {outcome:?}, sequential replay says {expect:?}",
                    page.0
                ));
                break;
            }
        }
    }
    violations
}

/// Outcome of one concurrent-cache stress cell.
#[derive(Clone, Debug)]
pub struct ConcurrentCell {
    /// Total accesses performed.
    pub ops: usize,
    /// Aggregate misses observed across all threads.
    pub misses: usize,
    /// Violations from ledger replay and the hit/miss envelope.
    pub violations: Vec<String>,
}

impl ConcurrentCell {
    /// `true` when the cell is violation-free.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Hammers one [`ShardedCache<LruCache>`] from `threads` real OS threads
/// and checks the history two ways: exact per-shard ledger replay, and an aggregate
/// hit/miss envelope — total misses must be at least the cold-start floor
/// (every distinct page faults once) and at most the sequential
/// worst-case over any serialization (each thread's private trace run
/// alone), mirroring the loose-guardrail style of `envelope.rs`.
pub fn check_concurrent_cache(
    threads: usize,
    ops_per_thread: usize,
    capacity: usize,
    shards: usize,
    seed: u64,
) -> ConcurrentCell {
    let cache = ShardedCache::with_shards(capacity, shards);
    cache.set_ledger_recording(true);
    let traces: Vec<Vec<PageId>> = (0..threads as u64)
        .map(|t| {
            let mut s = seed.wrapping_add(t).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            (0..ops_per_thread)
                .map(|_| PageId(xorshift(&mut s) % (2 * capacity.max(1)) as u64))
                .collect()
        })
        .collect();
    let miss_count = AtomicU64::new(0);
    std::thread::scope(|s| {
        for trace in &traces {
            let (cache, miss_count) = (&cache, &miss_count);
            s.spawn(move || {
                for &page in trace {
                    if !cache.access_shared(page).is_hit() {
                        miss_count.fetch_add(1, Ordering::SeqCst);
                    }
                }
            });
        }
    });
    let misses = miss_count.load(Ordering::SeqCst) as usize;
    let mut violations = check_sharded_ledgers(&cache.shard_capacities(), &cache.take_ledgers());

    let distinct: HashSet<PageId> = traces.iter().flatten().copied().collect();
    if misses < distinct.len() {
        violations.push(format!(
            "envelope: {misses} misses below the cold-start floor of {} distinct pages",
            distinct.len()
        ));
    }
    // Upper envelope: interleaving can only *pollute* a shard relative to
    // each thread running alone, never help every thread at once; the sum
    // of solo-run misses bounds any serialization from above only loosely,
    // so allow the full op count as the hard ceiling and flag crossings of
    // the solo sum as suspicious only when they also exceed it.
    let solo_sum: usize = traces
        .iter()
        .map(|trace| {
            let mut solo = ShardedCache::with_shards(capacity, shards);
            trace.iter().filter(|&&p| !solo.access(p).is_hit()).count()
        })
        .sum();
    let ceiling = solo_sum.max(distinct.len()) + threads * ops_per_thread / 4;
    if misses > ceiling {
        violations.push(format!(
            "envelope: {misses} misses exceed ceiling {ceiling} (solo sum {solo_sum})"
        ));
    }
    ConcurrentCell {
        ops: threads * ops_per_thread,
        misses,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(thread: usize, op: Op, outcome: Outcome, invoked: u64, returned: u64) -> OpRecord {
        OpRecord {
            thread,
            op,
            outcome,
            invoked,
            returned,
        }
    }

    fn one_shard(capacity: usize, history: &[OpRecord]) -> Result<(), String> {
        check_linearizable(&[LruCache::new(capacity)], |_| 0, history)
    }

    #[test]
    fn odometer_walks_the_tree_in_order() {
        assert_eq!(next_plan(&[(0, 2), (1, 2)]), Some(vec![1]));
        assert_eq!(next_plan(&[(0, 2), (0, 3)]), Some(vec![0, 1]));
        assert_eq!(next_plan(&[(1, 2), (2, 3)]), None);
        assert_eq!(next_plan(&[(0, 1)]), None);
        assert_eq!(next_plan(&[]), None);
    }

    #[test]
    fn linearizable_history_accepted() {
        // T0: access(1) misses, overlapping T1: contains(1) — either answer
        // is linearizable while they overlap.
        for observed in [true, false] {
            let h = vec![
                rec(0, Op::Access(1), Outcome::Access(Access::Miss), 1, 4),
                rec(1, Op::Contains(1), Outcome::Resident(observed), 2, 3),
            ];
            assert!(one_shard(1, &h).is_ok(), "observed={observed}");
        }
    }

    #[test]
    fn non_linearizable_history_rejected() {
        // contains(1) returned false strictly *after* access(1) returned:
        // no legal order explains it.
        let h = vec![
            rec(0, Op::Access(1), Outcome::Access(Access::Miss), 1, 2),
            rec(1, Op::Contains(1), Outcome::Resident(false), 3, 4),
        ];
        assert!(one_shard(1, &h).is_err());
    }

    #[test]
    fn lost_update_history_rejected() {
        // Two accesses of the same page, one after the other, both miss —
        // impossible for any cache that holds at least one page.
        let h = vec![
            rec(0, Op::Access(5), Outcome::Access(Access::Miss), 1, 2),
            rec(1, Op::Access(5), Outcome::Access(Access::Miss), 3, 4),
        ];
        for capacity in [1, 2, 8] {
            assert!(one_shard(capacity, &h).is_err(), "capacity {capacity}");
        }
        // A zero-capacity cache keeps nothing, so both misses are legal.
        assert!(one_shard(0, &h).is_ok());
    }

    #[test]
    fn exhaustive_exploration_of_a_small_scenario_is_clean() {
        let sc = Scenario {
            name: "tiny",
            capacity: 1,
            shards: 1,
            setup: vec![],
            threads: vec![vec![Op::Access(1)], vec![Op::Access(1)]],
        };
        let report = explore(&sc, 50_000, ExploreMode::Exhaustive);
        assert!(report.passed(), "{:?}", report.violations);
        assert!(report.complete, "tiny scenario must exhaust");
        assert!(report.distinct >= 2, "at least two interleavings exist");
    }

    #[test]
    fn random_sampling_is_clean_and_deterministic() {
        let sc = &scenarios()[1];
        let a = explore(sc, 60, ExploreMode::Random { seed: 9 });
        let b = explore(sc, 60, ExploreMode::Random { seed: 9 });
        assert!(a.passed(), "{:?}", a.violations);
        assert_eq!(a.distinct, b.distinct, "same seed, same walk");
        assert!(
            a.distinct > 10,
            "sampling found only {} schedules",
            a.distinct
        );
    }

    /// A worker that panics mid-script hands the token back on unwind: the
    /// execution returns, and the panic comes back as a violation carrying
    /// the choice sequence.
    #[test]
    fn panicking_worker_is_reported_not_hung() {
        let sc = Scenario {
            name: "panics",
            capacity: 2,
            shards: 1,
            setup: vec![],
            threads: vec![vec![Op::Access(1)], vec![Op::Access(2), Op::Contains(1)]],
        };
        let (taken, history, violation) = run_with(&sc, &[], None, |cache, op| match op {
            Op::Contains(_) => panic!("injected fault"),
            _ => apply_real(cache, op),
        });
        let v = violation.expect("the panic must surface as a violation");
        assert!(v.contains("T1 panicked: injected fault"), "{v}");
        assert!(
            v.contains(&format!("[choices {:?}]", choices_of(&taken))),
            "{v}"
        );
        assert_eq!(history.len(), 2, "both accesses completed");
    }

    #[test]
    fn sharded_ledger_replay_flags_a_forged_history() {
        let caps = vec![2];
        let forged = vec![vec![
            (PageId(1), Access::Miss),
            (PageId(1), Access::Miss), // second access must be a hit
        ]];
        let v = check_sharded_ledgers(&caps, &forged);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("shard 0 op 1"), "{}", v[0]);
    }

    #[test]
    fn concurrent_cache_cell_passes() {
        let cell = check_concurrent_cache(4, 300, 64, 4, 42);
        assert!(cell.passed(), "{:?}", cell.violations);
        assert_eq!(cell.ops, 1200);
        assert!(cell.misses >= 1, "a cold cache must miss");
    }
}
