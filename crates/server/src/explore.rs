//! `parapage conform --concurrent`: the server's locks under the schedule
//! explorer of [`parapage::conform::schedules`].
//!
//! One worker per connection runs the server's own per-frame step
//! (`serve_frame`), reaper sweep (`reap`) and register step
//! (`register`) on a socket-free core. Every lock acquisition is a
//! scheduling point, and so is taking a session lock, which stands for a
//! batch that runs long under it. Each execution must pass three checks:
//!
//! * **Sequential consistency.** Every reply, and a final probe of the
//!   quiescent core, equals that of some real-time-consistent sequential
//!   order replayed on a fresh core. A mid-run `Stats` folds each session
//!   at its own moment, so only its server-wide fields are compared.
//! * **Isolation.** No op on tenant B waits, directly or through a chain
//!   of lock holders, on tenant A's session.
//! * **Progress.** No execution ends with every live worker blocked.
//!
//! A sabotage is an op whose sequential spec is a clean op's (the replay
//! runs that one); [`sabotages`] says what each must be caught as.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use parapage::cache::{fnv1a64, PageId};
use parapage::conform::matrix::{CellFilter, CellRow, Matrix};
use parapage::conform::{
    catch_op, check_linearizable, explore, run_schedule, Execution, ExploreMode, ExploreReport,
    Worker,
};

use crate::protocol::{Frame, ServerStats, TenantConfig, PROTO_VERSION};
use crate::server::{
    begin_shutdown, detach, hello_ack, reap, register, serve_frame, table, ServeOpts, ServerState,
    Session,
};
use crate::yieldpoint::{clear_yield_hook, set_yield_hook, LockName, Point};

/// One step of a scenario worker (one connection), or of the checker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// `Hello` for the named tenant: admit or re-attach.
    Hello(&'static str),
    /// `Batch` number `n` on the attached tenant.
    Batch(u64),
    /// `Kill { batch, at_tick }` on the attached tenant.
    Kill(u64, u64),
    /// `Migrate { batch, at_tick }` on the attached tenant.
    Migrate(u64, u64),
    /// `Stats`.
    Stats,
    /// `Goodbye`, then the connection's hang-up (it detaches).
    Goodbye,
    /// One reaper sweep with a zero idle TTL: every detached tenant is due.
    Reap,
    /// The accept loop's register step for a new connection.
    Register,
    /// `Shutdown`: acknowledged, then the shutdown begins.
    Shutdown,
    /// Sabotage: a panic under the attached tenant's session lock.
    PanicUnderSession,
    /// Sabotage: `Register` reading the shutdown flag before the lock.
    RegisterUnlocked,
    /// Sabotage: `Stats` taking every session's lock under the table.
    StatsUnderTables,
    /// Sabotage: a re-attaching `Hello` for the named tenant that waits
    /// for its session under the tenant table.
    ReattachUnderTable(&'static str),
    /// The checker's final look at the quiescent core.
    Probe,
}

impl Op {
    /// The clean op a sabotage stands for: what the sequential replay runs.
    fn spec(self) -> Op {
        match self {
            Op::RegisterUnlocked => Op::Register,
            Op::StatsUnderTables => Op::Stats,
            Op::ReattachUnderTable(tenant) => Op::Hello(tenant),
            op => op,
        }
    }
}

/// What an op observed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// The frame the server replied with (a `Stats` reply with its
    /// server-wide fields only).
    Reply(Frame),
    /// What a reaper sweep parked, a register step gave, or the probe saw.
    Observed(String),
    /// The op panicked, with this message.
    Panicked(String),
}

/// A server scenario: one op script per worker (connection).
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Display name, the cell label.
    pub name: &'static str,
    /// Per-worker op scripts (three workers keep the trees in reach).
    pub threads: Vec<Vec<Op>>,
}

/// Every tenant's configuration: two processors, small enough that a
/// batch costs microseconds.
fn config(tenant: &str) -> TenantConfig {
    TenantConfig {
        tenant: tenant.into(),
        p: 2,
        k: 4,
        s: 2,
        policy: "det-par".into(),
        seed: 7,
        shards: 2,
    }
}

/// Batch `n`'s requests: eight per processor over five pages each.
fn workload(n: u64) -> Vec<Vec<PageId>> {
    (0..2u64)
        .map(|q| {
            (0..8u64)
                .map(|i| PageId((q << 16) | ((i + n) % 5)))
                .collect()
        })
        .collect()
}

/// A `Stats` reply as the checker compares it mid-run.
fn stats_outcome(s: &ServerStats) -> Outcome {
    let (tenants, expiries, shed) = (s.tenants, s.expiries, s.shed);
    let stats = ServerStats {
        tenants,
        expiries,
        shed,
        ..ServerStats::default()
    };
    Outcome::Reply(Frame::StatsReply { stats })
}

fn observed(what: &str, value: impl std::fmt::Debug) -> Outcome {
    Outcome::Observed(format!("{what} {value:?}"))
}

/// Runs `op` on `state` for a connection attached to `attached`.
fn apply(state: &ServerState, attached: &mut Option<Arc<Session>>, op: Op) -> Outcome {
    let frame = match op {
        Op::Hello(tenant) => Frame::Hello {
            proto: PROTO_VERSION,
            config: config(tenant),
        },
        Op::Batch(batch) => Frame::Batch {
            batch,
            seqs: workload(batch),
        },
        Op::Kill(batch, at_tick) => Frame::Kill { batch, at_tick },
        Op::Migrate(batch, at_tick) => Frame::Migrate { batch, at_tick },
        Op::Stats => Frame::Stats,
        Op::Goodbye => Frame::Goodbye,
        Op::Shutdown => Frame::Shutdown,
        Op::Reap => return observed("expired", reap(state, Duration::ZERO)),
        Op::Register => return observed("registered", register(state, None)),
        Op::PanicUnderSession => panic_under_session(attached),
        Op::RegisterUnlocked => return observed("registered", register_unlocked(state)),
        Op::StatsUnderTables => return stats_under_tables(state),
        Op::ReattachUnderTable(tenant) => return reattach_under_table(state, attached, tenant),
        Op::Probe => return Outcome::Observed(probe(state)),
    };
    let reply = serve_frame(state, frame, attached);
    match &reply {
        Frame::StatsReply { stats } => return stats_outcome(stats),
        Frame::GoodbyeAck => {
            if let Some(session) = attached.take() {
                detach(state, &session.name);
            }
        }
        Frame::ShutdownAck => begin_shutdown(state),
        _ => {}
    }
    Outcome::Reply(reply)
}

/// Panics while holding the attached session's lock, which poisons it.
/// Unwinds without the panic hook, so nothing is printed.
fn panic_under_session(attached: &Option<Arc<Session>>) -> ! {
    let name = attached.as_ref().map_or("", |s| s.name.as_str());
    let _held = attached.as_ref().map(|s| s.lock());
    std::panic::resume_unwind(Box::new(format!(
        "injected panic under tenant `{name}`'s session lock"
    )))
}

/// The register step with the shutdown check outside the lock.
fn register_unlocked(state: &ServerState) -> Option<u64> {
    if state.shutting_down.load(Ordering::SeqCst) {
        return None;
    }
    let mut conns = table(&state.conns, LockName::Conns);
    let conn_id = state.next_conn.fetch_add(1, Ordering::SeqCst);
    conns.insert(conn_id, None);
    Some(conn_id)
}

/// `Stats` that first takes every session's lock under the tenant table.
fn stats_under_tables(state: &ServerState) -> Outcome {
    let tenants = table(&state.tenants, LockName::Tenants);
    tenants.values().for_each(|e| drop(e.session.lock()));
    drop(tenants);
    stats_outcome(&state.stats())
}

/// A `Hello` that re-attaches to an existing `tenant` and reads its
/// resume coordinates with the tenant table still held, so it waits for
/// a running batch under the table; a new tenant is admitted as usual.
/// Scenarios using it attach each connection once.
fn reattach_under_table(
    state: &ServerState,
    attached: &mut Option<Arc<Session>>,
    tenant: &'static str,
) -> Outcome {
    let mut tenants = table(&state.tenants, LockName::Tenants);
    let Some(entry) = tenants.get_mut(tenant) else {
        drop(tenants);
        return apply(state, attached, Op::Hello(tenant));
    };
    let session = entry.attach();
    let reply = match session.lock() {
        Ok(t) => hello_ack(state, &t),
        Err((code, message)) => Frame::Error { code, message },
    };
    drop(tenants);
    *attached = Some(session);
    Outcome::Reply(reply)
}

/// The quiescent core: connection table, shutdown flag, live tenants with
/// their attachment counts, parked tenants, and the full `Stats`.
fn probe(state: &ServerState) -> String {
    let conns = table(&state.conns, LockName::Conns).len();
    let (mut tenants, mut parked) = (BTreeMap::new(), BTreeSet::new());
    for (name, e) in table(&state.tenants, LockName::Tenants).iter() {
        if e.parked.is_some() {
            parked.insert(name.clone());
        } else {
            tenants.insert(name.clone(), e.attached);
        }
    }
    let shutting_down = state.shutting_down.load(Ordering::SeqCst);
    format!(
        "{conns} conns, shutting down {shutting_down}, {tenants:?}, parked {parked:?}, {:?}",
        state.stats()
    )
}

fn scenario(name: &'static str, threads: &[&[Op]]) -> Scenario {
    let threads = threads.iter().map(|ops| ops.to_vec()).collect();
    Scenario { name, threads }
}

/// The clean scenarios: Hello and re-attach, Batch, Kill and Migrate,
/// Stats, reaper expiry and re-attach, register and Shutdown, over two
/// tenants; one op script per worker.
#[rustfmt::skip]
pub fn scenarios() -> Vec<Scenario> {
    use Op::*;
    vec![
        // A shutdown racing the register step and a running batch.
        scenario("shutdown-register", &[
            &[Register, Hello("a"), Batch(0)], &[Register, Shutdown], &[Hello("b"), Stats, Register],
        ]),
        // Kill and Migrate queued from a second connection of tenant a.
        scenario("kill-migrate", &[
            &[Hello("a"), Kill(0, 2), Batch(0)], &[Hello("a"), Migrate(0, 4), Stats], &[Hello("b"), Batch(0)],
        ]),
        // Tenant a detaches, is parked, then re-attached by a connection
        // that moves over from b.
        scenario("expiry-reattach", &[
            &[Hello("a"), Batch(0), Goodbye], &[Reap, Stats, Reap], &[Hello("b"), Hello("a"), Batch(1)],
        ]),
        // Two tenants' batches beside a Stats and a re-attach of a.
        scenario("attach-batch-stats", &[
            &[Hello("a"), Batch(0), Stats], &[Hello("b"), Batch(0), Goodbye], &[Stats, Hello("a"), Batch(1)],
        ]),
        // a's batch holds its session while a Stats waits for it; b's
        // Hello and batch must not wait with the Stats.
        scenario("stats-behind-batch", &[
            &[Hello("a"), Batch(0)], &[Stats], &[Hello("b"), Batch(0)],
        ]),
        // The same with a re-attaching Hello of a waiting for the batch.
        scenario("reattach-behind-batch", &[
            &[Hello("a"), Batch(0)], &[Hello("a")], &[Hello("b"), Batch(0)],
        ]),
    ]
}

/// The sabotages the self-check must catch, each with what every part of
/// every violation it produces must say.
#[rustfmt::skip]
pub fn sabotages() -> Vec<(Scenario, &'static str)> {
    use Op::*;
    vec![
        // The panic is reported, and nothing else may go wrong: b's replies
        // equal the replay's, Stats answers, the reaper passes a by, and
        // a's next batch is a typed error.
        (scenario("panic-under-session", &[
            &[Hello("a"), PanicUnderSession, Batch(0), Goodbye], &[Hello("b"), Batch(0), Stats], &[Reap, Stats],
        ]), "panicked: injected panic"),
        // A connection registered after the drain: no order explains it.
        (scenario("register-after-shutdown", &[
            &[RegisterUnlocked, RegisterUnlocked], &[Shutdown],
        ]), "no sequential order"),
        // Stats waits on a's batch under the tenant table, so b's Hello
        // waits on a's session.
        (scenario("stats-under-table", &[
            &[Hello("a"), Batch(0)], &[StatsUnderTables], &[Hello("b")],
        ]), "waits on tenant"),
        // A re-attach waits for a's batch under the tenant table, so b's
        // Hello waits on a's session.
        (scenario("reattach-under-table", &[
            &[Hello("a"), Batch(0)], &[ReattachUnderTable("a")], &[Hello("b"), Batch(0)],
        ]), "waits on tenant"),
    ]
}

/// One op as the checker sees it.
#[derive(Debug)]
struct Record {
    thread: usize,
    op: Op,
    outcome: Outcome,
    invoked: u64,
    returned: u64,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Who holds and who waits on which lock, and what each worker is doing:
/// the isolation check's view of one execution.
struct Watch {
    holders: HashMap<LockKey, usize>,
    waiting: Vec<Option<LockKey>>,
    /// Each worker's current op and the tenant it is on.
    current: Vec<(Op, Option<String>)>,
    /// The first cross-tenant wait seen.
    violation: Option<String>,
}

/// A lock's identity: the tenant of a session, or a table's name.
type LockKey = (Option<String>, String);

fn lock_key(name: LockName<'_>) -> LockKey {
    match name {
        LockName::Session(tenant) => (Some(tenant.into()), String::new()),
        table => (None, format!("{table:?}")),
    }
}

impl Watch {
    /// Worker `w` is blocked on `key`: follow every blocked worker's chain
    /// of waits through the holders, looking for another tenant's session.
    fn block(&mut self, w: usize, key: LockKey) {
        self.waiting[w] = Some(key);
        for (w, (op, tenant)) in self.current.iter().enumerate() {
            let mut at = self.waiting[w].as_ref();
            for _ in 0..self.waiting.len() {
                let Some(key) = at else { break };
                if let (Some(tenant), Some(other)) = (tenant, &key.0) {
                    if other != tenant && self.violation.is_none() {
                        self.violation = Some(format!(
                            "T{w} {op:?} on tenant `{tenant}` waits on tenant `{other}`'s session"
                        ));
                    }
                }
                let holder = self.holders.get(key);
                at = holder.and_then(|&h| self.waiting[h].as_ref());
            }
        }
    }
}

/// The hook of worker `w`: every point is a scheduling point but a
/// release and a table's hold; a blocked point waits for another worker.
fn on_point(w: &Worker, watch: &Mutex<Watch>, point: Point<'_>) {
    match point {
        Point::Acquire(_) => w.yield_now(),
        Point::Held(name) => {
            lock(watch).holders.insert(lock_key(name), w.id());
            if matches!(name, LockName::Session(_)) {
                w.yield_now();
            }
        }
        Point::Released(name) => drop(lock(watch).holders.remove(&lock_key(name))),
        Point::Blocked(name) => {
            lock(watch).block(w.id(), lock_key(name));
            w.blocked();
            lock(watch).waiting[w.id()] = None;
        }
    }
}

/// The sequential-consistency verdict on a complete history (final probe
/// last): each candidate order is replayed on a fresh core, every
/// sabotage replaced by its spec.
fn sequential_verdict(history: &[Record], workers: usize) -> Option<String> {
    let intervals: Vec<(u64, u64)> = history.iter().map(|r| (r.invoked, r.returned)).collect();
    let extends = |order: &[usize]| {
        let state = ServerState::new(ServeOpts::default(), None);
        let mut conns = vec![None; workers];
        let mut last = None;
        for r in order.iter().map(|&i| &history[i]) {
            let replayed = catch_op(|| apply(&state, &mut conns[r.thread], r.op.spec()));
            last = Some(replayed.unwrap_or_else(Outcome::Panicked));
        }
        last.as_ref() == order.last().map(|&i| &history[i].outcome)
    };
    if check_linearizable(&intervals, extends) {
        return None;
    }
    let ops: Vec<String> = (history.iter())
        .map(|r| format!("T{} {:?}={:?}", r.thread, r.op, r.outcome))
        .collect();
    let ops = ops.join(", ");
    Some(format!("no sequential order explains the replies: {ops}"))
}

/// Runs `scenario` once; returns the execution and the violations.
/// `verdicts` caches the sequential verdict of each distinct history
/// (most executions repeat one).
fn run_once(
    scenario: &Scenario,
    verdicts: &mut HashMap<u64, Option<String>>,
    plan: &[usize],
    rng: Option<&mut u64>,
) -> (Execution, Option<String>) {
    let workers = scenario.threads.len();
    let state = ServerState::new(ServeOpts::default(), None);
    let clock = AtomicU64::new(1);
    let history: Mutex<Vec<Record>> = Mutex::new(Vec::new());
    let watch = Arc::new(Mutex::new(Watch {
        holders: HashMap::new(),
        waiting: vec![None; workers],
        current: vec![(Op::Probe, None); workers],
        violation: None,
    }));
    let exec = run_schedule(workers, plan, rng, |w| {
        let (hook_worker, hook_watch) = (w.clone(), Arc::clone(&watch));
        set_yield_hook(Box::new(move |point| {
            on_point(&hook_worker, &hook_watch, point)
        }));
        let mut attached: Option<Arc<Session>> = None;
        for &op in &scenario.threads[w.id()] {
            let tenant = match op {
                Op::Hello(t) | Op::ReattachUnderTable(t) => Some(t.to_string()),
                Op::Batch(_)
                | Op::Kill(..)
                | Op::Migrate(..)
                | Op::Goodbye
                | Op::PanicUnderSession => attached.as_ref().map(|s| s.name.clone()),
                _ => None,
            };
            lock(&watch).current[w.id()] = (op, tenant);
            let invoked = clock.fetch_add(1, Ordering::SeqCst);
            let outcome =
                catch_op(|| apply(&state, &mut attached, op)).unwrap_or_else(Outcome::Panicked);
            let returned = clock.fetch_add(1, Ordering::SeqCst);
            let thread = w.id();
            lock(&history).push(Record {
                thread,
                op,
                outcome,
                invoked,
                returned,
            });
        }
        clear_yield_hook();
    });

    let mut history = history.into_inner().unwrap_or_else(|e| e.into_inner());
    let mut problems: Vec<String> = (exec.panics.iter())
        .map(|(i, msg)| format!("T{i} panicked: {msg}"))
        .collect();
    for r in &history {
        if let Outcome::Panicked(msg) = &r.outcome {
            problems.push(format!("T{} {:?} panicked: {msg}", r.thread, r.op));
        }
    }
    problems.extend(lock(&watch).violation.take());
    if let Some(blocked) = &exec.deadlock {
        problems.push(format!("deadlock: workers {blocked:?} all blocked"));
    } else if let Some(w) = exec.stuck {
        problems.push(format!("T{w} blocked outside a scheduling point"));
    } else {
        let (invoked, outcome) = (clock.fetch_add(2, Ordering::SeqCst), probe(&state));
        let (thread, op, returned) = (workers, Op::Probe, invoked + 1);
        history.push(Record {
            thread,
            op,
            outcome: Outcome::Observed(outcome),
            invoked,
            returned,
        });
        history.sort_by_key(|r| r.invoked);
        let verdict = verdicts
            .entry(fnv1a64(format!("{history:?}").as_bytes()))
            .or_insert_with(|| sequential_verdict(&history, workers + 1));
        problems.extend(verdict.clone());
    }
    let violation = (!problems.is_empty()).then(|| problems.join("; "));
    (exec, violation)
}

/// Explores `scenario` for at most `budget` executions.
pub fn explore_scenario(scenario: &Scenario, budget: usize, mode: ExploreMode) -> ExploreReport {
    let mut verdicts = HashMap::new();
    explore(scenario.name, budget, mode, |plan, rng| {
        run_once(scenario, &mut verdicts, plan, rng)
    })
}

/// Runs `scenario` once along `choices` (a violation's `[choices …]`)
/// and returns that execution's violation: the replay of a reported
/// schedule.
pub fn replay_choices(scenario: &Scenario, choices: &[usize]) -> Option<String> {
    run_once(scenario, &mut HashMap::new(), choices, None).1
}

/// The exploration cells: every scenario `filter` keeps, exhaustively
/// for at most `budget` executions, then by random sampling for a quarter
/// of that. The budget is per scenario, so adding a scenario leaves every
/// other cell as it was.
pub fn exploration_matrix(budget: usize, seed: u64, filter: &CellFilter) -> Matrix<ExploreReport> {
    let all = scenarios();
    let modes = [
        ("exhaustive", ExploreMode::Exhaustive, budget),
        ("random", ExploreMode::Random { seed }, budget / 4),
    ];
    let candidates = modes.iter().flat_map(|m| all.iter().map(move |sc| (m, sc)));
    Matrix::run(
        &["scenario", "mode", "executions", "distinct", "complete"],
        filter,
        candidates,
        |&(m, sc)| vec![sc.name.to_string(), m.0.to_string()],
        |&(m, sc)| Ok(explore_scenario(sc, m.2, m.1)),
    )
}

/// A sabotage cell: its exploration, and why the self-check failed (empty
/// when the sabotage was caught as what it is).
pub struct SabotageRow {
    /// The exploration of the sabotaged scenario.
    pub report: ExploreReport,
    /// Self-check failures.
    pub violations: Vec<String>,
}

impl CellRow for SabotageRow {
    fn columns(&self) -> Vec<String> {
        let r = &self.report;
        [r.executions, r.violating].map(|n| n.to_string()).to_vec()
    }
    fn violations(&self) -> &[String] {
        &self.violations
    }
}

/// Explores a sabotaged `scenario` exhaustively for at most `budget`
/// executions. It is caught when some execution is violating and every
/// part of every reported violation contains `caught_as`.
pub fn check_sabotage(scenario: &Scenario, caught_as: &str, budget: usize) -> SabotageRow {
    let report = explore_scenario(scenario, budget, ExploreMode::Exhaustive);
    let mut violations = Vec::new();
    if report.passed() {
        let n = report.executions;
        violations.push(format!(
            "not caught in {n} executions: the check cannot fail"
        ));
    }
    for v in &report.violations {
        let body = v
            .rsplit_once(" [choices ")
            .map_or(v.as_str(), |(body, _)| body);
        if body.split("; ").any(|part| !part.contains(caught_as)) {
            violations.push(format!("caught as something else: {v}"));
        }
    }
    SabotageRow { report, violations }
}

/// The sabotage self-check cells.
pub fn sabotage_matrix(budget: usize, filter: &CellFilter) -> Matrix<SabotageRow> {
    Matrix::run(
        &["sabotage", "executions", "caught"],
        filter,
        sabotages(),
        |(sc, _)| vec![sc.name.to_string()],
        |(sc, caught_as)| Ok(check_sabotage(sc, caught_as, budget)),
    )
}
