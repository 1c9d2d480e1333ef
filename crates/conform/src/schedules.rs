//! Loom-style schedule exploration. Code under test announces
//! *scheduling points* through a [`Worker`] handle (the server does so at
//! every shared lock); a token-passing controller admits one worker thread
//! at a time and picks, at every point, which runs next, so an execution
//! is a deterministic function of its choice sequence.
//!
//! * [`run_schedule`] — the scheduler. A [blocked](Worker::blocked) worker
//!   is not chosen until another moves; when every live worker is blocked
//!   the execution is a deadlock and they unwind. A worker that does not
//!   reach its next scheduling point within [`STUCK_AFTER`] is blocked
//!   outside one (on a lock the scheduler cannot see): the execution is
//!   reported as stuck and the other workers unwind, which frees it.
//! * [`explore`] — DFS over the choice tree by prefix replay, every
//!   execution a distinct interleaving, or seeded random sampling.
//! * [`check_linearizable`] — Wing–Gong search for a real-time-consistent
//!   total order under which a sequential model gives every result.

use std::any::Any;
use std::collections::HashSet;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::matrix::CellRow;

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
    fn record(&mut self, taken: &[(usize, usize)], violation: Option<String>) {
        self.executions += 1;
        if let Some(v) = violation {
            self.violating += 1;
            if self.violations.len() < MAX_REPORTED {
                let choices = choices_of(taken);
                self.violations
                    .push(format!("{}: {v} [choices {choices:?}]", self.scenario));
            }
        }
    }
}

/// An exploration as a matrix cell: executions, distinct interleavings,
/// and whether the tree was exhausted.
impl CellRow for ExploreReport {
    fn columns(&self) -> Vec<String> {
        vec![
            self.executions.to_string(),
            self.distinct.to_string(),
            self.complete.to_string(),
        ]
    }
    fn violations(&self) -> &[String] {
        &self.violations
    }
}

/// Cap on retained violation strings per report.
pub const MAX_REPORTED: usize = 5;

/// How long the controller waits for a granted worker to hand the token
/// back before calling it stuck. Between two scheduling points a worker
/// of the built-in scenarios runs for microseconds; one that takes this
/// long waits on something no schedule can release.
pub const STUCK_AFTER: Duration = Duration::from_secs(5);

struct SchedState {
    /// The worker holding the token; `None` while the controller does.
    turn: Option<usize>,
    finished: Box<[bool]>,
    /// Workers waiting for another worker to move.
    blocked: Box<[bool]>,
    /// Set once a deadlock or a stuck worker is found: every worker
    /// unwinds at its next scheduling point.
    aborting: bool,
}

struct Sched {
    state: Mutex<SchedState>,
    cv: Condvar,
}

/// The payload an aborted worker unwinds with; not a panic of the code
/// under test.
struct Aborted;

impl Sched {
    fn new(workers: usize) -> Sched {
        Sched {
            state: Mutex::new(SchedState {
                turn: None,
                finished: vec![false; workers].into_boxed_slice(),
                blocked: vec![false; workers].into_boxed_slice(),
                aborting: false,
            }),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, SchedState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Worker `i`: block until granted the token; unwind if aborting.
    fn wait_turn(&self, mut st: MutexGuard<'_, SchedState>, i: usize) {
        while st.turn != Some(i) && !st.aborting {
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        if st.aborting {
            drop(st);
            resume_unwind(Box::new(Aborted));
        }
    }

    /// Worker `i`: hand the token back and block until granted again. A
    /// worker that moved unblocks every other worker.
    fn yield_back(&self, i: usize, blocked: bool) {
        let mut st = self.lock();
        if blocked {
            st.blocked[i] = true;
        } else {
            st.blocked.fill(false);
        }
        st.turn = None;
        self.cv.notify_all();
        self.wait_turn(st, i);
    }

    /// Worker `i`: mark done and hand the token back for good.
    fn finish(&self, i: usize) {
        let mut st = self.lock();
        st.finished[i] = true;
        st.blocked.fill(false);
        st.turn = None;
        self.cv.notify_all();
    }

    /// Controller: grant the token to worker `c` and block until it comes
    /// back; `false` when it has not within [`STUCK_AFTER`].
    fn grant(&self, c: usize) -> bool {
        let mut st = self.lock();
        st.turn = Some(c);
        self.cv.notify_all();
        let deadline = Instant::now() + STUCK_AFTER;
        while st.turn.is_some() {
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                return false;
            };
            st = self
                .cv
                .wait_timeout(st, left)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
        true
    }

    /// Controller: end the execution. Every worker waiting for the token,
    /// and every other one at its next scheduling point, unwinds.
    fn abort(&self) {
        self.lock().aborting = true;
        self.cv.notify_all();
    }

    /// The unfinished workers, and those of them not blocked.
    fn live_and_runnable(&self) -> (Vec<usize>, Vec<usize>) {
        let st = self.lock();
        let live: Vec<usize> = (0..st.finished.len())
            .filter(|&i| !st.finished[i])
            .collect();
        let runnable = live.iter().copied().filter(|&i| !st.blocked[i]).collect();
        (live, runnable)
    }
}

/// A worker's handle on the virtual scheduler.
#[derive(Clone)]
pub struct Worker {
    sched: Arc<Sched>,
    id: usize,
}

impl Worker {
    /// The worker's index in the scenario.
    pub fn id(&self) -> usize {
        self.id
    }

    /// A scheduling point: hand the token back and wait to be chosen again.
    pub fn yield_now(&self) {
        self.sched.yield_back(self.id, false);
    }

    /// A scheduling point at which this worker cannot go on until another
    /// worker moves (a lock it retries is held). It is not chosen again
    /// before some other worker reaches a scheduling point or finishes.
    /// If every unfinished worker is blocked, the execution is reported
    /// as a deadlock and this call unwinds (see [`catch_op`]).
    pub fn blocked(&self) {
        self.sched.yield_back(self.id, true);
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

/// One execution under the virtual scheduler.
#[derive(Clone, Debug, Default)]
pub struct Execution {
    /// Every decision: (choice, number of runnable workers).
    pub taken: Vec<(usize, usize)>,
    /// The workers left blocked when every unfinished worker was.
    pub deadlock: Option<Vec<usize>>,
    /// The worker that did not hand the token back within
    /// [`STUCK_AFTER`]: blocked outside a scheduling point.
    pub stuck: Option<usize>,
    /// Workers whose body panicked, with the panic message.
    pub panics: Vec<(usize, String)>,
}

fn xorshift(s: &mut u64) -> u64 {
    let mut x = *s;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *s = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// Runs `body` on `workers` threads under the virtual scheduler, once.
///
/// `plan` fixes the first `plan.len()` choices (indices into the runnable
/// list); past the plan, choices come from `rng` when given, else default
/// to index 0 (the DFS left spine). Each worker runs `body` with its own
/// [`Worker`] handle once granted the token.
///
/// A stuck worker is freed by the others unwinding only if what blocks it
/// is held by one of them; a worker blocked on itself or on a thread
/// outside the execution still hangs the join.
pub fn run_schedule(
    workers: usize,
    plan: &[usize],
    mut rng: Option<&mut u64>,
    body: impl Fn(&Worker) + Sync,
) -> Execution {
    let sched = Arc::new(Sched::new(workers));
    let mut exec = Execution::default();
    let body = &body;
    std::thread::scope(|s| {
        let threads: Vec<_> = (0..workers)
            .map(|id| {
                let worker = Worker {
                    sched: Arc::clone(&sched),
                    id,
                };
                s.spawn(move || {
                    let _finish = Finish(&worker.sched, id);
                    worker.sched.wait_turn(worker.sched.lock(), id);
                    body(&worker);
                })
            })
            .collect();
        loop {
            let (live, runnable) = sched.live_and_runnable();
            if live.is_empty() {
                break;
            }
            if runnable.is_empty() {
                // Every live worker waits on another: unwind them all.
                sched.abort();
                exec.deadlock = Some(live);
                break;
            }
            let pick = if exec.taken.len() < plan.len() {
                plan[exec.taken.len()].min(runnable.len() - 1)
            } else {
                match rng.as_deref_mut() {
                    Some(seed) => (xorshift(seed) % runnable.len() as u64) as usize,
                    None => 0,
                }
            };
            exec.taken.push((pick, runnable.len()));
            if !sched.grant(runnable[pick]) {
                sched.abort();
                exec.stuck = Some(runnable[pick]);
                break;
            }
        }
        for (i, t) in threads.into_iter().enumerate() {
            if let Err(payload) = t.join() {
                if !payload.is::<Aborted>() {
                    exec.panics.push((i, panic_message(&*payload).to_string()));
                }
            }
        }
    });
    exec
}

/// Runs one operation of a worker's script, turning its panic into the
/// panic's message. A deadlocked worker's unwind passes through untouched,
/// so the scheduler can still end the execution.
pub fn catch_op<R>(op: impl FnOnce() -> R) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(op)).map_err(|payload| {
        if payload.is::<Aborted>() {
            resume_unwind(payload);
        }
        panic_message(&*payload).to_string()
    })
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

/// Searches for a total order of the ops whose real-time intervals are
/// `intervals` that respects real-time precedence (an op that returned
/// before another was invoked comes first) and that `extends` accepts at
/// every step, and says whether one exists. `extends(order)` says whether the
/// sequential model, running the ops of `order` one after another from its
/// initial state, gives the last one its observed outcome. Candidates are
/// tried in invocation order, so a history without overlaps is accepted on
/// the first path.
pub fn check_linearizable(
    intervals: &[(u64, u64)],
    mut extends: impl FnMut(&[usize]) -> bool,
) -> bool {
    fn search(
        iv: &[(u64, u64)],
        order: &mut Vec<usize>,
        extends: &mut dyn FnMut(&[usize]) -> bool,
    ) -> bool {
        let undone: Vec<usize> = (0..iv.len()).filter(|i| !order.contains(i)).collect();
        // A candidate: no other undone op returned before it was invoked.
        let min_ret = undone.iter().map(|&i| iv[i].1).min().unwrap_or(u64::MAX);
        let mut candidates: Vec<usize> =
            undone.into_iter().filter(|&i| iv[i].0 <= min_ret).collect();
        candidates.sort_by_key(|&i| iv[i].0);
        order.len() == iv.len()
            || candidates.into_iter().any(|c| {
                order.push(c);
                let found = extends(order) && search(iv, order, extends);
                order.pop();
                found
            })
    }
    search(intervals, &mut Vec::new(), &mut extends)
}

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

/// Explores the scenario `name` for at most `budget` executions under
/// `mode`. `run(plan, rng)` performs one execution (through
/// [`run_schedule`]) and returns it with its violation, if any; reported
/// violations carry the choice sequence that replays them. A stuck
/// execution ends the exploration: every later one could cost
/// [`STUCK_AFTER`] too.
pub fn explore(
    name: &str,
    budget: usize,
    mode: ExploreMode,
    mut run: impl FnMut(&[usize], Option<&mut u64>) -> (Execution, Option<String>),
) -> ExploreReport {
    let mut report = ExploreReport {
        scenario: name.to_string(),
        executions: 0,
        distinct: 0,
        complete: false,
        violating: 0,
        violations: Vec::new(),
    };
    match mode {
        ExploreMode::Exhaustive => {
            let mut plan: Vec<usize> = Vec::new();
            while report.executions < budget {
                let (exec, violation) = run(&plan, None);
                report.record(&exec.taken, violation);
                report.distinct += 1;
                if exec.stuck.is_some() {
                    break;
                }
                match next_plan(&exec.taken) {
                    Some(p) => plan = p,
                    None => {
                        report.complete = true;
                        break;
                    }
                }
            }
        }
        ExploreMode::Random { seed } => {
            let mut rng = seed.max(1);
            let mut seen: HashSet<Vec<usize>> = HashSet::new();
            for _ in 0..budget {
                let (exec, violation) = run(&[], Some(&mut rng));
                if seen.insert(choices_of(&exec.taken)) {
                    report.distinct += 1;
                }
                report.record(&exec.taken, violation);
                if exec.stuck.is_some() {
                    break;
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use parapage_cache::{Access, Cache, LruCache, PageId};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A toy op on one shared LRU: `(page, probe)` — access `page`, or
    /// only probe it when `probe` — and what it observed.
    type Rec = ((u64, bool), bool, (u64, u64));

    /// Replays `order` of `history` on a fresh LRU of `capacity`: does
    /// every op observe what it did?
    fn lru_replays(capacity: usize, history: &[Rec], order: &[usize]) -> bool {
        let mut lru = LruCache::new(capacity);
        order.iter().all(|&i| {
            let ((page, probe), observed, _) = history[i];
            let seen = if probe {
                lru.contains(PageId(page))
            } else {
                lru.access(PageId(page)) == Access::Hit
            };
            seen == observed
        })
    }

    fn lru_linearizable(capacity: usize, history: &[Rec]) -> bool {
        let intervals: Vec<(u64, u64)> = history.iter().map(|r| r.2).collect();
        check_linearizable(&intervals, |order| lru_replays(capacity, history, order))
    }

    /// Runs `scripts` (one per worker) against one locked LRU of capacity
    /// 1, a scheduling point before each op; a `panic_on` page panics its
    /// worker. Returns the decisions, the history and the execution.
    fn toy(
        scripts: &[Vec<(u64, bool)>],
        plan: &[usize],
        rng: Option<&mut u64>,
        panic_on: Option<u64>,
    ) -> (Execution, Vec<Rec>) {
        let cache = Mutex::new(LruCache::new(1));
        let clock = AtomicU64::new(1);
        let history = Mutex::new(Vec::new());
        let exec = run_schedule(scripts.len(), plan, rng, |w| {
            for &(page, probe) in &scripts[w.id()] {
                let invoked = clock.fetch_add(1, Ordering::SeqCst);
                w.yield_now();
                if panic_on == Some(page) {
                    panic!("injected fault");
                }
                let mut c = cache.lock().unwrap();
                let seen = if probe {
                    c.contains(PageId(page))
                } else {
                    c.access(PageId(page)) == Access::Hit
                };
                drop(c);
                let returned = clock.fetch_add(1, Ordering::SeqCst);
                history
                    .lock()
                    .unwrap()
                    .push(((page, probe), seen, (invoked, returned)));
            }
        });
        (exec, history.into_inner().unwrap())
    }

    fn toy_run(
        scripts: &[Vec<(u64, bool)>],
        plan: &[usize],
        rng: Option<&mut u64>,
    ) -> (Execution, Option<String>) {
        let (exec, history) = toy(scripts, plan, rng, None);
        let verdict = (!lru_linearizable(1, &history)).then(|| "not linearizable".to_string());
        (exec, verdict)
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
            let h = [((1, false), false, (1, 4)), ((1, true), observed, (2, 3))];
            assert!(lru_linearizable(1, &h), "observed={observed}");
        }
    }

    #[test]
    fn non_linearizable_history_rejected() {
        // contains(1) returned false strictly *after* access(1) returned:
        // no legal order explains it.
        let h = [((1, false), false, (1, 2)), ((1, true), false, (3, 4))];
        assert!(!lru_linearizable(1, &h));
    }

    #[test]
    fn lost_update_history_rejected() {
        // Two accesses of the same page, one after the other, both miss —
        // impossible for any cache that holds at least one page.
        let h = [((5, false), false, (1, 2)), ((5, false), false, (3, 4))];
        for capacity in [1, 2, 8] {
            assert!(!lru_linearizable(capacity, &h), "capacity {capacity}");
        }
        // A zero-capacity cache keeps nothing, so both misses are legal.
        assert!(lru_linearizable(0, &h));
    }

    #[test]
    fn exhaustive_exploration_of_a_small_scenario_is_clean() {
        let scripts = [vec![(1, false)], vec![(1, false)]];
        let report = explore("tiny", 50_000, ExploreMode::Exhaustive, |plan, rng| {
            toy_run(&scripts, plan, rng)
        });
        assert!(report.passed(), "{:?}", report.violations);
        assert!(report.complete, "tiny scenario must exhaust");
        assert!(report.distinct >= 2, "at least two interleavings exist");
    }

    #[test]
    fn random_sampling_is_clean_and_deterministic() {
        let scripts = [
            vec![(1, false), (2, true)],
            vec![(2, false), (1, false)],
            vec![(1, true), (2, false)],
        ];
        let walk = |seed| {
            explore("mixed", 60, ExploreMode::Random { seed }, |plan, rng| {
                toy_run(&scripts, plan, rng)
            })
        };
        let (a, b) = (walk(9), walk(9));
        assert!(a.passed(), "{:?}", a.violations);
        assert_eq!(a.distinct, b.distinct, "same seed, same walk");
        assert!(
            a.distinct > 10,
            "sampling found only {} schedules",
            a.distinct
        );
    }

    /// A worker that panics mid-script hands the token back on unwind: the
    /// execution returns, and the panic comes back with the worker's index.
    #[test]
    fn panicking_worker_is_reported_not_hung() {
        let scripts = [vec![(1, false)], vec![(2, false), (7, true)]];
        let (exec, history) = toy(&scripts, &[], None, Some(7));
        assert_eq!(exec.panics, vec![(1, "injected fault".to_string())]);
        assert!(exec.deadlock.is_none());
        assert_eq!(history.len(), 2, "both accesses completed");
        assert_eq!(
            catch_op(|| panic!("boom")),
            Err::<(), _>("boom".to_string())
        );
    }

    /// Two workers taking two locks in opposite orders, retrying busy
    /// locks at blocked points: some schedule leaves both blocked, and the
    /// scheduler reports it and unwinds both instead of hanging.
    #[test]
    fn deadlock_is_reported_and_unwound() {
        let locks = [Mutex::new(()), Mutex::new(())];
        let take = |w: &Worker, i: usize| {
            w.yield_now();
            loop {
                match locks[i].try_lock() {
                    Ok(g) => return g,
                    Err(_) => w.blocked(),
                }
            }
        };
        let report = explore("ab-ba", 1_000, ExploreMode::Exhaustive, |plan, rng| {
            let exec = run_schedule(2, plan, rng, |w| {
                let _ = catch_op(|| {
                    let first = take(w, w.id());
                    let second = take(w, 1 - w.id());
                    drop((first, second));
                });
            });
            let v = exec
                .deadlock
                .as_ref()
                .map(|d| format!("deadlock: {d:?} blocked"));
            (exec, v)
        });
        assert!(report.complete);
        assert!(report.violating > 0, "the AB-BA deadlock was missed");
        assert!(
            report.violating < report.executions,
            "not every schedule deadlocks"
        );
        assert!(report.violations[0].contains("deadlock: [0, 1] blocked"));
    }

    /// A worker that blocks on a lock outside any scheduling point, held
    /// by a worker parked at one, is reported as stuck once the deadline
    /// passes, and the exploration ends there instead of hanging.
    #[test]
    fn a_lock_outside_a_scheduling_point_is_reported_not_hung() {
        let lock = Mutex::new(());
        let report = explore("untracked", 100, ExploreMode::Exhaustive, |plan, rng| {
            let exec = run_schedule(2, plan, rng, |w| {
                let _ = catch_op(|| {
                    let _held = lock.lock().unwrap_or_else(|e| e.into_inner());
                    w.yield_now();
                });
            });
            let v = exec
                .stuck
                .map(|t| format!("T{t} blocked outside a scheduling point"));
            (exec, v)
        });
        assert_eq!(report.violating, 1, "{:?}", report.violations);
        assert!(!report.complete);
        assert_eq!(
            report.violations,
            ["untracked: T1 blocked outside a scheduling point [choices [0, 1]]"]
        );
    }
}
