//! The supervisor's checkpoint work grows with the run, not with `p`: the
//! bytes it encodes and digests per engine event stay under one constant
//! from p = 64 to p = 16 384, and a batch is hashed once per supervised
//! run. The share of a served batch's accesses that take the sharded
//! LRU's move-to-front blocks is pinned as a count too. Counted with the digest meter, not timed, so
//! the bound is exact on any host. `scripts/check.sh` also runs it in
//! release.

use std::cell::Cell;
use std::rc::Rc;

use parapage_cache::{
    digested_bytes, shard_capacity, Access, Cache, PageId, ProcId, ShardedLru, SMALL_SHARD,
};
use parapage_core::{policy, ModelParams, StaticPartition};
use parapage_sched::{
    workload_fingerprint, CrashPlan, Engine, EngineOpts, EpochControl, FaultPlan, MemStore,
    NullSink, Supervisor, SupervisorOpts,
};
use parapage_workloads::{build_workload, SeqSpec};

/// Bytes per engine event the supervisor may encode and digest: the
/// workload fingerprint per attempt, the genesis header, one 40-byte
/// record and one 104-byte progress mark per 8-tick epoch, and any base
/// that pays. An O(p) mark alone costs 2p bytes per event.
const BYTES_PER_EVENT: u64 = 64;

/// `static` on k = p, s = 2, two requests per processor and a 4-shard
/// LRU per processor, with 8-tick epochs and one crash a third of the way
/// in: (bytes encoded and digested per event, events).
fn work_per_event(p: usize) -> (u64, u64) {
    let params = ModelParams::new(p, p, 2);
    let seqs: Vec<Vec<PageId>> = (0..p)
        .map(|x| {
            (0..2)
                .map(|i| PageId::namespaced(ProcId(x as u32), i))
                .collect()
        })
        .collect();
    let before = digested_bytes();
    let report = Supervisor::new(SupervisorOpts {
        epoch_ticks: 8,
        backoff_base: std::time::Duration::ZERO,
        ..SupervisorOpts::default()
    })
    .run_controlled(
        &seqs,
        &params,
        &EngineOpts::default(),
        &FaultPlan::none(),
        &CrashPlan::at_ticks(vec![p as u64]),
        || Box::new(StaticPartition::new(&params)),
        |_| ShardedLru::with_shards(0, 4),
        &mut NullSink,
        &mut MemStore::new(),
        |_| EpochControl::Continue,
    )
    .expect("supervised run");
    assert_eq!(report.crashes, 1);
    let work = digested_bytes() - before + report.checkpoint_bytes;
    (work / report.ticks, report.ticks)
}

#[test]
fn checkpoint_work_per_event_does_not_grow_with_p() {
    for p in [64, 1024, 16_384] {
        let (per_event, events) = work_per_event(p);
        assert!(events >= 2 * p as u64, "p = {p}: {events} events");
        assert!(
            per_event <= BYTES_PER_EVENT,
            "p = {p}: {per_event} bytes per event over {events} events"
        );
    }
}

/// A `thrash-randpar`-shaped batch (rand-par, p = 16, k = 256, s = 16, 500
/// requests per processor over working sets 4× the cache), seeded `seed`.
fn thrash_batch(seed: u64) -> (ModelParams, Vec<Vec<PageId>>) {
    let (p, k, scale, len) = (16, 256, 4, 500);
    let specs: Vec<SeqSpec> = (0..p)
        .map(|x| match x % 3 {
            0 => SeqSpec::Cyclic {
                width: (k / 8) * scale,
                len,
            },
            1 => SeqSpec::Zipf {
                universe: (k / 2) * scale,
                theta: 0.9,
                len,
            },
            _ => SeqSpec::Uniform {
                universe: (2 * k / p) * scale,
                len,
            },
        })
        .collect();
    (
        ModelParams::new(p, k, 16),
        build_workload(&specs, seed).seqs().to_vec(),
    )
}

/// A supervised batch hashes its requests once, however many engines it
/// builds. Killed at tick 64 and migrated at tick 128, as servebench's
/// `recovery` batches are, it builds three; everything it digests besides
/// one pass over the requests (WAL marks, records, the genesis header and
/// the migration's base) is under a pass, so a second pass fails this.
#[test]
fn a_supervised_batch_hashes_its_requests_once() {
    let (params, seqs) = thrash_batch(42);
    let before = digested_bytes();
    workload_fingerprint(&seqs);
    let one_pass = digested_bytes() - before;
    let pages: usize = seqs.iter().map(Vec::len).sum();
    assert_eq!(one_pass, 8 * (1 + seqs.len() + pages) as u64);

    let before = digested_bytes();
    let mut migrated = false;
    let report = Supervisor::new(SupervisorOpts {
        epoch_ticks: 8,
        backoff_base: std::time::Duration::ZERO,
        silence_panics: true,
        ..SupervisorOpts::default()
    })
    .run_controlled(
        &seqs,
        &params,
        &EngineOpts::default(),
        &FaultPlan::none(),
        &CrashPlan::at_ticks(vec![64]),
        || policy::build("rand-par", &params, 42, false).expect("rand-par"),
        |_| ShardedLru::with_shards(0, 4),
        &mut NullSink,
        &mut MemStore::new(),
        |status| {
            if status.ticks >= 128 && !std::mem::replace(&mut migrated, true) {
                EpochControl::Migrate
            } else {
                EpochControl::Continue
            }
        },
    )
    .expect("supervised run");
    assert_eq!((report.crashes, report.resumes), (1, 1));
    assert_eq!(report.migrations, 1);
    let digested = digested_bytes() - before;
    assert!(
        (one_pass..2 * one_pass).contains(&digested),
        "{digested} bytes digested, one pass is {one_pass}"
    );
}

/// A 4-shard [`ShardedLru`] that counts the accesses it serves, and those
/// served while no shard holds more than [`SMALL_SHARD`] pages.
struct CountingCache {
    inner: ShardedLru,
    counts: Rc<Cell<(u64, u64)>>,
}

impl Cache for CountingCache {
    fn access(&mut self, page: PageId) -> Access {
        self.count();
        self.inner.access(page)
    }
    fn access_if_fits(&mut self, page: PageId, remaining: u64, penalty: u64) -> Option<Access> {
        let served = self.inner.access_if_fits(page, remaining, penalty);
        if served.is_some() {
            self.count();
        }
        served
    }
    fn contains(&self, page: PageId) -> bool {
        self.inner.contains(page)
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn capacity(&self) -> usize {
        self.inner.capacity()
    }
    fn resize(&mut self, capacity: usize) {
        self.inner.resize(capacity);
    }
    fn clear(&mut self) {
        self.inner.clear();
    }
}

impl CountingCache {
    fn count(&self) {
        let small = shard_capacity(self.inner.capacity(), 4, 0) <= SMALL_SHARD;
        let (all, on_blocks) = self.counts.get();
        self.counts.set((all + 1, on_blocks + u64::from(small)));
    }
}

/// The share of a `thrash-randpar`-shaped run's accesses that RAND-PAR's
/// minimum boxes (k/r = 16 pages, 4 per shard) send to the move-to-front
/// blocks: 6 403 of 8 000 (80.0%). If a change to RAND-PAR's box heights
/// or to the shard count moves traffic off the blocks, this count shows it
/// without timing anything.
#[test]
fn most_thrash_randpar_accesses_are_served_from_blocks() {
    let (params, seqs) = thrash_batch(42);
    let counts = Rc::new(Cell::new((0, 0)));
    let mut alloc = policy::build("rand-par", &params, 42, false).expect("rand-par");
    Engine::new(
        &mut *alloc,
        &seqs,
        &params,
        &EngineOpts::default(),
        &FaultPlan::none(),
        |_| CountingCache {
            inner: ShardedLru::with_shards(0, 4),
            counts: Rc::clone(&counts),
        },
    )
    .run(&mut *alloc, &mut NullSink)
    .expect("engine run");
    assert_eq!(counts.get(), (8_000, 6_403));
}
