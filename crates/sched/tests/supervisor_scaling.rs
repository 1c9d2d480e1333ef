//! The supervisor's checkpoint work grows with the run, not with `p`: the
//! bytes it encodes and digests per engine event stay under one constant
//! from p = 64 to p = 16 384. Counted with the digest meter, not timed, so
//! the bound is exact on any host. `scripts/check.sh` also runs it in
//! release.

use parapage_cache::{digested_bytes, PageId, ProcId, ShardedLru};
use parapage_core::{ModelParams, StaticPartition};
use parapage_sched::{
    CrashPlan, EngineOpts, EpochControl, FaultPlan, MemStore, NullSink, Supervisor, SupervisorOpts,
};

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
