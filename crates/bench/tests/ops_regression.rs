//! Regression pins on the single-thread `ops/*` microbench entries.
//!
//! The hot-path rewrite (packed intrusive LRU, fused `access_if_fits`,
//! batched grant dispatch) is only worth its complexity while the
//! throughput it bought stays bought. The floors in
//! [`OPS_FLOORS`] pin that: a release build whose `ops/*` rate drops
//! below its floor fails here and in the `parapage bench` exit gate.
//!
//! The floors are wall-clock assertions, so they only run on optimized
//! builds (`cargo test --release`, which is what CI's bench-regression
//! job executes); a debug `cargo test` still exercises the entries but
//! checks determinism and work counts only.

use std::sync::Mutex;

use parapage_bench::suite::{run_ops_suite, OPS_FLOORS};

/// Serializes tests against others that set the global pool width.
static POOL_LOCK: Mutex<()> = Mutex::new(());

/// Every pinned entry name must exist in the suite — a silently renamed
/// entry would otherwise turn its floor into a vacuous pass.
#[test]
fn every_pinned_entry_exists_and_counts_work() {
    let _guard = POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let report = run_ops_suite(true, 42);
    for &(name, floor) in OPS_FLOORS {
        assert!(floor > 0.0, "{name}: floor must be positive");
        let entry = report
            .entries
            .iter()
            .find(|e| e.name == name)
            .unwrap_or_else(|| panic!("pinned entry {name} missing from the ops recipe"));
        assert!(entry.runs > 0, "{name}: zero work units");
        assert!(
            !entry.parallel,
            "{name}: ops entries are single-thread microbenches"
        );
    }
}

/// The ops entries are pure functions of (recipe size, seed): two runs
/// must agree digest-for-digest, and the two legs of one run likewise.
/// The reference `ShardedCache<LruCache>` and the one-arena `ShardedLru`
/// entries serve one stream, so their digests must agree too, and UCP's
/// runs must decide what the full-scan UCP decided.
#[test]
fn ops_entries_are_deterministic() {
    let _guard = POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let a = run_ops_suite(true, 7);
    let b = run_ops_suite(true, 7);
    assert!(a.deterministic(), "legs diverged within one run");
    for (ea, eb) in a.entries.iter().zip(&b.entries) {
        assert_eq!(ea.name, eb.name);
        assert_eq!(ea.runs, eb.runs, "{}: work count not reproducible", ea.name);
        assert_eq!(
            ea.digest_base, eb.digest_base,
            "{}: digest not reproducible",
            ea.name
        );
    }
    let digest_of = |name: &str| {
        a.entries
            .iter()
            .find(|e| e.name == name)
            .unwrap_or_else(|| panic!("{name} missing from the ops recipe"))
            .digest_base
    };
    assert_eq!(
        digest_of("ops/sharded-access"),
        digest_of("ops/sharded-exclusive"),
        "ShardedLru and the reference ShardedCache<LruCache> served the stream differently"
    );
    // The frozen full-scan UCP (`parapage_core::testshim::ScanUcp`) gave
    // this digest on the same runs: every allocation and makespan of the
    // rebuilt repartition is the old one's.
    assert_eq!(
        digest_of("ops/ucp-repartition"),
        0x3596_2d81_77d6_15df,
        "UCP's allocations or makespans moved"
    );
}

/// The release-build throughput floors. Meaningless for unoptimized
/// builds, so a debug run reports a skip and exits green.
#[test]
fn ops_throughput_meets_release_floors() {
    if cfg!(debug_assertions) {
        eprintln!("ops floors skipped: debug build (run with --release to enforce)");
        return;
    }
    let _guard = POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let report = run_ops_suite(true, 42);
    let failures = report.ops_floor_failures();
    assert!(
        failures.is_empty(),
        "ops floors regressed: {}",
        failures
            .iter()
            .map(|(name, rate, floor)| format!("{name} {rate:.0}/s < floor {floor:.0}/s"))
            .collect::<Vec<_>>()
            .join(", ")
    );
}
