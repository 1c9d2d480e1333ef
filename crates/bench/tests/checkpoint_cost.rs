//! Regression pin on the WAL's size advantage: the per-epoch record stream
//! must stay well below the full-snapshot stream on the suite's own
//! workload, and both byte counts must be deterministic.

use std::sync::Mutex;

use parapage_bench::suite::{checkpoint_cost, EntryResult, SuiteReport};

/// Serializes tests against others that set the global pool width.
static POOL_LOCK: Mutex<()> = Mutex::new(());

#[test]
fn wal_records_cost_less_than_half_of_full_snapshots() {
    let _guard = POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let full = checkpoint_cost(true, 42, false);
    let wal = checkpoint_cost(true, 42, true);
    assert_eq!(
        full.runs, wal.runs,
        "both modes must checkpoint every epoch"
    );
    let (full_bytes, wal_bytes) = (full.bytes.unwrap(), wal.bytes.unwrap());
    assert!(full_bytes > 0 && wal_bytes > 0);
    assert!(
        wal_bytes * 2 < full_bytes,
        "WAL records ({wal_bytes} bytes over {} epochs) must cost less than half the \
         full snapshots ({full_bytes} bytes) — the WAL's size advantage regressed",
        wal.runs
    );
}

fn fast_entry() -> EntryResult {
    EntryResult {
        name: "sweep/fake",
        parallel: true,
        runs: 10,
        secs_base: 3.0,
        secs_par: 1.0,
        digest_base: 0xabcd,
        digest_par: 0xabcd,
        bytes: None,
    }
}

fn gate_line(json: &str) -> String {
    json.lines()
        .find(|l| l.trim_start().starts_with("\"gate\""))
        .expect("gate object present")
        .to_string()
}

/// `host_cores` must appear inside the gate object when the gate PASSES —
/// not only on the waiver path. A consumer deciding whether a pass was a
/// real multi-core win needs the core count either way.
#[test]
fn gate_json_emits_host_cores_when_gate_passes() {
    let report = SuiteReport {
        entries: vec![fast_entry()],
        threads_par: 4,
        host_cores: 8,
        quick: false,
        seed: 1,
    };
    assert!(report.gate_enforced() && report.gate_passed());
    let line = gate_line(&report.to_json("test"));
    assert!(
        line.contains("\"host_cores\": 8"),
        "gate object lost host_cores on the passing path: {line}"
    );
    assert!(line.contains("\"passed\": true"), "{line}");
    assert!(line.contains("\"waived_reason\": null"), "{line}");
}

/// ... and on the waiver path (single-core host), where it always was.
#[test]
fn gate_json_emits_host_cores_when_gate_waived() {
    let report = SuiteReport {
        entries: vec![fast_entry()],
        threads_par: 4,
        host_cores: 1,
        quick: false,
        seed: 1,
    };
    assert!(!report.gate_enforced());
    let line = gate_line(&report.to_json("test"));
    assert!(
        line.contains("\"host_cores\": 1"),
        "gate object lost host_cores on the waiver path: {line}"
    );
    assert!(
        line.contains("\"waived_reason\": \"single-core host\""),
        "{line}"
    );
}

/// The gate's host_cores agrees with the top-level field (one source of
/// truth serialized twice, never two diverging counts).
#[test]
fn gate_json_host_cores_matches_top_level() {
    let report = SuiteReport {
        entries: vec![fast_entry()],
        threads_par: 2,
        host_cores: 6,
        quick: true,
        seed: 3,
    };
    let json = report.to_json("test");
    let top = json
        .lines()
        .find(|l| l.trim_start().starts_with("\"host_cores\""))
        .expect("top-level host_cores");
    assert!(top.contains("6"));
    assert!(gate_line(&json).contains("\"host_cores\": 6"));
}

#[test]
fn checkpoint_byte_counts_are_deterministic() {
    let _guard = POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for wal in [false, true] {
        let a = checkpoint_cost(true, 7, wal);
        let b = checkpoint_cost(true, 7, wal);
        assert_eq!(a.runs, b.runs);
        assert_eq!(a.bytes, b.bytes, "wal={wal}: byte count not reproducible");
        assert_eq!(a.digest, b.digest);
    }
}
