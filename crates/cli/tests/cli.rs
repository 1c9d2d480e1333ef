//! End-to-end tests of the `parapage` binary: every subcommand runs, exits
//! zero, and emits the expected table shapes; bad flags exit non-zero.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use parapage::cache::digest64;

fn parapage(args: &[&str]) -> (bool, String, String) {
    let exe = env!("CARGO_BIN_EXE_parapage");
    let out = Command::new(exe)
        .args(args)
        .output()
        .expect("spawn parapage");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn help_prints_usage() {
    let (ok, stdout, _) = parapage(&["help"]);
    assert!(ok);
    assert!(stdout.contains("USAGE"));
    assert!(stdout.contains("adversarial"));
}

#[test]
fn no_args_fails_with_usage() {
    let (ok, _, stderr) = parapage(&[]);
    assert!(!ok);
    assert!(stderr.contains("USAGE"));
}

#[test]
fn run_det_par_reports_metrics() {
    let (ok, stdout, stderr) = parapage(&[
        "run", "--policy", "det-par", "--p", "4", "--k", "32", "--len", "500",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("makespan"));
    assert!(stdout.contains("miss ratio"));
}

#[test]
fn run_with_gantt_renders_rows() {
    let (ok, stdout, _) = parapage(&[
        "run", "--policy", "static", "--p", "4", "--k", "32", "--len", "300", "--gantt",
    ]);
    assert!(ok);
    assert!(stdout.contains("P0"));
    assert!(stdout.contains("Gantt"));
}

#[test]
fn compare_lists_all_policies() {
    let (ok, stdout, stderr) = parapage(&[
        "compare",
        "--p",
        "4",
        "--k",
        "32",
        "--workload",
        "uniform",
        "--len",
        "400",
    ]);
    assert!(ok, "stderr: {stderr}");
    for name in ["det-par", "rand-par", "static", "ucp", "shared-lru"] {
        assert!(stdout.contains(name), "missing {name} in:\n{stdout}");
    }
}

#[test]
fn adversarial_races_against_lemma8() {
    let (ok, stdout, stderr) = parapage(&[
        "adversarial",
        "--p",
        "8",
        "--k",
        "32",
        "--s",
        "32",
        "--alpha",
        "0.02",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("OPT (Lemma 8 schedule)"));
    assert!(stdout.contains("DET-PAR"));
}

#[test]
fn adversarial_rejects_bad_p() {
    let (ok, _, stderr) = parapage(&["adversarial", "--p", "7"]);
    assert!(!ok);
    assert!(stderr.contains("power of two"));
}

#[test]
fn gen_then_analyze_round_trip() {
    let dir = std::env::temp_dir().join("parapage_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("w.trace");
    let trace_str = trace.to_str().unwrap();
    let (ok, stdout, stderr) = parapage(&[
        "gen",
        "--workload",
        "zipf",
        "--p",
        "2",
        "--k",
        "16",
        "--len",
        "200",
        "--out",
        trace_str,
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("wrote 2 processors"));
    let (ok2, stdout2, stderr2) = parapage(&["analyze", "--trace", trace_str, "--max-cap", "16"]);
    assert!(ok2, "stderr: {stderr2}");
    assert!(stdout2.contains("P0") && stdout2.contains("P1"));
    // run accepts the trace too.
    let (ok3, _, stderr3) = parapage(&[
        "run", "--policy", "det-par", "--p", "2", "--k", "16", "--trace", trace_str,
    ]);
    assert!(ok3, "stderr: {stderr3}");
}

#[test]
fn green_reports_theorem1() {
    let (ok, stdout, stderr) = parapage(&[
        "green", "--p", "4", "--k", "32", "--len", "800", "--seeds", "3",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("RAND-GREEN"));
    assert!(stdout.contains("Theorem 1"));
}

#[test]
fn unknown_flags_are_rejected() {
    let (ok, _, stderr) = parapage(&["run", "--bogus", "3", "--p", "4", "--k", "32"]);
    assert!(!ok);
    assert!(stderr.contains("unknown flag"));
}

#[test]
fn unknown_policy_is_rejected() {
    let (ok, _, stderr) = parapage(&["run", "--policy", "magic", "--p", "4", "--k", "32"]);
    assert!(!ok);
    assert!(stderr.contains("unknown --policy"));
}

#[test]
fn profile_renders_both_strips() {
    let (ok, stdout, stderr) = parapage(&["profile", "--p", "4", "--k", "32", "--len", "600"]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("OPT"));
    assert!(stdout.contains("RAND"));
    assert!(stdout.contains("ratio"));
}

#[test]
fn audit_passes_on_det_par() {
    let (ok, stdout, stderr) = parapage(&["audit", "--p", "4", "--k", "64", "--len", "800"]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("well-rounded: true"));
}

#[test]
fn chaos_wal_cells_filter_runs_only_matching_cells() {
    let (ok, stdout, stderr) = parapage(&[
        "chaos",
        "--quick",
        "--wal",
        "--cells",
        "det-par/torn-tail",
        "--seed",
        "7",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("WAL corruption matrix"));
    assert!(stdout.contains("torn-tail"));
    assert!(!stdout.contains("stale-base"));
    assert!(stdout.contains("1 cells recovered byte-identically"));
    assert!(stdout.contains("filtered out by --cells"));
}

#[test]
fn chaos_rejects_a_filter_matching_nothing() {
    for net in [&[][..], &["--net"][..]] {
        let mut args = vec!["chaos", "--quick", "--cells", "no-such-cell"];
        args.extend_from_slice(net);
        let (ok, stdout, stderr) = parapage(&args);
        assert!(!ok, "{args:?} passed");
        assert!(stderr.contains("matched no cells"), "{args:?}: {stderr}");
        // The selection is rejected before any section prints.
        assert_eq!(stdout, "", "{args:?}");
    }
}

#[test]
fn experiments_rejects_a_filter_matching_nothing() {
    let (ok, stdout, stderr) = parapage(&["experiments", "--quick", "--cells", "nope"]);
    assert!(!ok, "an empty selection passed");
    assert!(stderr.contains("matched no cells (16 skipped)"), "{stderr}");
    assert_eq!(stdout, "");
}

/// `--out DIR` writes one `eN.txt` per kept cell; an unknown flag (the
/// dropped `--csv` among them) is refused before `DIR` is made or any
/// cell runs.
#[test]
fn experiments_writes_kept_cells_and_refuses_unknown_flags_first() {
    let dir = std::env::temp_dir().join(format!("parapage_experiments_{}", std::process::id()));
    let out = dir.to_str().unwrap();
    let (ok, stdout, stderr) = parapage(&["experiments", "--quick", "--out", out, "--csv"]);
    assert!(!ok && stderr.contains("unknown flag --csv"), "{stderr}");
    assert_eq!(stdout, "");
    assert!(
        !dir.exists(),
        "--out was created before the flags were checked"
    );

    let (ok, stdout, stderr) =
        parapage(&["experiments", "--quick", "--cells", "e15", "--out", out]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("1 cells hold their claims (15 filtered out by --cells)"));
    let text = std::fs::read_to_string(dir.join("e15.txt")).unwrap();
    assert!(
        text.starts_with("== E15: the fixed-rate (interleaved) model"),
        "{text}"
    );
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `--cells =e1` keeps exactly the cell whose id is `e1`, where the
/// substring `e1` also keeps e10–e16.
#[test]
fn experiments_exact_cell_id_runs_exactly_one_cell() {
    let (ok, stdout, stderr) = parapage(&["experiments", "--quick", "--cells", "=e1"]);
    assert!(ok, "stderr: {stderr}");
    assert!(
        stdout.contains("1 cells hold their claims (15 filtered out by --cells)"),
        "{stdout}"
    );
    assert!(stdout.starts_with("== E1: "), "{stdout}");
    assert_eq!(stdout.matches("== E").count(), 1, "{stdout}");
}

/// Unknown flags, and flags the chosen mode ignores, are rejected before
/// the command does any work.
#[test]
fn mistyped_flags_are_rejected_before_any_work() {
    for args in [
        &["chaos", "--quick", "--cell", "det-par"][..],
        &["chaos", "--net", "--quick", "--len", "5"][..],
        &[
            "chaos", "--quick", "--wal", "--cells", "nothing", "--bogus", "1",
        ][..],
    ] {
        let (ok, stdout, stderr) = parapage(args);
        assert!(!ok, "{args:?} passed");
        assert!(stderr.contains("unknown flag"), "{args:?}: {stderr}");
        assert_eq!(stdout, "", "{args:?}");
    }
}

/// `serve` with a mistyped flag must refuse to start, not run the daemon
/// until shutdown and complain afterwards.
#[test]
fn serve_rejects_a_mistyped_flag_before_listening() {
    let exe = env!("CARGO_BIN_EXE_parapage");
    let mut child = Command::new(exe)
        .args(["serve", "--addr", "127.0.0.1:0", "--max-tenant", "8"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn parapage serve");
    let deadline = Instant::now() + Duration::from_secs(5);
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll serve") {
            break status;
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("serve kept running with a mistyped flag");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let out = child.wait_with_output().expect("collect serve output");
    assert!(!status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag --max-tenant"));
    assert!(out.stdout.is_empty(), "serve printed before rejecting");
}

/// Golden stdout digests of passing matrix runs, pinned from the output
/// before the matrices moved onto the shared runner: a change to a table,
/// a verdict or a summary line fails here. (`chaos --net` is left out:
/// its shed cell's retry count depends on timing.) The two `chaos`
/// digests were re-pinned when the checkpoint store started from a genesis
/// header: only the WAL table's `records` column moved (the first epoch
/// boundary writes a record instead of a snapshot).
#[test]
fn matrix_stdout_matches_golden_digests() {
    for (args, digest) in [
        (&["chaos", "--quick"][..], 0x93fb_f725_9e16_c1c7_u64),
        (
            &[
                "chaos",
                "--quick",
                "--wal",
                "--cells",
                "det-par/torn-tail",
                "--seed",
                "7",
            ][..],
            0x9f08_9fc7_12da_c387,
        ),
        (&["conform", "--quick"][..], 0x9a7f_186e_d1b9_2058),
    ] {
        let exe = env!("CARGO_BIN_EXE_parapage");
        let out = Command::new(exe)
            .args(args)
            .output()
            .expect("spawn parapage");
        assert!(out.status.success(), "{args:?} failed");
        assert_eq!(
            digest64(&out.stdout),
            digest,
            "{args:?} stdout changed:\n{}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}

#[test]
fn bench_refuses_to_overwrite_its_baseline() {
    let committed = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_5.json");
    let dir = std::env::temp_dir().join(format!("parapage_bench_baseline_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let copy = dir.join("BENCH_5.json");
    std::fs::copy(committed, &copy).unwrap();
    let before = std::fs::read(&copy).unwrap();
    // The same file under a second spelling: only canonical paths match.
    let spelled = dir.join(".").join("BENCH_5.json");
    let (ok, _, stderr) = parapage(&[
        "bench",
        "--quick",
        "--baseline",
        copy.to_str().unwrap(),
        "--out",
        spelled.to_str().unwrap(),
    ]);
    assert!(!ok, "bench must refuse --out == --baseline");
    assert!(
        stderr.contains("names the --baseline file"),
        "stderr: {stderr}"
    );
    assert_eq!(
        std::fs::read(&copy).unwrap(),
        before,
        "baseline was rewritten"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
