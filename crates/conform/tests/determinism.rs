//! Thread-count determinism: every parallel sweep in this crate must
//! produce byte-identical reports whether the pool runs 1, 2, or 8
//! threads. The pool pins each unit of work to a pre-assigned output
//! slot, so parallelism may only change *wall time*, never *results* —
//! these tests are the contract's enforcement.
//!
//! The thread-count override is process-global, so every test here
//! serializes on [`POOL_LOCK`] before touching it.

use std::sync::Mutex;

use proptest::prelude::*;

use parapage_conform::{
    competitive_envelope, conform_matrix, differential_sweep, ConformReport, DiffReport,
    EnvelopeReport, Matrix,
};
use parapage_core::{DetPar, ModelParams};
use parapage_sched::{run_engine, EngineOpts};
use parapage_workloads::{build_workload, SeqSpec};

/// Serializes tests that set the global pool width.
static POOL_LOCK: Mutex<()> = Mutex::new(());

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn render_diff(report: &DiffReport) -> String {
    let mut out = format!("runs={}\n", report.runs);
    for d in &report.divergences {
        out.push_str(&format!("{} :: {}\n", d.recipe, d.detail));
    }
    out
}

fn render_matrix(matrix: &Matrix<ConformReport>) -> String {
    matrix
        .cells
        .iter()
        .map(|c| {
            let r = c.outcome.as_ref().expect("matrix cell");
            format!(
                "{}/{} hardened={} outcome={} events={} violations={:?}\n",
                r.policy, r.scenario, r.hardened, r.outcome, r.events, r.violations
            )
        })
        .collect()
}

fn render_envelope(report: &EnvelopeReport) -> String {
    report
        .entries
        .iter()
        .map(|e| {
            format!(
                "{} on {} p={} ratio={:.6} bound={:.6}\n",
                e.policy, e.instance, e.p, e.ratio, e.bound
            )
        })
        .collect()
}

/// Runs `f` once per thread count and asserts every rendering matches the
/// single-threaded one.
fn assert_identical_across_widths(what: &str, f: impl Fn() -> String) {
    let _guard = POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut baseline: Option<String> = None;
    for n in THREAD_COUNTS {
        let _width = rayon::pool::threads(n);
        let rendered = f();
        match &baseline {
            None => baseline = Some(rendered),
            Some(base) => assert_eq!(
                base, &rendered,
                "{what} diverged between 1 thread and {n} threads"
            ),
        }
    }
}

#[test]
fn differential_sweep_is_thread_count_invariant() {
    assert_identical_across_widths("differential_sweep", || {
        render_diff(&differential_sweep(24, 42))
    });
}

#[test]
fn conform_matrix_is_thread_count_invariant() {
    let p = 4;
    let k = 32;
    let params = ModelParams::new(p, k, 10);
    let specs: Vec<SeqSpec> = (0..p)
        .map(|x| match x % 2 {
            0 => SeqSpec::Cyclic {
                width: k / 4,
                len: 300,
            },
            _ => SeqSpec::Zipf {
                universe: k,
                theta: 0.9,
                len: 300,
            },
        })
        .collect();
    let w = build_workload(&specs, 7);
    let horizon = run_engine(
        &mut DetPar::new(&params),
        w.seqs(),
        &params,
        &EngineOpts::default(),
    )
    .expect("clean det-par run")
    .makespan
    .max(1);
    assert_identical_across_widths("conform_matrix", || {
        render_matrix(&conform_matrix(w.seqs(), &params, 7, horizon))
    });
}

#[test]
fn envelope_sweep_is_thread_count_invariant() {
    assert_identical_across_widths("competitive_envelope", || {
        render_envelope(&competitive_envelope(true, 42).expect("envelope"))
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The sweep stays thread-count invariant for arbitrary (count, seed),
    /// not just the fixed recipes above.
    #[test]
    fn differential_sweep_invariant_for_arbitrary_inputs(
        count in 1usize..10,
        seed in 0u64..1_000,
    ) {
        let _guard = POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let narrow = {
            let _w = rayon::pool::threads(2);
            render_diff(&differential_sweep(count, seed))
        };
        let wide = {
            let _w = rayon::pool::threads(8);
            render_diff(&differential_sweep(count, seed))
        };
        prop_assert_eq!(narrow, wide);
    }
}
