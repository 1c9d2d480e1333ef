//! The experiment index of DESIGN.md §5 (E1–E16), the stand-in for the
//! paper's tables: each experiment renders the text it prints and checks
//! the shape its claim predicts on the numbers that text shows.
//! `parapage experiments` runs them as the cells `e1`…`e16` of one
//! [`Matrix`], with the shared `--cells` filter and verdict table.
//!
//! Each module states its claim as `CLAIM`, the verdict table's claim
//! column. Every threshold was set from the tables this code printed at
//! full size and at `--quick` (seed `0xC0FFEE`) before any sabotage ran;
//! the comment beside a check gives those numbers and the slack left.

mod e1;
mod e10;
mod e11;
mod e12;
mod e13;
mod e14;
mod e15;
mod e16;
mod e2;
mod e3;
mod e4;
mod e5;
mod e6;
mod e7;
mod e8;
mod e9;

use parapage::analysis::LinearFit;
use parapage::conform::matrix::{CellFilter, CellRow, Matrix};
use parapage::prelude::*;

/// The knobs every experiment takes.
#[derive(Clone, Copy, Debug)]
pub struct Opts {
    /// Shrink the sweeps for a fast smoke run.
    pub quick: bool,
    /// Base RNG seed.
    pub seed: u64,
}

/// The seed every experiment runs at unless told otherwise.
pub const DEFAULT_SEED: u64 = 0xC0FFEE;

/// One experiment's run: its text and the check of its claim.
#[derive(Debug)]
pub struct Report {
    /// Everything the experiment prints: tables, fits and notes.
    pub text: String,
    /// The shape the claim predicts, as checked.
    pub claim: &'static str,
    /// The numbers the check read.
    pub measured: String,
    /// Each check that failed; empty when the claim holds.
    pub violations: Vec<String>,
}

impl Report {
    fn new(text: String, claim: &'static str, measured: String) -> Self {
        Report {
            text,
            claim,
            measured,
            violations: Vec::new(),
        }
    }

    /// Records `what` as a violation unless `ok`; the measured column
    /// holds the numbers.
    fn check(mut self, ok: bool, what: &str) -> Self {
        if !ok {
            self.violations.push(what.to_string());
        }
        self
    }
}

impl CellRow for Report {
    fn columns(&self) -> Vec<String> {
        vec![self.claim.to_string(), self.measured.clone()]
    }
    fn violations(&self) -> &[String] {
        &self.violations
    }
}

/// One entry of the index.
pub struct Experiment {
    /// The cell id, `e1`…`e16`.
    pub id: &'static str,
    /// A short name, the second half of the cell label.
    pub name: &'static str,
    /// Runs the experiment.
    pub run: fn(Opts) -> Report,
}

impl Experiment {
    const fn new(id: &'static str, name: &'static str, run: fn(Opts) -> Report) -> Self {
        Experiment { id, name, run }
    }
}

/// The index, in order.
pub const EXPERIMENTS: [Experiment; 16] = [
    Experiment::new("e1", "rand-green", e1::run),
    Experiment::new("e2", "box-distribution", e2::run),
    Experiment::new("e3", "rand-par", e3::run),
    Experiment::new("e4", "det-par", e4::run),
    Experiment::new("e5", "well-rounded", e5::run),
    Experiment::new("e6", "mean-completion", e6::run),
    Experiment::new("e7", "lower-bound", e7::run),
    Experiment::new("e8", "baselines", e8::run),
    Experiment::new("e9", "ablations", e9::run),
    Experiment::new("e10", "chunk-balance", e10::run),
    Experiment::new("e11", "engine-scaling", e11::run),
    Experiment::new("e12", "sharing", e12::run),
    Experiment::new("e13", "replacement", e13::run),
    Experiment::new("e14", "static-opt", e14::run),
    Experiment::new("e15", "model-critique", e15::run),
    Experiment::new("e16", "micro-exact", e16::run),
];

/// Runs every experiment `filter` keeps, in index order.
pub fn matrix(filter: &CellFilter, opts: Opts) -> Matrix<Report> {
    Matrix::run(
        &["cell", "experiment", "claim", "measured"],
        filter,
        &EXPERIMENTS,
        |e| vec![e.id.to_string(), e.name.to_string()],
        |e| Ok((e.run)(opts)),
    )
}

/// A titled table, as every experiment prints one.
fn section(title: &str, table: &Table) -> String {
    format!("== {title} ==\n{table}\n")
}

/// The `<label>: ratio = a + b·log2(p)` line of a fit.
fn fit_line(label: &str, f: &LinearFit) -> String {
    format!(
        "{label}: ratio = {:.3} + {:.3}·log2(p)   (R² = {:.3})\n",
        f.intercept, f.slope, f.r2
    )
}

/// The smallest of `xs`; infinity when there are none.
fn least(xs: impl IntoIterator<Item = f64>) -> f64 {
    xs.into_iter().fold(f64::INFINITY, f64::min)
}

/// A phase-changing single-processor sequence for the green paging
/// experiments (E1, E9a) and the bench suite: tiny loop → large loop →
/// medium loop.
pub fn green_sequence(k: usize, seed: u64) -> Vec<PageId> {
    let mut b = SeqBuilder::new(ProcId(0), seed);
    b.cyclic(4, 1500)
        .cyclic(3 * k / 4, 3000)
        .cyclic((k / 8).max(2), 1500);
    b.build()
}

/// Runs one policy end to end with the default engine options.
fn run_policy(
    alloc: &mut dyn BoxAllocator,
    seqs: &[Vec<PageId>],
    params: &ModelParams,
) -> RunResult {
    run_engine(alloc, seqs, params, &EngineOpts::default())
        .expect("every experiment's workload fits its cache and time limit")
}
