//! # parapage-bench
//!
//! The benchmark and experiment harness:
//!
//! * [`experiments`] — the experiment index of DESIGN.md §5 (E1–E16),
//!   each entry rendering its table and checking its claim, behind
//!   `parapage experiments [--cells eN] [--quick] [--seed N] [--out DIR]`;
//! * [`suite`] — the digest-checked perf-trajectory recipe behind
//!   `parapage bench`;
//! * [`profile`] — the per-phase attribution behind `parapage bench
//!   --profile`.
//!
//! The served-path benchmark is the separate `servebench` package under
//! `src/bin/servebench/`.
//!
//! Sweeps across `(p, seed)` grids are embarrassingly parallel and run on
//! the workspace's vendored thread pool (`stubs/rayon`: scoped worker
//! threads behind the familiar `par_iter()` API — **not** the crates.io
//! rayon). Results are deterministic and order-stable for every worker
//! count because each grid cell writes into its pre-assigned slot; set
//! `PARAPAGE_THREADS=1` (or call `rayon::pool::threads(1)`) to force
//! sequential execution when debugging, and `PARAPAGE_THREADS=<n>` to pin
//! any other width.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod profile;
pub mod suite;
