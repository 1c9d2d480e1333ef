//! # parapage-analysis
//!
//! Competitive-ratio analysis for the parapage experiments:
//!
//! * [`lower_bounds`] — certified and estimated lower bounds on the offline
//!   optimal makespan `T_OPT` (computing `T_OPT` exactly is NP-hard, paper
//!   ref \[19\]); measured competitive ratios are reported against these.
//! * [`opt_schedule`] — the explicit Lemma-8 OPT schedule for Theorem-4
//!   adversarial instances (an upper bound on `T_OPT`, making measured
//!   ratios on those instances conservative).
//! * [`stats`] — summary statistics with confidence intervals.
//! * [`regression`] — least-squares fits (ratio vs `log p` is the shape
//!   every theorem predicts).
//! * [`static_opt`] — the exact optimal *static* partition (polynomial via
//!   Mattson curves): the anchor any dynamic policy must beat to
//!   demonstrate value from reallocating over time.
//! * [`micro_opt`] — the exact optimum over round-synchronized schedules,
//!   for micro instances (a certified upper bound on `T_OPT` there).
//! * [`report`] — aligned ASCII tables for the experiments and commands.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chart;
pub mod gantt;
pub mod lower_bounds;
pub mod micro_opt;
pub mod opt_schedule;
pub mod regression;
pub mod report;
pub mod static_opt;
pub mod stats;

pub use chart::{bar_chart, sparkline};
pub use gantt::gantt;
pub use lower_bounds::{impact_bound_estimate, opt_lower_bound, per_proc_bound};
pub use micro_opt::micro_opt_makespan;
pub use opt_schedule::{lemma8_makespan, Lemma8Schedule};
pub use regression::{fit_linear, LinearFit};
pub use report::Table;
pub use static_opt::{static_opt_makespan, static_opt_total_time, StaticPartitionOpt};
pub use stats::{median, quantile, summarize, Summary};
