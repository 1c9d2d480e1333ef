//! # parapage-workloads
//!
//! Request-sequence generators for the parapage workspace.
//!
//! The paper's adversarial machinery is built from three access patterns —
//! **repeaters** (cyclic reuse), **polluters** (pages touched once), and
//! fresh streams — which [`gen`] provides alongside the standard synthetic
//! workloads (Zipf, scans, phased working sets, drifting working sets) used
//! to exercise the engines on realistic inputs. [`adversarial`] builds the
//! full Theorem-4 lower-bound instances (prefix families `F_i` with rising
//! pollution levels, plus all-fresh suffixes). [`spec`] offers a declarative
//! way to assemble per-processor mixes, [`family`] the named mixes the
//! CLI, the conformance oracle and the benchmarks share, and [`trace`] a plain-text trace
//! format for persisting workloads. [`fault`] generates deterministic
//! fault scenarios (processor stalls, latency spikes, memory pressure) for
//! the engine's fault-injection layer.
//!
//! All sequences are *disjoint across processors* (the paper's model
//! requirement) by construction: every generator namespaces its pages with
//! the processor id via [`parapage_cache::PageId::namespaced`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversarial;
pub mod family;
pub mod fault;
pub mod gen;
pub mod hpc;
pub mod seq;
pub mod spec;
pub mod trace;

pub use adversarial::{AdversarialConfig, AdversarialInstance};
pub use fault::{fault_scenario, FAULT_SCENARIOS};
pub use gen::SeqBuilder;
pub use hpc::shared_hotset_workload;
pub use seq::Workload;
pub use spec::{build_workload, SeqSpec};
