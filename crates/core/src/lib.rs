//! # parapage-core
//!
//! The algorithms of *Online Parallel Paging with Optimal Makespan*
//! (Agrawal, Bender, Das, Kuszmaul, Peserico, Scquizzato — SPAA 2022),
//! implemented from scratch:
//!
//! * **Box algebra** ([`boxes`]) — memory boxes, box profiles, memory
//!   impact, the paper's WLOG normal form.
//! * **Green paging** ([`green`]) — RAND-GREEN (Theorem 1), a deterministic
//!   doubling baseline, and the exact offline optimum by dynamic
//!   programming.
//! * **Parallel paging** ([`parallel`]) — RAND-PAR (Theorem 2), DET-PAR
//!   (Theorem 3 / Corollary 3), static and adaptive baselines, and the
//!   black-box green packer of §4 (the algorithm family Theorem 4 dooms).
//! * **Policy registry** ([`policy`]) — the one name → constructor map
//!   every front end builds box policies through.
//! * **Well-roundedness** ([`wellrounded`]) — an executable audit of the
//!   structural property behind Lemma 5/6.
//!
//! Policies plug into the execution engine of `parapage-sched` through the
//! [`parallel::BoxAllocator`] trait. Everything is deterministic given a
//! seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod boxes;
pub mod config;
pub mod distribution;
pub mod green;
pub mod parallel;
pub mod policy;
pub mod wellrounded;

pub use boxes::{run_profile, BoxProfile, MemBox, ProfileRun};
pub use config::{log2_ceil, log2_floor, ModelParams};
pub use distribution::BoxHeightDist;
pub use green::adaptive::AdaptiveGreen;
pub use green::dynamic::RebootingGreen;
pub use green::greedy::{audit_greedy, GreedyAudit};
pub use green::opt_dp::{green_opt, green_opt_normalized, GreenOpt};
pub use green::opt_dp_fast::{green_opt_fast, green_opt_fast_normalized};
pub use green::rand_green::RandGreen;
pub use green::universal::UniversalGreen;
pub use green::{run_green, GreenPolicy, GreenRun};
pub use parallel::baselines::{PropMissPartition, SrptPartition, StaticPartition};
pub use parallel::blackbox::BlackboxGreenPacker;
pub use parallel::det_par::{DetPar, PhaseRecord};
pub use parallel::hardened::HardenedAllocator;
pub use parallel::rand_par::{ChunkRecord, RandPar, RandParConfig};
pub use parallel::ucp::UcpPartition;
pub use parallel::{BoxAllocator, FaultEvent, Grant};
pub use wellrounded::{check_well_rounded, Interval, WellRoundedReport};
