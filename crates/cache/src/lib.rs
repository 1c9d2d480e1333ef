//! # parapage-cache
//!
//! Cache simulation substrate for the `parapage` workspace — a from-scratch
//! reproduction of *Online Parallel Paging with Optimal Makespan*
//! (Agrawal et al., SPAA 2022).
//!
//! The paper's model (its §2) is built around a single primitive: a processor
//! serving a request sequence through a fixed-capacity cache, paying one time
//! step per hit and `s` time steps per miss. This crate provides that
//! primitive and the classic machinery around it:
//!
//! * [`LruCache`] — O(1) least-recently-used cache with *resizing* (grow keeps
//!   contents, shrink truncates the LRU tail). LRU is the replacement policy
//!   the paper fixes WLOG inside every memory box.
//! * [`FifoCache`], [`ClockCache`], [`LfuCache`], [`ArcCache`],
//!   [`TwoQueueCache`], [`LirsCache`] — alternative online policies, used
//!   as baselines and to cross-check the simulators.
//! * [`belady`] — Belady's offline MIN algorithm, the per-processor miss
//!   lower bound that feeds the `T_OPT` lower-bound calculator.
//! * [`mattson`] — single-pass stack-distance analysis producing the LRU miss
//!   count for **every** cache capacity at once (the classic Mattson et al.
//!   1970 technique), run by one reusable [`StackDistanceKernel`]; the
//!   [`fenwick`] tree substrate backs the green-OPT DP built on it.
//! * [`ShardedLru`] — the tenant's sharded LRU: `n` per-shard recency
//!   lists, routed by page hash, over one node arena and one page index
//!   shared with [`LruCache`]'s code.
//! * [`concurrent`] — a concurrently-accessible cache behind the same
//!   [`Cache`] trait: [`ShardedCache`], independently locked sequential
//!   shards with a yield point before each shard-lock acquisition, which
//!   the schedule explorer drives and [`ShardedLru`] is tested against.
//! * [`window`] — simulation of one *memory box*: run a request sequence
//!   through an LRU cache of height `h` for a time budget, which is the inner
//!   loop of every paging algorithm in the paper.
//!
//! All simulators are deterministic and allocation-conscious: hot paths use
//! arena-backed intrusive lists and never allocate per access.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arc;
pub mod belady;
pub mod checkpoint;
pub mod clock;
pub mod concurrent;
pub mod fenwick;
pub mod fifo;
pub mod lfu;
pub mod lirs;
pub mod lru;
pub mod mattson;
pub mod policy;
mod recency;
pub mod sharded_lru;
pub mod stats;
pub mod testshim;
pub mod two_queue;
pub mod types;
pub mod window;

pub use arc::ArcCache;
pub use belady::{min_misses, BeladyCache};
pub use checkpoint::{
    decode_framed, digest64, digest64_seeded, fnv1a64, fnv1a64_seeded, frame_chained,
    frame_wal_record, parse_chained, parse_wal_record, ChainedFrame, Checkpoint, CodecError,
    SnapReader, SnapWriter, WalRecordStep, WordDigest, CHAINED_HEADER, DIGEST_BASIS, SNAP_MAGIC,
    SNAP_VERSION, WAL_RECORD_HEADER, WAL_RECORD_MAGIC,
};
pub use clock::ClockCache;
pub use concurrent::ShardedCache;
pub use fenwick::Fenwick;
pub use fifo::FifoCache;
pub use lfu::LfuCache;
pub use lirs::LirsCache;
pub use lru::LruCache;
pub use mattson::{miss_curve, stack_distances, MissCurve, StackDistanceKernel};
pub use policy::{Access, Cache};
pub use sharded_lru::{shard_capacity, ShardedLru, MAX_SHARDS};
pub use stats::CacheStats;
pub use testshim::MapLru;
pub use two_queue::TwoQueueCache;
pub use types::{PageId, ProcId, Time};
pub use window::{run_box, run_box_budget, run_window, WindowOutcome};
