//! Concurrently accessible cache: [`ShardedCache`] / [`ShardedLru`].
//!
//! Power-of-two shards, each a sequential policy behind its own mutex,
//! pages routed by FNV-1a hash, behind the same [`crate::Cache`] trait the
//! sequential policies implement, so `Engine` and `Supervisor` drive it
//! unchanged. With one shard it degenerates to exactly the wrapped cache,
//! snapshot bytes included.
//!
//! The locked `*_shared` path calls [`yieldpoint::yield_point`] once before
//! each shard-lock acquisition, which is what lets the schedule explorer in
//! `parapage-conform` enumerate thread interleavings deterministically.

pub mod sharded;
pub mod yieldpoint;

pub use sharded::{shard_capacity, ShardedCache, ShardedLru};
pub use yieldpoint::{clear_yield_hook, set_yield_hook, yield_point, YieldHook};
