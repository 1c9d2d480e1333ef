//! Concurrently accessible cache: [`ShardedCache`].
//!
//! Power-of-two shards, each a sequential policy behind its own mutex,
//! pages routed by FNV-1a hash, behind the same [`crate::Cache`] trait the
//! sequential policies implement. With one shard it degenerates to exactly
//! the wrapped cache, snapshot bytes included. Served tenants do not use
//! it: they run on the single-owner [`crate::ShardedLru`], which routes and
//! encodes exactly as `ShardedCache<LruCache>` does.
//!
//! The locked `*_shared` path calls [`yieldpoint::yield_point`] once before
//! each shard-lock acquisition, which is what lets the schedule explorer in
//! `parapage-conform` enumerate thread interleavings deterministically.

pub mod sharded;
pub mod yieldpoint;

pub use sharded::ShardedCache;
pub use yieldpoint::{clear_yield_hook, set_yield_hook, yield_point, YieldHook};
