//! Write-ahead delta log between full snapshots.
//!
//! A full [`EngineSnapshot`] costs O(state) to encode — and the state
//! grows with the run (the peak-memory audit trace and the optional
//! timelines accumulate one entry per grant forever), so snapshotting
//! every epoch trades checkpoint frequency directly against throughput.
//! This module makes the per-epoch checkpoint O(changes) instead: between
//! full snapshots, each epoch appends one framed *delta record* describing
//! only what changed since the previous record.
//!
//! ### Record framing and the digest chain
//!
//! Records use the framing primitives in `parapage_cache::checkpoint`:
//!
//! ```text
//! MAGIC b"ppwr" | seq u64 | payload_len u32 | payload … | digest u64
//! ```
//!
//! `digest = digest64_seeded(chain, seq ‖ len ‖ payload)` where `chain` is
//! the previous record's digest, and the *first* record is seeded with
//! [`wal_chain_seed`] of the base: the integrity digest already stored in
//! the base blob's trailer, so the base is not hashed again. The chain is
//! what makes recovery torn-write tolerant **and** base-aware: a record only
//! verifies in the exact position it was appended at, after the exact base
//! it was appended to. Pairing a stale base with a newer log, reordering
//! records, or flipping one byte anywhere breaks the chain at that point.
//!
//! ### Typed delta payload
//!
//! A [`WalDelta`] payload is a sequence of tagged sections — engine
//! scalars, the suffix of the peak-memory audit trace, timeline suffixes,
//! the cache blobs of exactly the caches mutated during the epoch, the
//! policy's full checkpoint (which contains the randomized policies' RNG
//! position, so every RNG draw of the epoch is captured), and the
//! trace-sequence high-water mark used for crash-boundary deduplication.
//! [`WalDelta::apply`] folds a record into a base [`EngineSnapshot`],
//! validating that the record actually extends that base (suffix base
//! lengths, processor counts, monotone counters) so a chain-valid but
//! mismatched record can never silently mis-restore.
//!
//! ### Recovery scan
//!
//! [`recover`] replays a `(base, log)` pair: decode the base, then apply
//! records until the log ends cleanly **or** the first record whose frame,
//! digest, chain, sequence, or payload breaks — everything after a tear is
//! discarded ([`WalTruncation`] reports where and why, as a typed
//! [`CodecError`]), and the run resumes from the last intact record. The
//! resume-equivalence contract is unchanged: the reconstructed snapshot is
//! byte-identical to the full snapshot the engine would have produced at
//! that epoch boundary (pinned by proptests in `parapage-conform`).

use parapage_cache::{
    frame_wal_record, parse_wal_record, CacheStats, CodecError, SnapReader, SnapWriter, Time,
    WalRecordStep,
};
use parapage_core::Interval;

use crate::snapshot::{EngineSnapshot, SnapshotError};

/// Section tags of a [`WalDelta`] payload, in canonical order.
const SEC_SCALARS: u8 = 1;
const SEC_AUDIT: u8 = 2;
const SEC_TIMELINES: u8 = 3;
const SEC_CACHES: u8 = 4;
const SEC_POLICY: u8 = 5;
const SEC_TRACE_HWM: u8 = 6;

/// One epoch's worth of engine-state change: everything needed to advance
/// an [`EngineSnapshot`] from the previous epoch boundary to this one.
///
/// Produced by `Engine::wal_delta`, consumed by [`WalDelta::apply`] during
/// a recovery scan. Size is O(changes in the epoch): scalars are O(p), the
/// audit/timeline sections carry only the entries appended since the last
/// record, and the cache section carries only the caches the epoch's
/// events actually touched.
#[derive(Clone, Debug, PartialEq)]
pub struct WalDelta {
    /// Engine ticks at this epoch boundary.
    pub ticks: u64,
    /// Trace-sequence high-water mark (events emitted so far) — what the
    /// supervisor's gated sink dedups against after a resume.
    pub emitted: u64,
    /// Per-processor next-request index.
    pub pos: Vec<usize>,
    /// Per-processor completion times (0 while unfinished).
    pub completions: Vec<Time>,
    /// Per-processor finished flags.
    pub finished: Vec<bool>,
    /// Aggregate hit/miss counters.
    pub stats: CacheStats,
    /// Memory impact accumulated so far.
    pub memory_integral: u128,
    /// Grants issued so far.
    pub grants_issued: u64,
    /// Concurrently-allocated height at the boundary.
    pub live_usage: usize,
    /// Pending releases `(time, height)`, sorted.
    pub releases: Vec<(Time, usize)>,
    /// The enforced memory limit currently in effect.
    pub current_limit: Option<usize>,
    /// Fault-plan delivery position.
    pub fault_pos: usize,
    /// Faults delivered so far.
    pub faults_injected: u64,
    /// Pending events `(time, kind, proc)`, sorted.
    pub heap: Vec<(Time, u8, u32)>,
    /// Processors not yet completion-notified.
    pub remaining: usize,
    /// Length of the base snapshot's audit-delta trace this record extends
    /// (validated by [`WalDelta::apply`] — the stale-base guard).
    pub deltas_base: u64,
    /// Audit-trace entries appended during the epoch.
    pub deltas_suffix: Vec<(Time, i64)>,
    /// Per-processor timeline lengths this record extends (empty when the
    /// run does not record timelines).
    pub timeline_bases: Vec<u64>,
    /// Per-processor timeline entries appended during the epoch (parallel
    /// to `timeline_bases`).
    pub timeline_suffixes: Vec<Vec<Interval>>,
    /// `(processor, Checkpoint blob)` for exactly the caches mutated
    /// during the epoch, in strictly increasing processor order.
    pub cache_updates: Vec<(u32, Vec<u8>)>,
    /// The policy's full checkpoint blob (includes RNG position for the
    /// randomized policies, so the epoch's RNG draws replay exactly).
    pub policy_blob: Vec<u8>,
}

impl WalDelta {
    /// Serializes the delta as a WAL record payload (canonical: equal
    /// deltas encode to equal bytes).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.put_u8(SEC_SCALARS);
        w.put_u64(self.ticks);
        let p = self.pos.len();
        w.put_len(p);
        for &v in &self.pos {
            w.put_usize(v);
        }
        for &c in &self.completions {
            w.put_u64(c);
        }
        for &f in &self.finished {
            w.put_bool(f);
        }
        w.put_u64(self.stats.hits);
        w.put_u64(self.stats.misses);
        w.put_u128(self.memory_integral);
        w.put_u64(self.grants_issued);
        w.put_usize(self.live_usage);
        w.put_len(self.releases.len());
        for &(t, h) in &self.releases {
            w.put_u64(t);
            w.put_usize(h);
        }
        match self.current_limit {
            Some(l) => {
                w.put_bool(true);
                w.put_usize(l);
            }
            None => w.put_bool(false),
        }
        w.put_usize(self.fault_pos);
        w.put_u64(self.faults_injected);
        w.put_len(self.heap.len());
        for &(t, kind, proc) in &self.heap {
            w.put_u64(t);
            w.put_u8(kind);
            w.put_u32(proc);
        }
        w.put_usize(self.remaining);

        w.put_u8(SEC_AUDIT);
        w.put_u64(self.deltas_base);
        w.put_len(self.deltas_suffix.len());
        for &(t, d) in &self.deltas_suffix {
            w.put_u64(t);
            w.put_i64(d);
        }

        w.put_u8(SEC_TIMELINES);
        w.put_len(self.timeline_bases.len());
        for (base, suffix) in self.timeline_bases.iter().zip(&self.timeline_suffixes) {
            w.put_u64(*base);
            w.put_len(suffix.len());
            for iv in suffix {
                w.put_u64(iv.start);
                w.put_u64(iv.end);
                w.put_usize(iv.height);
            }
        }

        w.put_u8(SEC_CACHES);
        w.put_len(self.cache_updates.len());
        for (proc, blob) in &self.cache_updates {
            w.put_u32(*proc);
            w.put_bytes(blob);
        }

        w.put_u8(SEC_POLICY);
        w.put_bytes(&self.policy_blob);

        w.put_u8(SEC_TRACE_HWM);
        w.put_u64(self.emitted);
        w.into_bytes()
    }

    /// Parses a WAL record payload.
    ///
    /// # Errors
    /// A typed [`CodecError`] on any truncated, reordered, or structurally
    /// invalid payload — never a panic.
    pub fn decode(payload: &[u8]) -> Result<Self, CodecError> {
        let mut r = SnapReader::new(payload);
        let tag = |r: &mut SnapReader<'_>, want: u8| -> Result<(), CodecError> {
            if r.get_u8()? != want {
                return Err(CodecError::Invalid("wal section tag out of order"));
            }
            Ok(())
        };
        tag(&mut r, SEC_SCALARS)?;
        let ticks = r.get_u64()?;
        let p = r.get_len()?;
        let mut pos = Vec::with_capacity(p);
        for _ in 0..p {
            pos.push(r.get_usize()?);
        }
        let mut completions = Vec::with_capacity(p);
        for _ in 0..p {
            completions.push(r.get_u64()?);
        }
        let mut finished = Vec::with_capacity(p);
        for _ in 0..p {
            finished.push(r.get_bool()?);
        }
        let stats = CacheStats {
            hits: r.get_u64()?,
            misses: r.get_u64()?,
        };
        let memory_integral = r.get_u128()?;
        let grants_issued = r.get_u64()?;
        let live_usage = r.get_usize()?;
        let n_rel = r.get_len()?;
        let mut releases = Vec::with_capacity(n_rel);
        for _ in 0..n_rel {
            let t = r.get_u64()?;
            let h = r.get_usize()?;
            releases.push((t, h));
        }
        let current_limit = if r.get_bool()? {
            Some(r.get_usize()?)
        } else {
            None
        };
        let fault_pos = r.get_usize()?;
        let faults_injected = r.get_u64()?;
        let n_heap = r.get_len()?;
        let mut heap = Vec::with_capacity(n_heap);
        for _ in 0..n_heap {
            let t = r.get_u64()?;
            let kind = r.get_u8()?;
            if kind > 1 {
                return Err(CodecError::Invalid("unknown event kind in wal record"));
            }
            let proc = r.get_u32()?;
            heap.push((t, kind, proc));
        }
        let remaining = r.get_usize()?;

        tag(&mut r, SEC_AUDIT)?;
        let deltas_base = r.get_u64()?;
        let n_suffix = r.get_len()?;
        let mut deltas_suffix = Vec::with_capacity(n_suffix);
        for _ in 0..n_suffix {
            let t = r.get_u64()?;
            let d = r.get_i64()?;
            deltas_suffix.push((t, d));
        }

        tag(&mut r, SEC_TIMELINES)?;
        let n_tl = r.get_len()?;
        if n_tl != 0 && n_tl != p {
            return Err(CodecError::Invalid("wal timeline count"));
        }
        let mut timeline_bases = Vec::with_capacity(n_tl);
        let mut timeline_suffixes = Vec::with_capacity(n_tl);
        for _ in 0..n_tl {
            timeline_bases.push(r.get_u64()?);
            let n = r.get_len()?;
            let mut suffix = Vec::with_capacity(n);
            for _ in 0..n {
                let start = r.get_u64()?;
                let end = r.get_u64()?;
                let height = r.get_usize()?;
                suffix.push(Interval { start, end, height });
            }
            timeline_suffixes.push(suffix);
        }

        tag(&mut r, SEC_CACHES)?;
        let n_caches = r.get_len()?;
        let mut cache_updates: Vec<(u32, Vec<u8>)> = Vec::with_capacity(n_caches);
        for _ in 0..n_caches {
            let proc = r.get_u32()?;
            if let Some(&(last, _)) = cache_updates.last() {
                if proc <= last {
                    return Err(CodecError::Invalid("wal cache updates out of order"));
                }
            }
            cache_updates.push((proc, r.get_bytes()?.to_vec()));
        }

        tag(&mut r, SEC_POLICY)?;
        let policy_blob = r.get_bytes()?.to_vec();

        tag(&mut r, SEC_TRACE_HWM)?;
        let emitted = r.get_u64()?;
        if !r.is_exhausted() {
            return Err(CodecError::Invalid("trailing bytes after wal record"));
        }
        Ok(WalDelta {
            ticks,
            emitted,
            pos,
            completions,
            finished,
            stats,
            memory_integral,
            grants_issued,
            live_usage,
            releases,
            current_limit,
            fault_pos,
            faults_injected,
            heap,
            remaining,
            deltas_base,
            deltas_suffix,
            timeline_bases,
            timeline_suffixes,
            cache_updates,
            policy_blob,
        })
    }

    /// Folds this delta into `snap`, advancing it to this record's epoch
    /// boundary.
    ///
    /// # Errors
    /// A typed [`CodecError::Invalid`] when the record does not extend
    /// `snap` — wrong processor count, regressing counters, or suffix base
    /// lengths that disagree with the snapshot (the stale-base/newer-log
    /// guard, defense in depth behind the digest chain).
    pub fn apply(&self, snap: &mut EngineSnapshot) -> Result<(), CodecError> {
        let p = snap.pos.len();
        if self.pos.len() != p || self.completions.len() != p || self.finished.len() != p {
            return Err(CodecError::Invalid("wal record processor count"));
        }
        if self.ticks < snap.ticks || self.emitted < snap.emitted {
            return Err(CodecError::Invalid("wal record regresses the run"));
        }
        if self.deltas_base != snap.deltas.len() as u64 {
            return Err(CodecError::Invalid(
                "wal record does not extend this base (audit trace length)",
            ));
        }
        if self.timeline_bases.is_empty() != snap.timelines.is_empty() {
            return Err(CodecError::Invalid("wal record timeline recording mode"));
        }
        for (x, base) in self.timeline_bases.iter().enumerate() {
            if *base != snap.timelines[x].len() as u64 {
                return Err(CodecError::Invalid(
                    "wal record does not extend this base (timeline length)",
                ));
            }
        }
        for &(proc, _) in &self.cache_updates {
            if proc as usize >= p {
                return Err(CodecError::Invalid("wal cache update processor"));
            }
        }

        snap.ticks = self.ticks;
        snap.emitted = self.emitted;
        snap.pos = self.pos.clone();
        snap.completions = self.completions.clone();
        snap.finished = self.finished.clone();
        snap.stats = self.stats;
        snap.memory_integral = self.memory_integral;
        snap.grants_issued = self.grants_issued;
        snap.live_usage = self.live_usage;
        snap.releases = self.releases.clone();
        snap.current_limit = self.current_limit;
        snap.fault_pos = self.fault_pos;
        snap.faults_injected = self.faults_injected;
        snap.heap = self.heap.clone();
        snap.remaining = self.remaining;
        snap.deltas.extend_from_slice(&self.deltas_suffix);
        for (x, suffix) in self.timeline_suffixes.iter().enumerate() {
            snap.timelines[x].extend_from_slice(suffix);
        }
        for (proc, blob) in &self.cache_updates {
            snap.cache_blobs[*proc as usize] = blob.clone();
        }
        snap.policy_blob = self.policy_blob.clone();
        Ok(())
    }
}

/// Chain seed of the first WAL record after `base`, an encoded full
/// snapshot: the digest in the base blob's trailer. That digest covers the
/// whole payload and decoding verifies it, so the chain stays bound to the
/// exact base without hashing the base a second time. A blob too short to
/// carry a trailer (never a decodable base) seeds 0.
pub fn wal_chain_seed(base: &[u8]) -> u64 {
    base.last_chunk::<8>().map_or(0, |t| u64::from_le_bytes(*t))
}

/// Append-side chain cursor: tracks the next sequence number and chain
/// seed while records are written after a base snapshot.
#[derive(Clone, Copy, Debug)]
pub struct WalCursor {
    /// Sequence number the next appended record will carry.
    pub seq: u64,
    /// Chain seed the next appended record's digest starts from.
    pub chain: u64,
}

impl WalCursor {
    /// The cursor immediately after installing `base` (the encoded full
    /// snapshot): sequence 0, chain seeded by [`wal_chain_seed`].
    pub fn at_base(base: &[u8]) -> Self {
        WalCursor {
            seq: 0,
            chain: wal_chain_seed(base),
        }
    }

    /// Frames `payload` as the next record and advances the cursor.
    pub fn frame(&mut self, payload: &[u8]) -> Vec<u8> {
        let (bytes, digest) = frame_wal_record(self.seq, self.chain, payload);
        self.seq += 1;
        self.chain = digest;
        bytes
    }
}

/// Where and why a recovery scan stopped short of the log's end.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalTruncation {
    /// Sequence number the unusable record would have carried.
    pub at_seq: u64,
    /// Byte offset into the log at which the scan stopped.
    pub offset: usize,
    /// The typed reason (torn frame, digest/chain break, bad payload).
    pub reason: CodecError,
}

impl std::fmt::Display for WalTruncation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "wal truncated at record {} (byte {}): {}",
            self.at_seq, self.offset, self.reason
        )
    }
}

/// The outcome of a recovery scan: the reconstructed snapshot and how much
/// of the log survived.
#[derive(Clone, Debug, PartialEq)]
pub struct WalRecovery {
    /// Base snapshot advanced by every intact record — byte-identical to
    /// the full snapshot at that epoch boundary.
    pub snapshot: EngineSnapshot,
    /// Records applied before the log ended (cleanly or at a tear).
    pub records_applied: u64,
    /// `Some` when the scan stopped at a torn or corrupt record; the
    /// snapshot then reflects the last intact record before it.
    pub truncation: Option<WalTruncation>,
}

/// Replays `(base, log)`: decodes the base snapshot, then applies records
/// until the log ends or breaks. Tolerates torn writes, partial tails,
/// mid-record truncation, flipped bytes, reordered or gapped sequences,
/// and a log written after a different base — each is a typed truncation,
/// never a panic, and the scan recovers everything before the tear.
///
/// # Errors
/// [`SnapshotError`] only when the *base* itself fails to decode; the
/// caller decides whether that means restart-from-scratch.
pub fn recover(base: &[u8], log: &[u8]) -> Result<WalRecovery, SnapshotError> {
    let mut snapshot = EngineSnapshot::decode(base)?;
    let mut chain = wal_chain_seed(base);
    let mut offset = 0usize;
    let mut next_seq = 0u64;
    let mut truncation = None;
    while truncation.is_none() {
        match parse_wal_record(&log[offset..], chain) {
            WalRecordStep::End => break,
            WalRecordStep::Torn(reason) => {
                truncation = Some(WalTruncation {
                    at_seq: next_seq,
                    offset,
                    reason,
                });
            }
            WalRecordStep::Record {
                seq,
                payload,
                digest,
                consumed,
            } => {
                if seq != next_seq {
                    truncation = Some(WalTruncation {
                        at_seq: next_seq,
                        offset,
                        reason: CodecError::Invalid("wal sequence gap"),
                    });
                    continue;
                }
                let delta = match WalDelta::decode(payload) {
                    Ok(d) => d,
                    Err(reason) => {
                        truncation = Some(WalTruncation {
                            at_seq: next_seq,
                            offset,
                            reason,
                        });
                        continue;
                    }
                };
                if let Err(reason) = delta.apply(&mut snapshot) {
                    truncation = Some(WalTruncation {
                        at_seq: next_seq,
                        offset,
                        reason,
                    });
                    continue;
                }
                chain = digest;
                offset += consumed;
                next_seq += 1;
            }
        }
    }
    Ok(WalRecovery {
        snapshot,
        records_applied: next_seq,
        truncation,
    })
}

/// Where the supervisor keeps its checkpoints: one base snapshot plus the
/// delta log appended after it.
///
/// The default [`MemStore`] holds both in memory. The trait exists so the
/// chaos harness can interpose a store that corrupts what recovery reads —
/// torn writes, partial tails, stale bases — and so a future server can
/// persist checkpoints without touching the supervisor.
pub trait CheckpointStore {
    /// Replaces the base snapshot with `snapshot` (encoded) and clears the
    /// log: subsequent records extend the new base.
    fn install_base(&mut self, snapshot: Vec<u8>);

    /// Appends one framed WAL record after the current base.
    fn append_record(&mut self, record: Vec<u8>);

    /// The `(base, log)` pair recovery reads, or `None` before the first
    /// [`CheckpointStore::install_base`]. Takes `&mut self` so corrupting
    /// test stores can materialize their sabotage lazily.
    fn view(&mut self) -> Option<(&[u8], &[u8])>;
}

/// The default in-memory checkpoint store.
#[derive(Clone, Debug, Default)]
pub struct MemStore {
    base: Option<Vec<u8>>,
    log: Vec<u8>,
}

impl MemStore {
    /// An empty store (no checkpoint yet).
    pub fn new() -> Self {
        MemStore::default()
    }

    /// Bytes currently held in the delta log.
    pub fn log_len(&self) -> usize {
        self.log.len()
    }
}

impl CheckpointStore for MemStore {
    fn install_base(&mut self, snapshot: Vec<u8>) {
        self.base = Some(snapshot);
        self.log.clear();
    }

    fn append_record(&mut self, record: Vec<u8>) {
        self.log.extend_from_slice(&record);
    }

    fn view(&mut self) -> Option<(&[u8], &[u8])> {
        self.base.as_deref().map(|b| (b, self.log.as_slice()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_snapshot() -> EngineSnapshot {
        EngineSnapshot {
            ticks: 10,
            emitted: 20,
            workload_digest: 0xfeed,
            pos: vec![3, 5],
            completions: vec![0, 0],
            finished: vec![false, false],
            stats: CacheStats { hits: 7, misses: 3 },
            memory_integral: 100,
            grants_issued: 4,
            timelines: Vec::new(),
            deltas: vec![(0, 4), (8, -4)],
            live_usage: 4,
            releases: vec![(12, 4)],
            current_limit: None,
            fault_pos: 0,
            faults_injected: 0,
            heap: vec![(12, 1, 0), (14, 1, 1)],
            remaining: 2,
            cache_blobs: vec![vec![1], vec![2]],
            policy_blob: vec![9],
        }
    }

    fn delta_after(base: &EngineSnapshot) -> WalDelta {
        WalDelta {
            ticks: base.ticks + 6,
            emitted: base.emitted + 12,
            pos: vec![5, 8],
            completions: vec![0, 30],
            finished: vec![false, true],
            stats: CacheStats {
                hits: 11,
                misses: 5,
            },
            memory_integral: 180,
            grants_issued: 7,
            live_usage: 2,
            releases: vec![(20, 2)],
            current_limit: Some(8),
            fault_pos: 1,
            faults_injected: 1,
            heap: vec![(20, 1, 0)],
            remaining: 1,
            deltas_base: base.deltas.len() as u64,
            deltas_suffix: vec![(12, 2), (20, -2)],
            timeline_bases: Vec::new(),
            timeline_suffixes: Vec::new(),
            cache_updates: vec![(1, vec![42, 43])],
            policy_blob: vec![8, 7],
        }
    }

    #[test]
    fn delta_payload_round_trips() {
        let base = base_snapshot();
        let delta = delta_after(&base);
        let decoded = WalDelta::decode(&delta.encode()).unwrap();
        assert_eq!(decoded, delta);
    }

    #[test]
    fn apply_advances_the_base() {
        let mut snap = base_snapshot();
        let delta = delta_after(&snap);
        delta.apply(&mut snap).unwrap();
        assert_eq!(snap.ticks, 16);
        assert_eq!(snap.emitted, 32);
        assert_eq!(snap.deltas, vec![(0, 4), (8, -4), (12, 2), (20, -2)]);
        assert_eq!(snap.cache_blobs, vec![vec![1], vec![42, 43]]);
        assert_eq!(snap.policy_blob, vec![8, 7]);
    }

    #[test]
    fn apply_rejects_a_mismatched_base() {
        let base = base_snapshot();
        let mut wrong = base.clone();
        wrong.deltas.push((9, 1)); // audit trace longer than the record expects
        let delta = delta_after(&base);
        assert!(matches!(
            delta.apply(&mut wrong.clone()),
            Err(CodecError::Invalid(_))
        ));
        let mut fewer_procs = base.clone();
        fewer_procs.pos.pop();
        fewer_procs.completions.pop();
        fewer_procs.finished.pop();
        fewer_procs.cache_blobs.pop();
        assert!(matches!(
            delta.apply(&mut fewer_procs),
            Err(CodecError::Invalid("wal record processor count"))
        ));
    }

    fn sample_log(base: &EngineSnapshot) -> (Vec<u8>, Vec<u8>, Vec<WalDelta>) {
        let base_bytes = base.encode();
        let mut cursor = WalCursor::at_base(&base_bytes);
        let mut log = Vec::new();
        let mut deltas = Vec::new();
        let mut snap = base.clone();
        for _ in 0..3 {
            let d = delta_after(&snap);
            log.extend_from_slice(&cursor.frame(&d.encode()));
            d.apply(&mut snap).unwrap();
            deltas.push(d);
        }
        (base_bytes, log, deltas)
    }

    #[test]
    fn recovery_replays_the_whole_log() {
        let base = base_snapshot();
        let (base_bytes, log, deltas) = sample_log(&base);
        let rec = recover(&base_bytes, &log).unwrap();
        assert_eq!(rec.records_applied, 3);
        assert!(rec.truncation.is_none());
        let mut want = base.clone();
        for d in &deltas {
            d.apply(&mut want).unwrap();
        }
        assert_eq!(rec.snapshot, want);
        // The reconstruction is byte-identical, not just structurally equal.
        assert_eq!(rec.snapshot.encode(), want.encode());
    }

    #[test]
    fn recovery_truncates_at_a_torn_tail() {
        let base = base_snapshot();
        let (base_bytes, log, deltas) = sample_log(&base);
        // Tear the last record mid-payload: the scan must keep records 0–1.
        let torn = &log[..log.len() - 11];
        let rec = recover(&base_bytes, torn).unwrap();
        assert_eq!(rec.records_applied, 2);
        let t = rec.truncation.expect("tear detected");
        assert_eq!(t.at_seq, 2);
        assert_eq!(t.reason, CodecError::UnexpectedEof);
        let mut want = base.clone();
        deltas[0].apply(&mut want).unwrap();
        deltas[1].apply(&mut want).unwrap();
        assert_eq!(rec.snapshot, want);
    }

    #[test]
    fn recovery_truncates_at_a_flipped_byte_and_keeps_nothing_after() {
        let base = base_snapshot();
        let (base_bytes, log, deltas) = sample_log(&base);
        // Flip one byte inside record 1: record 1 *and* the chain-valid
        // record 2 behind it must both be discarded.
        let rec0_len = {
            match parse_wal_record(&log, wal_chain_seed(&base_bytes)) {
                WalRecordStep::Record { consumed, .. } => consumed,
                other => panic!("expected record, got {other:?}"),
            }
        };
        let mut bad = log.clone();
        bad[rec0_len + 20] ^= 0x01;
        let rec = recover(&base_bytes, &bad).unwrap();
        assert_eq!(rec.records_applied, 1);
        let t = rec.truncation.expect("corruption detected");
        assert_eq!(t.at_seq, 1);
        assert!(matches!(t.reason, CodecError::DigestMismatch { .. }));
        let mut want = base.clone();
        deltas[0].apply(&mut want).unwrap();
        assert_eq!(rec.snapshot, want);
    }

    #[test]
    fn chain_seed_is_the_verified_base_payload_digest() {
        let bytes = base_snapshot().encode();
        let payload = parapage_cache::decode_framed(&bytes).unwrap();
        assert_eq!(wal_chain_seed(&bytes), parapage_cache::digest64(payload));
        assert_eq!(WalCursor::at_base(&bytes).chain, wal_chain_seed(&bytes));
    }

    #[test]
    fn recovery_rejects_a_stale_base_for_a_newer_log() {
        let base = base_snapshot();
        let (_, log, _) = sample_log(&base);
        // A different (older) base: the chain seed differs, so not one
        // record of the newer log may apply.
        let mut stale = base.clone();
        stale.ticks = 1;
        stale.workload_digest = 0xfeed;
        let stale_bytes = stale.encode();
        let rec = recover(&stale_bytes, &log).unwrap();
        assert_eq!(rec.records_applied, 0);
        assert!(matches!(
            rec.truncation.expect("chain mismatch").reason,
            CodecError::DigestMismatch { .. }
        ));
        assert_eq!(rec.snapshot, stale);
    }

    #[test]
    fn recovery_rejects_a_reordered_log() {
        let base = base_snapshot();
        let (base_bytes, log, _) = sample_log(&base);
        let rec0_len = match parse_wal_record(&log, wal_chain_seed(&base_bytes)) {
            WalRecordStep::Record { consumed, .. } => consumed,
            other => panic!("expected record, got {other:?}"),
        };
        // Drop record 0: record 1 arrives first, seeded wrong → chain break.
        let rec = recover(&base_bytes, &log[rec0_len..]).unwrap();
        assert_eq!(rec.records_applied, 0);
        assert!(rec.truncation.is_some());
    }

    #[test]
    fn corrupt_base_is_a_typed_error() {
        let base = base_snapshot();
        let (mut base_bytes, log, _) = sample_log(&base);
        let mid = base_bytes.len() / 2;
        base_bytes[mid] ^= 0x20;
        assert!(matches!(
            recover(&base_bytes, &log),
            Err(SnapshotError::Codec(_))
        ));
    }

    #[test]
    fn mem_store_clears_log_on_new_base() {
        let mut store = MemStore::new();
        assert!(store.view().is_none());
        store.install_base(vec![1, 2, 3]);
        store.append_record(vec![4, 5]);
        assert_eq!(store.view(), Some((&[1u8, 2, 3][..], &[4u8, 5][..])));
        assert_eq!(store.log_len(), 2);
        store.install_base(vec![9]);
        assert_eq!(store.view(), Some((&[9u8][..], &[][..])));
    }
}
