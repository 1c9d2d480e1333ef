//! Engine snapshots: the full dynamic state of a run, captured at an event
//! boundary, serializable to a framed byte blob and restorable into a
//! freshly-constructed [`crate::engine::Engine`].
//!
//! A snapshot captures *everything* the engine needs to resume
//! byte-identically: the event-heap contents, per-processor sequence
//! cursors and completion state, aggregate counters, the live and peak
//! memory usage with the pending releases, the fault-plan delivery position, the per-processor replacement
//! cache contents (via `parapage_cache::Checkpoint`), and the policy's own
//! state (via `BoxAllocator::checkpoint` — RNG position included for the
//! randomized policies). The resume-equivalence contract — a run resumed
//! from any snapshot produces the same [`crate::RunResult`] and the same
//! trace suffix as the uninterrupted run — is enforced by the
//! `parapage-conform` crate's resume checker and the `parapage chaos` CLI
//! matrix.
//!
//! ### Wire format
//!
//! [`EngineSnapshot::encode`] produces the workspace's standard framed blob
//! (see `parapage_cache::checkpoint`): magic `b"ppsn"`, a version tag, the
//! payload, and a `digest64` integrity digest. A corrupted blob — bit flip,
//! truncation, wrong magic — is rejected by [`EngineSnapshot::decode`] with
//! a typed [`SnapshotError`], never a panic. Encoding is canonical: equal
//! snapshots encode to equal bytes (heaps are serialized sorted).

use std::error::Error;
use std::fmt;

use parapage_cache::{
    decode_framed, CacheStats, CodecError, Sequence, Sequences, SnapReader, SnapWriter, Time,
    WordDigest, DIGEST_BASIS,
};
use parapage_core::Interval;

/// Fingerprint of a workload (all sequences, lengths included), so a
/// snapshot can refuse to resume against a different workload.
///
/// It is [`parapage_cache::digest64`] over the little-endian byte string
/// `seqs.len() ‖ (seq.len() ‖ seq…)…` of `u64` words — the body of a
/// protocol v3 `Batch` frame — with the words fed in directly rather than
/// serialized first. Page runs digest as the pages they hold, so a batch
/// has one fingerprint in either form.
pub fn workload_fingerprint<S: Sequence>(seqs: &[S]) -> u64 {
    fingerprint(S::sequences(seqs))
}

/// [`workload_fingerprint`] of a batch in either form.
pub(crate) fn fingerprint(seqs: Sequences<'_>) -> u64 {
    let mut d = WordDigest::new(DIGEST_BASIS);
    d.write_u64(seqs.len() as u64);
    for x in 0..seqs.len() {
        d.write_u64(seqs.seq_len(x) as u64);
        seqs.digest_into(x, &mut d);
    }
    d.finish()
}

/// Why a snapshot could not be taken, encoded, decoded, or restored.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// The byte codec rejected the blob (corruption, truncation, an
    /// unsupported policy, or an invalid field).
    Codec(CodecError),
    /// The snapshot (or genesis header) was taken against a different
    /// workload (or run inputs) than the engine being restored.
    WorkloadMismatch {
        /// Fingerprint of the engine's workload.
        expected: u64,
        /// Fingerprint recorded in the snapshot.
        found: u64,
    },
    /// A structural mismatch between the snapshot and the receiving engine
    /// (processor count, option flags).
    Shape(&'static str),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Codec(e) => write!(f, "snapshot codec: {e}"),
            SnapshotError::WorkloadMismatch { expected, found } => write!(
                f,
                "snapshot taken against a different workload \
                 (engine {expected:#018x}, snapshot {found:#018x})"
            ),
            SnapshotError::Shape(what) => write!(f, "snapshot shape mismatch: {what}"),
        }
    }
}

impl Error for SnapshotError {}

impl From<CodecError> for SnapshotError {
    fn from(e: CodecError) -> Self {
        SnapshotError::Codec(e)
    }
}

/// The full dynamic state of an engine run at an event boundary.
///
/// Produced by `Engine::snapshot`, consumed by `Engine::restore`; see the
/// module docs for the wire format and the resume-equivalence contract.
#[derive(Clone, Debug, PartialEq)]
pub struct EngineSnapshot {
    /// Events processed so far (the engine's logical clock for epochs).
    pub ticks: u64,
    /// Trace events emitted so far (lets a supervisor deduplicate the
    /// stream across crash/resume boundaries).
    pub emitted: u64,
    /// [`workload_fingerprint`] of the sequences the run was started on.
    pub workload_digest: u64,
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
    /// Per-processor allocation timelines (empty unless recording).
    pub timelines: Vec<Vec<Interval>>,
    /// Concurrently-allocated height at the snapshot instant.
    pub live_usage: usize,
    /// Largest concurrently-allocated height so far (never below
    /// `live_usage`).
    pub peak: usize,
    /// Pending releases `(time, height)`, sorted.
    pub releases: Vec<(Time, usize)>,
    /// The enforced memory limit currently in effect.
    pub current_limit: Option<usize>,
    /// Fault-plan delivery position (events already delivered).
    pub fault_pos: usize,
    /// Faults delivered so far.
    pub faults_injected: u64,
    /// Pending events `(time, kind, proc)`, sorted.
    pub heap: Vec<(Time, u8, u32)>,
    /// Processors not yet completion-notified.
    pub remaining: usize,
    /// Per-processor replacement-cache state, one `Checkpoint` blob each.
    pub cache_blobs: Vec<Vec<u8>>,
    /// The policy's `BoxAllocator::checkpoint` blob.
    pub policy_blob: Vec<u8>,
}

impl EngineSnapshot {
    /// Serializes into the framed wire format (magic + version + payload +
    /// FNV digest). Canonical: equal snapshots encode to equal bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.put_u64(self.ticks);
        w.put_u64(self.emitted);
        w.put_u64(self.workload_digest);
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
        w.put_len(self.timelines.len());
        for tl in &self.timelines {
            w.put_len(tl.len());
            for iv in tl {
                w.put_u64(iv.start);
                w.put_u64(iv.end);
                w.put_usize(iv.height);
            }
        }
        w.put_usize(self.live_usage);
        w.put_usize(self.peak);
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
        w.put_len(self.cache_blobs.len());
        for blob in &self.cache_blobs {
            w.put_bytes(blob);
        }
        w.put_bytes(&self.policy_blob);
        w.into_framed()
    }

    /// Parses a framed blob back into a snapshot, verifying the integrity
    /// digest first.
    ///
    /// # Errors
    /// [`SnapshotError::Codec`] on a corrupted, truncated, or structurally
    /// invalid blob.
    pub fn decode(blob: &[u8]) -> Result<Self, SnapshotError> {
        Self::decode_payload(decode_framed(blob)?)
    }

    /// [`EngineSnapshot::decode`] of a payload whose frame was already
    /// checked.
    pub(crate) fn decode_payload(payload: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = SnapReader::new(payload);
        let ticks = r.get_u64()?;
        let emitted = r.get_u64()?;
        let workload_digest = r.get_u64()?;
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
        let n_tl = r.get_len()?;
        if n_tl != 0 && n_tl != p {
            return Err(SnapshotError::Shape("timeline count"));
        }
        let mut timelines = Vec::with_capacity(n_tl);
        for _ in 0..n_tl {
            let n = r.get_len()?;
            let mut tl = Vec::with_capacity(n);
            for _ in 0..n {
                let start = r.get_u64()?;
                let end = r.get_u64()?;
                let height = r.get_usize()?;
                tl.push(Interval { start, end, height });
            }
            timelines.push(tl);
        }
        let live_usage = r.get_usize()?;
        let peak = r.get_usize()?;
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
                return Err(SnapshotError::Codec(CodecError::Invalid(
                    "unknown event kind in snapshot heap",
                )));
            }
            let proc = r.get_u32()?;
            heap.push((t, kind, proc));
        }
        let remaining = r.get_usize()?;
        let n_caches = r.get_len()?;
        if n_caches != p {
            return Err(SnapshotError::Shape("cache blob count"));
        }
        let mut cache_blobs = Vec::with_capacity(n_caches);
        for _ in 0..n_caches {
            cache_blobs.push(r.get_bytes()?.to_vec());
        }
        let policy_blob = r.get_bytes()?.to_vec();
        Ok(EngineSnapshot {
            ticks,
            emitted,
            workload_digest,
            pos,
            completions,
            finished,
            stats,
            memory_integral,
            grants_issued,
            timelines,
            live_usage,
            peak,
            releases,
            current_limit,
            fault_pos,
            faults_injected,
            heap,
            remaining,
            cache_blobs,
            policy_blob,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parapage_cache::PageId;

    fn sample() -> EngineSnapshot {
        EngineSnapshot {
            ticks: 42,
            emitted: 99,
            workload_digest: 0xdead_beef,
            pos: vec![3, 7],
            completions: vec![0, 120],
            finished: vec![false, true],
            stats: CacheStats {
                hits: 10,
                misses: 4,
            },
            memory_integral: 1 << 70,
            grants_issued: 9,
            timelines: vec![
                vec![Interval {
                    start: 0,
                    end: 40,
                    height: 4,
                }],
                vec![],
            ],
            live_usage: 4,
            peak: 4,
            releases: vec![(40, 4)],
            current_limit: Some(16),
            fault_pos: 1,
            faults_injected: 1,
            heap: vec![(40, 1, 0)],
            remaining: 1,
            cache_blobs: vec![vec![1, 2, 3], vec![]],
            policy_blob: vec![9, 9],
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let snap = sample();
        let blob = snap.encode();
        let back = EngineSnapshot::decode(&blob).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn encoding_is_canonical() {
        let snap = sample();
        assert_eq!(snap.encode(), snap.clone().encode());
    }

    #[test]
    fn corruption_is_detected_not_panicked() {
        let mut blob = sample().encode();
        let mid = blob.len() / 2;
        blob[mid] ^= 0x40;
        assert!(matches!(
            EngineSnapshot::decode(&blob),
            Err(SnapshotError::Codec(CodecError::DigestMismatch { .. }))
        ));
    }

    #[test]
    fn truncation_is_detected() {
        let blob = sample().encode();
        assert!(EngineSnapshot::decode(&blob[..blob.len() - 3]).is_err());
        assert!(EngineSnapshot::decode(&[]).is_err());
    }

    #[test]
    fn workload_fingerprint_distinguishes_sequences() {
        let a = vec![vec![PageId(1), PageId(2)], vec![PageId(3)]];
        let b = vec![vec![PageId(1)], vec![PageId(2), PageId(3)]];
        let c = vec![vec![PageId(1), PageId(2)], vec![PageId(4)]];
        assert_ne!(workload_fingerprint(&a), workload_fingerprint(&b));
        assert_ne!(workload_fingerprint(&a), workload_fingerprint(&c));
        assert_eq!(workload_fingerprint(&a), workload_fingerprint(&a.clone()));
    }
}
