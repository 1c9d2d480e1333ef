//! Write-ahead log of epoch ends after a base: a genesis header or a full
//! snapshot.
//!
//! A full [`EngineSnapshot`] costs O(state) to encode: O(p·k) of cache
//! contents plus the policy's own state, and more with every grant when
//! timelines are recorded. Snapshotting every epoch therefore trades
//! checkpoint frequency directly against throughput.
//! A supervised run is a pure function of its base snapshot, its request
//! sequences and its fault plan (the policies are deterministic, and the
//! randomized ones carry their RNG in their checkpoint), so between full
//! snapshots the log need not carry state at all. Each epoch appends one
//! framed record saying *where* the epoch ended — a [`WalMark`]: the
//! engine tick and a digest of the engine's progress there — and recovery
//! recomputes the state by stepping the engine forward from the base,
//! checking each mark as it passes it (command logging, as opposed to
//! value logging).
//!
//! ### Bases: genesis or snapshot
//!
//! A store's base is one framed blob (magic, version, payload, `digest64`
//! trailer), either
//!
//! * a **genesis header**, whose payload is exactly the 8-byte
//!   `Engine::inputs_digest` of the run — sequences, `p`, `k`, `s`, policy
//!   name and initial checkpoint (so the seed), and cache shape. A run
//!   starts its store with one, so it writes no snapshot until one pays.
//!   Recovery from it replays from a freshly built engine; a header whose
//!   digest differs from the run's is a typed error, never a replay of
//!   someone else's log; or
//! * a full [`EngineSnapshot`], whose payload is always longer than 8
//!   bytes.
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
//! ### Record payload
//!
//! The payload is a fixed [`WAL_MARK_LEN`] bytes, `ticks u64 | digest u64`,
//! whatever the processor count, cache size or run length. A record
//! certifies that a replay from the base reached that tick with the same
//! progress digest (`Engine::wal_mark`): the same events emitted, the same
//! per-processor cursors and completions, and the same aggregate counters.
//!
//! ### Recovery scan
//!
//! [`recover`] reads a `(base, log)` pair: decode the base, then collect
//! marks until the log ends cleanly **or** the first record whose frame,
//! digest, chain, sequence, or payload length breaks — everything after a
//! tear is discarded ([`WalTruncation`] reports where and why, as a typed
//! [`CodecError`]). The supervisor restores the base and replays to the
//! last intact mark; a replay that reaches a mark's epoch boundary with a
//! different tick or digest is a divergence, never a silent resume. An
//! intact log is continued in place: [`WalRecovery::cursor`] appends after
//! its last record.

use parapage_cache::{
    decode_framed, frame_wal_record, parse_wal_record, CodecError, SnapWriter, WalRecordStep,
};

use crate::snapshot::{EngineSnapshot, SnapshotError};

/// Bytes of one WAL record payload: `ticks u64 | digest u64`.
pub const WAL_MARK_LEN: usize = 16;

/// One epoch boundary as the WAL records it: the engine tick the epoch
/// ended at and a digest of the engine's progress there (see
/// `Engine::wal_mark`). Fixed-size whatever the run's shape, because a
/// record carries no state: recovery recomputes the state by replaying
/// from the base, and the mark only checks that the replay got there.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalMark {
    /// Engine ticks at the epoch boundary.
    pub ticks: u64,
    /// Digest of the engine's progress at the boundary.
    pub digest: u64,
}

impl WalMark {
    /// The record payload: `ticks`, then `digest`, little-endian.
    pub fn encode(&self) -> [u8; WAL_MARK_LEN] {
        (u128::from(self.digest) << 64 | u128::from(self.ticks)).to_le_bytes()
    }

    /// Parses a record payload.
    ///
    /// # Errors
    /// [`CodecError::Invalid`] when the payload is not exactly
    /// [`WAL_MARK_LEN`] bytes.
    pub fn decode(payload: &[u8]) -> Result<Self, CodecError> {
        let word = payload
            .try_into()
            .map(u128::from_le_bytes)
            .map_err(|_| CodecError::Invalid("wal record payload length"))?;
        Ok(WalMark {
            ticks: word as u64,
            digest: (word >> 64) as u64,
        })
    }
}

/// The genesis header of a run whose `Engine::inputs_digest` is
/// `inputs`: a framed blob with that digest as its whole payload.
pub fn genesis(inputs: u64) -> Vec<u8> {
    let mut w = SnapWriter::new();
    w.put_u64(inputs);
    w.into_framed()
}

/// A decoded base.
#[derive(Clone, Debug, PartialEq)]
pub enum Base {
    /// A [`genesis`] header: the run's inputs digest.
    Genesis(u64),
    /// A full snapshot.
    Snapshot(Box<EngineSnapshot>),
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
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
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

/// The outcome of a recovery scan: the decoded base and the marks of the
/// intact records after it.
#[derive(Clone, Debug, PartialEq)]
pub struct WalRecovery {
    /// The base the log extends.
    pub base: Base,
    /// The intact records' marks, in log order: the epoch boundaries a
    /// replay from `snapshot` must pass, each at exactly its tick and
    /// digest.
    pub marks: Vec<WalMark>,
    /// `Some` when the scan stopped at a torn or corrupt record; `marks`
    /// then ends at the last intact record before it.
    pub truncation: Option<WalTruncation>,
    /// Where the next record goes after the last intact one.
    pub cursor: WalCursor,
}

/// Reads `(base, log)`: decodes the base snapshot, then collects record
/// marks until the log ends or breaks. Tolerates torn writes, partial
/// tails, mid-record truncation, flipped bytes, reordered or gapped
/// sequences, and a log written after a different base — each is a typed
/// truncation, never a panic, and the scan keeps everything before the
/// tear.
///
/// # Errors
/// [`SnapshotError`] only when the *base* itself fails to decode; the
/// caller decides whether that means restart-from-scratch.
pub fn recover(base: &[u8], log: &[u8]) -> Result<WalRecovery, SnapshotError> {
    let payload = decode_framed(base)?;
    let decoded = match payload.try_into() {
        Ok(inputs) => Base::Genesis(u64::from_le_bytes(inputs)),
        Err(_) => Base::Snapshot(Box::new(EngineSnapshot::decode_payload(payload)?)),
    };
    let mut chain = wal_chain_seed(base);
    let mut offset = 0usize;
    let mut marks = Vec::new();
    let truncation = loop {
        let at_seq = marks.len() as u64;
        let reason = match parse_wal_record(&log[offset..], chain) {
            WalRecordStep::End => break None,
            WalRecordStep::Torn(reason) => reason,
            WalRecordStep::Record { seq, .. } if seq != at_seq => {
                CodecError::Invalid("wal sequence gap")
            }
            WalRecordStep::Record {
                payload,
                digest,
                consumed,
                ..
            } => match WalMark::decode(payload) {
                Ok(mark) => {
                    marks.push(mark);
                    chain = digest;
                    offset += consumed;
                    continue;
                }
                Err(reason) => reason,
            },
        };
        break Some(WalTruncation {
            at_seq,
            offset,
            reason,
        });
    };
    Ok(WalRecovery {
        base: decoded,
        cursor: WalCursor {
            seq: marks.len() as u64,
            chain,
        },
        marks,
        truncation,
    })
}

/// Where the supervisor keeps its checkpoints: one base snapshot plus the
/// record log appended after it.
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
    use parapage_cache::CacheStats;

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
            live_usage: 4,
            peak: 4,
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

    fn sample_log(base: &EngineSnapshot) -> (Vec<u8>, Vec<u8>, Vec<WalMark>) {
        let base_bytes = base.encode();
        let mut cursor = WalCursor::at_base(&base_bytes);
        let marks: Vec<WalMark> = (1..=3)
            .map(|i| WalMark {
                ticks: 10 + 6 * i,
                digest: 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i),
            })
            .collect();
        let log = marks
            .iter()
            .flat_map(|m| cursor.frame(&m.encode()))
            .collect();
        (base_bytes, log, marks)
    }

    fn first_record_len(base_bytes: &[u8], log: &[u8]) -> usize {
        match parse_wal_record(log, wal_chain_seed(base_bytes)) {
            WalRecordStep::Record { consumed, .. } => consumed,
            other => panic!("expected record, got {other:?}"),
        }
    }

    #[test]
    fn mark_payload_round_trips() {
        let mark = WalMark {
            ticks: u64::MAX - 3,
            digest: 0x0123_4567_89ab_cdef,
        };
        assert_eq!(WalMark::decode(&mark.encode()), Ok(mark));
    }

    #[test]
    fn recovery_replays_the_whole_log() {
        let base = base_snapshot();
        let (base_bytes, log, marks) = sample_log(&base);
        let rec = recover(&base_bytes, &log).unwrap();
        assert_eq!(rec.marks, marks);
        assert!(rec.truncation.is_none());
        // The base comes back byte-identical, not just structurally equal.
        assert_eq!(
            rec.base,
            Base::Snapshot(Box::new(EngineSnapshot::decode(&base_bytes).unwrap()))
        );
        assert_eq!(base_snapshot().encode(), base_bytes);
    }

    #[test]
    fn recovery_truncates_at_a_torn_tail() {
        let base = base_snapshot();
        let (base_bytes, log, marks) = sample_log(&base);
        // Tear the last record mid-payload: the scan must keep records 0–1.
        let torn = &log[..log.len() - 11];
        let rec = recover(&base_bytes, torn).unwrap();
        assert_eq!(rec.marks, marks[..2]);
        let t = rec.truncation.expect("tear detected");
        assert_eq!(t.at_seq, 2);
        assert_eq!(t.reason, CodecError::UnexpectedEof);
    }

    #[test]
    fn recovery_truncates_at_a_flipped_byte_and_keeps_nothing_after() {
        let base = base_snapshot();
        let (base_bytes, log, marks) = sample_log(&base);
        // Flip one byte inside record 1: record 1 *and* the chain-valid
        // record 2 behind it must both be discarded.
        let rec0_len = first_record_len(&base_bytes, &log);
        let mut bad = log.clone();
        bad[rec0_len + 20] ^= 0x01;
        let rec = recover(&base_bytes, &bad).unwrap();
        assert_eq!(rec.marks, marks[..1]);
        let t = rec.truncation.expect("corruption detected");
        assert_eq!(t.at_seq, 1);
        assert_eq!(t.offset, rec0_len);
        assert!(matches!(t.reason, CodecError::DigestMismatch { .. }));
    }

    #[test]
    fn recovery_truncates_at_a_payload_of_the_wrong_length() {
        // A chain-valid record whose payload is not a mark: the scan stops
        // there with a typed reason.
        let (base_bytes, _, marks) = sample_log(&base_snapshot());
        for len in [0, WAL_MARK_LEN - 1, WAL_MARK_LEN + 1] {
            let mut cursor = WalCursor::at_base(&base_bytes);
            let mut log = cursor.frame(&marks[0].encode());
            log.extend_from_slice(&cursor.frame(&vec![0u8; len]));
            let rec = recover(&base_bytes, &log).unwrap();
            assert_eq!(rec.marks, marks[..1]);
            let t = rec.truncation.expect("bad payload detected");
            assert_eq!(t.at_seq, 1);
            assert_eq!(t.reason, CodecError::Invalid("wal record payload length"));
        }
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
        // record of the newer log may survive.
        let mut stale = base.clone();
        stale.ticks = 1;
        let stale_bytes = stale.encode();
        let rec = recover(&stale_bytes, &log).unwrap();
        assert!(rec.marks.is_empty());
        assert!(matches!(
            rec.truncation.expect("chain mismatch").reason,
            CodecError::DigestMismatch { .. }
        ));
        assert_eq!(rec.base, Base::Snapshot(Box::new(stale)));
    }

    #[test]
    fn recovery_rejects_a_reordered_log() {
        let base = base_snapshot();
        let (base_bytes, log, _) = sample_log(&base);
        let rec0_len = first_record_len(&base_bytes, &log);
        // Drop record 0: record 1 arrives first, seeded wrong → chain break.
        let rec = recover(&base_bytes, &log[rec0_len..]).unwrap();
        assert!(rec.marks.is_empty());
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
        store.install_base(vec![9]);
        assert_eq!(store.view(), Some((&[9u8][..], &[][..])));
    }
}
