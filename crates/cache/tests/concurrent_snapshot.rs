//! Checkpoint coverage for the tenant's sharded cache: a corrupted
//! [`ShardedLru`] blob must fail with exactly the typed [`CodecError`] the
//! sequential codec promises (flip a byte → `DigestMismatch`, cut the tail
//! → `UnexpectedEof`), never a panic or a silently wrong cache.

use parapage_cache::{
    decode_framed, Cache, Checkpoint, CodecError, PageId, ShardedLru, SnapReader, SnapWriter,
    SNAP_MAGIC,
};

fn p(v: u64) -> PageId {
    PageId(v)
}

fn framed_snapshot<C: Checkpoint>(cache: &C) -> Vec<u8> {
    let mut w = SnapWriter::new();
    cache.save(&mut w);
    w.into_framed()
}

/// Every flipped payload byte in a framed concurrent-cache snapshot is a
/// `DigestMismatch` — the corruption detection the sequential codec
/// promises holds verbatim for the concurrent blobs.
#[test]
fn any_flipped_byte_in_a_concurrent_snapshot_is_a_digest_mismatch() {
    let mut cache = ShardedLru::with_shards(16, 4);
    for v in 0..24 {
        cache.access(p(v));
    }
    let blob = framed_snapshot(&cache);
    let payload_start = SNAP_MAGIC.len() + 2;
    for i in payload_start..blob.len() - 8 {
        let mut bad = blob.clone();
        bad[i] ^= 0x01;
        match decode_framed(&bad) {
            Err(CodecError::DigestMismatch { computed, stored }) => {
                assert_ne!(computed, stored, "byte {i}")
            }
            other => panic!("byte {i} flipped: expected DigestMismatch, got {other:?}"),
        }
    }
}

/// Truncations fail typed: cutting the frame is `UnexpectedEof`, and a
/// frame-valid blob whose *payload* is short leaves the loader at
/// `UnexpectedEof` too (a missing shard never loads as an empty one).
#[test]
fn truncated_concurrent_snapshots_are_unexpected_eof() {
    let mut cache = ShardedLru::with_shards(16, 4);
    for v in 0..24 {
        cache.access(p(v));
    }
    let blob = framed_snapshot(&cache);
    // Cut inside the frame header: the frame itself refuses.
    assert_eq!(decode_framed(&blob[..13]), Err(CodecError::UnexpectedEof));
    // Cut off the trailing digest: the bytes now posing as the digest are
    // payload, so the frame fails integrity, never silently decodes.
    assert!(matches!(
        decode_framed(&blob[..blob.len() - 8]),
        Err(CodecError::DigestMismatch { .. } | CodecError::UnexpectedEof)
    ));
    // A well-framed but short payload: reframe a strict prefix, then load.
    let payload = decode_framed(&blob).unwrap();
    for cut in [0, 1, payload.len() / 2, payload.len() - 1] {
        let mut restored = ShardedLru::with_shards(16, 4);
        let err = restored
            .load(&mut SnapReader::new(&payload[..cut]))
            .expect_err("short payload must not load");
        assert_eq!(err, CodecError::UnexpectedEof, "cut at {cut}");
    }
    // The intact payload still loads after all that prodding.
    let mut restored = ShardedLru::with_shards(16, 4);
    restored.load(&mut SnapReader::new(payload)).unwrap();
    assert_eq!(restored.len(), cache.len());
}

/// A corrupted blob must leave a concurrent cache *usable*: a failed load
/// may leave partial state, but the cache still honors its capacity bound
/// and serves accesses afterwards.
#[test]
fn failed_load_leaves_the_cache_operational() {
    let mut cache = ShardedLru::with_shards(8, 4);
    for v in 0..8 {
        cache.access(p(v));
    }
    let mut w = SnapWriter::new();
    cache.save(&mut w);
    let payload = w.into_bytes();
    let mut victim = ShardedLru::with_shards(8, 4);
    assert!(victim
        .load(&mut SnapReader::new(&payload[..payload.len() / 2]))
        .is_err());
    for v in 100..120 {
        victim.access(p(v));
        assert!(victim.len() <= victim.capacity());
    }
    // And a clean retry fully recovers it.
    victim.load(&mut SnapReader::new(&payload)).unwrap();
    let mut twin_bytes = SnapWriter::new();
    victim.save(&mut twin_bytes);
    assert_eq!(twin_bytes.into_bytes(), payload);
}
