//! Every [`CodecError`] variant, end to end: a hand-corrupted stream of
//! each shape must decode to exactly the right variant (never a panic,
//! never a misclassification), and the Display strings downstream tooling
//! greps for must stay stable.

use parapage_cache::{
    decode_framed, fnv1a64, frame_wal_record, parse_wal_record, Cache, Checkpoint, CodecError,
    PageId, ShardedLru, SnapReader, SnapWriter, WalRecordStep, SNAP_MAGIC, SNAP_VERSION,
    WAL_RECORD_HEADER,
};

/// A small framed blob with a known payload.
fn framed() -> Vec<u8> {
    let mut w = SnapWriter::new();
    w.put_u64(0xdead_beef);
    w.put_bool(true);
    w.put_bytes(b"payload");
    w.into_framed()
}

#[test]
fn display_strings_are_stable() {
    let cases: [(CodecError, &str); 6] = [
        (
            CodecError::UnexpectedEof,
            "snapshot truncated: unexpected end of input",
        ),
        (CodecError::BadMagic, "not a snapshot blob (bad magic)"),
        (
            CodecError::BadVersion(65535),
            "unsupported snapshot version 65535 (expected 1)",
        ),
        (
            CodecError::DigestMismatch {
                computed: 1,
                stored: 2,
            },
            "snapshot integrity digest mismatch (computed 0x0000000000000001, \
             stored 0x0000000000000002)",
        ),
        (
            CodecError::Invalid("bool byte not 0/1"),
            "snapshot field invalid: bool byte not 0/1",
        ),
        (
            CodecError::Unsupported("shared-lru"),
            "policy `shared-lru` does not support checkpointing",
        ),
    ];
    for (err, want) in cases {
        assert_eq!(err.to_string(), want);
    }
}

#[test]
fn empty_and_short_blobs_are_unexpected_eof() {
    assert_eq!(decode_framed(&[]), Err(CodecError::UnexpectedEof));
    assert_eq!(decode_framed(b"ppsn"), Err(CodecError::UnexpectedEof));
    // One byte short of the smallest valid frame (magic+version+digest).
    assert_eq!(
        decode_framed(&framed()[..13]),
        Err(CodecError::UnexpectedEof)
    );
}

#[test]
fn wrong_leading_bytes_are_bad_magic() {
    let mut blob = framed();
    blob[0] ^= 0xff;
    assert_eq!(decode_framed(&blob), Err(CodecError::BadMagic));
    // An entirely different stream of sufficient length.
    assert_eq!(decode_framed(&[0u8; 32]), Err(CodecError::BadMagic));
}

#[test]
fn unknown_version_is_bad_version_with_the_tag() {
    let mut blob = framed();
    blob[4..6].copy_from_slice(&0xffff_u16.to_le_bytes());
    assert_eq!(decode_framed(&blob), Err(CodecError::BadVersion(65535)));
    blob[4..6].copy_from_slice(&2u16.to_le_bytes());
    assert_eq!(decode_framed(&blob), Err(CodecError::BadVersion(2)));
    // The current version still decodes.
    blob[4..6].copy_from_slice(&SNAP_VERSION.to_le_bytes());
    assert!(decode_framed(&blob).is_ok());
}

#[test]
fn any_flipped_payload_byte_is_a_digest_mismatch() {
    let blob = framed();
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

#[test]
fn a_non_boolean_byte_is_invalid() {
    let mut r = SnapReader::new(&[2u8]);
    assert_eq!(r.get_bool(), Err(CodecError::Invalid("bool byte not 0/1")));
    let mut r = SnapReader::new(&[1u8]);
    assert_eq!(r.get_bool(), Ok(true));
}

#[test]
fn an_oversized_collection_length_is_invalid_not_an_allocation() {
    // Length 1000 with only 2 bytes of payload behind it: must be the
    // typed Invalid, reported before any allocation is attempted.
    let mut w = SnapWriter::new();
    w.put_u64(1000);
    w.put_u8(0);
    w.put_u8(0);
    let buf = w.into_bytes();
    let mut r = SnapReader::new(&buf);
    assert_eq!(
        r.get_len(),
        Err(CodecError::Invalid("collection length exceeds payload"))
    );
}

#[test]
fn a_hostile_page_count_is_invalid_not_an_allocation_or_overflow() {
    // A run claiming `usize::MAX / 4` pages of 8 bytes: `n * 8` overflows
    // usize, so the reader must bound it with checked arithmetic and
    // answer with the typed error before reserving.
    let run = |n: usize, width: u8| {
        let mut w = SnapWriter::new();
        w.put_len(n);
        w.put_u8(width);
        w.put_u64(0);
        w.put_raw(&[0u8; 64]);
        w.into_bytes()
    };
    let buf = run(usize::MAX / 4, 8);
    let mut r = SnapReader::new(&buf);
    let mut left = usize::MAX;
    assert_eq!(
        r.get_page_run(&mut left),
        Err(CodecError::Invalid("page run length exceeds payload"))
    );
    // One page more than the bytes hold is refused the same way, and a
    // refused run counts no pages.
    let buf = run(9, 8);
    let mut r = SnapReader::new(&buf);
    assert_eq!(
        r.get_page_run(&mut left),
        Err(CodecError::Invalid("page run length exceeds payload"))
    );
    assert_eq!(left, usize::MAX);
    // A count over the caller's ceiling is refused before the width is
    // even read.
    let mut left = 8;
    assert_eq!(
        SnapReader::new(&run(9, 1)).get_page_run(&mut left),
        Err(CodecError::Invalid("page run exceeds the page ceiling"))
    );
    assert_eq!(left, 8);
}

/// A sharded-LRU payload whose shard claims more residents than its
/// capacity, or that stops short, is a typed error, and the cache it was
/// loaded into is unchanged.
#[test]
fn malformed_sharded_lru_payloads_are_typed_errors() {
    let mut cache = ShardedLru::with_shards(8, 2);
    for v in 0..6 {
        cache.access(PageId(v));
    }
    let mut w = SnapWriter::new();
    cache.save(&mut w);
    let good = w.into_bytes();

    // Shard 0 claims one resident past its capacity of 4.
    let mut w = SnapWriter::new();
    w.put_usize(4);
    w.put_len(5);
    for _ in 0..5 {
        w.put_page(PageId(0));
    }
    w.put_usize(4);
    w.put_len(0);
    let over = w.into_bytes();
    let mut victim = ShardedLru::with_shards(8, 2);
    victim.load(&mut SnapReader::new(&good)).unwrap();
    assert_eq!(
        victim.load(&mut SnapReader::new(&over)),
        Err(CodecError::Invalid("LRU resident count exceeds capacity"))
    );
    // A cut inside the last shard's pages, and one between the shards.
    let first_shard = (0..6).filter(|&v| cache.shard_of(PageId(v)) == 0).count();
    for cut in [good.len() - 3, 8 * (2 + first_shard)] {
        assert_eq!(
            victim.load(&mut SnapReader::new(&good[..cut])),
            Err(CodecError::UnexpectedEof),
            "cut at {cut}"
        );
    }
    let mut w = SnapWriter::new();
    victim.save(&mut w);
    assert_eq!(w.into_bytes(), good, "a refused payload changed the cache");
}

#[test]
fn reading_past_the_end_is_unexpected_eof() {
    let mut w = SnapWriter::new();
    w.put_u32(7);
    let buf = w.into_bytes();
    let mut r = SnapReader::new(&buf);
    assert_eq!(r.get_u32(), Ok(7));
    assert!(r.is_exhausted());
    assert_eq!(r.get_u64(), Err(CodecError::UnexpectedEof));
    assert_eq!(r.get_bytes().unwrap_err(), CodecError::UnexpectedEof);
}

#[test]
fn torn_wal_records_carry_the_right_variant() {
    let base_digest = fnv1a64(b"base snapshot bytes");
    let (record, _) = frame_wal_record(1, base_digest, b"delta payload");

    // Cut mid-header: too short to even read the frame.
    match parse_wal_record(&record[..WAL_RECORD_HEADER - 2], base_digest) {
        WalRecordStep::Torn(CodecError::UnexpectedEof) => {}
        other => panic!("mid-header cut: {other:?}"),
    }
    // Cut mid-payload: header reads, bytes run out.
    match parse_wal_record(&record[..record.len() - 3], base_digest) {
        WalRecordStep::Torn(CodecError::UnexpectedEof) => {}
        other => panic!("mid-payload cut: {other:?}"),
    }
    // Wrong magic.
    let mut bad = record.clone();
    bad[0] = b'X';
    match parse_wal_record(&bad, base_digest) {
        WalRecordStep::Torn(CodecError::BadMagic) => {}
        other => panic!("bad magic: {other:?}"),
    }
    // Flipped payload byte: chained digest breaks.
    let mut bad = record.clone();
    bad[WAL_RECORD_HEADER + 2] ^= 0x10;
    match parse_wal_record(&bad, base_digest) {
        WalRecordStep::Torn(CodecError::DigestMismatch { .. }) => {}
        other => panic!("flipped byte: {other:?}"),
    }
    // Wrong chain seed (stale base / reordered log).
    match parse_wal_record(&record, base_digest ^ 1) {
        WalRecordStep::Torn(CodecError::DigestMismatch { .. }) => {}
        other => panic!("wrong chain: {other:?}"),
    }
    // The intact record in its right position still parses.
    match parse_wal_record(&record, base_digest) {
        WalRecordStep::Record {
            seq: 1, payload, ..
        } => assert_eq!(payload, b"delta payload"),
        other => panic!("intact record: {other:?}"),
    }
}

#[test]
fn error_values_round_trip_through_clone_and_eq() {
    let all = [
        CodecError::UnexpectedEof,
        CodecError::BadMagic,
        CodecError::BadVersion(3),
        CodecError::DigestMismatch {
            computed: 10,
            stored: 20,
        },
        CodecError::Invalid("x"),
        CodecError::Unsupported("y"),
    ];
    for e in &all {
        assert_eq!(e, &e.clone());
        // Distinct variants never compare equal.
        assert_eq!(all.iter().filter(|o| *o == e).count(), 1);
    }
}
