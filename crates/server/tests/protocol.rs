//! Protocol conformance: every frame type round-trips through the payload
//! codec and the framed wire stream, and every malformed input — truncated,
//! oversized, bit-flipped, reordered, or plain garbage — decodes to a typed
//! error without panicking or over-allocating. A protocol-v2 peer (FNV-1a
//! frame digests) is refused with a typed error that leaves other tenants
//! untouched.

use std::io::{Cursor, Write};
use std::net::TcpStream;

use proptest::prelude::*;

use parapage::cache::{digest64, fnv1a64_seeded, CodecError, PageId, PageRun};
use parapage::sched::workload_fingerprint;
use parapage_server::protocol::{
    c2s_chain_seed, error_code, frame_wire, parse_wire, s2c_chain_seed, Frame, Request,
    ServerStats, TenantConfig, WireError, WireState, MAX_FRAME, WIRE_MAGIC,
};
use parapage_server::server::{serve, ServeOpts};
use parapage_server::Client;

fn sample_config() -> TenantConfig {
    TenantConfig {
        tenant: "tenant-a".into(),
        p: 4,
        k: 64,
        s: 16,
        policy: "det-par".into(),
        seed: 42,
        shards: 4,
    }
}

/// One instance of every frame variant the protocol defines.
fn all_frames() -> Vec<Frame> {
    vec![
        Frame::Hello {
            proto: 1,
            config: sample_config(),
        },
        Frame::HelloAck {
            session: 7,
            max_frame: MAX_FRAME as u64,
            budget_left: 1_000_000,
            next_batch: 5,
            reply_chain: 0xc0ff_ee00_dead_beef,
        },
        Frame::Batch {
            batch: 3,
            seqs: vec![
                vec![PageId(1), PageId(2), PageId(3)],
                vec![],
                vec![PageId(9)],
            ],
        },
        Frame::BatchDone {
            batch: 3,
            makespan: 512,
            hits: 100,
            misses: 28,
            grants: 12,
            digest: 0xdead_beef,
            chain: 0xfeed_face,
        },
        Frame::Migrate {
            batch: 1,
            at_tick: 9,
        },
        Frame::MigrateAck { pending: 1 },
        Frame::Kill {
            batch: 2,
            at_tick: 10,
        },
        Frame::KillAck { pending: 2 },
        Frame::Stats,
        Frame::StatsReply {
            stats: ServerStats {
                tenants: 3,
                batches: 12,
                requests: 4800,
                restarts: 1,
                migrations: 2,
                wal_records: 40,
                checkpoint_bytes: 65536,
                expiries: 2,
                shed: 5,
            },
        },
        Frame::Goodbye,
        Frame::GoodbyeAck,
        Frame::Shutdown,
        Frame::ShutdownAck,
        Frame::Error {
            code: 5,
            message: "malformed frame".into(),
        },
        Frame::Busy { retry_after_ms: 25 },
        Frame::Replay { batch: 4 },
    ]
}

#[test]
fn every_frame_round_trips_through_the_payload_codec() {
    for frame in all_frames() {
        let payload = frame.encode_payload();
        let back = Frame::decode_payload(&payload)
            .unwrap_or_else(|e| panic!("decode of {frame:?} failed: {e}"));
        assert_eq!(back, frame);
    }
}

#[test]
fn every_frame_round_trips_through_the_framed_stream() {
    // Write all frames in one direction, read them back: sequence numbers
    // and digest chains must line up end to end.
    let mut tx = WireState::new(c2s_chain_seed());
    let mut buf = Vec::new();
    let frames = all_frames();
    for frame in &frames {
        tx.write_frame(&mut buf, frame).expect("write");
    }
    let mut rx = WireState::new(c2s_chain_seed());
    let mut cursor = Cursor::new(buf);
    for frame in &frames {
        let got = rx.read_frame(&mut cursor).expect("read");
        assert_eq!(&got, frame);
    }
    // The stream then ends cleanly at a frame boundary.
    assert!(matches!(rx.read_frame(&mut cursor), Err(WireError::Closed)));
}

/// `digest64` of the wire bytes of [`all_frames`] followed by a `Batch`
/// whose pages use all 64 bits, written in order on one client→server
/// stream. Re-pinned when protocol v4 replaced the `Batch` body's 8 bytes
/// per page by page runs (v3's value was `0x52bd_dd7e_07de_09e1`); the
/// layout itself is pinned byte for byte in `batch_codec.rs`. A change
/// here means protocol v4's bytes moved.
const WIRE_GOLDEN: u64 = 0x8016_b6b3_c93b_e65e;

#[test]
fn wire_bytes_of_every_frame_type_match_the_v4_golden_digest() {
    let mut frames = all_frames();
    frames.push(Frame::Batch {
        batch: u64::MAX,
        seqs: vec![
            vec![PageId(u64::MAX), PageId(0x0123_4567_89ab_cdef), PageId(0)],
            vec![],
            vec![PageId(1 << 63)],
        ],
    });
    let mut tx = WireState::new(c2s_chain_seed());
    let mut buf = Vec::new();
    for frame in &frames {
        tx.write_frame(&mut buf, frame).expect("write");
    }
    assert_eq!(digest64(&buf), WIRE_GOLDEN, "{:#x}", digest64(&buf));
}

#[test]
fn directions_are_chain_separated() {
    // A server reply stream cannot be read with the client-direction
    // chain seed: the very first digest check fails.
    let mut tx = WireState::new(s2c_chain_seed());
    let mut buf = Vec::new();
    tx.write_frame(&mut buf, &Frame::GoodbyeAck).expect("write");
    let mut rx = WireState::new(c2s_chain_seed());
    assert!(matches!(
        rx.read_frame(&mut Cursor::new(buf)),
        Err(WireError::Codec(CodecError::DigestMismatch { .. }))
    ));
}

#[test]
fn replayed_and_reordered_frames_break_the_chain() {
    let mut tx = WireState::new(c2s_chain_seed());
    let mut first = Vec::new();
    tx.write_frame(&mut first, &Frame::Stats).expect("write");
    let mut second = Vec::new();
    tx.write_frame(&mut second, &Frame::Goodbye).expect("write");

    // Replay: the same frame twice fails the second read (seq + chain).
    let mut replay = first.clone();
    replay.extend_from_slice(&first);
    let mut rx = WireState::new(c2s_chain_seed());
    let mut cursor = Cursor::new(replay);
    rx.read_frame(&mut cursor).expect("first copy is valid");
    assert!(matches!(
        rx.read_frame(&mut cursor),
        Err(WireError::Codec(_))
    ));

    // Reorder: the second frame first fails immediately.
    let mut reordered = second;
    reordered.extend_from_slice(&first);
    let mut rx = WireState::new(c2s_chain_seed());
    assert!(matches!(
        rx.read_frame(&mut Cursor::new(reordered)),
        Err(WireError::Codec(_))
    ));
}

#[test]
fn truncation_at_every_boundary_is_a_typed_error() {
    let payload = Frame::Hello {
        proto: 1,
        config: sample_config(),
    }
    .encode_payload();
    let (bytes, _) = frame_wire(0, c2s_chain_seed(), &payload);
    for cut in 0..bytes.len() {
        let err = parse_wire(&bytes[..cut], c2s_chain_seed(), 0)
            .expect_err("truncated frame must not parse");
        assert!(
            matches!(err, CodecError::UnexpectedEof),
            "cut at {cut}: {err}"
        );
    }
    // The untruncated frame parses.
    assert!(parse_wire(&bytes, c2s_chain_seed(), 0).is_ok());
}

#[test]
fn oversized_declared_length_is_rejected_before_allocation() {
    // A header declaring a payload beyond MAX_FRAME must be rejected from
    // the 16 header bytes alone — parse_wire never sees (or reserves) the
    // phantom gigabytes.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&WIRE_MAGIC);
    bytes.extend_from_slice(&0u64.to_le_bytes());
    bytes.extend_from_slice(&u32::MAX.to_le_bytes());
    let err = parse_wire(&bytes, c2s_chain_seed(), 0).expect_err("oversized");
    assert!(matches!(err, CodecError::Invalid(_)), "{err}");

    // Same on the streaming read path.
    let mut rx = WireState::new(c2s_chain_seed());
    let err = rx
        .read_frame(&mut Cursor::new(bytes))
        .expect_err("oversized");
    assert!(
        matches!(err, WireError::Codec(CodecError::Invalid(_))),
        "{err}"
    );
}

#[test]
fn hostile_page_count_is_rejected_before_allocation() {
    // A Batch payload declaring 2^40 pages in 10 actual bytes: the decoder
    // must bound the count by the bytes present before reserving.
    use parapage::cache::SnapWriter;
    let mut w = SnapWriter::new();
    w.put_u8(3); // BATCH tag
    w.put_u64(0); // batch
    w.put_len(1); // one sequence
    w.put_len((1u64 << 40) as usize); // claiming 2^40 pages
    let err = Frame::decode_payload(&w.into_bytes()).expect_err("hostile count");
    assert!(matches!(err, CodecError::Invalid(_)), "{err}");
}

#[test]
fn hostile_sequence_count_is_rejected_before_allocation() {
    // A Batch payload declaring as many sequences as there are bytes left:
    // get_len accepts the count, but every sequence carries an 8-byte
    // length, so the decoder must refuse it before reserving 24 bytes of
    // `Vec` header per declared sequence.
    use parapage::cache::SnapWriter;
    let body = 800;
    let mut w = SnapWriter::new();
    w.put_u8(3); // BATCH tag
    w.put_u64(0); // batch
    w.put_len(body); // one "sequence" per remaining byte
    w.put_raw(&vec![0u8; body]);
    let err = Frame::decode_payload(&w.into_bytes()).expect_err("hostile count");
    assert!(matches!(err, CodecError::Invalid(_)), "{err}");

    // The bound is exact: that many bytes do hold body / 8 empty sequences.
    let mut w = SnapWriter::new();
    w.put_u8(3);
    w.put_u64(0);
    w.put_len(body / 8);
    w.put_raw(&vec![0u8; body]);
    assert_eq!(
        Frame::decode_payload(&w.into_bytes()).expect("empty sequences"),
        Frame::Batch {
            batch: 0,
            seqs: vec![Vec::new(); body / 8],
        }
    );
}

#[test]
fn unknown_tag_and_trailing_bytes_are_rejected() {
    assert!(matches!(
        Frame::decode_payload(&[200]),
        Err(CodecError::Invalid(_))
    ));
    let mut payload = Frame::Stats.encode_payload();
    payload.push(0);
    assert!(matches!(
        Frame::decode_payload(&payload),
        Err(CodecError::Invalid(_))
    ));
    assert!(matches!(
        Frame::decode_payload(&[]),
        Err(CodecError::UnexpectedEof)
    ));
}

#[test]
fn wrong_magic_is_rejected() {
    let payload = Frame::Stats.encode_payload();
    let (mut bytes, _) = frame_wire(0, c2s_chain_seed(), &payload);
    bytes[0] ^= 0xff;
    assert!(matches!(
        parse_wire(&bytes, c2s_chain_seed(), 0),
        Err(CodecError::BadMagic)
    ));
}

#[test]
fn clean_eof_is_closed_but_mid_frame_eof_is_not() {
    let mut rx = WireState::new(c2s_chain_seed());
    assert!(matches!(
        rx.read_frame(&mut Cursor::new(Vec::new())),
        Err(WireError::Closed)
    ));
    // One byte of a header is a broken peer, not a clean close.
    let mut rx = WireState::new(c2s_chain_seed());
    assert!(matches!(
        rx.read_frame(&mut Cursor::new(vec![b'p'])),
        Err(WireError::Codec(CodecError::UnexpectedEof))
    ));
}

/// Frames `payload` the way protocol v2 did: the v3 layout with the
/// byte-serial FNV-1a digest in the trailer.
fn frame_wire_v2(seq: u64, chain: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = WIRE_MAGIC.to_vec();
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    let digest = fnv1a64_seeded(chain, &out[4..]);
    out.extend_from_slice(&digest.to_le_bytes());
    out
}

#[test]
fn a_v2_framed_frame_is_a_typed_digest_mismatch() {
    let payload = Frame::Hello {
        proto: 2,
        config: sample_config(),
    }
    .encode_payload();
    let v2 = frame_wire_v2(0, c2s_chain_seed(), &payload);
    let (v3, _) = frame_wire(0, c2s_chain_seed(), &payload);
    // Same layout and length; only the trailer differs.
    assert_eq!(v2.len(), v3.len());
    assert_eq!(v2[..v2.len() - 8], v3[..v3.len() - 8]);
    assert!(matches!(
        parse_wire(&v2, c2s_chain_seed(), 0),
        Err(CodecError::DigestMismatch { .. })
    ));
}

fn live_config(tenant: &str) -> TenantConfig {
    TenantConfig {
        tenant: tenant.into(),
        ..sample_config()
    }
}

fn live_batch(batch: u64) -> Frame {
    Frame::Batch {
        batch,
        seqs: (0..4u64)
            .map(|x| (0..200u64).map(|i| PageId((x * 31 + i * 7) % 90)).collect())
            .collect(),
    }
}

/// One tenant runs two batches on a live server; with `intruder`, a v2
/// client sends its `Hello` in between. Returns the tenant's replies and
/// the server's final tenant count.
fn serve_beside_a_v2_client(intruder: bool) -> (Vec<Frame>, u64) {
    let handle = serve("127.0.0.1:0", ServeOpts::default()).expect("bind");
    let addr = handle.addr();
    let mut beta = Client::connect(addr).expect("connect");
    assert!(matches!(
        beta.hello(live_config("beta")).expect("hello"),
        Frame::HelloAck { .. }
    ));
    let mut replies = vec![beta.call(&live_batch(0)).expect("batch 0")];
    if intruder {
        let hello = Frame::Hello {
            proto: 2,
            config: live_config("old-client"),
        }
        .encode_payload();
        let mut raw = TcpStream::connect(addr).expect("connect v2");
        raw.write_all(&frame_wire_v2(0, c2s_chain_seed(), &hello))
            .expect("send v2 hello");
        let mut rx = WireState::new(s2c_chain_seed());
        match rx.read_frame(&mut raw) {
            Ok(Frame::Error { code, message }) => {
                assert_eq!(code, error_code::BAD_FRAME, "{message}");
                assert!(message.contains("digest mismatch"), "{message}");
            }
            other => panic!("v2 hello: expected a typed error, got {other:?}"),
        }
        // The receive chain is broken, so the server closes the connection.
        assert!(rx.read_frame(&mut raw).is_err());
    }
    replies.push(beta.call(&live_batch(1)).expect("batch 1"));
    let tenants = match beta.call(&Frame::Stats).expect("stats") {
        Frame::StatsReply { stats } => stats.tenants,
        other => panic!("stats reply: {other:?}"),
    };
    assert_eq!(
        beta.call(&Frame::Shutdown).expect("shutdown"),
        Frame::ShutdownAck
    );
    handle.join();
    (replies, tenants)
}

#[test]
fn a_live_server_refuses_a_v2_hello_and_other_tenants_are_untouched() {
    let clean = serve_beside_a_v2_client(false);
    let intruded = serve_beside_a_v2_client(true);
    assert!(clean.0.iter().all(|r| matches!(r, Frame::BatchDone { .. })));
    // Byte-identical replies, and the v2 client was never admitted.
    assert_eq!(intruded, clean);
    assert_eq!(clean.1, 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary garbage never panics the payload decoder and never
    /// round-trips by accident into a different encoding.
    #[test]
    fn garbage_payloads_decode_to_typed_errors_or_canonical_frames(
        bytes in prop::collection::vec(any::<u8>(), 0..256)
    ) {
        // A canonical decode must re-encode to exactly the input (the
        // codec is a bijection on its valid domain); a typed error is
        // the only other acceptable outcome.
        if let Ok(frame) = Frame::decode_payload(&bytes) {
            prop_assert_eq!(frame.encode_payload(), bytes);
        }
    }

    /// The server's decoder, which keeps a batch as page runs, accepts
    /// exactly the payloads `Frame::decode_payload` accepts, with the same
    /// errors, and its runs hold the frame's pages. A `Frame::Batch`
    /// converts into the very runs its wire form decodes to, so a server
    /// handed frames (the explorer, the lifecycle tests) serves what a
    /// connection does.
    #[test]
    fn requests_decode_as_frames_do(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
        batch in any::<u64>(),
        seqs in prop::collection::vec(
            prop::collection::vec(any::<u64>().prop_map(PageId), 0..20),
            0..6,
        ),
    ) {
        let frame = Frame::Batch { batch, seqs };
        let valid = frame.encode_payload();
        prop_assert_eq!(Ok(Request::from(frame)), Request::decode_payload(&valid));
        let mut cut = valid.clone();
        cut.truncate(bytes.len() % (valid.len() + 1));
        for payload in [bytes, valid, cut] {
            let expanded = Request::decode_payload(&payload).map(|r| match r {
                Request::Batch { batch, seqs } => Frame::Batch {
                    batch,
                    seqs: seqs.iter().map(PageRun::to_pages).collect(),
                },
                Request::Frame(frame) => frame,
            });
            prop_assert_eq!(expanded, Frame::decode_payload(&payload));
        }
    }

    /// Any single bit flip anywhere in a framed message is caught.
    #[test]
    fn single_bit_flips_never_pass_verification(
        batch in 0u64..1000,
        seq_pages in prop::collection::vec(0u64..512, 0..40),
        flip_byte in 0usize..200,
        flip_bit in 0u8..8,
    ) {
        let frame = Frame::Batch {
            batch,
            seqs: vec![seq_pages.into_iter().map(PageId).collect()],
        };
        let payload = frame.encode_payload();
        let (mut bytes, _) = frame_wire(0, c2s_chain_seed(), &payload);
        let idx = flip_byte % bytes.len();
        bytes[idx] ^= 1 << flip_bit;
        // Whatever was flipped — magic, seq, length, payload, digest —
        // the parse must fail with a typed error, never a panic.
        prop_assert!(parse_wire(&bytes, c2s_chain_seed(), 0).is_err());
    }

    /// Random Batch frames round-trip exactly through payload and wire.
    #[test]
    fn random_batches_round_trip(
        batch in any::<u64>(),
        seqs in prop::collection::vec(
            prop::collection::vec(any::<u64>().prop_map(PageId), 0..20),
            0..6,
        ),
    ) {
        let frame = Frame::Batch { batch, seqs };
        prop_assert_eq!(
            Frame::decode_payload(&frame.encode_payload()).unwrap(),
            frame.clone()
        );
        let mut tx = WireState::new(s2c_chain_seed());
        let mut buf = Vec::new();
        tx.write_frame(&mut buf, &frame).unwrap();
        let mut rx = WireState::new(s2c_chain_seed());
        prop_assert_eq!(rx.read_frame(&mut Cursor::new(buf)).unwrap(), frame);
    }

    /// The borrowed batch send writes exactly the bytes and chain of the
    /// owned frame: empty batches, empty sequences, and pages using all 64
    /// bits, over a few frames of one stream.
    #[test]
    fn borrowed_batch_send_equals_the_owned_frame(
        batches in prop::collection::vec(
            (
                any::<u64>(),
                prop::collection::vec(
                    prop::collection::vec(any::<u64>().prop_map(PageId), 0..12),
                    0..5,
                ),
            ),
            1..4,
        ),
    ) {
        let (mut owned_tx, mut borrowed_tx) =
            (WireState::new(c2s_chain_seed()), WireState::new(c2s_chain_seed()));
        let (mut owned, mut borrowed) = (Vec::new(), Vec::new());
        for (batch, seqs) in batches {
            borrowed_tx.write_batch(&mut borrowed, batch, &seqs).unwrap();
            owned_tx.write_frame(&mut owned, &Frame::Batch { batch, seqs }).unwrap();
            prop_assert_eq!(&borrowed, &owned);
        }
        // Equal chains: one more frame from each state still agrees.
        owned_tx.write_frame(&mut owned, &Frame::Stats).unwrap();
        borrowed_tx.write_frame(&mut borrowed, &Frame::Stats).unwrap();
        prop_assert_eq!(borrowed, owned);
    }

    /// The workload fingerprint is the bulk digest of the v3 layout of a
    /// `Batch` body, built here word by word: the sequence count, then
    /// each sequence's length and its pages, 8 bytes each. The v4 wire
    /// body is smaller and no longer equals it, so this pins the
    /// fingerprint on its own.
    #[test]
    fn workload_fingerprint_is_the_digest_of_the_batch_body(
        seqs in prop::collection::vec(
            prop::collection::vec(any::<u64>().prop_map(PageId), 0..40),
            0..6,
        ),
    ) {
        use parapage::cache::SnapWriter;
        let mut v3 = SnapWriter::new();
        v3.put_len(seqs.len());
        for seq in &seqs {
            v3.put_len(seq.len());
            seq.iter().for_each(|&pg| v3.put_page(pg));
        }
        prop_assert_eq!(workload_fingerprint(&seqs), digest64(v3.bytes()));
    }

    /// Random Error frames (arbitrary code and UTF-8 message) round-trip.
    #[test]
    fn random_errors_round_trip(code in any::<u16>(), message in ".{0,80}") {
        let frame = Frame::Error { code, message };
        prop_assert_eq!(
            Frame::decode_payload(&frame.encode_payload()).unwrap(),
            frame
        );
    }

    /// Truncating a framed stream at any point yields a typed error from
    /// the streaming reader too (never a panic, never Closed mid-frame).
    #[test]
    fn stream_truncation_is_typed(cut_frac in 0.0f64..1.0) {
        let frame = Frame::Hello { proto: 1, config: sample_config() };
        let mut tx = WireState::new(c2s_chain_seed());
        let mut buf = Vec::new();
        tx.write_frame(&mut buf, &frame).unwrap();
        let cut = ((buf.len() as f64) * cut_frac) as usize;
        let mut rx = WireState::new(c2s_chain_seed());
        match rx.read_frame(&mut Cursor::new(buf[..cut].to_vec())) {
            Ok(_) => prop_assert!(false, "truncated frame parsed"),
            Err(WireError::Closed) => prop_assert!(cut == 0, "Closed mid-frame at {cut}"),
            // A Cursor never reports a read timeout, but the arm keeps
            // the match total over the typed error space.
            Err(WireError::Codec(_)) | Err(WireError::Io(_)) | Err(WireError::TimedOut { .. }) => {}
        }
    }
}
