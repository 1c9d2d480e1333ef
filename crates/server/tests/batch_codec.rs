//! The protocol v4 `Batch` body: each sequence a page run (length, then
//! width byte, base and narrow offsets). Its layout byte for byte, hostile
//! runs as typed errors that reserve nothing beyond the v3 ceiling, a v3
//! `Hello` refused, and the bytes a servebench-shaped batch costs on the
//! wire and in the server once decoded.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use parapage::cache::{CodecError, PageId, PageRun, SnapWriter};
use parapage::workloads::{build_workload, SeqSpec};
use parapage_server::protocol::{
    c2s_chain_seed, error_code, Frame, TenantConfig, MAX_BATCH_PAGES, MAX_FRAME, PROTO_VERSION,
};
use parapage_server::server::{serve, ServeOpts};
use parapage_server::{Client, Request, WireState};

/// The system allocator, with the calling thread's live bytes and their
/// peak kept per thread, so tests running side by side do not mix.
struct Counting;

thread_local! {
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every method forwards its arguments unchanged to `System` and
// returns what `System` returned; the counters only read sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller meets `alloc`'s contract, forwarded as is.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            let live = LIVE.with(|l| {
                l.set(l.get() + layout.size());
                l.get()
            });
            PEAK.with(|pk| pk.set(pk.get().max(live)));
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`, as the caller
        // guarantees.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.with(|l| l.set(l.get().saturating_sub(layout.size())));
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Bytes this thread has allocated and not freed.
fn live_bytes() -> usize {
    LIVE.with(Cell::get)
}

/// Runs `f` and returns its result with the most bytes it had allocated
/// at once on this thread beyond what was live when it started.
fn peak_of<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(base));
    let out = f();
    (out, PEAK.with(Cell::get) - base)
}

/// A `Batch` payload head: tag, batch number, sequence count.
fn head(nseqs: usize) -> SnapWriter {
    let mut w = SnapWriter::new();
    w.put_u8(3);
    w.put_u64(0);
    w.put_len(nseqs);
    w
}

/// One page run's head: length, width byte, base.
fn run_head(w: &mut SnapWriter, n: usize, width: u8, base: u64) {
    w.put_len(n);
    w.put_u8(width);
    w.put_u64(base);
}

#[test]
fn the_batch_body_is_page_runs_byte_for_byte() {
    let seqs = vec![
        vec![PageId(0x1_0005), PageId(0x1_0002), PageId(0x1_0102)],
        vec![],
        vec![PageId(u64::MAX), PageId(0)],
        vec![PageId(7)],
    ];
    let mut want = head(4);
    // Span 0x100: width 2, base 0x1_0002, offsets 3, 0, 0x100.
    run_head(&mut want, 3, 2, 0x1_0002);
    want.put_raw(&[3, 0, 0, 0, 0, 1]);
    // Empty: its length alone.
    want.put_len(0);
    // The full 64-bit span: width 8 from base 0.
    run_head(&mut want, 2, 8, 0);
    want.put_u64(u64::MAX);
    want.put_u64(0);
    // One page: width 1, offset 0.
    run_head(&mut want, 1, 1, 7);
    want.put_u8(0);
    let frame = Frame::Batch { batch: 0, seqs };
    assert_eq!(frame.encode_payload(), want.into_bytes());
}

/// Each hostile run is a typed error, never a panic, and the decode
/// reserves no more than the frame's few bytes warrant.
#[test]
fn hostile_page_runs_are_typed_errors_that_reserve_nothing() {
    let mut cases: Vec<(&str, Vec<u8>, &str)> = Vec::new();
    let mut w = head(1);
    run_head(&mut w, 2, 3, 0);
    w.put_raw(&[0; 6]);
    cases.push(("width 3", w.into_bytes(), "page run width not 1, 2, 4 or 8"));
    let mut w = head(1);
    run_head(&mut w, usize::MAX / 4, 8, 0);
    w.put_raw(&[0; 64]);
    cases.push((
        "a length past the ceiling whose product with the width overflows",
        w.into_bytes(),
        "page run exceeds the page ceiling",
    ));
    let mut w = head(1);
    run_head(&mut w, 1 << 18, 8, 0);
    w.put_raw(&[0; 64]);
    cases.push((
        "offsets beyond the payload",
        w.into_bytes(),
        "page run length exceeds payload",
    ));
    let mut w = head(1);
    run_head(&mut w, MAX_BATCH_PAGES + 1, 1, 0);
    cases.push((
        "a page total over the ceiling",
        w.into_bytes(),
        "page run exceeds the page ceiling",
    ));
    let mut w = head(1);
    run_head(&mut w, 4, 2, 0);
    w.put_raw(&[1, 0, 0, 0, 2]);
    cases.push((
        "truncated offsets",
        w.into_bytes(),
        "page run length exceeds payload",
    ));
    let mut w = head(1);
    run_head(&mut w, 2, 1, 5);
    w.put_raw(&[1, 2]);
    cases.push((
        "a base below the smallest page",
        w.into_bytes(),
        "page run not in canonical form",
    ));
    let mut w = head(1);
    run_head(&mut w, 2, 2, 5);
    w.put_raw(&[0, 0, 9, 0]);
    cases.push((
        "a width wider than the span needs",
        w.into_bytes(),
        "page run not in canonical form",
    ));
    let mut w = head(1);
    run_head(&mut w, 2, 1, u64::MAX);
    w.put_raw(&[0, 1]);
    cases.push((
        "pages past u64::MAX",
        w.into_bytes(),
        "page run overflows u64",
    ));
    let mut w = head(1);
    run_head(&mut w, 1, 1, 0);
    cases.push((
        "a run cut after its base",
        w.into_bytes(),
        "page run length exceeds payload",
    ));
    for (what, payload, why) in cases {
        let (got, peak) = peak_of(|| Frame::decode_payload(&payload));
        assert_eq!(got, Err(CodecError::Invalid(why)), "{what}");
        assert!(peak <= 64, "{what}: the decode reserved {peak} bytes");
    }
}

/// The running page total is v3's ceiling: a batch at exactly
/// `MAX_BATCH_PAGES` pages decodes reserving no more than its 8 bytes per
/// page, what v3 reserved for as many pages, and one page more, split
/// over two runs so the first is decoded before the second is refused,
/// is a typed error on both ends.
#[test]
fn the_page_ceiling_per_frame_is_v3s() {
    let ceiling = (MAX_FRAME - 17) / 8;
    assert_eq!(MAX_BATCH_PAGES, ceiling);
    let first = MAX_BATCH_PAGES / 2;
    let run = |n: usize| vec![PageId(1 << 48); n];
    let full = vec![run(first), run(MAX_BATCH_PAGES - first)];
    let payload = Frame::Batch {
        batch: 0,
        seqs: full.clone(),
    }
    .encode_payload();
    assert!(payload.len() < MAX_FRAME / 4, "width 1: {}", payload.len());
    let (got, peak) = peak_of(|| Frame::decode_payload(&payload));
    assert!(matches!(got, Ok(Frame::Batch { ref seqs, .. }) if *seqs == full));
    drop(got);
    assert!(peak <= 8 * MAX_BATCH_PAGES + 64, "{peak} bytes");

    let over = vec![run(first), run(MAX_BATCH_PAGES - first + 1)];
    let payload = Frame::Batch {
        batch: 0,
        seqs: over.clone(),
    }
    .encode_payload();
    let (got, peak) = peak_of(|| Frame::decode_payload(&payload));
    assert_eq!(
        got,
        Err(CodecError::Invalid("page run exceeds the page ceiling"))
    );
    assert!(peak <= 8 * first + 64, "{peak} bytes");
    let err = WireState::new(c2s_chain_seed())
        .write_batch(&mut Vec::new(), 0, &over)
        .expect_err("over the ceiling");
    assert!(err.to_string().contains("MAX_BATCH_PAGES"), "{err}");
}

#[test]
fn a_v3_hello_is_refused_with_bad_version() {
    let handle = serve("127.0.0.1:0", ServeOpts::default()).expect("bind");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let config = TenantConfig {
        tenant: "v3".into(),
        p: 2,
        k: 16,
        s: 4,
        policy: "det-par".into(),
        seed: 1,
        shards: 2,
    };
    assert_eq!(PROTO_VERSION, 4);
    let reply = client
        .call(&Frame::Hello { proto: 3, config })
        .expect("call");
    assert!(
        matches!(
            reply,
            Frame::Error {
                code: error_code::BAD_VERSION,
                ..
            }
        ),
        "{reply:?}"
    );
    let _ = client.call(&Frame::Shutdown);
    handle.join();
}

/// One `Batch` frame in the shape of each servebench workload named, as
/// its request sequences and its wire bytes: per processor a cyclic, zipf
/// or uniform sequence over the working set that workload sizes from `k`
/// and its scale.
fn batch_frame(p: usize, k: usize, scale: usize, len: usize) -> (Vec<Vec<PageId>>, Vec<u8>) {
    let specs: Vec<SeqSpec> = (0..p)
        .map(|x| match x % 3 {
            0 => SeqSpec::Cyclic {
                width: (k / 8).max(2) * scale,
                len,
            },
            1 => SeqSpec::Zipf {
                universe: (k / 2).max(4) * scale,
                theta: 0.9,
                len,
            },
            _ => SeqSpec::Uniform {
                universe: (2 * k / p).max(2) * scale,
                len,
            },
        })
        .collect();
    let seqs = build_workload(&specs, 42).seqs().to_vec();
    let mut bytes = Vec::new();
    let mut tx = WireState::new(c2s_chain_seed());
    tx.write_batch(&mut bytes, 0, &seqs).expect("write");
    (seqs, bytes)
}

fn wire_bytes(p: usize, k: usize, scale: usize, len: usize) -> usize {
    batch_frame(p, k, scale, len).1.len()
}

/// Request bytes per batch of the three bulk shapes, against protocol
/// v3's 40 073, 64 169 and 32 105 bytes for the same batches.
#[test]
fn request_bytes_per_batch_of_the_servebench_shapes_are_pinned() {
    // bulk-fit: 4 x 1250 over working sets that fit k = 64, width 1.
    assert_eq!(wire_bytes(4, 64, 1, 1250), 5_109);
    // thrash-randpar: 16 x 500, working sets 4x k = 256; the zipf
    // sequences span 512 pages, width 2.
    assert_eq!(wire_bytes(16, 256, 4, 500), 10_813);
    // monitor-ucp: 8 x 500, working sets 2x k = 128, width 1.
    assert_eq!(wire_bytes(8, 128, 2, 500), 4_177);
}

/// What the server holds of a request is about what the wire carried: a
/// batch read with `read_request` keeps each sequence as its page run, so
/// the three bulk shapes hold at most their wire bytes plus 64 bytes per
/// processor once the frame buffer is freed. Expanded into 8-byte pages
/// they would hold 40 000, 64 000 and 32 000 bytes.
#[test]
fn the_server_holds_a_request_in_about_its_wire_bytes() {
    for (what, p, k, scale, len) in [
        ("bulk-fit", 4, 64, 1, 1250),
        ("thrash-randpar", 16, 256, 4, 500),
        ("monitor-ucp", 8, 128, 2, 500),
    ] {
        let (seqs, bytes) = batch_frame(p, k, scale, len);
        let mut rx = WireState::new(c2s_chain_seed());
        let before = live_bytes();
        let request = rx.read_request(&mut bytes.as_slice()).expect("read");
        let held = live_bytes() - before;
        let bound = bytes.len() + 64 * p;
        assert!(held <= bound, "{what}: {held} bytes held, bound {bound}");
        assert!(8 * p * len > bound, "{what}: the bound does not tell");
        let Request::Batch { seqs: runs, .. } = request else {
            panic!("{what}: not a batch");
        };
        let expanded: Vec<Vec<PageId>> = runs.iter().map(PageRun::to_pages).collect();
        assert_eq!(expanded, seqs, "{what}");
    }
}
