//! Checkpoint/restore substrate: a compact hand-rolled byte codec and the
//! [`Checkpoint`] trait every cache (and, one crate up, every policy)
//! implements so an engine run can be frozen and resumed byte-for-byte.
//!
//! The workspace builds offline with no serde; the codec here is the whole
//! wire format. A framed blob is
//!
//! ```text
//! MAGIC(4) | version u16 | payload … | digest64(payload) u64
//! ```
//!
//! with every multi-byte integer little-endian. Decoding validates the
//! magic, the version, and the [`digest64`] integrity digest before handing a
//! single payload byte to the caller, so a corrupted or truncated snapshot
//! is rejected with a typed [`CodecError`] — never a panic.
//!
//! Determinism contract: `save` must write a canonical byte sequence (sort
//! hash-map contents by key before writing) so that two states that compare
//! equal encode identically. The engine's resume-equivalence checker relies
//! on this.

use std::collections::HashSet;

use crate::run::{offset_width, read_le, run_shape, Offset, PageRun};
use crate::types::PageId;

/// Leading magic of a framed snapshot blob (`b"ppsn"`).
pub const SNAP_MAGIC: [u8; 4] = *b"ppsn";

/// Current wire-format version of framed snapshot blobs.
pub const SNAP_VERSION: u16 = 1;

/// Why a blob could not be decoded. Every variant is a *typed* rejection:
/// corrupted input surfaces as an `Err`, never a panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The reader ran out of bytes mid-field.
    UnexpectedEof,
    /// The blob does not start with [`SNAP_MAGIC`].
    BadMagic,
    /// The blob's version tag is not [`SNAP_VERSION`].
    BadVersion(u16),
    /// The integrity digest over the payload does not match the trailer:
    /// the blob was corrupted in storage or transit.
    DigestMismatch {
        /// Digest recomputed over the received payload.
        computed: u64,
        /// Digest stored in the blob's trailer.
        stored: u64,
    },
    /// A decoded value is structurally impossible (e.g. a length that
    /// exceeds the remaining bytes, or an inconsistent list).
    Invalid(&'static str),
    /// The component (policy) does not support checkpointing.
    Unsupported(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::UnexpectedEof => write!(f, "snapshot truncated: unexpected end of input"),
            CodecError::BadMagic => write!(f, "not a snapshot blob (bad magic)"),
            CodecError::BadVersion(v) => {
                write!(f, "unsupported snapshot version {v} (expected {SNAP_VERSION})")
            }
            CodecError::DigestMismatch { computed, stored } => write!(
                f,
                "snapshot integrity digest mismatch (computed {computed:#018x}, stored {stored:#018x})"
            ),
            CodecError::Invalid(what) => write!(f, "snapshot field invalid: {what}"),
            CodecError::Unsupported(who) => {
                write!(f, "policy `{who}` does not support checkpointing")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// FNV-1a 64-bit hash over `bytes`. The bulk integrity paths use
/// [`digest64`]; FNV stays where its values are pinned or drive behaviour
/// (reply chains, shard routing, fault decisions, chain-seed constants).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_seeded(FNV_BASIS, bytes)
}

/// The FNV-1a 64-bit offset basis, [`fnv1a64`]'s starting state.
pub(crate) const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit hash continued from an arbitrary `seed` state.
///
/// Seeding with an intermediate result continues the stream, and seeding
/// with the standard offset basis reduces to plain [`fnv1a64`].
pub fn fnv1a64_seeded(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Seed of the unseeded [`digest64`].
pub const DIGEST_BASIS: u64 = 0x243f_6a88_85a3_08d3;

/// Odd multipliers of the digest's word step (odd, so multiplying by them
/// is a bijection of `u64`).
const DIGEST_K1: u64 = 0x9e37_79b9_7f4a_7c15;
const DIGEST_K2: u64 = 0xbf58_476d_1ce4_e5b9;

/// Per-lane offsets of the seed, so the four lanes start apart.
const DIGEST_LANES: [u64; 4] = [
    0,
    0x94d0_49bb_1331_11eb,
    0x2545_f491_4f6c_dd1d,
    0xd6e8_feb8_6659_fd93,
];

/// One word step of [`digest64_seeded`]: `x = (h ^ w) * K1; x ^= x >> 32;
/// x * K2`. For a fixed `w` it is a bijection of `h` (and for a fixed `h`
/// of `w`), so a changed word always changes the lane it lands in.
#[inline(always)]
fn absorb(h: u64, w: u64) -> u64 {
    let x = (h ^ w).wrapping_mul(DIGEST_K1);
    (x ^ (x >> 32)).wrapping_mul(DIGEST_K2)
}

/// Absorbs one 32-byte stride: word `l` into lane `l`.
#[inline(always)]
fn absorb_stride(lanes: &mut [u64; 4], words: [u64; 4]) {
    for (lane, w) in lanes.iter_mut().zip(words) {
        *lane = absorb(*lane, w);
    }
}

#[inline(always)]
fn le_word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().unwrap())
}

/// The bulk integrity digest: a word-at-a-time hash of `bytes` with the
/// standard seed [`DIGEST_BASIS`]. See [`digest64_seeded`].
pub fn digest64(bytes: &[u8]) -> u64 {
    digest64_seeded(DIGEST_BASIS, bytes)
}

/// The bulk integrity digest of `bytes`, started from `seed`.
///
/// The bytes are read as little-endian 8-byte words; word `i` goes into
/// lane `i % 4`, so the four lanes' multiply chains run side by side over
/// each 32-byte stride. A final partial word is zero-padded into the next
/// lane. The lanes are then folded with the same step, the total length
/// is folded in, and a last xorshift spreads the high bits down. Every
/// step is a bijection of the state it updates, so corrupting any single
/// word (any run of flipped bits within 8 aligned bytes) always changes
/// the digest; wider corruption goes unnoticed only through a 64-bit
/// collision.
///
/// This is the digest of every bulk byte path — snapshot trailers, WAL
/// records, wire frames and the workload fingerprint — where it runs over
/// ten times faster than the byte-serial [`fnv1a64_seeded`] on buffers of
/// a few KiB and up. Chained framings pass the previous digest as `seed`.
/// Unlike FNV, seeding with an intermediate result does not continue a
/// stream.
pub fn digest64_seeded(seed: u64, bytes: &[u8]) -> u64 {
    let (mut d, tail) = WordDigest::with_words(seed, bytes);
    d.absorb_tail(tail);
    d.finish()
}

thread_local! {
    /// Bytes this thread has digested, for [`digested_bytes`].
    static DIGESTED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Bytes this thread has run through [`digest64_seeded`] and
/// [`WordDigest`] so far: a work meter. Every snapshot, WAL record and
/// progress mark is digested once, so tests count what a checkpointing
/// path encodes by differencing it around a run.
pub fn digested_bytes() -> u64 {
    DIGESTED.with(std::cell::Cell::get)
}

/// Streaming form of [`digest64_seeded`] over 8-byte words, for callers
/// whose bytes are a sequence of `u64`s they hold as integers (the
/// workload fingerprint feeds its `PageId`s straight in). Writing words
/// `w₀, w₁, …` and finishing equals [`digest64_seeded`] over their
/// little-endian bytes.
#[derive(Clone, Debug)]
pub struct WordDigest {
    lanes: [u64; 4],
    /// Words of a stride not yet complete; they land in lanes
    /// `0..npending` at [`WordDigest::finish`] if no stride completes.
    pending: [u64; 4],
    npending: usize,
    /// Bytes absorbed so far.
    len: u64,
}

impl WordDigest {
    /// A digest started from `seed`.
    pub fn new(seed: u64) -> Self {
        WordDigest {
            lanes: DIGEST_LANES.map(|off| seed ^ off),
            pending: [0; 4],
            npending: 0,
            len: 0,
        }
    }

    /// Absorbs every whole word of `bytes` into a fresh digest and returns
    /// it with the leftover partial word (fewer than 8 bytes).
    fn with_words(seed: u64, bytes: &[u8]) -> (Self, &[u8]) {
        let mut d = WordDigest::new(seed);
        let mut strides = bytes.chunks_exact(32);
        d.absorb_strides(strides.by_ref().map(|s| {
            [
                le_word(&s[..8]),
                le_word(&s[8..16]),
                le_word(&s[16..24]),
                le_word(&s[24..]),
            ]
        }));
        let mut words = strides.remainder().chunks_exact(8);
        for w in &mut words {
            d.write_u64(le_word(w));
        }
        (d, words.remainder())
    }

    /// Absorbs whole strides straight into the lanes. Only valid between
    /// strides (no pending words).
    #[inline(always)]
    fn absorb_strides(&mut self, strides: impl Iterator<Item = [u64; 4]>) {
        debug_assert_eq!(self.npending, 0);
        let mut lanes = self.lanes;
        let mut n = 0u64;
        for words in strides {
            absorb_stride(&mut lanes, words);
            n += 1;
        }
        self.lanes = lanes;
        self.len += 32 * n;
    }

    /// Zero-pads the final partial word into the next lane. Nothing may be
    /// written after it.
    fn absorb_tail(&mut self, tail: &[u8]) {
        if tail.is_empty() {
            return;
        }
        let mut word = [0u8; 8];
        word[..tail.len()].copy_from_slice(tail);
        self.pending[self.npending] = u64::from_le_bytes(word);
        self.npending += 1;
        self.len += tail.len() as u64;
    }

    /// Absorbs one word (its 8 little-endian bytes).
    #[inline]
    pub fn write_u64(&mut self, w: u64) {
        self.pending[self.npending] = w;
        self.npending += 1;
        self.len += 8;
        if self.npending == 4 {
            absorb_stride(&mut self.lanes, self.pending);
            self.npending = 0;
        }
    }

    /// Absorbs each page's id as one word.
    pub fn write_pages(&mut self, pages: &[PageId]) {
        self.write_mapped(pages, |p| p.0);
    }

    /// Absorbs `word(x)` for each `x` of `xs`, as [`WordDigest::write_u64`]
    /// of each would, in whole strides where it can.
    pub(crate) fn write_mapped<T: Copy>(&mut self, mut xs: &[T], word: impl Fn(T) -> u64) {
        // Complete the pending stride first, one word at a time.
        while self.npending != 0 {
            let Some((&x, rest)) = xs.split_first() else {
                return;
            };
            self.write_u64(word(x));
            xs = rest;
        }
        let mut strides = xs.chunks_exact(4);
        self.absorb_strides(
            strides
                .by_ref()
                .map(|s| [word(s[0]), word(s[1]), word(s[2]), word(s[3])]),
        );
        for &x in strides.remainder() {
            self.write_u64(word(x));
        }
    }

    /// The digest of everything written.
    pub fn finish(self) -> u64 {
        DIGESTED.with(|n| n.set(n.get() + self.len));
        let mut lanes = self.lanes;
        for (lane, &w) in lanes.iter_mut().zip(&self.pending[..self.npending]) {
            *lane = absorb(*lane, w);
        }
        let h = lanes[1..].iter().fold(lanes[0], |h, &lane| absorb(h, lane));
        let h = absorb(h, self.len);
        h ^ (h >> 32)
    }
}

/// Bytes of a chained frame before the payload: magic, sequence number,
/// payload length.
pub const CHAINED_HEADER: usize = 4 + 8 + 4;

/// Builds one chained frame in a single buffer and returns
/// `(bytes, digest)`; the WAL records and the server's wire frames are
/// both this format, told apart by their magic:
///
/// ```text
/// magic(4) | seq u64 | payload_len u32 | payload … | digest u64
/// ```
///
/// where `digest = digest64_seeded(chain, seq ‖ payload_len ‖ payload)`.
/// `encode` writes the payload behind the header (`payload_hint` bytes
/// are reserved up front). `chain` is the previous frame's digest (or the
/// stream's seed), so the returned digest seeds the next frame, and a
/// frame verifies only in the exact position it was written at.
///
/// # Panics
/// If the payload exceeds `u32::MAX` bytes.
pub fn frame_chained(
    magic: [u8; 4],
    seq: u64,
    chain: u64,
    payload_hint: usize,
    encode: impl FnOnce(&mut SnapWriter),
) -> (Vec<u8>, u64) {
    let mut w = SnapWriter::new();
    w.reserve(CHAINED_HEADER + payload_hint + 8);
    w.put_raw(&magic);
    w.put_u64(seq);
    w.put_u32(0); // payload length, patched below
    encode(&mut w);
    let mut out = w.into_bytes();
    let len = u32::try_from(out.len() - CHAINED_HEADER).expect("chained payload exceeds u32");
    out[12..CHAINED_HEADER].copy_from_slice(&len.to_le_bytes());
    let digest = digest64_seeded(chain, &out[4..]);
    out.extend_from_slice(&digest.to_le_bytes());
    (out, digest)
}

/// One chained frame parsed off the front of a buffer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChainedFrame<'a> {
    /// Sequence number stored in the header.
    pub seq: u64,
    /// The payload bytes.
    pub payload: &'a [u8],
    /// The frame's chained digest (= the next chain seed).
    pub digest: u64,
    /// Framed bytes consumed from the buffer.
    pub consumed: usize,
}

/// Parses one [`frame_chained`] frame off the front of `buf`, verifying
/// its magic and its chained digest against `chain`. `check` sees the
/// header's `(seq, payload_len)` before the length is trusted, so a caller
/// can refuse a hostile length or a sequence break from the header alone.
///
/// Never panics and never allocates: a short buffer is
/// [`CodecError::UnexpectedEof`], wrong leading bytes are
/// [`CodecError::BadMagic`], and a flipped byte or chain break is
/// [`CodecError::DigestMismatch`].
pub fn parse_chained(
    buf: &[u8],
    magic: [u8; 4],
    chain: u64,
    check: impl FnOnce(u64, usize) -> Result<(), CodecError>,
) -> Result<ChainedFrame<'_>, CodecError> {
    if buf.len() < CHAINED_HEADER {
        return Err(CodecError::UnexpectedEof);
    }
    if buf[..4] != magic {
        return Err(CodecError::BadMagic);
    }
    let seq = u64::from_le_bytes(buf[4..12].try_into().unwrap());
    let len = u32::from_le_bytes(buf[12..16].try_into().unwrap()) as usize;
    check(seq, len)?;
    let total = CHAINED_HEADER + len + 8;
    if buf.len() < total {
        return Err(CodecError::UnexpectedEof);
    }
    let stored = u64::from_le_bytes(buf[total - 8..total].try_into().unwrap());
    let computed = digest64_seeded(chain, &buf[4..total - 8]);
    if computed != stored {
        return Err(CodecError::DigestMismatch { computed, stored });
    }
    Ok(ChainedFrame {
        seq,
        payload: &buf[CHAINED_HEADER..total - 8],
        digest: computed,
        consumed: total,
    })
}

/// Leading magic of one framed WAL record (`b"ppwr"`).
pub const WAL_RECORD_MAGIC: [u8; 4] = *b"ppwr";

/// Bytes of a WAL record before the payload: magic, sequence number,
/// payload length.
pub const WAL_RECORD_HEADER: usize = CHAINED_HEADER;

/// Frames one WAL record ([`frame_chained`] with [`WAL_RECORD_MAGIC`]);
/// the first record's `chain` is the base snapshot's trailer digest.
pub fn frame_wal_record(seq: u64, chain: u64, payload: &[u8]) -> (Vec<u8>, u64) {
    frame_chained(WAL_RECORD_MAGIC, seq, chain, payload.len(), |w| {
        w.put_raw(payload)
    })
}

/// Outcome of parsing one WAL record off the front of a log buffer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalRecordStep<'a> {
    /// A complete, digest-valid record. `digest` seeds the next record's
    /// chain; `consumed` is the record's total framed length.
    Record {
        /// Sequence number stored in the record header.
        seq: u64,
        /// The record's payload bytes.
        payload: &'a [u8],
        /// The record's chained digest (= the next chain seed).
        digest: u64,
        /// Framed bytes consumed from the buffer.
        consumed: usize,
    },
    /// The buffer is empty: a clean end of log.
    End,
    /// The buffer ends or breaks mid-record — a torn write, a partial
    /// tail, a flipped byte, or a chain break — with the typed reason.
    /// Everything before this point is intact; recovery truncates here.
    Torn(CodecError),
}

/// Parses one WAL record off the front of `buf` with [`parse_chained`]:
/// an empty buffer is a clean [`WalRecordStep::End`], any malformed shape
/// a [`WalRecordStep::Torn`] with the typed reason.
pub fn parse_wal_record(buf: &[u8], chain: u64) -> WalRecordStep<'_> {
    if buf.is_empty() {
        return WalRecordStep::End;
    }
    match parse_chained(buf, WAL_RECORD_MAGIC, chain, |_, _| Ok(())) {
        Ok(f) => WalRecordStep::Record {
            seq: f.seq,
            payload: f.payload,
            digest: f.digest,
            consumed: f.consumed,
        },
        Err(reason) => WalRecordStep::Torn(reason),
    }
}

/// Append-only payload writer with typed little-endian primitives.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// An empty writer.
    pub fn new() -> Self {
        SnapWriter::default()
    }

    /// The payload written so far.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Reserves room for at least `additional` more payload bytes, so a
    /// writer whose size is known up front grows once, not field by field.
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// Consumes the writer, yielding the raw payload.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Consumes the writer, yielding a framed blob: magic, version tag,
    /// payload, [`digest64`] trailer. The shape [`decode_framed`] accepts.
    pub fn into_framed(self) -> Vec<u8> {
        let payload = self.buf;
        let mut out = Vec::with_capacity(payload.len() + 14);
        out.extend_from_slice(&SNAP_MAGIC);
        out.extend_from_slice(&SNAP_VERSION.to_le_bytes());
        out.extend_from_slice(&payload);
        out.extend_from_slice(&digest64(&payload).to_le_bytes());
        out
    }

    /// Writes one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `bool` as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Writes a `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `i64`.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u128`.
    pub fn put_u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` widened to `u64` (portable across word sizes).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Writes an `f64` by bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Writes a collection length (alias of [`SnapWriter::put_usize`],
    /// named for intent at call sites).
    pub fn put_len(&mut self, v: usize) {
        self.put_usize(v);
    }

    /// Writes a [`PageId`].
    pub fn put_page(&mut self, v: PageId) {
        self.put_u64(v.0);
    }

    /// Writes `pages` as a *page run*: its length, then, when it is not
    /// empty, a width byte `w` ∈ {1, 2, 4, 8}, the smallest page as a
    /// `u64` base, and every page as its `w`-byte little-endian offset from
    /// the base, `w` the narrowest that holds the largest offset. An empty
    /// run is 8 bytes, a full-64-bit one 9 more than 8 per page, and a run
    /// within 256 ids of its base 17 + 1 per page.
    /// [`SnapReader::get_run`] reads it back.
    pub fn put_page_run(&mut self, pages: &[PageId]) {
        self.put_len(pages.len());
        let Some((base, width)) = run_shape(pages) else {
            return;
        };
        self.put_u8(width as u8);
        self.put_u64(base);
        let start = self.buf.len();
        self.buf.resize(start + pages.len() * width, 0);
        let out = &mut self.buf[start..];
        match width {
            1 => put_offsets::<u8>(out, pages, base),
            2 => put_offsets::<u16>(out, pages, base),
            4 => put_offsets::<u32>(out, pages, base),
            _ => put_offsets::<u64>(out, pages, base),
        }
    }

    /// Writes raw bytes, length-prefixed.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_len(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Appends raw bytes with no length prefix (already-encoded fields).
    pub fn put_raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }
}

/// Cursor-based payload reader matching [`SnapWriter`] field for field.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Reads a raw (unframed) payload.
    pub fn new(buf: &'a [u8]) -> Self {
        SnapReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// `true` when every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEof);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `bool`; any byte other than 0/1 is invalid.
    pub fn get_bool(&mut self) -> Result<bool, CodecError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Invalid("bool byte not 0/1")),
        }
    }

    /// Reads a `u16`.
    pub fn get_u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a `u32`.
    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a `u64`.
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads an `i64`.
    pub fn get_i64(&mut self) -> Result<i64, CodecError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a `u128`.
    pub fn get_u128(&mut self) -> Result<u128, CodecError> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }

    /// Reads a `usize` previously written as `u64`.
    pub fn get_usize(&mut self) -> Result<usize, CodecError> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| CodecError::Invalid("usize does not fit this platform"))
    }

    /// Reads an `f64` by bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a collection length; bounded by the remaining bytes so a
    /// corrupted length cannot trigger a huge allocation.
    pub fn get_len(&mut self) -> Result<usize, CodecError> {
        let n = self.get_usize()?;
        // Every element of every encoded collection occupies ≥ 1 byte, so
        // a length beyond the remaining payload is always corruption.
        if n > self.remaining() {
            return Err(CodecError::Invalid("collection length exceeds payload"));
        }
        Ok(n)
    }

    /// Reads a [`PageId`].
    pub fn get_page(&mut self) -> Result<PageId, CodecError> {
        Ok(PageId(self.get_u64()?))
    }

    /// Reads a page run written by [`SnapWriter::put_page_run`], counting
    /// its pages against `pages_left`, the pages the caller still accepts,
    /// and keeps it as a [`PageRun`]: the bytes the wire spent on it, not
    /// 8 per page.
    ///
    /// The length, the width and the length × width product are checked
    /// against `pages_left` and the bytes present *before* anything is
    /// reserved, so a hostile run is a typed error, never a large
    /// allocation or an overflow; a refused run counts no pages. A run not
    /// in its canonical form — a base other than its smallest page, a
    /// width wider than its largest offset needs, or pages past `u64::MAX`
    /// — is invalid too, so every run has exactly one encoding.
    pub fn get_run(&mut self, pages_left: &mut usize) -> Result<PageRun, CodecError> {
        Ok(match self.parse_run(pages_left)? {
            Some((base, width, raw)) => PageRun::from_le(base, width, raw),
            None => PageRun::default(),
        })
    }

    /// [`SnapReader::get_run`], expanded into pages.
    pub fn get_page_run(&mut self, pages_left: &mut usize) -> Result<Vec<PageId>, CodecError> {
        Ok(match self.parse_run(pages_left)? {
            Some((base, width, raw)) => PageRun::pages_from_le(base, width, raw),
            None => Vec::new(),
        })
    }

    /// The one page-run parser behind [`SnapReader::get_run`] and
    /// [`SnapReader::get_page_run`]: validates a run in place and returns
    /// its base, width and offset bytes, or `None` for the empty run. It
    /// reserves nothing.
    fn parse_run(&mut self, pages_left: &mut usize) -> Result<Option<RawRun<'a>>, CodecError> {
        let n = self.get_usize()?;
        if n == 0 {
            return Ok(None);
        }
        if n > *pages_left {
            return Err(CodecError::Invalid("page run exceeds the page ceiling"));
        }
        let width = usize::from(self.get_u8()?);
        if !matches!(width, 1 | 2 | 4 | 8) {
            return Err(CodecError::Invalid("page run width not 1, 2, 4 or 8"));
        }
        let base = self.get_u64()?;
        let bytes = n
            .checked_mul(width)
            .filter(|&b| b <= self.remaining())
            .ok_or(CodecError::Invalid("page run length exceeds payload"))?;
        let raw = self.take(bytes)?;
        let (min, max) = match width {
            1 => offset_range::<u8>(raw),
            2 => offset_range::<u16>(raw),
            4 => offset_range::<u32>(raw),
            _ => offset_range::<u64>(raw),
        };
        if base.checked_add(max).is_none() {
            return Err(CodecError::Invalid("page run overflows u64"));
        }
        if min != 0 || width != offset_width(max) {
            return Err(CodecError::Invalid("page run not in canonical form"));
        }
        *pages_left -= n;
        Ok(Some((base, width, raw)))
    }

    /// Reads length-prefixed raw bytes.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let n = self.get_len()?;
        self.take(n)
    }
}

/// A validated page run in place: its base, its width and its offsets'
/// little-endian bytes.
type RawRun<'a> = (u64, usize, &'a [u8]);

/// Writes each page's offset from `base` as a little-endian `O`.
fn put_offsets<O: Offset>(out: &mut [u8], pages: &[PageId], base: u64) {
    let width = std::mem::size_of::<O>();
    for (o, pg) in out.chunks_exact_mut(width).zip(pages) {
        o.copy_from_slice(&(pg.0 - base).to_le_bytes()[..width]);
    }
}

/// The smallest and largest of the little-endian `O` offsets in `raw`.
fn offset_range<O: Offset>(raw: &[u8]) -> (u64, u64) {
    let (min, max) =
        read_le::<O>(raw).fold((O::MAX, O::default()), |(lo, hi), o| (lo.min(o), hi.max(o)));
    (min.into(), max.into())
}

/// Validates a framed blob (magic, version, [`digest64`] trailer) and returns the
/// payload on success.
pub fn decode_framed(blob: &[u8]) -> Result<&[u8], CodecError> {
    if blob.len() < 14 {
        return Err(CodecError::UnexpectedEof);
    }
    if blob[..4] != SNAP_MAGIC {
        return Err(CodecError::BadMagic);
    }
    let version = u16::from_le_bytes(blob[4..6].try_into().unwrap());
    if version != SNAP_VERSION {
        return Err(CodecError::BadVersion(version));
    }
    let payload = &blob[6..blob.len() - 8];
    let stored = u64::from_le_bytes(blob[blob.len() - 8..].try_into().unwrap());
    let computed = digest64(payload);
    if computed != stored {
        return Err(CodecError::DigestMismatch { computed, stored });
    }
    Ok(payload)
}

/// A component whose live state can be frozen into a [`SnapWriter`] and
/// rebuilt from a [`SnapReader`].
///
/// `load` replaces the receiver's state in place; the receiver's
/// construction-time configuration (capacities baked into the constructor)
/// is expected to match what was saved — implementations write enough of it
/// to validate. After `load`, the component must behave byte-identically to
/// the saved one under the same subsequent inputs.
pub trait Checkpoint {
    /// Serializes the full dynamic state into `w`, canonically (equal
    /// states write equal bytes).
    fn save(&self, w: &mut SnapWriter);

    /// Replaces `self`'s state with the one `r` holds.
    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), CodecError>;
}

/// Rebuilds a `HashSet<PageId>` from a list of pages, rejecting duplicates
/// (a duplicated member means the blob is corrupt or non-canonical).
pub(crate) fn set_from_pages(pages: &[PageId]) -> Result<HashSet<PageId>, CodecError> {
    let mut set = HashSet::with_capacity(pages.len());
    for &p in pages {
        if !set.insert(p) {
            return Err(CodecError::Invalid("duplicate page in checkpointed list"));
        }
    }
    Ok(set)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = SnapWriter::new();
        w.put_u8(7);
        w.put_bool(true);
        w.put_u16(300);
        w.put_u32(70_000);
        w.put_u64(1 << 40);
        w.put_i64(-12);
        w.put_u128(u128::MAX - 5);
        w.put_usize(9999);
        w.put_f64(0.25);
        w.put_page(PageId(42));
        w.put_bytes(b"abc");
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_u16().unwrap(), 300);
        assert_eq!(r.get_u32().unwrap(), 70_000);
        assert_eq!(r.get_u64().unwrap(), 1 << 40);
        assert_eq!(r.get_i64().unwrap(), -12);
        assert_eq!(r.get_u128().unwrap(), u128::MAX - 5);
        assert_eq!(r.get_usize().unwrap(), 9999);
        assert_eq!(r.get_f64().unwrap(), 0.25);
        assert_eq!(r.get_page().unwrap(), PageId(42));
        assert_eq!(r.get_bytes().unwrap(), b"abc");
        assert!(r.is_exhausted());
    }

    #[test]
    fn truncation_is_a_typed_eof() {
        let mut w = SnapWriter::new();
        w.put_u64(1);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes[..5]);
        assert_eq!(r.get_u64(), Err(CodecError::UnexpectedEof));
    }

    #[test]
    fn framing_round_trips_and_rejects_corruption() {
        let mut w = SnapWriter::new();
        w.put_u64(0xdead_beef);
        w.put_bytes(b"payload");
        let blob = w.into_framed();
        let payload = decode_framed(&blob).unwrap();
        let mut r = SnapReader::new(payload);
        assert_eq!(r.get_u64().unwrap(), 0xdead_beef);

        // Flip one payload byte: the digest must catch it.
        let mut bad = blob.clone();
        bad[8] ^= 0x40;
        assert!(matches!(
            decode_framed(&bad),
            Err(CodecError::DigestMismatch { .. })
        ));

        // Wrong magic and wrong version are distinct typed errors.
        let mut nomagic = blob.clone();
        nomagic[0] = b'x';
        assert_eq!(decode_framed(&nomagic), Err(CodecError::BadMagic));
        let mut newver = blob.clone();
        newver[4] = 0xff;
        assert!(matches!(
            decode_framed(&newver),
            Err(CodecError::BadVersion(_))
        ));

        // Truncating the trailer is EOF, not a panic.
        assert_eq!(decode_framed(&blob[..10]), Err(CodecError::UnexpectedEof));
    }

    #[test]
    fn lengths_beyond_payload_are_invalid() {
        let mut w = SnapWriter::new();
        w.put_len(1000);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(
            r.get_len(),
            Err(CodecError::Invalid("collection length exceeds payload"))
        );
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn seeded_fnv_continues_the_stream() {
        // Hashing "foo" then "bar" from the intermediate state must equal
        // hashing "foobar" in one go.
        let mid = fnv1a64(b"foo");
        assert_eq!(fnv1a64_seeded(mid, b"bar"), fnv1a64(b"foobar"));
        assert_eq!(fnv1a64_seeded(0xcbf2_9ce4_8422_2325, b"a"), fnv1a64(b"a"));
    }

    #[test]
    fn digest_known_answers_pin_the_format() {
        let inc: Vec<u8> = (0u8..=255).collect();
        assert_eq!(digest64(b""), 0x0d16_bfba_08bb_55e3);
        assert_eq!(digest64(b"a"), 0x7235_19eb_df24_b067);
        assert_eq!(digest64(b"foobar"), 0xab2f_97c8_681a_e393);
        assert_eq!(digest64(b"parapage"), 0xa6a0_0639_060f_e243);
        assert_eq!(digest64(&inc[..33]), 0xe806_4bbf_816a_5ae9);
        assert_eq!(digest64(&inc), 0x3a80_11b6_d2b3_dcec);
        assert_eq!(digest64_seeded(1, b"foobar"), 0x61b2_ba09_094b_8c21);
        assert_eq!(digest64_seeded(0, b""), 0x155e_531e_35a2_500a);
    }

    /// First pair of zero-filled buffers of lengths `0..=96` that `digest`
    /// maps to one value, if any. The range covers every word (8-byte) and
    /// stride (32-byte) edge three times over.
    fn zero_length_collision(digest: impl Fn(&[u8]) -> u64) -> Option<(usize, usize)> {
        let zeros = [0u8; 96];
        let mut seen = std::collections::HashMap::new();
        for len in 0..=zeros.len() {
            if let Some(prev) = seen.insert(digest(&zeros[..len]), len) {
                return Some((prev, len));
            }
        }
        None
    }

    #[test]
    fn zero_filled_buffers_of_every_length_digest_distinctly() {
        assert_eq!(zero_length_collision(digest64), None);
    }

    #[test]
    fn sabotage_dropping_the_tail_word_fails_the_length_test() {
        // The real digest minus its tail step: the partial word and its
        // bytes never reach the state.
        let without_tail = |bytes: &[u8]| WordDigest::with_words(DIGEST_BASIS, bytes).0.finish();
        assert_eq!(zero_length_collision(without_tail), Some((0, 1)));
    }

    /// A deterministic non-trivial buffer of `len` bytes.
    fn sample_bytes(len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| {
                (i as u64)
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .rotate_left(23) as u8
            })
            .collect()
    }

    #[test]
    fn every_single_bit_flip_up_to_256_bytes_is_detected() {
        for len in 1..=256 {
            let mut buf = sample_bytes(len);
            let clean = digest64_seeded(len as u64, &buf);
            for bit in 0..len * 8 {
                buf[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(
                    digest64_seeded(len as u64, &buf),
                    clean,
                    "flip of bit {bit} in a {len}-byte buffer went undetected"
                );
                buf[bit / 8] ^= 1 << (bit % 8);
            }
        }
    }

    #[test]
    fn word_digest_equals_the_byte_digest_of_its_words() {
        // Every split of a word stream between `write_u64` and
        // `write_pages` lands each word in the lane the byte form uses.
        let words: Vec<u64> = (0..23u64)
            .map(|i| i.wrapping_mul(0x2545_f491_4f6c_dd1d))
            .collect();
        for n in 0..=words.len() {
            let bytes: Vec<u8> = words[..n].iter().flat_map(|w| w.to_le_bytes()).collect();
            let want = digest64_seeded(7, &bytes);
            for split in 0..=n {
                let mut d = WordDigest::new(7);
                for &w in &words[..split] {
                    d.write_u64(w);
                }
                let pages: Vec<PageId> = words[split..n].iter().map(|&w| PageId(w)).collect();
                d.write_pages(&pages);
                assert_eq!(d.finish(), want, "{n} words split at {split}");
            }
        }
    }

    #[test]
    fn wal_records_chain_and_round_trip() {
        let base = fnv1a64(b"base snapshot bytes");
        let (r0, d0) = frame_wal_record(0, base, b"first");
        let (r1, d1) = frame_wal_record(1, d0, b"second");
        let mut log = r0.clone();
        log.extend_from_slice(&r1);

        let step = parse_wal_record(&log, base);
        let WalRecordStep::Record {
            seq,
            payload,
            digest,
            consumed,
        } = step
        else {
            panic!("expected record, got {step:?}");
        };
        assert_eq!(
            (seq, payload, digest, consumed),
            (0, &b"first"[..], d0, r0.len())
        );
        let step = parse_wal_record(&log[consumed..], digest);
        let WalRecordStep::Record {
            seq,
            payload,
            digest,
            ..
        } = step
        else {
            panic!("expected record, got {step:?}");
        };
        assert_eq!((seq, payload, digest), (1, &b"second"[..], d1));
        assert_eq!(parse_wal_record(&[], d1), WalRecordStep::End);
    }

    #[test]
    fn wal_record_tears_are_typed() {
        let base = fnv1a64(b"base");
        let (rec, _) = frame_wal_record(3, base, b"payload");

        // Partial header (torn write very early).
        assert_eq!(
            parse_wal_record(&rec[..7], base),
            WalRecordStep::Torn(CodecError::UnexpectedEof)
        );
        // Mid-payload truncation (torn write inside the record).
        assert_eq!(
            parse_wal_record(&rec[..rec.len() - 3], base),
            WalRecordStep::Torn(CodecError::UnexpectedEof)
        );
        // Garbage where the magic should be.
        let mut bad = rec.clone();
        bad[0] = b'x';
        assert_eq!(
            parse_wal_record(&bad, base),
            WalRecordStep::Torn(CodecError::BadMagic)
        );
        // A flipped payload byte breaks the digest.
        let mut bad = rec.clone();
        bad[WAL_RECORD_HEADER + 2] ^= 0x10;
        assert!(matches!(
            parse_wal_record(&bad, base),
            WalRecordStep::Torn(CodecError::DigestMismatch { .. })
        ));
        // The right record against the wrong chain seed (stale base /
        // reordered log) is a digest mismatch too.
        assert!(matches!(
            parse_wal_record(&rec, base ^ 1),
            WalRecordStep::Torn(CodecError::DigestMismatch { .. })
        ));
    }
}
