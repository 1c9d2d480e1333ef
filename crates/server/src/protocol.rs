//! The `parapage serve` wire protocol: the digest-chained frames of
//! `parapage_cache::checkpoint::frame_chained`, the WAL records' codec,
//! under their own magic [`WIRE_MAGIC`] so a wire capture can never be
//! confused with a checkpoint log. Each direction chains its own frames
//! from its seed ([`c2s_chain_seed`]/[`s2c_chain_seed`]), and sequence
//! numbers start at 0 per direction and must be contiguous, so a dropped,
//! reordered, replayed, or bit-flipped frame breaks the chain and surfaces
//! as a typed [`CodecError`] — never a panic.
//!
//! The payload is one tag byte followed by the [`Frame`] body in the
//! [`SnapWriter`] little-endian codec; a `Batch` carries each sequence as
//! a page run ([`SnapWriter::put_page_run`]): its length, then a width
//! byte, its smallest page as a base, and one narrow offset per page.
//! Decoding is allocation-disciplined: every declared length, width and
//! page total is validated against the bytes actually present,
//! [`MAX_FRAME`] and [`MAX_BATCH_PAGES`] *before* any buffer is reserved,
//! so a hostile length prefix cannot over-allocate.

use parapage::cache::{
    fnv1a64, frame_chained, parse_chained, ChainedFrame, CodecError, PageId, PageRun, SnapReader,
    SnapWriter, CHAINED_HEADER,
};

/// Leading magic of one wire frame (`b"ppwf"` — parallel paging wire
/// frame; distinct from the checkpoint log's `b"ppwr"`).
pub const WIRE_MAGIC: [u8; 4] = *b"ppwf";

/// Protocol version spoken by this crate; [`Frame::Hello`] carries it and
/// the server rejects a mismatch with a typed [`Frame::Error`].
///
/// Version 2 (the chaos-layer revision) extended [`Frame::HelloAck`] with
/// the re-attach resume coordinates (`next_batch`, `reply_chain`) and
/// added [`Frame::Busy`] (admission-level load shedding) and
/// [`Frame::Replay`] (re-delivery of the last acked `BatchDone`). A v1
/// `Hello` still *decodes* — version negotiation happens above the codec —
/// so an old client is turned away with a typed `BAD_VERSION` error, never
/// a silent drop.
///
/// Version 3 changed the frame digest from byte-serial FNV-1a to the
/// word-at-a-time `digest64_seeded`; frame layout and payloads are
/// unchanged. A v2 peer's frames therefore fail verification before any
/// payload is read: the server answers a v2 `Hello` with a typed
/// `BAD_FRAME` error (a digest mismatch) and closes that connection.
///
/// Version 4 changed the `Batch` body only: each sequence is a page run
/// (its length; then, when non-empty, a width byte `w` ∈ {1, 2, 4, 8}, its
/// smallest page as a `u64` base and every page as a `w`-byte offset)
/// instead of 8 bytes per page. One processor's pages lie within a few
/// hundred ids of each other, so a typical batch shrinks 6–8×. Every other
/// frame, the digests and the limits are v3's; a v3 `Hello` decodes and is
/// refused with `BAD_VERSION`.
pub const PROTO_VERSION: u16 = 4;

/// Hard cap on a frame's declared payload length (4 MiB). Enforced before
/// any allocation on both ends; oversized declarations are rejected as
/// [`CodecError::Invalid`].
pub const MAX_FRAME: usize = 4 << 20;

/// Chain seed of the client→server frame stream.
pub fn c2s_chain_seed() -> u64 {
    fnv1a64(b"parapage-wire/1/c2s")
}

/// Chain seed of the server→client frame stream.
pub fn s2c_chain_seed() -> u64 {
    fnv1a64(b"parapage-wire/1/s2c")
}

/// Longest tenant name the server admits.
pub const MAX_TENANT_NAME: usize = 256;

/// Most cache shards a tenant may declare: the limit of the
/// [`parapage::cache::ShardedLru`] every batch builds, whose per-page shard
/// tag is one byte. Admission refuses a larger [`TenantConfig::shards`], so
/// a `Hello` cannot make every batch allocate per-shard state without
/// bound.
pub const MAX_SHARDS: usize = parapage::cache::MAX_SHARDS;

/// Most processors a tenant may declare: a `Batch` payload carries one
/// 8-byte length per processor after its 17-byte head, so no larger tenant
/// could ever fit a batch in [`MAX_FRAME`]. Admission refuses a larger
/// [`TenantConfig::p`]; below it a batch costs time linear in `p`.
pub const MAX_PROCS: usize = (MAX_FRAME - 17) / 8;

/// Most pages one `Batch` may carry, over all its sequences: the most a
/// v3 frame of 8 bytes per page could hold. A page run can be 1 byte per
/// page, so this, not [`MAX_FRAME`], bounds what a decoded batch reserves
/// (8 bytes per page); both ends refuse a batch beyond it.
pub const MAX_BATCH_PAGES: usize = (MAX_FRAME - 17) / 8;

/// Application error codes carried by [`Frame::Error`].
pub mod error_code {
    /// Protocol version mismatch in `Hello`.
    pub const BAD_VERSION: u16 = 1;
    /// The tenant table is full (admission control).
    pub const TENANTS_FULL: u16 = 2;
    /// The tenant's cumulative request budget is exhausted.
    pub const BUDGET_EXHAUSTED: u16 = 3;
    /// A frame arrived out of session order (e.g. `Batch` before `Hello`,
    /// or a batch sequence gap).
    pub const BAD_STATE: u16 = 4;
    /// A malformed frame or payload (decoded as a typed codec error).
    pub const BAD_FRAME: u16 = 5;
    /// The tenant's engine failed terminally (typed engine/snapshot error
    /// or crash budget exhausted), or a panic under its session lock
    /// quarantined the tenant.
    pub const ENGINE_FAILED: u16 = 6;
    /// A `Hello` re-attached to an existing tenant with different
    /// parameters.
    pub const CONFIG_MISMATCH: u16 = 7;
    /// The peer stalled past the server's per-session read deadline
    /// mid-frame (slow-loris); the connection is closed after this error.
    pub const TIMED_OUT: u16 = 8;
}

/// Frame payload tags (first payload byte).
mod tag {
    pub const HELLO: u8 = 1;
    pub const HELLO_ACK: u8 = 2;
    pub const BATCH: u8 = 3;
    pub const BATCH_DONE: u8 = 4;
    pub const MIGRATE: u8 = 5;
    pub const MIGRATE_ACK: u8 = 6;
    pub const KILL: u8 = 7;
    pub const KILL_ACK: u8 = 8;
    pub const STATS: u8 = 9;
    pub const STATS_REPLY: u8 = 10;
    pub const GOODBYE: u8 = 11;
    pub const GOODBYE_ACK: u8 = 12;
    pub const SHUTDOWN: u8 = 13;
    pub const SHUTDOWN_ACK: u8 = 14;
    pub const ERROR: u8 = 15;
    pub const BUSY: u8 = 16;
    pub const REPLAY: u8 = 17;
}

/// Everything a [`Frame::Hello`] declares about the tenant's engine
/// configuration. The server builds each batch's policy and caches from
/// exactly these values, which is what makes replies deterministic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TenantConfig {
    /// Tenant group name (session key; ≤ [`MAX_TENANT_NAME`] bytes).
    pub tenant: String,
    /// Processors in the tenant's engine.
    pub p: usize,
    /// Cache capacity `k`.
    pub k: usize,
    /// Miss penalty `s`.
    pub s: u64,
    /// Policy name (`det-par`, `rand-par`, `static`, `prop-miss`, `ucp`,
    /// `bb-green`).
    pub policy: String,
    /// Base RNG seed; batch `b` uses `seed ^ mix(b)`.
    pub seed: u64,
    /// Shard count of the tenant's [`parapage::cache::ShardedLru`], from 1
    /// to [`MAX_SHARDS`] (rounded up to a power of two).
    pub shards: usize,
}

/// Server-wide operational counters returned by [`Frame::StatsReply`].
/// These are *not* part of the deterministic per-tenant reply chain: crash
/// and migration counts depend on which kills were requested, so they ride
/// in a separate frame that equivalence tests deliberately exclude.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Tenant sessions ever admitted.
    pub tenants: u64,
    /// Batches served to completion.
    pub batches: u64,
    /// Page requests served across all batches.
    pub requests: u64,
    /// Tenant engine crashes survived (injected kills included).
    pub restarts: u64,
    /// Live migrations performed at epoch boundaries.
    pub migrations: u64,
    /// WAL records appended across all tenant runs.
    pub wal_records: u64,
    /// Checkpoint bytes written across all tenant runs.
    pub checkpoint_bytes: u64,
    /// Idle tenants parked by the server's idle TTL (a later re-attach
    /// continues them).
    pub expiries: u64,
    /// Connections shed at admission with a typed [`Frame::Busy`].
    pub shed: u64,
}

/// One protocol message. Every variant round-trips through
/// [`Frame::encode_payload`]/[`Frame::decode_payload`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Frame {
    /// Client → server: open (or re-attach to) a tenant session.
    Hello {
        /// Protocol version (must equal [`PROTO_VERSION`]).
        proto: u16,
        /// The tenant's engine configuration.
        config: TenantConfig,
    },
    /// Server → client: session admitted.
    HelloAck {
        /// Server-assigned session id (diagnostic only).
        session: u64,
        /// The server's frame cap, so a client can fail fast locally.
        max_frame: u64,
        /// Requests this tenant may still submit before admission control
        /// rejects its batches.
        budget_left: u64,
        /// The batch sequence number the server expects next — the resume
        /// coordinate a re-attaching client compares against its own
        /// cursor to decide between re-sending and [`Frame::Replay`].
        next_batch: u64,
        /// The tenant's reply-chain digest after its last acked batch. A
        /// re-attaching client re-seeds its expected chain from this, so
        /// a replayed stream either lines up byte-identically or the
        /// mismatch surfaces as a typed divergence — never silently.
        reply_chain: u64,
    },
    /// Client → server: one batch of per-processor request sequences to
    /// run through the tenant's supervised engine.
    Batch {
        /// Monotone batch sequence number (0-based, contiguous).
        batch: u64,
        /// One request sequence per processor (`config.p` of them).
        seqs: Vec<Vec<PageId>>,
    },
    /// Server → client: the batch's deterministic outcome. Byte-identical
    /// across crashes, kills, and migrations of the serving engine.
    BatchDone {
        /// Echoed batch sequence number.
        batch: u64,
        /// Makespan of the batch run.
        makespan: u64,
        /// Aggregate cache hits.
        hits: u64,
        /// Aggregate cache misses.
        misses: u64,
        /// Grants issued by the policy.
        grants: u64,
        /// FNV-1a64 digest of the canonical [`parapage::sched::RunResult`]
        /// encoding.
        digest: u64,
        /// Running digest chained over every `BatchDone` of this tenant —
        /// the one-number summary equivalence tests compare.
        chain: u64,
    },
    /// Client → server: at the next epoch boundary at-or-after `at_tick`
    /// of batch `batch`, migrate the tenant onto a fresh engine via the
    /// supervisor's snapshot/restore path.
    Migrate {
        /// Batch the migration applies to.
        batch: u64,
        /// Engine tick threshold within that batch.
        at_tick: u64,
    },
    /// Server → client: migration request queued.
    MigrateAck {
        /// Requests now pending for this tenant.
        pending: u32,
    },
    /// Client → server: kill (panic) the tenant's engine at `at_tick` of
    /// batch `batch`. The supervisor absorbs the crash; the batch still
    /// completes with a byte-identical `BatchDone`.
    Kill {
        /// Batch the kill applies to.
        batch: u64,
        /// Engine tick at which the injected panic fires.
        at_tick: u64,
    },
    /// Server → client: kill request queued.
    KillAck {
        /// Requests now pending for this tenant.
        pending: u32,
    },
    /// Client → server: request the server-wide operational counters.
    Stats,
    /// Server → client: the counters.
    StatsReply {
        /// Aggregated server counters.
        stats: ServerStats,
    },
    /// Client → server: close this session cleanly.
    Goodbye,
    /// Server → client: session closed.
    GoodbyeAck,
    /// Client → server: stop accepting connections and shut down once
    /// active sessions drain.
    Shutdown,
    /// Server → client: shutdown initiated.
    ShutdownAck,
    /// Server → client: a typed application-level failure. The connection
    /// stays usable unless the transport itself broke.
    Error {
        /// One of [`error_code`]'s constants.
        code: u16,
        /// Human-readable detail.
        message: String,
    },
    /// Server → client: admission-level load shedding. The server is at
    /// its connection cap; it answers with this frame *instead of* a
    /// silent drop, then closes. A well-behaved client backs off at least
    /// `retry_after_ms` before reconnecting.
    Busy {
        /// Suggested minimum back-off before the next attempt.
        retry_after_ms: u32,
    },
    /// Client → server: re-deliver the `BatchDone` of `batch`, which the
    /// server acked but the client never saw (the connection died while
    /// the reply was in flight). The server answers with the cached frame
    /// verbatim — same digest, same chain — or a typed `BAD_STATE` error
    /// if `batch` is not the tenant's most recently served batch.
    Replay {
        /// The batch whose reply went missing.
        batch: u64,
    },
}

impl Frame {
    /// Encodes the payload (tag byte + body) this frame ships inside a
    /// wire frame.
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        self.encode_into(&mut w);
        w.into_bytes()
    }

    /// Appends the payload (tag byte + body) to `w`.
    fn encode_into(&self, w: &mut SnapWriter) {
        match self {
            Frame::Hello { proto, config } => {
                w.put_u8(tag::HELLO);
                w.put_u16(*proto);
                w.put_bytes(config.tenant.as_bytes());
                w.put_usize(config.p);
                w.put_usize(config.k);
                w.put_u64(config.s);
                w.put_bytes(config.policy.as_bytes());
                w.put_u64(config.seed);
                w.put_usize(config.shards);
            }
            Frame::HelloAck {
                session,
                max_frame,
                budget_left,
                next_batch,
                reply_chain,
            } => {
                w.put_u8(tag::HELLO_ACK);
                w.put_u64(*session);
                w.put_u64(*max_frame);
                w.put_u64(*budget_left);
                w.put_u64(*next_batch);
                w.put_u64(*reply_chain);
            }
            Frame::Batch { batch, seqs } => encode_batch(w, *batch, seqs),
            Frame::BatchDone {
                batch,
                makespan,
                hits,
                misses,
                grants,
                digest,
                chain,
            } => {
                w.put_u8(tag::BATCH_DONE);
                w.put_u64(*batch);
                w.put_u64(*makespan);
                w.put_u64(*hits);
                w.put_u64(*misses);
                w.put_u64(*grants);
                w.put_u64(*digest);
                w.put_u64(*chain);
            }
            Frame::Migrate { batch, at_tick } => {
                w.put_u8(tag::MIGRATE);
                w.put_u64(*batch);
                w.put_u64(*at_tick);
            }
            Frame::MigrateAck { pending } => {
                w.put_u8(tag::MIGRATE_ACK);
                w.put_u32(*pending);
            }
            Frame::Kill { batch, at_tick } => {
                w.put_u8(tag::KILL);
                w.put_u64(*batch);
                w.put_u64(*at_tick);
            }
            Frame::KillAck { pending } => {
                w.put_u8(tag::KILL_ACK);
                w.put_u32(*pending);
            }
            Frame::Stats => w.put_u8(tag::STATS),
            Frame::StatsReply { stats } => {
                w.put_u8(tag::STATS_REPLY);
                w.put_u64(stats.tenants);
                w.put_u64(stats.batches);
                w.put_u64(stats.requests);
                w.put_u64(stats.restarts);
                w.put_u64(stats.migrations);
                w.put_u64(stats.wal_records);
                w.put_u64(stats.checkpoint_bytes);
                w.put_u64(stats.expiries);
                w.put_u64(stats.shed);
            }
            Frame::Goodbye => w.put_u8(tag::GOODBYE),
            Frame::GoodbyeAck => w.put_u8(tag::GOODBYE_ACK),
            Frame::Shutdown => w.put_u8(tag::SHUTDOWN),
            Frame::ShutdownAck => w.put_u8(tag::SHUTDOWN_ACK),
            Frame::Error { code, message } => {
                w.put_u8(tag::ERROR);
                w.put_u16(*code);
                w.put_bytes(message.as_bytes());
            }
            Frame::Busy { retry_after_ms } => {
                w.put_u8(tag::BUSY);
                w.put_u32(*retry_after_ms);
            }
            Frame::Replay { batch } => {
                w.put_u8(tag::REPLAY);
                w.put_u64(*batch);
            }
        }
    }

    /// Decodes a payload produced by [`Frame::encode_payload`]. Rejects
    /// unknown tags, over-long names, non-UTF-8 strings, trailing garbage,
    /// and page runs with a bad width, more bytes than are present, a
    /// non-canonical form or pages past [`MAX_BATCH_PAGES`] — all as typed
    /// [`CodecError`]s, never a panic, and never an allocation beyond
    /// what [`MAX_BATCH_PAGES`] pages warrant.
    ///
    /// A `Batch`'s runs are expanded into pages, 8 bytes each; the server
    /// reads them with [`Request::decode_payload`] instead, which keeps
    /// them as runs.
    pub fn decode_payload(payload: &[u8]) -> Result<Frame, CodecError> {
        decode(
            payload,
            |r, left| r.get_page_run(left),
            |batch, seqs| Frame::Batch { batch, seqs },
        )
    }
}

/// A client frame as the server reads it: a `Batch` keeps each sequence as
/// the page run the wire carried, so a request holds about its wire bytes
/// rather than 8 per page. Every other frame is decoded as a [`Frame`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// A `Batch` frame, its sequences as runs.
    Batch {
        /// Monotone batch sequence number.
        batch: u64,
        /// One page run per processor.
        seqs: Vec<PageRun>,
    },
    /// Any other frame.
    Frame(Frame),
}

impl From<Frame> for Request {
    /// A `Batch` of pages becomes the page runs its wire form would carry,
    /// so the server serves every batch from runs.
    fn from(frame: Frame) -> Self {
        match frame {
            Frame::Batch { batch, seqs } => Request::Batch {
                batch,
                seqs: seqs.iter().map(|s| PageRun::from_pages(s)).collect(),
            },
            frame => Request::Frame(frame),
        }
    }
}

impl Request {
    /// Decodes a payload as [`Frame::decode_payload`] does, with the same
    /// checks and errors, keeping a `Batch`'s sequences as page runs.
    pub fn decode_payload(payload: &[u8]) -> Result<Request, CodecError> {
        decode(
            payload,
            |r, left| r.get_run(left),
            |batch, seqs| Request::Batch { batch, seqs },
        )
    }
}

/// The one payload decoder behind [`Frame::decode_payload`] and
/// [`Request::decode_payload`]: a `Batch`'s sequences are read with
/// `get_seq` and handed to `batch`; every other frame is a [`Frame`].
fn decode<S, T: From<Frame>>(
    payload: &[u8],
    get_seq: fn(&mut SnapReader<'_>, &mut usize) -> Result<S, CodecError>,
    batch: fn(u64, Vec<S>) -> T,
) -> Result<T, CodecError> {
    let mut r = SnapReader::new(payload);
    let t = r.get_u8()?;
    let out = if t == tag::BATCH {
        let number = r.get_u64()?;
        let nseqs = r.get_len()?;
        // get_len bounds the count by the remaining *bytes*, but each
        // sequence carries an 8-byte length and occupies 24 (a `Vec`) or
        // 32 (a `PageRun`) bytes in memory: tighten before reserving so a
        // hostile count cannot inflate the allocation 32x.
        if nseqs > r.remaining() / 8 {
            return Err(CodecError::Invalid(
                "sequence count exceeds remaining payload",
            ));
        }
        let mut seqs = Vec::with_capacity(nseqs);
        // Each run is checked against the bytes present and the pages
        // left under the ceiling before it reserves.
        let mut pages_left = MAX_BATCH_PAGES;
        for _ in 0..nseqs {
            seqs.push(get_seq(&mut r, &mut pages_left)?);
        }
        batch(number, seqs)
    } else {
        T::from(decode_other(t, &mut r)?)
    };
    if !r.is_exhausted() {
        return Err(CodecError::Invalid("trailing bytes after frame payload"));
    }
    Ok(out)
}

/// Decodes the body of a frame with tag `t`, any but `Batch`.
fn decode_other(t: u8, r: &mut SnapReader<'_>) -> Result<Frame, CodecError> {
    Ok(match t {
        tag::HELLO => {
            let proto = r.get_u16()?;
            let tenant = get_name(r, MAX_TENANT_NAME)?;
            let p = r.get_usize()?;
            let k = r.get_usize()?;
            let s = r.get_u64()?;
            let policy = get_name(r, 64)?;
            let seed = r.get_u64()?;
            let shards = r.get_usize()?;
            Frame::Hello {
                proto,
                config: TenantConfig {
                    tenant,
                    p,
                    k,
                    s,
                    policy,
                    seed,
                    shards,
                },
            }
        }
        tag::HELLO_ACK => Frame::HelloAck {
            session: r.get_u64()?,
            max_frame: r.get_u64()?,
            budget_left: r.get_u64()?,
            next_batch: r.get_u64()?,
            reply_chain: r.get_u64()?,
        },
        tag::BATCH_DONE => Frame::BatchDone {
            batch: r.get_u64()?,
            makespan: r.get_u64()?,
            hits: r.get_u64()?,
            misses: r.get_u64()?,
            grants: r.get_u64()?,
            digest: r.get_u64()?,
            chain: r.get_u64()?,
        },
        tag::MIGRATE => Frame::Migrate {
            batch: r.get_u64()?,
            at_tick: r.get_u64()?,
        },
        tag::MIGRATE_ACK => Frame::MigrateAck {
            pending: r.get_u32()?,
        },
        tag::KILL => Frame::Kill {
            batch: r.get_u64()?,
            at_tick: r.get_u64()?,
        },
        tag::KILL_ACK => Frame::KillAck {
            pending: r.get_u32()?,
        },
        tag::STATS => Frame::Stats,
        tag::STATS_REPLY => Frame::StatsReply {
            stats: ServerStats {
                tenants: r.get_u64()?,
                batches: r.get_u64()?,
                requests: r.get_u64()?,
                restarts: r.get_u64()?,
                migrations: r.get_u64()?,
                wal_records: r.get_u64()?,
                checkpoint_bytes: r.get_u64()?,
                expiries: r.get_u64()?,
                shed: r.get_u64()?,
            },
        },
        tag::GOODBYE => Frame::Goodbye,
        tag::GOODBYE_ACK => Frame::GoodbyeAck,
        tag::SHUTDOWN => Frame::Shutdown,
        tag::SHUTDOWN_ACK => Frame::ShutdownAck,
        tag::ERROR => Frame::Error {
            code: r.get_u16()?,
            message: get_name(r, MAX_FRAME)?,
        },
        tag::BUSY => Frame::Busy {
            retry_after_ms: r.get_u32()?,
        },
        tag::REPLAY => Frame::Replay {
            batch: r.get_u64()?,
        },
        _ => return Err(CodecError::Invalid("unknown frame tag")),
    })
}

/// Encodes a `Batch` payload: the tag, the batch number, the sequence
/// count, then each sequence as a page run. The one encoder of the body,
/// whether the pages sit in a [`Frame::Batch`] or are borrowed by
/// [`WireState::write_batch`].
fn encode_batch(w: &mut SnapWriter, batch: u64, seqs: &[Vec<PageId>]) {
    w.put_u8(tag::BATCH);
    w.put_u64(batch);
    w.put_len(seqs.len());
    for seq in seqs {
        w.put_page_run(seq);
    }
}

/// Reads a length-prefixed UTF-8 string, bounding its length *before* any
/// copy.
fn get_name(r: &mut SnapReader<'_>, max: usize) -> Result<String, CodecError> {
    let bytes = r.get_bytes()?;
    if bytes.len() > max {
        return Err(CodecError::Invalid("string field too long"));
    }
    String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::Invalid("string field not UTF-8"))
}

/// Frames `payload` as one wire frame and returns `(bytes, digest)`, the
/// digest being the chain seed for the direction's next frame.
///
/// # Panics
/// If `payload` exceeds [`MAX_FRAME`].
pub fn frame_wire(seq: u64, chain: u64, payload: &[u8]) -> (Vec<u8>, u64) {
    assert!(
        payload.len() <= MAX_FRAME,
        "frame_wire payload exceeds MAX_FRAME"
    );
    frame_chained(WIRE_MAGIC, seq, chain, payload.len(), |w| {
        w.put_raw(payload)
    })
}

/// Parses one wire frame off the front of `buf`, verifying magic, the
/// expected sequence number, the length cap, and the chained digest.
///
/// Never panics and never allocates: every malformed shape — truncation,
/// wrong magic, a sequence gap or replay, an oversized declared length, a
/// flipped byte — maps onto a typed [`CodecError`]. The length cap is
/// checked *before* the length is trusted for anything, so a hostile
/// 4 GiB declaration is rejected without reserving a byte.
pub fn parse_wire(buf: &[u8], chain: u64, expect_seq: u64) -> Result<ChainedFrame<'_>, CodecError> {
    parse_chained(buf, WIRE_MAGIC, chain, |seq, len| {
        if len > MAX_FRAME {
            Err(CodecError::Invalid("frame length exceeds MAX_FRAME"))
        } else if seq != expect_seq {
            Err(CodecError::Invalid("frame sequence break"))
        } else {
            Ok(())
        }
    })
}

/// Why a framed read or write over a transport failed.
#[derive(Debug)]
pub enum WireError {
    /// The transport failed mid-frame.
    Io(std::io::Error),
    /// The bytes arrived but do not form a valid next frame (truncation,
    /// bad magic, sequence break, oversized length, digest mismatch, or a
    /// malformed payload).
    Codec(CodecError),
    /// The peer closed the connection cleanly at a frame boundary.
    Closed,
    /// A configured read deadline expired. `mid_frame` distinguishes a
    /// peer that stalled with a frame partly delivered (slow-loris — the
    /// server answers with a typed `TIMED_OUT` error and closes) from one
    /// that is merely idle between frames (closed quietly; a resilient
    /// client re-attaches on its next request).
    TimedOut {
        /// Whether bytes of the next frame had already arrived.
        mid_frame: bool,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "transport error: {e}"),
            WireError::Codec(e) => write!(f, "protocol error: {e}"),
            WireError::Closed => write!(f, "connection closed"),
            WireError::TimedOut { mid_frame: true } => write!(f, "read deadline expired mid-frame"),
            WireError::TimedOut { mid_frame: false } => {
                write!(f, "read deadline expired at a frame boundary")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

impl From<CodecError> for WireError {
    fn from(e: CodecError) -> Self {
        WireError::Codec(e)
    }
}

/// One direction of a framed stream: the next expected sequence number
/// and the running digest chain.
#[derive(Clone, Copy, Debug)]
pub struct WireState {
    seq: u64,
    chain: u64,
}

impl WireState {
    /// A fresh direction state from its chain seed.
    pub fn new(chain_seed: u64) -> Self {
        WireState {
            seq: 0,
            chain: chain_seed,
        }
    }

    /// Frames and writes one message, advancing the chain. The payload is
    /// encoded in place behind the header, into the one buffer written.
    pub fn write_frame(
        &mut self,
        w: &mut impl std::io::Write,
        frame: &Frame,
    ) -> Result<(), WireError> {
        match frame {
            Frame::Batch { batch, seqs } => self.write_batch(w, *batch, seqs),
            // Every other frame is a few dozen bytes; a longer `Error`
            // message just grows the buffer.
            _ => self.write_encoded(w, 64, |sw| frame.encode_into(sw)),
        }
    }

    /// Frames and writes a `Batch` from borrowed sequences: the same bytes
    /// and chain as [`WireState::write_frame`] of the equal
    /// [`Frame::Batch`], without building one.
    pub fn write_batch(
        &mut self,
        w: &mut impl std::io::Write,
        batch: u64,
        seqs: &[Vec<PageId>],
    ) -> Result<(), WireError> {
        // Oversized batches are refused from their sizes, before encoding:
        // a run is at least 17 bytes and one per page (8 when empty). The
        // exact size, which the offset widths set, is checked once
        // encoded.
        let pages: usize = seqs.iter().map(Vec::len).sum();
        if pages > MAX_BATCH_PAGES {
            return Err(WireError::Codec(CodecError::Invalid(
                "batch exceeds MAX_BATCH_PAGES",
            )));
        }
        let least = 17
            + (seqs.iter())
                .map(|s| if s.is_empty() { 8 } else { 17 + s.len() })
                .sum::<usize>();
        if least > MAX_FRAME {
            return Err(oversized());
        }
        self.write_encoded(w, least, |sw| encode_batch(sw, batch, seqs))
    }

    /// Frames the payload `encode` writes behind the header and writes the
    /// frame, refusing a payload beyond [`MAX_FRAME`].
    fn write_encoded(
        &mut self,
        w: &mut impl std::io::Write,
        payload_hint: usize,
        encode: impl FnOnce(&mut SnapWriter),
    ) -> Result<(), WireError> {
        let (bytes, digest) = frame_chained(WIRE_MAGIC, self.seq, self.chain, payload_hint, encode);
        if bytes.len() - CHAINED_HEADER - 8 > MAX_FRAME {
            return Err(oversized());
        }
        w.write_all(&bytes)?;
        w.flush()?;
        self.seq += 1;
        self.chain = digest;
        Ok(())
    }

    /// Reads, verifies, and decodes the next frame, advancing the chain.
    ///
    /// The declared payload length is validated against [`MAX_FRAME`]
    /// *before* the payload buffer is allocated, so a hostile header
    /// cannot force an over-allocation; a clean EOF before the first
    /// header byte is [`WireError::Closed`].
    pub fn read_frame(&mut self, r: &mut impl std::io::Read) -> Result<Frame, WireError> {
        self.read_with(r, Frame::decode_payload)
    }

    /// [`WireState::read_frame`] as the server reads: a `Batch` keeps its
    /// page runs (see [`Request`]), and the frame's bytes are freed before
    /// this returns.
    pub fn read_request(&mut self, r: &mut impl std::io::Read) -> Result<Request, WireError> {
        self.read_with(r, Request::decode_payload)
    }

    /// Reads and verifies the next frame, decodes its payload with
    /// `decode` and advances the chain.
    fn read_with<T>(
        &mut self,
        r: &mut impl std::io::Read,
        decode: fn(&[u8]) -> Result<T, CodecError>,
    ) -> Result<T, WireError> {
        let mut header = [0u8; CHAINED_HEADER];
        read_exact_or_closed(r, &mut header, false)?;
        let len =
            u32::from_le_bytes(header[12..16].try_into().expect("four length bytes")) as usize;
        if len > MAX_FRAME {
            return Err(oversized());
        }
        let mut buf = vec![0u8; CHAINED_HEADER + len + 8];
        buf[..CHAINED_HEADER].copy_from_slice(&header);
        read_exact_or_closed(r, &mut buf[CHAINED_HEADER..], true)?;
        let wf = parse_wire(&buf, self.chain, self.seq)?;
        let out = decode(wf.payload)?;
        self.seq += 1;
        self.chain = wf.digest;
        Ok(out)
    }
}

/// The typed error for a payload beyond [`MAX_FRAME`], on either end.
fn oversized() -> WireError {
    WireError::Codec(CodecError::Invalid("frame length exceeds MAX_FRAME"))
}

/// `read_exact`, except a clean EOF before the first byte is
/// [`WireError::Closed`] instead of an I/O error, and an expired read
/// deadline (`WouldBlock`/`TimedOut` from a socket with a read timeout) is
/// the typed [`WireError::TimedOut`] — `mid_frame` once any byte of the
/// frame (`started`, or a previous chunk of it) has been seen.
fn read_exact_or_closed(
    r: &mut impl std::io::Read,
    buf: &mut [u8],
    started: bool,
) -> Result<(), WireError> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 && !started => return Err(WireError::Closed),
            Ok(0) => return Err(WireError::Codec(CodecError::UnexpectedEof)),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                return Err(WireError::TimedOut {
                    mid_frame: started || filled > 0,
                })
            }
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    Ok(())
}
