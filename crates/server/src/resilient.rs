//! [`ResilientClient`]: reconnect, re-attach, and retry on top of the
//! single-connection [`Client`](crate::client::Client).
//!
//! The contract is the adversarial-network version of the server's
//! byte-identical reply guarantee: however the transport fails — cut
//! mid-frame in either direction, stalled, trickled, or shed with a typed
//! [`Frame::Busy`] — a request either completes with exactly the reply a
//! clean run would have produced, or fails with a **typed**
//! [`ClientError`]. There is no silent-divergence outcome.
//!
//! Recovery is anchored on the v2 re-attach handshake. A `HelloAck`
//! carries the server's resume coordinates (`next_batch`, `reply_chain`);
//! the client compares them against its own cursor and the chain digest of
//! the last reply it saw:
//!
//! - server expects the batch we were sending → the batch never executed;
//!   re-send it (the chain must still match — anything else is a typed
//!   divergence);
//! - server expects the *next* batch → the batch executed but its reply
//!   was lost in the cut; fetch the cached frame with [`Frame::Replay`]
//!   and require its chain to equal the handshake's `reply_chain`;
//! - anything else → typed divergence, surfaced, never papered over.
//!
//! Because the protocol is strictly request/reply, at most one batch can
//! ever be in doubt, which is what makes the one-frame replay cache on the
//! server sufficient for byte-identical resumption.
//!
//! Reconnect pacing reuses the supervisor's capped exponential backoff
//! ([`parapage::sched::jittered_backoff`]) with deterministic per-seed
//! jitter, so a herd of restarting clients de-synchronizes while any one
//! schedule stays reproducible.

use std::net::SocketAddr;
use std::time::Duration;

use parapage::cache::PageId;
use parapage::conform::NetFaultPlan;
use parapage::sched::jittered_backoff;

use crate::client::Client;
use crate::protocol::{error_code, Frame, TenantConfig, WireError};

/// Retry tuning for a [`ResilientClient`].
#[derive(Clone, Copy, Debug)]
pub struct RetryOpts {
    /// Per-request read deadline on every connection.
    pub deadline: Option<Duration>,
    /// Transport attempts per request before [`ClientError::Exhausted`].
    pub max_attempts: u32,
    /// First reconnect backoff; doubles per consecutive failure.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// Ceiling on a server-suggested `Busy` retry-after.
    pub busy_cap: Duration,
    /// Jitter seed (distinct per client; schedules stay deterministic).
    pub seed: u64,
}

impl Default for RetryOpts {
    fn default() -> Self {
        RetryOpts {
            deadline: Some(Duration::from_secs(5)),
            max_attempts: 8,
            backoff_base: Duration::from_millis(2),
            backoff_cap: Duration::from_millis(250),
            busy_cap: Duration::from_millis(500),
            seed: 0,
        }
    }
}

/// What a client survived while keeping its reply stream byte-identical.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RetryCounters {
    /// Connections established after the first (reconnects).
    pub reconnects: u64,
    /// Requests re-attempted after a transport failure.
    pub retries: u64,
    /// Missed replies recovered via [`Frame::Replay`].
    pub replays: u64,
    /// [`Frame::Busy`] shed notices absorbed (back-off-and-retry).
    pub sheds: u64,
    /// Per-request deadlines that expired.
    pub timeouts: u64,
}

impl RetryCounters {
    /// Folds another tally into this one.
    pub fn absorb(&mut self, other: &RetryCounters) {
        self.reconnects += other.reconnects;
        self.retries += other.retries;
        self.replays += other.replays;
        self.sheds += other.sheds;
        self.timeouts += other.timeouts;
    }

    /// Total recovered events (anything nonzero means the network
    /// misbehaved and the client absorbed it).
    pub fn recovered(&self) -> u64 {
        self.reconnects + self.retries + self.replays + self.sheds + self.timeouts
    }
}

/// Why a resilient request failed for good. Every variant is typed and
/// final — transient failures are retried internally, never surfaced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClientError {
    /// The retry budget ran out; `last` is the final transient failure.
    Exhausted {
        /// Attempts made.
        attempts: u32,
        /// The last transient failure, rendered.
        last: String,
    },
    /// The server rejected the request with a typed application error —
    /// deterministic, so retrying would be futile.
    Rejected {
        /// One of [`crate::protocol::error_code`]'s constants.
        code: u16,
        /// Server-provided detail.
        message: String,
    },
    /// The resume handshake or a replayed frame did not line up with what
    /// this client already observed — the one outcome that must never be
    /// silent.
    Divergence {
        /// What failed to line up.
        detail: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Exhausted { attempts, last } => {
                write!(
                    f,
                    "retry budget exhausted after {attempts} attempts: {last}"
                )
            }
            ClientError::Rejected { code, message } => {
                write!(f, "rejected (code {code}): {message}")
            }
            ClientError::Divergence { detail } => write!(f, "reply-stream divergence: {detail}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// One attached connection and the server's resume coordinates from its
/// `HelloAck`.
#[derive(Debug)]
struct Attached {
    client: Client,
    server_next: u64,
    server_chain: u64,
}

/// A tenant client that survives transport faults with byte-identical
/// replies.
#[derive(Debug)]
pub struct ResilientClient {
    addr: SocketAddr,
    config: TenantConfig,
    opts: RetryOpts,
    /// Fault plans by the connection index their `conn` field names;
    /// connections with no plan run clean.
    faults: Vec<NetFaultPlan>,
    conn_index: u64,
    conn: Option<Attached>,
    /// Client-side batch cursor: the next batch to submit.
    next_batch: u64,
    /// Reply-chain digest after the last `BatchDone` this client saw.
    last_chain: Option<u64>,
    counters: RetryCounters,
    /// Wire bytes of connections already closed.
    closed_sent: u64,
    closed_received: u64,
}

/// Classifies a typed server `Error` frame: a mid-frame read-deadline kill
/// (`TIMED_OUT`) is the server ending a stalled *connection*, not the
/// request — transient, reconnect and retry. Everything else is a
/// deterministic application rejection and final.
fn rejected(code: u16, message: String) -> TryErr {
    if code == error_code::TIMED_OUT {
        TryErr::Transient(format!("server closed a stalled connection: {message}"))
    } else {
        TryErr::Fatal(ClientError::Rejected { code, message })
    }
}

/// Internal: a failure during one attempt.
enum TryErr {
    /// Worth a reconnect + retry (transport faults, deadline expiries,
    /// shed notices).
    Transient(String),
    /// Final; surfaced to the caller as-is.
    Fatal(ClientError),
}

impl ResilientClient {
    /// A client for `config`'s tenant at `addr`. No connection is made
    /// until the first request.
    pub fn new(addr: SocketAddr, config: TenantConfig, opts: RetryOpts) -> Self {
        ResilientClient {
            addr,
            config,
            opts,
            faults: Vec::new(),
            conn_index: 0,
            conn: None,
            next_batch: 0,
            last_chain: None,
            counters: RetryCounters::default(),
            closed_sent: 0,
            closed_received: 0,
        }
    }

    /// Attaches deterministic fault plans; each applies to the connection
    /// whose 0-based index equals its `conn` field.
    pub fn with_faults(mut self, faults: Vec<NetFaultPlan>) -> Self {
        self.faults = faults;
        self
    }

    /// What this client absorbed so far.
    pub fn counters(&self) -> RetryCounters {
        self.counters
    }

    /// Total `(sent, received)` wire bytes across every connection this
    /// client opened.
    pub fn wire_bytes(&self) -> (u64, u64) {
        let (mut s, mut r) = (self.closed_sent, self.closed_received);
        if let Some(att) = &self.conn {
            s += att.client.transport().bytes_sent();
            r += att.client.transport().bytes_received();
        }
        (s, r)
    }

    /// The next batch this client will submit.
    pub fn next_batch(&self) -> u64 {
        self.next_batch
    }

    /// Drops the current connection, banking its byte counters.
    fn drop_conn(&mut self) {
        if let Some(att) = self.conn.take() {
            self.closed_sent += att.client.transport().bytes_sent();
            self.closed_received += att.client.transport().bytes_received();
        }
    }

    /// Ensures an attached connection, reconnecting and re-attaching as
    /// needed.
    fn ensure_attached(&mut self) -> Result<(), TryErr> {
        if self.conn.is_some() {
            return Ok(());
        }
        let plan = self
            .faults
            .iter()
            .copied()
            .find(|p| p.conn == self.conn_index);
        let reconnect = self.conn_index > 0;
        self.conn_index += 1;
        let mut client = Client::connect_with(self.addr, plan, self.opts.deadline)
            .map_err(|e| TryErr::Transient(format!("connect: {e}")))?;
        if reconnect {
            self.counters.reconnects += 1;
        }
        match client.hello(self.config.clone()) {
            Ok(Frame::HelloAck {
                next_batch,
                reply_chain,
                ..
            }) => {
                // Re-seed the expected digest chain from the server's
                // acked state. If the server expects the batch we are
                // about to (re-)send, its chain must equal the one we
                // observed — anything else is a divergence, not a retry.
                if next_batch == self.next_batch {
                    if let Some(chain) = self.last_chain {
                        if chain != reply_chain {
                            return Err(TryErr::Fatal(ClientError::Divergence {
                                detail: format!(
                                    "re-attach at batch {next_batch}: server chain \
                                     {reply_chain:#x} != observed {chain:#x}"
                                ),
                            }));
                        }
                    }
                }
                self.conn = Some(Attached {
                    client,
                    server_next: next_batch,
                    server_chain: reply_chain,
                });
                Ok(())
            }
            Ok(Frame::Busy { retry_after_ms }) => {
                self.counters.sheds += 1;
                std::thread::sleep(
                    Duration::from_millis(u64::from(retry_after_ms)).min(self.opts.busy_cap),
                );
                Err(TryErr::Transient("shed with Busy".into()))
            }
            Ok(Frame::Error { code, message }) => Err(rejected(code, message)),
            Ok(other) => Err(TryErr::Fatal(ClientError::Divergence {
                detail: format!("unexpected Hello reply: {other:?}"),
            })),
            Err(e) => Err(self.transient(e, "hello")),
        }
    }

    /// Classifies a wire error as a transient failure, counting deadline
    /// expiries.
    fn transient(&mut self, e: WireError, what: &str) -> TryErr {
        if matches!(e, WireError::TimedOut { .. }) {
            self.counters.timeouts += 1;
        }
        TryErr::Transient(format!("{what}: {e}"))
    }

    /// One attempt at submitting (or recovering) `batch`.
    fn try_batch(&mut self, batch: u64, seqs: &[Vec<PageId>]) -> Result<Frame, TryErr> {
        self.ensure_attached()?;
        let att = self.conn.as_mut().expect("just attached");
        let (server_next, server_chain) = (att.server_next, att.server_chain);

        if server_next == batch + 1 {
            // The server served this batch but the reply was lost in a
            // cut: fetch the cached frame. Its chain must equal the
            // handshake's — the server's chain after `batch` — or the
            // streams have diverged.
            let reply = match att.client.call(&Frame::Replay { batch }) {
                Ok(f) => f,
                Err(e) => return Err(self.transient(e, "replay")),
            };
            return match reply {
                Frame::BatchDone {
                    batch: b, chain, ..
                } if b == batch => {
                    if chain != server_chain {
                        return Err(TryErr::Fatal(ClientError::Divergence {
                            detail: format!(
                                "replayed batch {batch} chain {chain:#x} != \
                                 server re-attach chain {server_chain:#x}"
                            ),
                        }));
                    }
                    self.counters.replays += 1;
                    self.last_chain = Some(chain);
                    Ok(reply)
                }
                Frame::Error { code, message } => Err(rejected(code, message)),
                other => Err(TryErr::Fatal(ClientError::Divergence {
                    detail: format!("unexpected Replay reply: {other:?}"),
                })),
            };
        }

        if server_next != batch {
            return Err(TryErr::Fatal(ClientError::Divergence {
                detail: format!(
                    "server expects batch {server_next}, client is at {batch} — \
                     cursors irreconcilable"
                ),
            }));
        }

        let reply = match att.client.call_batch(batch, seqs) {
            Ok(f) => f,
            Err(e) => return Err(self.transient(e, "batch")),
        };
        match reply {
            Frame::BatchDone {
                batch: b, chain, ..
            } if b == batch => {
                // Keep the resume coordinates current so a later fault on
                // this same connection re-attaches correctly.
                att.server_next = batch + 1;
                att.server_chain = chain;
                self.last_chain = Some(chain);
                Ok(reply)
            }
            Frame::Error { code, message } => Err(rejected(code, message)),
            other => Err(TryErr::Fatal(ClientError::Divergence {
                detail: format!("unexpected Batch reply: {other:?}"),
            })),
        }
    }

    /// Submits the next batch, surviving transport faults; returns the
    /// `BatchDone` a clean run would have produced.
    ///
    /// # Errors
    /// A typed [`ClientError`] once the retry budget is exhausted, the
    /// server rejects the request, or the reply stream diverges.
    pub fn run_batch(&mut self, seqs: &[Vec<PageId>]) -> Result<Frame, ClientError> {
        let batch = self.next_batch;
        let mut attempts = 0u32;
        let mut last = String::new();
        while attempts < self.opts.max_attempts {
            match self.try_batch(batch, seqs) {
                Ok(frame) => {
                    self.next_batch = batch + 1;
                    return Ok(frame);
                }
                Err(TryErr::Fatal(e)) => return Err(e),
                Err(TryErr::Transient(reason)) => {
                    self.drop_conn();
                    attempts += 1;
                    if attempts > 1 {
                        self.counters.retries += 1;
                    }
                    last = reason;
                    let backoff = jittered_backoff(
                        self.opts.backoff_base,
                        self.opts.backoff_cap,
                        attempts - 1,
                        self.opts.seed,
                    );
                    if !backoff.is_zero() {
                        std::thread::sleep(backoff);
                    }
                }
            }
        }
        Err(ClientError::Exhausted { attempts, last })
    }

    /// Closes the session cleanly (best effort).
    pub fn goodbye(&mut self) {
        if let Some(att) = &mut self.conn {
            let _ = att.client.call(&Frame::Goodbye);
        }
        self.drop_conn();
    }
}
