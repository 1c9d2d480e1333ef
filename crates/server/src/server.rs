//! The `parapage serve` daemon: a TCP accept loop handing each connection
//! to a session thread that speaks the [`crate::protocol`] frame stream.
//!
//! Sessions are keyed by tenant name: a `Hello` either admits a new tenant
//! (subject to the `max_tenants` cap) or re-attaches to an existing one
//! (the declared configuration must match — this is what a client does
//! after reconnecting, and what lets several connections feed one tenant).
//! Each tenant's engine work runs under the per-batch [`Supervisor`] in
//! [`crate::tenant`], so a tenant's crash — injected via `Kill` or genuine
//! — is absorbed inside its own session and never takes down the process
//! or perturbs any other tenant's replies.
//!
//! Three resilience mechanisms harden the daemon against a hostile
//! network (see the `chaos --net` matrix):
//!
//! * **Read deadlines.** Every session socket carries
//!   [`ServeOpts::read_timeout`]. A timeout *mid-frame* is a slow-loris
//!   or dead peer — the server answers with a typed
//!   `Error { TIMED_OUT }` and closes. A timeout at a frame *boundary*
//!   is mere idleness — the connection closes quietly and the tenant's
//!   idle clock starts ticking.
//! * **Idle-tenant expiry.** A reaper thread parks tenants with no
//!   attached connection for longer than [`ServeOpts::idle_ttl`]: the
//!   session stays in the tenant table, out of the `max_tenants` count,
//!   with its pending kill and migrate orders dropped. Between batches a
//!   session is only a cursor, a chain digest, a budget, its counters and
//!   the last reply, so an encoded copy would free nothing. A later
//!   `Hello` for that tenant re-attaches the session — same reply chain,
//!   same batch cursor, same remaining budget — so expiry is invisible on
//!   the wire. Parked tenants are bounded too: a new tenant admitted while
//!   `max_tenants` are parked drops the one parked longest (`Stats` keeps
//!   its counters), so the table never holds more than `2·max_tenants`;
//!   a later `Hello` under that name starts a new session at batch 0.
//! * **Load shedding.** Beyond [`ServeOpts::max_conns`] live
//!   connections, the accept loop answers with a typed
//!   [`Frame::Busy`] carrying a retry-after hint and closes, instead of
//!   queueing work it cannot serve. Clients back off and retry; nothing
//!   is silently dropped.
//!
//! Every lock goes through [`crate::yieldpoint::acquire`]. A panic under
//! a session lock quarantines that tenant alone (typed `ENGINE_FAILED`
//! replies); `Stats`, the reaper and other tenants keep working. The
//! per-frame step, reaper sweep and register step are functions of the
//! shared state, which the schedule explorer ([`crate::explore`]) drives.
//!
//! Backpressure is the transport itself: the protocol is strictly
//! request/reply per connection and frames are bounded by
//! [`crate::protocol::MAX_FRAME`], so a slow reader throttles only its own
//! TCP window while the server holds at most one in-flight batch per
//! connection thread.

use std::collections::{BTreeMap, HashMap};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parapage::core::policy;

use crate::protocol::{
    c2s_chain_seed, error_code, s2c_chain_seed, Frame, Request, ServerStats, TenantConfig,
    WireError, WireState, MAX_FRAME, MAX_PROCS, MAX_SHARDS, MAX_TENANT_NAME, PROTO_VERSION,
};
use crate::tenant::{TenantCounters, TenantOpts, TenantSession};
use crate::yieldpoint::{acquire, try_acquire, Held, LockName};

/// Server-wide knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServeOpts {
    /// Admission control: tenants admitted concurrently.
    pub max_tenants: usize,
    /// Admission control: cumulative page-request budget per tenant.
    pub request_budget: u64,
    /// WAL checkpoint cadence of tenant engine runs (engine events per
    /// supervisor epoch).
    pub epoch_ticks: u64,
    /// Crash budget per tenant batch.
    pub max_retries: u32,
    /// Per-session socket read deadline. Mid-frame expiry is answered
    /// with a typed `TIMED_OUT` error; boundary expiry closes quietly.
    /// `None` blocks forever (the pre-chaos behavior).
    pub read_timeout: Option<Duration>,
    /// Park tenants with no attached connection for this long: they leave
    /// the `max_tenants` count, drop their pending kill and migrate
    /// orders, and a later `Hello` re-attaches them — unless, with
    /// `max_tenants` parked, a new tenant took the place of the one parked
    /// longest. `None` disables expiry.
    pub idle_ttl: Option<Duration>,
    /// Live-connection cap; beyond it new connections are shed with a
    /// typed [`Frame::Busy`].
    pub max_conns: usize,
    /// The retry-after hint carried by shed notices, in milliseconds.
    pub busy_retry_ms: u32,
}

impl Default for ServeOpts {
    fn default() -> Self {
        ServeOpts {
            max_tenants: 64,
            request_budget: u64::MAX,
            epoch_ticks: 8,
            max_retries: 8,
            read_timeout: Some(Duration::from_secs(30)),
            idle_ttl: None,
            max_conns: 1024,
            busy_retry_ms: 25,
        }
    }
}

/// A tenant's session behind its lock, with the name its lock goes by.
pub(crate) struct Session {
    pub(crate) name: String,
    pub(crate) state: Mutex<TenantSession>,
}

impl Session {
    /// Takes the session's lock; a poisoned session is quarantined.
    pub(crate) fn lock(&self) -> Result<Held<'_, TenantSession>, (u16, String)> {
        acquire(&self.state, LockName::Session(&self.name)).map_err(|_| {
            (
                error_code::ENGINE_FAILED,
                format!(
                    "tenant `{}` is quarantined: a panic poisoned its session",
                    self.name
                ),
            )
        })
    }
}

/// Takes a table's lock. A poisoned table is recovered: every table
/// mutation runs after the work that can fail, so the data is whole.
pub(crate) fn table<'a, T>(lock: &'a Mutex<T>, name: LockName<'a>) -> Held<'a, T> {
    acquire(lock, name).unwrap_or_else(PoisonError::into_inner)
}

/// One tenant plus its attachment bookkeeping for idle expiry.
///
/// Lock order: the `tenants` table, then a session — and no path *waits*
/// on a session lock while it holds the table, because a batch holds its
/// session's lock for the whole run. The session's config is copied here
/// so a re-attaching `Hello` can be checked without one.
pub(crate) struct TenantEntry {
    pub(crate) session: Arc<Session>,
    config: TenantConfig,
    /// Connections currently attached via `Hello`.
    pub(crate) attached: usize,
    /// When `attached` last dropped to zero (meaningful only then).
    idle_since: Instant,
    /// Expired by the reaper: out of the `max_tenants` count until a
    /// `Hello` re-attaches it. Boxed, so an entry is no larger than with
    /// a flag: the table's nodes hold entries inline, and every tenant's
    /// heap is counted.
    pub(crate) parked: Option<Box<Parked>>,
}

/// When a tenant was parked, and what it had served by then (a parked
/// session runs nothing until it is re-attached).
pub(crate) struct Parked {
    /// Position in the server's parking order: the expiry count before it.
    order: u64,
    counters: TenantCounters,
}

impl TenantEntry {
    /// Counts one more attached connection (un-parking the tenant) and
    /// returns the session to attach it to.
    pub(crate) fn attach(&mut self) -> Arc<Session> {
        self.attached += 1;
        self.parked = None;
        Arc::clone(&self.session)
    }
}

/// The tenant table: every tenant by name, parked ones included, in name
/// order, and the counters of the parked tenants dropped from it, which
/// `Stats` still counts. It reads as its map.
#[derive(Default)]
pub(crate) struct Tenants {
    entries: BTreeMap<String, TenantEntry>,
    dropped: TenantCounters,
}

impl std::ops::Deref for Tenants {
    type Target = BTreeMap<String, TenantEntry>;
    fn deref(&self) -> &Self::Target {
        &self.entries
    }
}

impl std::ops::DerefMut for Tenants {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.entries
    }
}

impl Tenants {
    /// Makes room for a new tenant among the parked ones: at `max`
    /// parked tenants, drops the one parked longest, keeping its counters.
    /// With at most `max` live tenants, the table then never holds more
    /// than `2·max` entries.
    fn bound_parked(&mut self, max: usize) {
        let parked = (self.entries.iter()).filter_map(|(name, e)| Some((e.parked.as_ref()?, name)));
        if parked.clone().count() < max {
            return;
        }
        let Some((oldest, name)) = parked.min_by_key(|(p, _)| p.order) else {
            return;
        };
        let name = name.clone();
        self.dropped.add(&oldest.counters);
        self.entries.remove(&name);
    }
}

/// Shared server state: everything a connection, the reaper and the
/// accept loop share, and all a schedule explorer needs of a server.
pub(crate) struct ServerState {
    opts: ServeOpts,
    /// The listening address, which shutdown connects to in order to wake
    /// the accept loop; `None` for a core with no listener.
    addr: Option<SocketAddr>,
    /// Every tenant by name, parked ones included, in name order, so a
    /// sweep and a `Stats` fold take session locks in one order every run.
    pub(crate) tenants: Mutex<Tenants>,
    /// Clones of every live connection's stream (`None` where cloning
    /// failed, or for a core with no sockets), keyed by connection id, so
    /// shutdown can unblock handlers parked in a read. A handler removes
    /// its own entry on exit (the clone would otherwise hold the socket
    /// open past the handler's lifetime and the table would grow for as
    /// long as the daemon lives). The `shutting_down` flag is set and
    /// checked under this same lock — that is what closes the
    /// register-after-shutdown race (a connection is either drained here
    /// or observes the flag and never registers).
    pub(crate) conns: Mutex<HashMap<u64, Option<TcpStream>>>,
    pub(crate) next_conn: AtomicU64,
    live_conns: AtomicUsize,
    admitted: AtomicU64,
    next_session: AtomicU64,
    expiries: AtomicU64,
    shed: AtomicU64,
    pub(crate) shutting_down: AtomicBool,
}

impl ServerState {
    /// A server core with no tenants and no connections.
    pub(crate) fn new(opts: ServeOpts, addr: Option<SocketAddr>) -> ServerState {
        ServerState {
            opts,
            addr,
            tenants: Mutex::new(Tenants::default()),
            conns: Mutex::new(HashMap::new()),
            next_conn: AtomicU64::new(0),
            live_conns: AtomicUsize::new(0),
            admitted: AtomicU64::new(0),
            next_session: AtomicU64::new(1),
            expiries: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            shutting_down: AtomicBool::new(false),
        }
    }

    pub(crate) fn stats(&self) -> ServerStats {
        let admitted = self.admitted.load(Ordering::SeqCst);
        let expiries = self.expiries.load(Ordering::SeqCst);
        let shed = self.shed.load(Ordering::SeqCst);
        // One consistent membership under the table lock, starting from
        // the counters of the tenants dropped before it; the sessions are
        // locked only after the table is released.
        let (mut c, sessions) = {
            let tenants = table(&self.tenants, LockName::Tenants);
            let sessions: Vec<Arc<Session>> =
                (tenants.values()).map(|e| Arc::clone(&e.session)).collect();
            (tenants.dropped, sessions)
        };
        // A quarantined tenant's counters are left out: its session may
        // have been torn mid-batch.
        for session in sessions {
            if let Ok(t) = session.lock() {
                c.add(&t.counters());
            }
        }
        ServerStats {
            tenants: admitted,
            batches: c.batches,
            requests: c.requests,
            restarts: c.restarts,
            migrations: c.migrations,
            wal_records: c.wal_records,
            checkpoint_bytes: c.checkpoint_bytes,
            expiries,
            shed,
        }
    }
}

/// A running server: its bound address and the accept thread.
pub struct ServerHandle {
    state: Arc<ServerState>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    reaper: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server is listening on (with the OS-assigned port
    /// when bound to port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current server-wide operational counters (what `Stats` returns on
    /// the wire).
    pub fn stats(&self) -> ServerStats {
        self.state.stats()
    }

    /// Begins shutdown directly, without a wire round-trip.
    ///
    /// The wire `Shutdown` frame is admission-gated like any other
    /// connection, so a server at its connection cap sheds it with `Busy`;
    /// an in-process owner holding the handle can always shut down, which
    /// is what the chaos matrix and the load driver rely on.
    pub fn shutdown(&self) {
        begin_shutdown(&self.state);
    }

    /// Blocks until the accept loop exits (a client sent `Shutdown` or the
    /// handle's owner called [`ServerHandle::shutdown`]) and every session
    /// thread has drained; returns the final counters.
    pub fn join(mut self) -> ServerStats {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(h) = self.reaper.take() {
            let _ = h.join();
        }
        self.state.stats()
    }
}

/// Binds `addr` and starts the accept loop on its own thread.
///
/// # Errors
/// Any bind failure, verbatim.
pub fn serve(addr: impl ToSocketAddrs, opts: ServeOpts) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let state = Arc::new(ServerState::new(opts, Some(addr)));
    let accept_state = Arc::clone(&state);
    let accept = std::thread::spawn(move || accept_loop(listener, accept_state));
    let reaper = opts.idle_ttl.map(|ttl| {
        let reaper_state = Arc::clone(&state);
        std::thread::spawn(move || reaper_loop(reaper_state, ttl))
    });
    Ok(ServerHandle {
        state,
        addr,
        accept: Some(accept),
        reaper,
    })
}

fn accept_loop(listener: TcpListener, state: Arc<ServerState>) {
    let mut sessions: Vec<JoinHandle<()>> = Vec::new();
    for conn in listener.incoming() {
        if state.shutting_down.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        // Admission-level load shedding: beyond the connection cap the
        // peer gets a typed Busy with a retry hint, never a silent drop
        // or an unbounded queue.
        if state.live_conns.load(Ordering::SeqCst) >= state.opts.max_conns {
            state.shed.fetch_add(1, Ordering::SeqCst);
            let mut stream = stream;
            let mut tx = WireState::new(s2c_chain_seed());
            let _ = tx.write_frame(
                &mut stream,
                &Frame::Busy {
                    retry_after_ms: state.opts.busy_retry_ms,
                },
            );
            let _ = stream.shutdown(std::net::Shutdown::Both);
            continue;
        }
        let Some(conn_id) = register(&state, stream.try_clone().ok()) else {
            let _ = stream.shutdown(std::net::Shutdown::Both);
            break;
        };
        let _ = stream.set_read_timeout(state.opts.read_timeout);
        state.live_conns.fetch_add(1, Ordering::SeqCst);
        let conn_state = Arc::clone(&state);
        sessions.push(std::thread::spawn(move || {
            // A connection thread owns its stream; any transport or
            // protocol failure ends only this session.
            handle_connection(stream, &conn_state);
            // Drop the registered clone too, so the socket actually
            // closes (the peer sees EOF) and the table stays bounded.
            table(&conn_state.conns, LockName::Conns).remove(&conn_id);
            conn_state.live_conns.fetch_sub(1, Ordering::SeqCst);
        }));
    }
    for h in sessions {
        let _ = h.join();
    }
}

/// The accept loop's register step: under the `conns` lock, where the
/// shutdown flag is set, record the connection's `clone` and return its
/// id, or see the shutdown and return `None`; no handler is stranded.
pub(crate) fn register(state: &ServerState, clone: Option<TcpStream>) -> Option<u64> {
    let mut conns = table(&state.conns, LockName::Conns);
    if state.shutting_down.load(Ordering::SeqCst) {
        return None;
    }
    let conn_id = state.next_conn.fetch_add(1, Ordering::SeqCst);
    conns.insert(conn_id, clone);
    Some(conn_id)
}

fn reaper_loop(state: Arc<ServerState>, ttl: Duration) {
    let tick = (ttl / 4).clamp(Duration::from_millis(5), Duration::from_millis(50));
    while !state.shutting_down.load(Ordering::SeqCst) {
        std::thread::sleep(tick);
        reap(&state, ttl);
    }
}

/// The reaper's sweep: parks the tenants with no attached connection for
/// `ttl`, for a later `Hello` to re-attach, and returns their names. A
/// held session (a `Stats` fold) is not idle after all and a quarantined
/// one is never parked; both wait for the next sweep.
pub(crate) fn reap(state: &ServerState, ttl: Duration) -> Vec<String> {
    let mut tenants = table(&state.tenants, LockName::Tenants);
    let mut parked = Vec::new();
    for (name, entry) in tenants.iter_mut() {
        if entry.parked.is_some() || entry.attached > 0 || entry.idle_since.elapsed() < ttl {
            continue;
        }
        let session = &entry.session;
        let Some(Ok(mut t)) = try_acquire(&session.state, LockName::Session(&session.name)) else {
            continue;
        };
        t.park();
        entry.parked = Some(Box::new(Parked {
            order: state.expiries.fetch_add(1, Ordering::SeqCst),
            counters: t.counters(),
        }));
        parked.push(name.clone());
    }
    parked
}

/// Wakes the blocking `accept` so the loop observes the shutdown flag, and
/// closes every live connection so handlers parked in a read drain too —
/// a shutdown must not wait on clients that never hang up. The flag is
/// raised under the `conns` lock so no connection can register after the
/// drain (the register-after-shutdown race).
pub(crate) fn begin_shutdown(state: &ServerState) {
    {
        let mut conns = table(&state.conns, LockName::Conns);
        state.shutting_down.store(true, Ordering::SeqCst);
        for conn in conns.drain().filter_map(|(_, conn)| conn) {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
    }
    if let Some(addr) = state.addr {
        let _ = TcpStream::connect(addr);
    }
}

/// Notes that a connection hung up on `name`.
pub(crate) fn detach(state: &ServerState, name: &str) {
    release(&mut table(&state.tenants, LockName::Tenants), name);
}

/// Counts one attached connection fewer on `name`, starting the idle
/// clock when it was the last.
fn release(tenants: &mut BTreeMap<String, TenantEntry>, name: &str) {
    if let Some(entry) = tenants.get_mut(name) {
        entry.attached = entry.attached.saturating_sub(1);
        if entry.attached == 0 {
            entry.idle_since = Instant::now();
        }
    }
}

fn handle_connection(mut stream: TcpStream, state: &ServerState) {
    // The tenant this connection attached to via Hello.
    let mut attached: Option<Arc<Session>> = None;
    // A panic under a session lock poisons that session alone: the tenant
    // is quarantined, and this connection still detaches.
    let _ = catch_unwind(AssertUnwindSafe(|| {
        connection_loop(&mut stream, state, &mut attached)
    }));
    if let Some(session) = attached {
        detach(state, &session.name);
    }
}

fn connection_loop(
    stream: &mut TcpStream,
    state: &ServerState,
    attached: &mut Option<Arc<Session>>,
) -> Result<(), WireError> {
    let mut rx = WireState::new(c2s_chain_seed());
    let mut tx = WireState::new(s2c_chain_seed());
    loop {
        let request = match rx.read_request(stream) {
            Ok(f) => f,
            Err(WireError::Closed) => return Ok(()),
            Err(WireError::TimedOut { mid_frame }) => {
                if mid_frame {
                    // Slow-loris or dead peer: the deadline expired with a
                    // frame partially delivered. Answer with the typed
                    // reason, then close — the receive chain is broken.
                    let _ = tx.write_frame(
                        stream,
                        &Frame::Error {
                            code: error_code::TIMED_OUT,
                            message: "read deadline expired mid-frame".into(),
                        },
                    );
                    return Err(WireError::TimedOut { mid_frame });
                }
                // Idle at a frame boundary: close quietly; the tenant's
                // idle clock (and eventual expiry) takes it from here.
                return Ok(());
            }
            Err(WireError::Codec(e)) => {
                // Malformed input: report the typed reason, then close —
                // the receive chain is broken, nothing after it can
                // verify.
                let _ = tx.write_frame(
                    stream,
                    &Frame::Error {
                        code: error_code::BAD_FRAME,
                        message: format!("{e}"),
                    },
                );
                return Err(WireError::Codec(e));
            }
            Err(e) => return Err(e),
        };
        let reply = serve_frame(state, request, attached);
        tx.write_frame(stream, &reply)?;
        match reply {
            Frame::GoodbyeAck => return Ok(()),
            Frame::ShutdownAck => {
                begin_shutdown(state);
                return Ok(());
            }
            _ => {}
        }
    }
}

/// The connection loop's per-frame step for a connection attached (via
/// `Hello`) to `attached`. The loop closes after a `GoodbyeAck`, and
/// begins the shutdown after a `ShutdownAck`. Every batch is served from
/// page runs: the wire's, or those a [`Frame::Batch`] converts into.
pub(crate) fn serve_frame(
    state: &ServerState,
    request: impl Into<Request>,
    attached: &mut Option<Arc<Session>>,
) -> Frame {
    match request.into() {
        Request::Batch { batch, seqs } => on_session(attached, |t| t.run_batch(batch, &seqs)),
        Request::Frame(Frame::Hello { proto, config }) => {
            match admit(state, proto, config, attached) {
                Ok(ack) => ack,
                Err((code, message)) => Frame::Error { code, message },
            }
        }
        Request::Frame(Frame::Replay { batch }) => on_session(attached, |t| t.replay(batch)),
        Request::Frame(Frame::Migrate { batch, at_tick }) => on_session(attached, |t| {
            Ok(Frame::MigrateAck {
                pending: t.queue_migration(batch, at_tick),
            })
        }),
        Request::Frame(Frame::Kill { batch, at_tick }) => on_session(attached, |t| {
            Ok(Frame::KillAck {
                pending: t.queue_kill(batch, at_tick),
            })
        }),
        Request::Frame(Frame::Stats) => Frame::StatsReply {
            stats: state.stats(),
        },
        Request::Frame(Frame::Goodbye) => Frame::GoodbyeAck,
        Request::Frame(Frame::Shutdown) => Frame::ShutdownAck,
        // Server-to-client frames arriving at the server are a state
        // violation, not a codec one: the bytes were well-formed.
        _ => Frame::Error {
            code: error_code::BAD_STATE,
            message: "unexpected frame direction".into(),
        },
    }
}

/// Runs `op` under the attached session's lock, or says why it cannot.
fn on_session(
    attached: &Option<Arc<Session>>,
    op: impl FnOnce(&mut TenantSession) -> Result<Frame, (u16, String)>,
) -> Frame {
    let Some(session) = attached else {
        return Frame::Error {
            code: error_code::BAD_STATE,
            message: "no session: send Hello first".into(),
        };
    };
    match session.lock().and_then(|mut t| op(&mut t)) {
        Ok(reply) => reply,
        Err((code, message)) => Frame::Error { code, message },
    }
}

/// The `HelloAck` for `session`, under a fresh session id.
pub(crate) fn hello_ack(state: &ServerState, session: &TenantSession) -> Frame {
    Frame::HelloAck {
        session: state.next_session.fetch_add(1, Ordering::SeqCst),
        max_frame: MAX_FRAME as u64,
        budget_left: session.budget_left(),
        next_batch: session.next_batch(),
        reply_chain: session.chain(),
    }
}

/// Validates a `Hello` and admits or re-attaches (a parked one too) the
/// tenant, moving the connection's attachment to it; returns the
/// `HelloAck`.
///
/// The move is one step under the tenant table: the previous tenant
/// (re-`Hello`) loses the attachment where the new one gains it, so the
/// reaper never sees the connection on both or on neither. A `Hello` that
/// fails validation keeps the previous attachment; one that finds its
/// tenant quarantined leaves the connection attached to none.
fn admit(
    state: &ServerState,
    proto: u16,
    config: TenantConfig,
    attached: &mut Option<Arc<Session>>,
) -> Result<Frame, (u16, String)> {
    if proto != PROTO_VERSION {
        return Err((
            error_code::BAD_VERSION,
            format!("protocol {proto} not supported (server speaks {PROTO_VERSION})"),
        ));
    }
    if config.tenant.is_empty() || config.tenant.len() > MAX_TENANT_NAME {
        return Err((error_code::BAD_FRAME, "invalid tenant name".into()));
    }
    // `shared-lru` runs outside the box engine, so it is not servable.
    if !policy::NAMES.contains(&config.policy.as_str()) {
        return Err((
            error_code::BAD_FRAME,
            format!("unknown or unservable policy `{}`", config.policy),
        ));
    }
    if config.p == 0 || config.p > MAX_PROCS || config.k < config.p || config.s < 2 {
        return Err((
            error_code::BAD_FRAME,
            format!(
                "invalid model: p={} k={} s={} (need 0<p<={MAX_PROCS}, k>=p, s>=2)",
                config.p, config.k, config.s
            ),
        ));
    }
    if config.shards == 0 || config.shards > MAX_SHARDS {
        return Err((
            error_code::BAD_FRAME,
            format!("shards must be in 1..={MAX_SHARDS}, got {}", config.shards),
        ));
    }
    let mut tenants = table(&state.tenants, LockName::Tenants);
    if let Some(entry) = tenants.get_mut(&config.tenant) {
        if entry.config != config {
            return Err((
                error_code::CONFIG_MISMATCH,
                format!("tenant `{}` exists with a different config", config.tenant),
            ));
        }
        // Attached now, so the reaper leaves it alone; the resume
        // coordinates wait for a running batch, but not under the table
        // lock, so other tenants' `Hello`s do not wait with them.
        let session = entry.attach();
        if let Some(previous) = attached.take() {
            release(&mut tenants, &previous.name);
        }
        drop(tenants);
        let ack = match session.lock() {
            Ok(t) => hello_ack(state, &t),
            Err(quarantined) => {
                detach(state, &session.name);
                return Err(quarantined);
            }
        };
        *attached = Some(session);
        return Ok(ack);
    }
    if tenants.values().filter(|e| e.parked.is_none()).count() >= state.opts.max_tenants {
        return Err((
            error_code::TENANTS_FULL,
            format!("tenant table full ({} tenants)", state.opts.max_tenants),
        ));
    }
    tenants.bound_parked(state.opts.max_tenants);
    let opts = TenantOpts {
        epoch_ticks: state.opts.epoch_ticks,
        max_retries: state.opts.max_retries,
        request_budget: state.opts.request_budget,
    };
    let session = TenantSession::new(config.clone(), opts);
    let ack = hello_ack(state, &session);
    let session = Arc::new(Session {
        name: config.tenant.clone(),
        state: Mutex::new(session),
    });
    tenants.insert(
        config.tenant.clone(),
        TenantEntry {
            session: Arc::clone(&session),
            config,
            attached: 1,
            idle_since: Instant::now(),
            parked: None,
        },
    );
    if let Some(previous) = attached.replace(session) {
        release(&mut tenants, &previous.name);
    }
    state.admitted.fetch_add(1, Ordering::SeqCst);
    Ok(ack)
}

/// The tenant lifecycle across idle expiry, driven through the per-frame
/// step and the reaper sweep on a socket-free core.
#[cfg(test)]
mod lifecycle_tests {
    use super::*;
    use parapage::cache::PageId;

    fn config(tenant: &str) -> TenantConfig {
        TenantConfig {
            tenant: tenant.into(),
            p: 2,
            k: 4,
            s: 2,
            policy: "det-par".into(),
            seed: 7,
            shards: 2,
        }
    }

    fn core(max_tenants: usize) -> ServerState {
        let opts = ServeOpts {
            max_tenants,
            ..ServeOpts::default()
        };
        ServerState::new(opts, None)
    }

    /// A connection: what it is attached to.
    type Conn = Option<Arc<Session>>;

    fn hello_with(state: &ServerState, conn: &mut Conn, config: TenantConfig) -> Frame {
        let proto = PROTO_VERSION;
        serve_frame(state, Frame::Hello { proto, config }, conn)
    }

    fn hello(state: &ServerState, conn: &mut Conn, tenant: &str) -> Frame {
        hello_with(state, conn, config(tenant))
    }

    fn batch(state: &ServerState, conn: &mut Conn, batch: u64) -> Frame {
        let seqs = (0..2u64)
            .map(|q| {
                (0..8u64)
                    .map(|i| PageId((q << 16) | ((i + batch) % 5)))
                    .collect()
            })
            .collect();
        serve_frame(state, Frame::Batch { batch, seqs }, conn)
    }

    /// `Goodbye`, then the hang-up that detaches the connection.
    fn goodbye(state: &ServerState, conn: &mut Conn) {
        assert_eq!(serve_frame(state, Frame::Goodbye, conn), Frame::GoodbyeAck);
        if let Some(session) = conn.take() {
            detach(state, &session.name);
        }
    }

    fn stats(state: &ServerState) -> ServerStats {
        match serve_frame(state, Frame::Stats, &mut None) {
            Frame::StatsReply { stats } => stats,
            other => panic!("Stats answered {other:?}"),
        }
    }

    /// The resume coordinates of a `HelloAck`: next batch and reply chain.
    fn resume(ack: &Frame) -> (u64, u64) {
        match ack {
            Frame::HelloAck {
                next_batch,
                reply_chain,
                ..
            } => (*next_batch, *reply_chain),
            other => panic!("expected HelloAck, got {other:?}"),
        }
    }

    fn error_code_of(reply: &Frame) -> u16 {
        match reply {
            Frame::Error { code, .. } => *code,
            other => panic!("expected an error, got {other:?}"),
        }
    }

    fn chain_of(reply: &Frame) -> u64 {
        match reply {
            Frame::BatchDone { chain, .. } => *chain,
            other => panic!("expected BatchDone, got {other:?}"),
        }
    }

    /// `tenant` serves batch 0, hangs up and is parked by a sweep (nothing
    /// else is idle); returns the chain after batch 0.
    fn serve_then_park(state: &ServerState, tenant: &str) -> u64 {
        let mut conn = None;
        resume(&hello(state, &mut conn, tenant));
        let chain = chain_of(&batch(state, &mut conn, 0));
        goodbye(state, &mut conn);
        assert_eq!(reap(state, Duration::ZERO), [tenant]);
        chain
    }

    #[test]
    fn a_parked_tenant_is_not_counted_and_reattaches_into_a_full_table() {
        // Two places, one taken by `d` throughout: with one place, the
        // parked `a` would be the one parked tenant a cap of one keeps,
        // and dropped for `b`.
        let state = core(2);
        resume(&hello(&state, &mut None, "d"));
        let chain = serve_then_park(&state, "a");
        let mut b = None;
        resume(&hello(&state, &mut b, "b"));
        let mut c = None;
        let full = hello(&state, &mut c, "c");
        assert_eq!(error_code_of(&full), error_code::TENANTS_FULL);
        let mut a = None;
        assert_eq!(resume(&hello(&state, &mut a, "a")), (1, chain));
        assert!(matches!(batch(&state, &mut a, 1), Frame::BatchDone { .. }));
        // Both live now: the table stays full.
        assert_eq!(
            error_code_of(&hello(&state, &mut c, "c")),
            error_code::TENANTS_FULL
        );
        // Re-attached, a counts again, so with b parked the table is
        // still full.
        goodbye(&state, &mut b);
        assert_eq!(reap(&state, Duration::ZERO), ["b"]);
        assert_eq!(
            error_code_of(&hello(&state, &mut c, "c")),
            error_code::TENANTS_FULL
        );
        assert_eq!(stats(&state).tenants, 3);
    }

    fn names(state: &ServerState) -> Vec<String> {
        table(&state.tenants, LockName::Tenants)
            .keys()
            .cloned()
            .collect()
    }

    #[test]
    fn a_new_tenant_drops_the_one_parked_longest_once_max_tenants_are_parked() {
        let state = core(2);
        serve_then_park(&state, "b");
        serve_then_park(&state, "a");
        // Two parked, the cap: `c` takes the place of `b`, parked first.
        let mut c = None;
        resume(&hello(&state, &mut c, "c"));
        assert_eq!(names(&state), ["a", "c"]);
        // A `Hello` under the dropped name starts a new session.
        let mut b = None;
        let fresh = (0, crate::tenant::reply_chain_seed("b"));
        assert_eq!(resume(&hello(&state, &mut b, "b")), fresh);
        assert_eq!(names(&state), ["a", "b", "c"]);
        // `Stats` still counts what the dropped session served.
        let s = stats(&state);
        assert_eq!((s.tenants, s.batches, s.expiries), (4, 2, 2));
        assert_eq!(s.requests, 2 * 16);
    }

    #[test]
    fn a_hello_with_another_config_leaves_the_tenant_parked() {
        let state = core(2);
        let chain = serve_then_park(&state, "a");
        let mut conn = None;
        let other = TenantConfig {
            seed: 8,
            ..config("a")
        };
        let reply = hello_with(&state, &mut conn, other);
        assert_eq!(error_code_of(&reply), error_code::CONFIG_MISMATCH);
        assert!(conn.is_none());
        // Still parked: not due again, and still outside the count.
        assert!(reap(&state, Duration::ZERO).is_empty());
        assert_eq!(stats(&state).expiries, 1);
        resume(&hello(&state, &mut None, "b"));
        resume(&hello(&state, &mut None, "d"));
        assert_eq!(resume(&hello(&state, &mut conn, "a")), (1, chain));
    }

    #[test]
    fn orders_queued_before_expiry_do_not_fire_after_reattach() {
        let state = core(4);
        let mut conn = None;
        resume(&hello(&state, &mut conn, "a"));
        let kill = serve_frame(
            &state,
            Frame::Kill {
                batch: 0,
                at_tick: 2,
            },
            &mut conn,
        );
        assert_eq!(kill, Frame::KillAck { pending: 1 });
        let migrate = serve_frame(
            &state,
            Frame::Migrate {
                batch: 0,
                at_tick: 4,
            },
            &mut conn,
        );
        assert_eq!(migrate, Frame::MigrateAck { pending: 1 });
        goodbye(&state, &mut conn);
        assert_eq!(reap(&state, Duration::ZERO), ["a"]);
        assert_eq!(resume(&hello(&state, &mut conn, "a")).0, 0);
        let done = batch(&state, &mut conn, 0);
        // The batch equals an undisturbed tenant's first batch.
        let control = core(4);
        let mut fresh = None;
        resume(&hello(&control, &mut fresh, "a"));
        assert_eq!(done, batch(&control, &mut fresh, 0));
        let s = stats(&state);
        assert_eq!((s.restarts, s.migrations, s.batches), (0, 0, 1));
    }

    #[test]
    fn stats_read_the_same_across_expiry() {
        let state = core(4);
        let (mut a, mut b) = (None, None);
        resume(&hello(&state, &mut a, "a"));
        resume(&hello(&state, &mut b, "b"));
        for n in 0..2 {
            chain_of(&batch(&state, &mut a, n));
        }
        let kill = serve_frame(
            &state,
            Frame::Kill {
                batch: 0,
                at_tick: 2,
            },
            &mut b,
        );
        assert_eq!(kill, Frame::KillAck { pending: 1 });
        chain_of(&batch(&state, &mut b, 0));
        goodbye(&state, &mut a);
        let before = stats(&state);
        assert!(before.restarts > 0 && before.checkpoint_bytes > 0);
        assert_eq!(reap(&state, Duration::ZERO), ["a"]);
        let expired = ServerStats {
            expiries: before.expiries + 1,
            ..before
        };
        assert_eq!(stats(&state), expired);
        resume(&hello(&state, &mut a, "a"));
        assert_eq!(stats(&state), expired);
    }

    #[test]
    fn a_quarantined_tenant_is_never_parked() {
        let state = core(4);
        let mut conn = None;
        resume(&hello(&state, &mut conn, "a"));
        let session = Arc::clone(conn.as_ref().expect("attached"));
        let poisoned = catch_unwind(AssertUnwindSafe(|| {
            let _held = session.lock();
            std::panic::resume_unwind(Box::new("injected"));
        }));
        assert!(poisoned.is_err());
        goodbye(&state, &mut conn);
        assert!(reap(&state, Duration::ZERO).is_empty());
        assert_eq!(stats(&state).expiries, 0);
        let reply = hello(&state, &mut conn, "a");
        assert_eq!(error_code_of(&reply), error_code::ENGINE_FAILED);
        assert!(reap(&state, Duration::ZERO).is_empty());
    }
}
