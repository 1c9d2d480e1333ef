//! Network-resilience integration tests: the shutdown/registration race,
//! typed overload shedding, slow-loris read deadlines, idle-tenant expiry
//! with checkpoint restore, and the resilient client recovering a severed
//! connection with a byte-identical reply stream.

use std::io::Write;
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use parapage::cache::PageId;
use parapage::conform::{NetFaultKind, NetFaultPlan};
use parapage_server::protocol::{
    error_code, s2c_chain_seed, Frame, TenantConfig, WireError, WireState, WIRE_MAGIC,
};
use parapage_server::server::{serve, ServeOpts, ServerHandle};
use parapage_server::{Client, ClientError, ResilientClient, RetryOpts};

fn config(tenant: &str) -> TenantConfig {
    TenantConfig {
        tenant: tenant.into(),
        p: 2,
        k: 16,
        s: 4,
        policy: "det-par".into(),
        seed: 1,
        shards: 2,
    }
}

fn workload(batch: u64) -> Vec<Vec<PageId>> {
    (0..2u64)
        .map(|x| {
            (0..24u64)
                .map(|i| PageId((batch * 7 + x * 3 + i) % 12))
                .collect()
        })
        .collect()
}

/// Joins a server with a watchdog: a hung shutdown fails the test instead
/// of hanging the suite.
fn join_within(handle: ServerHandle, limit: Duration, what: &str) {
    let (tx, rx) = mpsc::channel();
    let waiter = std::thread::spawn(move || {
        let stats = handle.join();
        let _ = tx.send(stats);
    });
    rx.recv_timeout(limit)
        .unwrap_or_else(|_| panic!("{what}: server join did not complete within {limit:?}"));
    let _ = waiter.join();
}

/// The register-after-shutdown race: connections storm the accept loop
/// while a `Shutdown` lands, with *no* server read timeout, so any
/// connection that registers after the drain would park its handler in a
/// blocking read forever and strand `join`. The flag is raised and checked
/// under the conns lock, so every connection is either drained or refused.
#[test]
fn shutdown_race_never_strands_connections() {
    for round in 0..8u64 {
        let handle = serve(
            "127.0.0.1:0",
            ServeOpts {
                read_timeout: None,
                ..ServeOpts::default()
            },
        )
        .expect("bind");
        let addr = handle.addr();

        // Parked sessions: attached, then silent — their handlers block in
        // a read with no deadline until the shutdown drain severs them.
        let mut parked = Vec::new();
        for t in 0..3 {
            let mut c = Client::connect(addr).expect("connect");
            c.hello(config(&format!("parked-{round}-{t}")))
                .expect("hello");
            parked.push(c);
        }

        // The storm: threads connect-hello-drop in a loop until the
        // listener goes away under them.
        let stormers: Vec<_> = (0..4)
            .map(|t| {
                std::thread::spawn(move || {
                    for i in 0..200 {
                        let Ok(mut c) =
                            Client::connect_with(addr, None, Some(Duration::from_secs(2)))
                        else {
                            break;
                        };
                        if c.hello(config(&format!("storm-{round}-{t}-{i}"))).is_err() {
                            break;
                        }
                    }
                })
            })
            .collect();

        std::thread::sleep(Duration::from_millis(2));
        if let Ok(mut c) = Client::connect_with(addr, None, Some(Duration::from_secs(2))) {
            let _ = c.call(&Frame::Shutdown);
        }

        join_within(handle, Duration::from_secs(10), "shutdown race");
        for s in stormers {
            let _ = s.join();
        }
        drop(parked);
    }
}

/// Beyond the connection cap the server answers with a typed
/// [`Frame::Busy`] carrying its retry hint — never a silent drop.
#[test]
fn overload_shed_is_a_typed_busy() {
    let handle = serve(
        "127.0.0.1:0",
        ServeOpts {
            max_conns: 1,
            busy_retry_ms: 7,
            ..ServeOpts::default()
        },
    )
    .expect("bind");
    let addr = handle.addr();

    let mut occupier = Client::connect(addr).expect("occupier connect");
    occupier.hello(config("occupier")).expect("occupier hello");

    let mut second = Client::connect(addr).expect("second connect");
    match second.hello(config("shed-me")) {
        Ok(Frame::Busy { retry_after_ms }) => assert_eq!(retry_after_ms, 7),
        other => panic!("expected typed Busy from a full server, got {other:?}"),
    }
    assert!(handle.stats().shed >= 1, "server did not count the shed");

    drop(occupier);
    handle.shutdown();
    join_within(handle, Duration::from_secs(10), "shed");
}

/// A peer that trickles half a frame and stalls past the read deadline
/// gets a typed `Error { TIMED_OUT }` before the close; a peer that is
/// merely idle *between* frames is closed quietly (that is idleness, not
/// an attack).
#[test]
fn slow_loris_gets_typed_timeout_idle_boundary_closes_quietly() {
    let handle = serve(
        "127.0.0.1:0",
        ServeOpts {
            read_timeout: Some(Duration::from_millis(30)),
            ..ServeOpts::default()
        },
    )
    .expect("bind");
    let addr = handle.addr();

    // Mid-frame stall: magic plus a couple of header bytes, then silence.
    let mut loris = TcpStream::connect(addr).expect("connect");
    loris
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    loris.write_all(&WIRE_MAGIC).expect("write magic");
    loris.write_all(&[0, 0]).expect("write stub");
    let mut rx = WireState::new(s2c_chain_seed());
    match rx.read_frame(&mut loris) {
        Ok(Frame::Error { code, .. }) => assert_eq!(code, error_code::TIMED_OUT),
        other => panic!("expected typed TIMED_OUT for a mid-frame stall, got {other:?}"),
    }

    // Frame-boundary idleness: no bytes at all; the connection just ends.
    let mut idle = TcpStream::connect(addr).expect("connect");
    idle.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let mut rx = WireState::new(s2c_chain_seed());
    match rx.read_frame(&mut idle) {
        Err(WireError::Closed) => {}
        other => panic!("expected a quiet close for boundary idleness, got {other:?}"),
    }

    handle.shutdown();
    join_within(handle, Duration::from_secs(10), "slow loris");
}

/// An idle tenant past the TTL is parked; a later `Hello` re-attaches
/// the session — same next batch, same reply chain, and replies
/// byte-identical to an unbroken control session.
#[test]
fn idle_expiry_restores_checkpointed_session() {
    // Control: both batches over one unbroken session.
    let control_server = serve("127.0.0.1:0", ServeOpts::default()).expect("bind");
    let mut c = Client::connect(control_server.addr()).expect("connect");
    c.hello(config("t")).expect("hello");
    let control: Vec<Frame> = (0..2u64)
        .map(|b| {
            c.call(&Frame::Batch {
                batch: b,
                seqs: workload(b),
            })
            .expect("control batch")
        })
        .collect();
    let _ = c.call(&Frame::Goodbye);
    control_server.shutdown();
    join_within(control_server, Duration::from_secs(10), "control");

    let handle = serve(
        "127.0.0.1:0",
        ServeOpts {
            idle_ttl: Some(Duration::from_millis(20)),
            ..ServeOpts::default()
        },
    )
    .expect("bind");
    let addr = handle.addr();

    let mut c = Client::connect(addr).expect("connect");
    c.hello(config("t")).expect("hello");
    let first = c
        .call(&Frame::Batch {
            batch: 0,
            seqs: workload(0),
        })
        .expect("batch 0");
    assert_eq!(first, control[0], "batch 0 diverged before any expiry");
    let chain_after_0 = match first {
        Frame::BatchDone { chain, .. } => chain,
        other => panic!("batch 0 reply: {other:?}"),
    };
    let _ = c.call(&Frame::Goodbye);
    drop(c);

    let deadline = Instant::now() + Duration::from_secs(5);
    while handle.stats().expiries == 0 {
        assert!(Instant::now() < deadline, "tenant never expired");
        std::thread::sleep(Duration::from_millis(5));
    }

    let mut c = Client::connect(addr).expect("reconnect");
    match c.hello(config("t")).expect("re-attach hello") {
        Frame::HelloAck {
            next_batch,
            reply_chain,
            ..
        } => {
            assert_eq!(next_batch, 1, "restored session restarted, not resumed");
            assert_eq!(
                reply_chain, chain_after_0,
                "restored reply chain does not continue batch 0's"
            );
        }
        other => panic!("re-attach hello: {other:?}"),
    }
    let second = c
        .call(&Frame::Batch {
            batch: 1,
            seqs: workload(1),
        })
        .expect("batch 1");
    assert_eq!(second, control[1], "restored session diverged on batch 1");

    let _ = c.call(&Frame::Goodbye);
    handle.shutdown();
    join_within(handle, Duration::from_secs(10), "expiry");
}

/// A connection severed mid-stream by a deterministic fault plan is
/// absorbed: the resilient client reconnects, re-attaches, and its reply
/// stream is byte-identical to an unfaulted run.
#[test]
fn resilient_client_recovers_a_cut_byte_identically() {
    let run = |plan: Option<NetFaultPlan>| -> (Vec<Frame>, u64, u64) {
        let handle = serve("127.0.0.1:0", ServeOpts::default()).expect("bind");
        let mut client = ResilientClient::new(
            handle.addr(),
            config("t"),
            RetryOpts {
                seed: 7,
                ..RetryOpts::default()
            },
        );
        if let Some(plan) = plan {
            client = client.with_faults(vec![plan]);
        }
        let replies: Vec<Frame> = (0..3u64)
            .map(|b| client.run_batch(&workload(b)).expect("batch through fault"))
            .collect();
        client.goodbye();
        let counters = client.counters();
        handle.shutdown();
        join_within(handle, Duration::from_secs(10), "cut recovery");
        (replies, counters.reconnects, counters.replays)
    };

    let (clean, _, _) = run(None);

    // Sever the send side mid-traffic: the request dies in flight.
    let cut_send = NetFaultPlan::new(NetFaultKind::CutSend, 11, 0, 150);
    let (replies, reconnects, _) = run(Some(cut_send));
    assert_eq!(replies, clean, "cut-send recovery diverged");
    assert!(reconnects >= 1, "cut-send never landed");

    // Sever the receive side mid-reply: the reply is lost after the server
    // applied the batch, so recovery must go through Replay.
    let cut_recv = NetFaultPlan::new(NetFaultKind::CutRecv, 13, 0, 90);
    let (replies, reconnects, replays) = run(Some(cut_recv));
    assert_eq!(replies, clean, "cut-recv recovery diverged");
    assert!(reconnects >= 1, "cut-recv never landed");
    assert!(replays >= 1, "lost reply was not recovered via Replay");
}

/// Irreconcilable cursors are a typed [`ClientError::Divergence`], never a
/// silent acceptance. Forced here by seeding the tenant *two* batches
/// ahead on the server, beyond what the one-frame replay window can
/// bridge for a client that believes the session starts at 0.
#[test]
fn cursor_mismatch_is_a_typed_error() {
    let handle = serve("127.0.0.1:0", ServeOpts::default()).expect("bind");
    let addr = handle.addr();

    let mut c = Client::connect(addr).expect("connect");
    c.hello(config("t")).expect("hello");
    for b in 0..2u64 {
        c.call(&Frame::Batch {
            batch: b,
            seqs: workload(b),
        })
        .expect("seed batch");
    }
    let _ = c.call(&Frame::Goodbye);
    drop(c);

    let mut client = ResilientClient::new(addr, config("t"), RetryOpts::default());
    match client.run_batch(&workload(0)) {
        Err(ClientError::Divergence { .. }) => {}
        other => panic!("expected a typed divergence, got {other:?}"),
    }

    handle.shutdown();
    join_within(handle, Duration::from_secs(10), "cursor mismatch");
}

/// Waits until `handle` has parked `n` tenants in all.
fn wait_for_expiries(handle: &ServerHandle, n: u64) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while handle.stats().expiries < n {
        assert!(Instant::now() < deadline, "{n} expiries never came");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A tenant dropped from a full share of parked tenants starts over: its
/// resilient client, a batch ahead, re-attaches to a new session at batch
/// 0 and gets a typed divergence, never a silent restart.
#[test]
fn a_dropped_tenant_is_a_typed_divergence_for_its_client() {
    let handle = serve(
        "127.0.0.1:0",
        ServeOpts {
            max_tenants: 1,
            idle_ttl: Some(Duration::from_millis(20)),
            ..ServeOpts::default()
        },
    )
    .expect("bind");
    let addr = handle.addr();
    let mut client = ResilientClient::new(addr, config("a"), RetryOpts::default());
    client.run_batch(&workload(0)).expect("batch 0");
    client.goodbye();
    wait_for_expiries(&handle, 1);
    // `b` takes the parked `a`'s place, then idles out in turn.
    let mut b = Client::connect(addr).expect("connect");
    assert!(matches!(b.hello(config("b")), Ok(Frame::HelloAck { .. })));
    let _ = b.call(&Frame::Goodbye);
    drop(b);
    wait_for_expiries(&handle, 2);
    match client.run_batch(&workload(1)) {
        Err(ClientError::Divergence { .. }) => {}
        other => panic!("expected a typed divergence, got {other:?}"),
    }
    handle.shutdown();
    join_within(handle, Duration::from_secs(10), "dropped tenant");
}
