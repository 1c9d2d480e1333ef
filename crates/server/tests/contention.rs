//! One tenant's running batch holds only that tenant's session: a `Stats`
//! or a re-attaching `Hello` that waits for the batch must not make
//! another tenant's `Hello` wait with it.
//!
//! The tests assert on the order replies arrive in, not on a time bound.
//! The pauses, fractions of the batch's own run time, only let each
//! request reach the server before the next is sent; each test checks
//! that the batch was still running when its waiter and `b` arrived.

use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Instant;

use parapage::cache::PageId;
use parapage_server::protocol::{Frame, TenantConfig, PROTO_VERSION};
use parapage_server::server::{serve, ServeOpts};
use parapage_server::Client;

fn hello(tenant: &str) -> Frame {
    let config = TenantConfig {
        tenant: tenant.into(),
        p: 4,
        k: 32,
        s: 4,
        policy: "det-par".into(),
        seed: 1,
        shards: 2,
    };
    Frame::Hello {
        proto: PROTO_VERSION,
        config,
    }
}

/// A batch of `len` requests per processor, each cycling over 256 pages
/// through at most 32 cache slots, so nearly every request misses.
fn batch(len: u64) -> Frame {
    let seq = |x: u64| (0..len).map(|i| PageId((x << 32) | (i % 256))).collect();
    Frame::Batch {
        batch: 0,
        seqs: (0..4).map(seq).collect(),
    }
}

type Log = Arc<Mutex<Vec<&'static str>>>;

/// Receives `c`'s next reply on its own thread, logging `label` when it
/// arrives.
fn await_reply(mut c: Client, label: &'static str, log: &Log) -> JoinHandle<Frame> {
    let log = Arc::clone(log);
    thread::spawn(move || {
        let reply = c.recv().expect("reply");
        log.lock().unwrap().push(label);
        reply
    })
}

/// Starts tenant `a`'s long batch, sends `waiter` on a second connection,
/// then has tenant `b` say `Hello` and run a batch a twentieth as long
/// as `a`'s, so `b` finishing first cannot be a race against `a`'s reply
/// write. Returns the order of the replies and the waiter's reply.
fn hello_behind(waiter: Frame) -> (Vec<&'static str>, Frame) {
    // One at a time: a concurrent test's batches would skew `run`.
    static SERIAL: Mutex<()> = Mutex::new(());
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let handle = serve("127.0.0.1:0", ServeOpts::default()).expect("bind");
    let connect = |tenant: &str| {
        let mut c = Client::connect(handle.addr()).expect("connect");
        assert!(matches!(c.call(&hello(tenant)), Ok(Frame::HelloAck { .. })));
        c
    };
    // The batch's run time on an idle server scales the pauses below.
    let mut warm = connect("warm");
    let start = Instant::now();
    assert!(matches!(
        warm.call(&batch(100_000)),
        Ok(Frame::BatchDone { .. })
    ));
    let run = start.elapsed();

    let log = Log::default();
    let mut a = connect("a");
    a.send(&batch(100_000)).expect("send");
    let a = await_reply(a, "BatchDone a", &log);
    thread::sleep(run / 4);
    let mut w = Client::connect(handle.addr()).expect("connect");
    w.send(&waiter).expect("send");
    let w = await_reply(w, "waiter", &log);
    thread::sleep(run / 20);
    assert!(log.lock().unwrap().is_empty(), "a's batch ended too soon");
    let mut b = connect("b");
    assert!(matches!(b.call(&batch(5_000)), Ok(Frame::BatchDone { .. })));
    log.lock().unwrap().push("BatchDone b");

    assert!(matches!(a.join().unwrap(), Frame::BatchDone { .. }));
    let waited = w.join().unwrap();
    handle.shutdown();
    let order = log.lock().unwrap().clone();
    (order, waited)
}

fn b_finished_first(order: &[&str]) -> bool {
    let at = |label| order.iter().position(|&l| l == label);
    at("BatchDone b") < at("BatchDone a")
}

#[test]
fn hello_does_not_wait_behind_a_pending_stats() {
    let (order, stats) = hello_behind(Frame::Stats);
    // The reply counts a's batch (and warm's): the Stats waited for it.
    assert!(matches!(stats, Frame::StatsReply { stats } if stats.batches == 2));
    assert!(
        b_finished_first(&order),
        "b waited for a's batch: {order:?}"
    );
}

#[test]
fn hello_does_not_wait_behind_a_reattach_mid_batch() {
    let (order, reattach) = hello_behind(hello("a"));
    // The re-attach reports the cursor after a's batch: it waited for it.
    assert!(matches!(reattach, Frame::HelloAck { next_batch: 1, .. }));
    assert!(
        b_finished_first(&order),
        "b waited for a's batch: {order:?}"
    );
}
