//! Admission control and session-state policing: tenant caps, request
//! budgets, version and configuration checks, and the ordering rules a
//! session must obey — all surfaced as typed `Error` frames on a
//! connection that stays usable.

use parapage::cache::PageId;
use parapage_server::protocol::{
    error_code, Frame, TenantConfig, MAX_FRAME, MAX_PROCS, MAX_SHARDS, PROTO_VERSION,
};
use parapage_server::server::{serve, ServeOpts};
use parapage_server::Client;

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

fn batch(batch: u64, len: usize) -> Frame {
    Frame::Batch {
        batch,
        seqs: (0..2)
            .map(|x| (0..len).map(|i| PageId((x * len + i) as u64 % 8)).collect())
            .collect(),
    }
}

fn expect_error(reply: Frame, code: u16) {
    match reply {
        Frame::Error { code: got, message } => {
            assert_eq!(got, code, "wrong error code: {message}")
        }
        other => panic!("expected error {code}, got {other:?}"),
    }
}

#[test]
fn tenant_cap_and_reattach_rules() {
    let handle = serve(
        "127.0.0.1:0",
        ServeOpts {
            max_tenants: 2,
            ..ServeOpts::default()
        },
    )
    .expect("bind");
    let addr = handle.addr();

    let mut a = Client::connect(addr).expect("connect");
    assert!(matches!(
        a.hello(config("a")).expect("hello"),
        Frame::HelloAck { .. }
    ));
    let mut b = Client::connect(addr).expect("connect");
    assert!(matches!(
        b.hello(config("b")).expect("hello"),
        Frame::HelloAck { .. }
    ));

    // Third tenant: the table is full.
    let mut c = Client::connect(addr).expect("connect");
    expect_error(
        c.hello(config("c")).expect("hello"),
        error_code::TENANTS_FULL,
    );

    // Re-attaching to an existing tenant with the same config is not a
    // new admission — it succeeds even at the cap.
    let mut a2 = Client::connect(addr).expect("connect");
    assert!(matches!(
        a2.hello(config("a")).expect("hello"),
        Frame::HelloAck { .. }
    ));

    // Re-attaching with a different config is rejected.
    let mut a3 = Client::connect(addr).expect("connect");
    let mut wrong = config("a");
    wrong.k = 32;
    expect_error(a3.hello(wrong).expect("hello"), error_code::CONFIG_MISMATCH);

    let _ = a.call(&Frame::Shutdown);
    handle.join();
}

#[test]
fn hello_validation_rejects_bad_versions_policies_and_models() {
    let handle = serve("127.0.0.1:0", ServeOpts::default()).expect("bind");
    let addr = handle.addr();
    let mut client = Client::connect(addr).expect("connect");

    // Wrong protocol version.
    let reply = client
        .call(&Frame::Hello {
            proto: PROTO_VERSION + 1,
            config: config("v"),
        })
        .expect("call");
    expect_error(reply, error_code::BAD_VERSION);

    // Unknown policy (and shared-lru, which is not servable).
    for policy in ["no-such-policy", "shared-lru"] {
        let mut cfg = config("p");
        cfg.policy = policy.into();
        expect_error(client.hello(cfg).expect("hello"), error_code::BAD_FRAME);
    }

    // Degenerate models.
    for (p, k, s) in [(0usize, 16usize, 4u64), (4, 2, 4), (2, 16, 1)] {
        let mut cfg = config("m");
        (cfg.p, cfg.k, cfg.s) = (p, k, s);
        expect_error(client.hello(cfg).expect("hello"), error_code::BAD_FRAME);
    }

    // The connection survived every rejection: a valid Hello still works.
    assert!(matches!(
        client.hello(config("ok")).expect("hello"),
        Frame::HelloAck { .. }
    ));

    let _ = client.call(&Frame::Shutdown);
    handle.join();
}

/// A `Hello` declaring more shards than a tenant cache holds is refused
/// at admission, before any batch could build per-shard state for it, and
/// other tenants keep being served. `MAX_SHARDS` itself is admitted and
/// serves a batch.
#[test]
fn an_unbounded_shard_count_is_refused_at_admission() {
    let handle = serve("127.0.0.1:0", ServeOpts::default()).expect("bind");
    let addr = handle.addr();

    let mut hostile = Client::connect(addr).expect("connect");
    let mut cfg = config("wide");
    cfg.shards = 1 << 40;
    expect_error(hostile.hello(cfg).expect("hello"), error_code::BAD_FRAME);
    cfg = config("wide");
    cfg.shards = MAX_SHARDS + 1;
    expect_error(hostile.hello(cfg).expect("hello"), error_code::BAD_FRAME);

    let mut other = Client::connect(addr).expect("connect");
    assert!(matches!(
        other.hello(config("other")).expect("hello"),
        Frame::HelloAck { .. }
    ));
    assert!(matches!(
        other.call(&batch(0, 8)).expect("call"),
        Frame::BatchDone { .. }
    ));

    let mut widest = Client::connect(addr).expect("connect");
    cfg = config("widest");
    cfg.shards = MAX_SHARDS;
    assert!(matches!(
        widest.hello(cfg).expect("hello"),
        Frame::HelloAck { .. }
    ));
    assert!(matches!(
        widest.call(&batch(0, 8)).expect("call"),
        Frame::BatchDone { .. }
    ));

    let _ = other.call(&Frame::Shutdown);
    handle.join();
}

/// A `Hello` declaring more processors than any `Batch` frame can carry
/// is refused at admission; `MAX_PROCS` itself is admitted, and a batch
/// of that many empty sequences fits a frame.
#[test]
fn a_processor_count_no_batch_can_carry_is_refused_at_admission() {
    let handle = serve("127.0.0.1:0", ServeOpts::default()).expect("bind");
    let mut client = Client::connect(handle.addr()).expect("connect");
    for p in [1 << 40, MAX_PROCS + 1] {
        let mut cfg = config("huge");
        (cfg.p, cfg.k) = (p, p);
        expect_error(client.hello(cfg).expect("hello"), error_code::BAD_FRAME);
    }
    let mut cfg = config("largest");
    (cfg.p, cfg.k) = (MAX_PROCS, MAX_PROCS);
    assert!(matches!(
        client.hello(cfg).expect("hello"),
        Frame::HelloAck { .. }
    ));
    const { assert!(17 + 8 * MAX_PROCS <= MAX_FRAME && 17 + 8 * (MAX_PROCS + 1) > MAX_FRAME) };
    let _ = client.call(&Frame::Shutdown);
    handle.join();
}

/// A `Hello` with an unbounded cache capacity is admitted and serves a
/// batch under every servable policy: the tenant's caches start empty and
/// their page index grows with residents, never with `k`, so `k = 2^40`
/// costs what the 32 requests it serves cost.
#[test]
fn an_unbounded_capacity_is_admitted_and_serves() {
    let handle = serve("127.0.0.1:0", ServeOpts::default()).expect("bind");
    let addr = handle.addr();
    let mut client = Client::connect(addr).expect("connect");
    for &policy in parapage::core::policy::NAMES {
        let mut cfg = config(&format!("huge-{policy}"));
        cfg.p = 4;
        cfg.k = 1 << 40;
        cfg.policy = policy.into();
        let mut tenant = Client::connect(addr).expect("connect");
        assert!(
            matches!(tenant.hello(cfg).expect("hello"), Frame::HelloAck { .. }),
            "{policy}: k = 2^40 refused"
        );
        let seqs = (0..4)
            .map(|x| (0..8).map(|i| PageId(x * 8 + i)).collect())
            .collect();
        assert!(
            matches!(
                tenant.call(&Frame::Batch { batch: 0, seqs }).expect("call"),
                Frame::BatchDone { .. }
            ),
            "{policy}: a 4x8 batch at k = 2^40 was not served"
        );
    }
    let _ = client.call(&Frame::Shutdown);
    handle.join();
}

#[test]
fn session_ordering_is_policed() {
    let handle = serve("127.0.0.1:0", ServeOpts::default()).expect("bind");
    let addr = handle.addr();

    // A batch before Hello is a state error on that connection.
    let mut cold = Client::connect(addr).expect("connect");
    expect_error(
        cold.call(&batch(0, 4)).expect("call"),
        error_code::BAD_STATE,
    );

    let mut client = Client::connect(addr).expect("connect");
    assert!(matches!(
        client.hello(config("o")).expect("hello"),
        Frame::HelloAck { .. }
    ));

    // Batches must arrive in sequence.
    expect_error(
        client.call(&batch(5, 4)).expect("call"),
        error_code::BAD_STATE,
    );
    // A batch must carry exactly p sequences.
    let lopsided = Frame::Batch {
        batch: 0,
        seqs: vec![vec![PageId(1)]],
    };
    expect_error(client.call(&lopsided).expect("call"), error_code::BAD_STATE);
    // After the rejections, the correct next batch still serves.
    assert!(matches!(
        client.call(&batch(0, 4)).expect("call"),
        Frame::BatchDone { .. }
    ));

    let _ = client.call(&Frame::Shutdown);
    handle.join();
}

#[test]
fn request_budgets_are_enforced_cumulatively() {
    let handle = serve(
        "127.0.0.1:0",
        ServeOpts {
            request_budget: 100,
            ..ServeOpts::default()
        },
    )
    .expect("bind");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let budget = match client.hello(config("t")).expect("hello") {
        Frame::HelloAck { budget_left, .. } => budget_left,
        other => panic!("{other:?}"),
    };
    assert_eq!(budget, 100);

    // 2 × 60 = 120 requests: over budget, rejected, sequence unmoved.
    expect_error(
        client.call(&batch(0, 60)).expect("call"),
        error_code::BUDGET_EXHAUSTED,
    );
    // 2 × 40 = 80 fits.
    assert!(matches!(
        client.call(&batch(0, 40)).expect("call"),
        Frame::BatchDone { .. }
    ));
    // Only 20 left now: another 80 is over.
    expect_error(
        client.call(&batch(1, 40)).expect("call"),
        error_code::BUDGET_EXHAUSTED,
    );
    // 2 × 10 = 20 drains the budget exactly.
    assert!(matches!(
        client.call(&batch(1, 10)).expect("call"),
        Frame::BatchDone { .. }
    ));
    expect_error(
        client.call(&batch(2, 1)).expect("call"),
        error_code::BUDGET_EXHAUSTED,
    );

    let _ = client.call(&Frame::Shutdown);
    handle.join();
}
