//! Admission control end to end: with lane depth `Q` and a stalled
//! worker pool, request `Q+1` of that domain receives a typed `Busy` —
//! immediately, without queueing — and every previously queued request
//! still completes once the pool unstalls.

use std::net::{Ipv4Addr, SocketAddr, TcpListener};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use pigeonring_server::server::{start_with_handler, Handler, ServerConfig};
use pigeonring_server::wire::{DomainQuery, ErrorCode, Response, CONNECTION_REQUEST_ID};
use pigeonring_server::{Client, ClientError, Outcome};

const Q: usize = 3;

/// A single-dispatcher config so the tests can reason about exactly one
/// in-flight batch (the pipelining tests cover multi-dispatcher
/// behavior).
fn config(lane_depth: usize) -> ServerConfig {
    ServerConfig {
        lane_depth,
        micro_batch: 1,
        dispatchers: 1,
        ..ServerConfig::default()
    }
}

fn query(tag: u32) -> DomainQuery {
    DomainQuery::Set {
        tokens: vec![tag],
        l: 1,
    }
}

/// Echo the query's tag back as its result ids.
fn echo(queries: &[DomainQuery], emit: &mut dyn FnMut(usize, Response)) {
    for (i, q) in queries.iter().enumerate() {
        let DomainQuery::Set { tokens, .. } = q else {
            panic!("test sends Set queries only");
        };
        emit(
            i,
            Response::Results {
                request_id: CONNECTION_REQUEST_ID,
                ids: tokens.clone(),
            },
        );
    }
}

/// Spin-waits for `cond` (the queue fills asynchronously as the
/// reactor admits each client's frame).
fn wait_for(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn queue_overflow_answers_busy_and_queued_requests_complete() {
    // A handler that blocks on a gate: the "stalled pool". It records
    // which queries it eventually served so we can prove none of the
    // admitted requests was dropped or corrupted.
    let (gate_tx, gate_rx) = mpsc::channel::<()>();
    let gate_rx = Mutex::new(gate_rx);
    let (started_tx, started_rx) = mpsc::channel::<()>();
    let served: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new(Vec::new()));
    let handler: Handler = {
        let served = Arc::clone(&served);
        Arc::new(move |queries, _traces, emit| {
            started_tx.send(()).expect("test alive");
            gate_rx
                .lock()
                .expect("gate lock")
                .recv()
                .expect("gate open");
            for q in &queries {
                let DomainQuery::Set { tokens, .. } = q else {
                    panic!("test sends Set queries only");
                };
                served.lock().expect("served lock").push(tokens[0]);
            }
            echo(&queries, emit);
        })
    };

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let handle = start_with_handler(listener, handler, config(Q)).expect("server starts");
    let addr = handle.addr();

    // Request 0 is popped by the dispatcher, which then stalls on the
    // gate — the queue itself is empty again once the handler starts.
    let head = std::thread::spawn(move || {
        let mut c = Client::connect(addr).expect("connect");
        c.search(query(0)).expect("head request")
    });
    started_rx.recv().expect("dispatcher picked up request 0");

    // Q more requests fill the lane to capacity while the pool stalls.
    let queued: Vec<_> = (1..=Q as u32)
        .map(|tag| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                c.search(query(tag)).expect("queued request")
            })
        })
        .collect();
    wait_for("queue to fill", || handle.queue_len() == Q);

    // Request Q+1: typed Busy, immediately (no waiting on the gate).
    let mut overflow = Client::connect(addr).expect("connect");
    let verdict = overflow.search(query(99)).expect("overflow request");
    assert_eq!(verdict, Outcome::Busy, "request Q+1 must be rejected");
    assert_eq!(handle.queue_len(), Q, "rejected request was not queued");

    // Unstall: every admitted request (head + Q queued) completes with
    // its own answer.
    for _ in 0..=Q {
        gate_tx.send(()).expect("dispatcher alive");
    }
    assert_eq!(head.join().expect("head thread"), Outcome::Results(vec![0]));
    for (i, t) in queued.into_iter().enumerate() {
        let tag = (i + 1) as u32;
        assert_eq!(
            t.join().expect("queued thread"),
            Outcome::Results(vec![tag]),
            "queued request {tag} must complete with its own answer"
        );
    }
    let mut served = served.lock().expect("served lock").clone();
    served.sort_unstable();
    assert_eq!(
        served,
        vec![0, 1, 2, 3],
        "exactly the admitted requests ran — no drops, no duplicates, \
         and the rejected tag 99 never reached the pool"
    );
    handle.shutdown();
}

#[test]
fn shutdown_answers_terminal_internal_error_not_busy() {
    // A client that is mid-connection when the server shuts down must
    // see a *terminal* typed error, not a retryable Busy — otherwise
    // well-behaved retry loops hammer a dying server.
    let handler: Handler =
        Arc::new(|queries: Vec<DomainQuery>, _traces, emit| echo(&queries, emit));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let handle = start_with_handler(listener, handler, config(Q)).expect("server starts");
    let addr = handle.addr();

    let mut client = Client::connect(addr).expect("connect");
    assert_eq!(
        client.search(query(5)).expect("live server answers"),
        Outcome::Results(vec![5])
    );

    // Shutdown closes the lanes; the reactor keeps serving the open
    // connection long enough to answer in-flight frames.
    handle.shutdown();
    match client.search(query(6)) {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(code, ErrorCode::Internal);
            assert!(
                message.contains("shutting down"),
                "terminal shutdown error, got: {message}"
            );
        }
        other => panic!("expected a terminal Internal error, got {other:?}"),
    }
}

#[test]
fn shutdown_on_wildcard_bind_returns_promptly_and_refuses_new_connections() {
    // A wildcard-bound listener has no address of its own to dial, so
    // shutdown must not depend on connecting to itself; and a client
    // parked on an open connection must not hold shutdown() hostage.
    let handler: Handler =
        Arc::new(|queries: Vec<DomainQuery>, _traces, emit| echo(&queries, emit));
    let listener = TcpListener::bind("0.0.0.0:0").expect("bind wildcard");
    let handle = start_with_handler(listener, handler, config(Q)).expect("server starts");
    let loopback = SocketAddr::from((Ipv4Addr::LOCALHOST, handle.addr().port()));
    let mut parked = Client::connect(loopback).expect("connect + negotiate");

    let begun = Instant::now();
    handle.shutdown();
    let took = begun.elapsed();
    assert!(
        took < Duration::from_secs(2),
        "shutdown took {took:?} with one parked connection"
    );
    assert!(
        Client::connect(loopback).is_err(),
        "the listener must be closed once shutdown() returns"
    );
    match parked.search(query(6)) {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(code, ErrorCode::Internal);
            assert!(message.contains("shutting down"), "got: {message}");
        }
        other => panic!("expected a terminal Internal error, got {other:?}"),
    }
}

#[test]
fn busy_connection_stays_usable() {
    // After a Busy, the same connection can retry and succeed.
    let (gate_tx, gate_rx) = mpsc::channel::<()>();
    let gate_rx = Mutex::new(gate_rx);
    let (started_tx, started_rx) = mpsc::channel::<()>();
    let handler: Handler = Arc::new(move |queries: Vec<DomainQuery>, _traces, emit| {
        started_tx.send(()).expect("test alive");
        gate_rx
            .lock()
            .expect("gate lock")
            .recv()
            .expect("gate open");
        for i in 0..queries.len() {
            emit(
                i,
                Response::Results {
                    request_id: CONNECTION_REQUEST_ID,
                    ids: vec![7],
                },
            );
        }
    });
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let handle = start_with_handler(listener, handler, config(1)).expect("server starts");
    let addr = handle.addr();

    let head = std::thread::spawn(move || {
        let mut c = Client::connect(addr).expect("connect");
        c.search(query(0)).expect("head")
    });
    started_rx.recv().expect("dispatcher busy");
    let filler = std::thread::spawn(move || {
        let mut c = Client::connect(addr).expect("connect");
        c.search(query(1)).expect("filler")
    });
    wait_for("queue to fill", || handle.queue_len() == 1);

    let mut probe = Client::connect(addr).expect("connect");
    assert_eq!(probe.search(query(2)).expect("probe"), Outcome::Busy);

    // Drain the stall; the *same* probe connection retries successfully.
    // (Three tokens: head, filler, and the probe's retry.)
    for _ in 0..3 {
        gate_tx.send(()).expect("gate");
    }
    assert_eq!(head.join().expect("head"), Outcome::Results(vec![7]));
    assert_eq!(filler.join().expect("filler"), Outcome::Results(vec![7]));
    let retried = probe
        .search_with_retry(query(2), 100)
        .expect("retry after Busy");
    assert_eq!(retried, Outcome::Results(vec![7]));
    handle.shutdown();
}
