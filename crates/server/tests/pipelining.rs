//! Pipelining and weighted-fair queueing end to end:
//!
//! * many requests in flight on one connection, responses matched to
//!   requests by id — including the out-of-order case;
//! * a saturated, stalled graph lane while Hamming requests are still
//!   admitted *and answered* (the head-of-line-blocking fix).

use std::net::TcpListener;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use pigeonring_hamming::BitVector;
use pigeonring_server::server::{start_with_handler, Handler, ServerConfig};
use pigeonring_server::wire::{Domain, DomainQuery, Response, CONNECTION_REQUEST_ID};
use pigeonring_server::{Client, Outcome};

fn set_query(tag: u32) -> DomainQuery {
    DomainQuery::Set {
        tokens: vec![tag],
        l: 1,
    }
}

fn hamming_query(tag: u32) -> DomainQuery {
    DomainQuery::Hamming {
        query: BitVector::from_bits((0..8).map(|b| (tag >> b) & 1 == 1)),
        tau: 1,
        l: 1,
    }
}

fn graph_query(tag: u32) -> DomainQuery {
    DomainQuery::Graph {
        query: pigeonring_graph::Graph::new(vec![tag]),
        l: 1,
    }
}

/// The tag a test query carries (how handlers echo identity back).
fn tag_of(q: &DomainQuery) -> u32 {
    match q {
        DomainQuery::Set { tokens, .. } => tokens[0],
        DomainQuery::Graph { query, .. } => query.vlabels()[0],
        DomainQuery::Hamming { query, .. } => (0..8).map(|b| (query.get(b) as u32) << b).sum(),
        DomainQuery::Edit { query, .. } => query[0] as u32,
    }
}

fn echo(tag: u32) -> Response {
    Response::Results {
        request_id: CONNECTION_REQUEST_ID,
        ids: vec![tag],
    }
}

fn wait_for(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Two dispatchers, micro-batches of one: the first query stalls in
/// dispatcher A while the second flows through dispatcher B, so the
/// client receives the *second* request's response first and must match
/// by id.
#[test]
fn out_of_order_responses_are_matched_by_id() {
    let (gate_tx, gate_rx) = mpsc::channel::<()>();
    let gate_rx = Mutex::new(gate_rx);
    let (started_tx, started_rx) = mpsc::channel::<()>();
    let handler: Handler = Arc::new(move |queries: Vec<DomainQuery>, _traces, emit| {
        for (i, q) in queries.iter().enumerate() {
            let tag = tag_of(q);
            if tag == 0 {
                // The stalling query: park until the test opens the gate.
                started_tx.send(()).expect("test alive");
                gate_rx
                    .lock()
                    .expect("gate lock")
                    .recv()
                    .expect("gate open");
            }
            emit(i, echo(tag));
        }
    });
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let handle = start_with_handler(
        listener,
        handler,
        ServerConfig {
            lane_depth: 8,
            micro_batch: 1,
            dispatchers: 2,
            ..ServerConfig::default()
        },
    )
    .expect("server starts");

    let mut client = Client::connect(handle.addr()).expect("connect");
    let id0 = client.send_query(set_query(0)).expect("send q0");
    started_rx.recv().expect("q0 reached a dispatcher");
    let id1 = client.send_query(set_query(1)).expect("send q1");
    assert_ne!(id0, id1);

    // q1's answer must arrive while q0 is still stalled: out of order.
    let (first_id, first) = client.recv_reply().expect("first reply");
    assert_eq!(
        (first_id, first),
        (id1, Outcome::Results(vec![1])),
        "the later, unstalled request answers first"
    );

    gate_tx.send(()).expect("open gate");
    let (second_id, second) = client.recv_reply().expect("second reply");
    assert_eq!((second_id, second), (id0, Outcome::Results(vec![0])));
    handle.shutdown();
}

/// `search_pipelined` returns outcomes in *query order* even when the
/// server interleaves completions across N in-flight requests.
#[test]
fn pipelined_outcomes_return_in_query_order() {
    // Reverse each micro-batch's completion order so positions and ids
    // genuinely disagree within every batch.
    let handler: Handler = Arc::new(|queries: Vec<DomainQuery>, _traces, emit| {
        for (i, q) in queries.iter().enumerate().rev() {
            emit(i, echo(tag_of(q)));
        }
    });
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let handle = start_with_handler(
        listener,
        handler,
        ServerConfig {
            lane_depth: 32,
            micro_batch: 4,
            dispatchers: 2,
            ..ServerConfig::default()
        },
    )
    .expect("server starts");

    let mut client = Client::connect(handle.addr()).expect("connect");
    let queries: Vec<DomainQuery> = (0..16).map(|i| set_query(100 + i)).collect();
    let outcomes = client
        .search_pipelined(&queries, 8)
        .expect("pipelined round trip");
    assert_eq!(outcomes.len(), queries.len());
    for (i, outcome) in outcomes.iter().enumerate() {
        assert_eq!(
            *outcome,
            Outcome::Results(vec![100 + i as u32]),
            "outcome {i} must belong to query {i}"
        );
    }
    handle.shutdown();
}

/// A connection may pipeline at most `conn_in_flight` responses
/// (admitted or unwritten): beyond that the server stops *reading* the
/// connection — bounded buffering — yet every request is eventually
/// answered once replies drain.
#[test]
fn reply_buffering_is_bounded_per_connection() {
    const CAP: usize = 2;
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
        for (i, q) in queries.iter().enumerate() {
            emit(i, echo(tag_of(q)));
        }
    });
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let handle = start_with_handler(
        listener,
        handler,
        ServerConfig {
            lane_depth: 64,
            micro_batch: 1,
            dispatchers: 1,
            conn_in_flight: CAP,
            ..ServerConfig::default()
        },
    )
    .expect("server starts");

    let mut client = Client::connect(handle.addr()).expect("connect");
    // Send far more than the budget while the handler stalls. The
    // reader admits the first CAP (one reaches the dispatcher, the
    // rest queue), then stops reading — the lane must never hold more
    // than the budget, however hard the client pushes.
    const N: u32 = 12;
    let ids: Vec<u64> = (0..N)
        .map(|i| client.send_query(set_query(i)).expect("send"))
        .collect();
    started_rx.recv().expect("first query reached the handler");
    // Give the reader every chance to (incorrectly) admit more.
    std::thread::sleep(Duration::from_millis(100));
    assert!(
        handle.lane_len(Domain::Set) <= CAP,
        "admitted-or-buffered responses must stay within the {CAP}-slot \
         budget, lane holds {}",
        handle.lane_len(Domain::Set)
    );

    // Drain: as the client reads replies, the budget frees and the
    // remaining requests flow; every id is answered exactly once.
    for _ in 0..N {
        gate_tx.send(()).expect("dispatcher alive");
    }
    let mut seen = Vec::new();
    for _ in 0..N {
        let (id, outcome) = client.recv_reply().expect("reply");
        let Outcome::Results(tags) = outcome else {
            panic!("unexpected outcome {outcome:?}");
        };
        seen.push((id, tags[0]));
    }
    seen.sort_unstable();
    let expect: Vec<(u64, u32)> = ids
        .iter()
        .enumerate()
        .map(|(i, &id)| (id, i as u32))
        .collect();
    assert_eq!(seen, expect, "every pipelined request answered by id");
    handle.shutdown();
}

/// The headline fairness property, per the weighted-fair design:
///
/// 1. a stalled GED burst saturates *only* graph's lane — graph draws
///    `Busy` while Hamming is still admitted into its own lane;
/// 2. the next micro-batch is assembled by weighted round-robin (it
///    contains the Hamming query even though four graph queries queued
///    strictly earlier) and the handler streams the Hamming reply
///    *before* stalling on the batch's graph share — so Hamming is
///    answered while GED work is still stalled and graph backlog
///    remains queued.
#[test]
fn hamming_answered_while_graph_lane_is_saturated() {
    const LANE: usize = 4;
    let (gate_tx, gate_rx) = mpsc::channel::<()>();
    let gate_rx = Mutex::new(gate_rx);
    let (started_tx, started_rx) = mpsc::channel::<()>();
    // Graph queries stall on the gate; everything else answers
    // immediately. Crucially the handler emits the fast queries of a
    // mixed batch *before* stalling — the same order the real
    // `EngineSet::run_streaming` uses (fast domains first).
    let handler: Handler = Arc::new(move |queries: Vec<DomainQuery>, _traces, emit| {
        for (i, q) in queries.iter().enumerate() {
            if !matches!(q, DomainQuery::Graph { .. }) {
                emit(i, echo(tag_of(q)));
            }
        }
        for (i, q) in queries.iter().enumerate() {
            if matches!(q, DomainQuery::Graph { .. }) {
                started_tx.send(()).expect("test alive");
                gate_rx
                    .lock()
                    .expect("gate lock")
                    .recv()
                    .expect("gate open");
                emit(i, echo(tag_of(q)));
            }
        }
    });
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    // One dispatcher so the stall is total: fairness must come from the
    // WRR batch mix plus reply streaming, not from a free dispatcher.
    let handle = start_with_handler(
        listener,
        handler,
        ServerConfig {
            lane_depth: LANE,
            micro_batch: 2,
            dispatchers: 1,
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let addr = handle.addr();

    // A pipelined connection floods graph: the first query reaches the
    // dispatcher and stalls, LANE more fill the lane to capacity.
    let mut flood = Client::connect(addr).expect("connect");
    let mut flood_ids = vec![flood.send_query(graph_query(50)).expect("send")];
    started_rx.recv().expect("first graph query stalls");
    for i in 1..=LANE as u32 {
        flood_ids.push(flood.send_query(graph_query(50 + i)).expect("send"));
    }
    wait_for("graph lane to fill", || {
        handle.lane_len(Domain::Graph) == LANE
    });

    // Graph admission is now exhausted: one more graph query draws
    // Busy…
    let mut probe = Client::connect(addr).expect("connect");
    assert_eq!(
        probe.search(graph_query(99)).expect("probe"),
        Outcome::Busy,
        "saturated graph lane must reject"
    );

    // …while Hamming is still admitted: per-lane budgets.
    let hamming_done = {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let mut c = Client::connect(addr).expect("connect");
            let got = c
                .search(hamming_query(7))
                .expect("hamming while graph stalls");
            tx.send(got).expect("test alive");
        });
        rx
    };
    wait_for("hamming to be admitted", || {
        handle.lane_len(Domain::Hamming) == 1
    });

    // Release only the head graph query. The dispatcher's next WRR
    // batch holds the Hamming query plus one graph query (not two
    // graph: round-robin visits hamming's lane in between); the
    // handler answers Hamming first, then stalls on that graph query —
    // Hamming completes while GED is stalled and backlog remains.
    gate_tx.send(()).expect("dispatcher alive");
    let got = hamming_done
        .recv_timeout(Duration::from_secs(10))
        .expect("hamming must be answered while graph work is stalled");
    assert_eq!(got, Outcome::Results(vec![7]));
    assert!(
        handle.lane_len(Domain::Graph) > 0,
        "graph backlog still queued behind the stall"
    );

    // Unstall fully and verify every admitted graph query still
    // completes, matched to its id.
    for _ in 0..LANE {
        gate_tx.send(()).expect("dispatcher alive");
    }
    let mut seen = Vec::new();
    for _ in &flood_ids {
        let (id, outcome) = flood.recv_reply().expect("flood reply");
        let Outcome::Results(ids) = outcome else {
            panic!("graph query failed: {outcome:?}");
        };
        seen.push((id, ids[0]));
    }
    seen.sort_unstable();
    let expect: Vec<(u64, u32)> = flood_ids
        .iter()
        .enumerate()
        .map(|(i, &id)| (id, 50 + i as u32))
        .collect();
    assert_eq!(seen, expect, "every admitted graph query answered by id");
    handle.shutdown();
}
