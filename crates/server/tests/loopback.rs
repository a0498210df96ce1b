//! The acceptance check, as a test: a loopback server round-trip must
//! return byte-identical result-id sets (compared via the service
//! layer's `result_hash` fingerprint) to a direct in-process
//! [`ShardedIndex::search_batch_on`] run, for all four domains. Also
//! covers version negotiation and fail-closed behavior on garbage
//! bytes.

mod common;

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

use pigeonring_server::wire::{
    encode_request, read_frame, write_frame, Domain, DomainQuery, ErrorCode, Request,
    PROTOCOL_VERSION,
};
use pigeonring_server::{start, Client, ClientError, EngineSet, EngineSpec, Outcome, ServerConfig};
use pigeonring_service::{ResultHasher, WorkerPool};

fn tiny_spec() -> EngineSpec {
    EngineSpec {
        shards: 3,
        hamming_n: 400,
        edit_n: 300,
        set_n: 300,
        graph_n: 80,
        query_count: 6,
        ..EngineSpec::full()
    }
}

#[test]
fn loopback_round_trip_matches_in_process_for_all_domains() {
    let engines = Arc::new(EngineSet::build(tiny_spec()));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let handle = start(
        listener,
        Arc::clone(&engines),
        WorkerPool::new(2),
        ServerConfig::default(),
    )
    .expect("server starts");

    let mut client = Client::connect(handle.addr()).expect("connect + negotiate");
    assert_eq!(client.version(), PROTOCOL_VERSION);

    for domain in Domain::ALL {
        let queries = engines.spec().sample_queries(domain);
        let mut server_hasher = ResultHasher::new();
        for q in &queries {
            match client.search(q.clone()).expect("query over loopback") {
                Outcome::Results(ids) => server_hasher.push(&ids),
                other => panic!("unloaded server must answer results, got {other:?}"),
            }
        }
        let expect = common::in_process_hash(&engines, domain, &queries);
        assert_eq!(
            server_hasher.finish(),
            expect,
            "server round-trip differs from in-process search_batch_on for {domain}"
        );
    }
    handle.shutdown();
}

#[test]
fn garbage_bytes_fail_closed_with_typed_error() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    // Handler irrelevant: garbage never reaches it.
    let handle = pigeonring_server::start_with_handler(
        listener,
        Arc::new(|_, _, _| {}),
        ServerConfig::default(),
    )
    .expect("server starts");

    // An oversized length prefix draws a typed Malformed error, then the
    // server closes the connection (read returns clean EOF).
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .write_all(&u32::MAX.to_le_bytes())
        .expect("send hostile prefix");
    let payload = read_frame(&mut stream)
        .expect("typed error frame")
        .expect("server responds before closing");
    let resp = pigeonring_server::wire::decode_response(&payload).expect("decodes");
    assert!(matches!(
        resp,
        pigeonring_server::Response::Error {
            code: ErrorCode::Malformed,
            ..
        }
    ));
    assert!(
        read_frame(&mut stream).expect("clean close").is_none(),
        "connection closed after protocol error"
    );

    // A frame with a bogus version draws UnsupportedVersion.
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    let mut payload = encode_request(&Request::Query {
        request_id: 1,
        query: DomainQuery::Set {
            tokens: vec![1],
            l: 1,
        },
        explain: false,
    });
    payload[0] = 42;
    write_frame(&mut stream, &payload).expect("send bad version");
    let reply = read_frame(&mut stream)
        .expect("typed error frame")
        .expect("server responds before closing");
    let resp = pigeonring_server::wire::decode_response(&reply).expect("decodes");
    assert!(matches!(
        resp,
        pigeonring_server::Response::Error {
            code: ErrorCode::UnsupportedVersion,
            ..
        }
    ));
    handle.shutdown();
}

#[test]
fn query_before_hello_is_refused() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let handle = pigeonring_server::start_with_handler(
        listener,
        Arc::new(|_, _, _| {}),
        ServerConfig::default(),
    )
    .expect("server starts");

    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    write_frame(
        &mut stream,
        &encode_request(&Request::Query {
            request_id: 1,
            query: DomainQuery::Set {
                tokens: vec![1],
                l: 1,
            },
            explain: false,
        }),
    )
    .expect("send premature query");
    let reply = read_frame(&mut stream)
        .expect("typed error frame")
        .expect("server responds before closing");
    let resp = pigeonring_server::wire::decode_response(&reply).expect("decodes");
    assert!(matches!(
        resp,
        pigeonring_server::Response::Error {
            code: ErrorCode::Malformed,
            ..
        }
    ));
    assert!(
        read_frame(&mut stream).expect("clean close").is_none(),
        "connection closed after un-negotiated query"
    );
    handle.shutdown();
}

#[test]
fn old_client_version_is_refused_in_negotiation() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let handle = pigeonring_server::start_with_handler(
        listener,
        Arc::new(|_, _, _| {}),
        ServerConfig::default(),
    )
    .expect("server starts");

    // A v1-only client (and anything older) is refused in negotiation
    // with the typed UnsupportedVersion — it never reaches a query.
    for max_version in [0u8, 1] {
        let mut stream = TcpStream::connect(handle.addr()).expect("connect");
        write_frame(
            &mut stream,
            &encode_request(&Request::Hello { max_version }),
        )
        .expect("send hello");
        let reply = read_frame(&mut stream)
            .expect("typed error frame")
            .expect("server responds");
        let resp = pigeonring_server::wire::decode_response(&reply).expect("decodes");
        assert!(
            matches!(
                resp,
                pigeonring_server::Response::Error {
                    code: ErrorCode::UnsupportedVersion,
                    ..
                }
            ),
            "max_version {max_version} must be refused, got {resp:?}"
        );
    }

    // The high-level client surfaces this as a typed server error.
    match Client::connect(handle.addr()) {
        Ok(_) => {} // current client speaks v2, so this path is fine
        Err(ClientError::Server { .. }) => panic!("v2 client must connect"),
        Err(e) => panic!("unexpected error: {e}"),
    }
    handle.shutdown();
}

/// `query` with its chain length replaced.
fn with_l(query: &DomainQuery, new_l: u32) -> DomainQuery {
    let mut q = query.clone();
    match &mut q {
        DomainQuery::Hamming { l, .. }
        | DomainQuery::Edit { l, .. }
        | DomainQuery::Set { l, .. }
        | DomainQuery::Graph { l, .. } => *l = new_l,
    }
    q
}

/// Pipelines one window over TCP: a valid query of `domain` at the
/// largest chain length its engine accepts (`l = m`, the box count it
/// was built with), between the same query at `l = 0` and `l = m + 1`,
/// plus whatever `extra` builds from it. Every bad query draws
/// `InvalidQuery`; the valid one still gets its in-process answer.
fn out_of_range_params_draw_invalid_query(
    domain: Domain,
    m: usize,
    extra: impl FnOnce(&DomainQuery) -> Vec<DomainQuery>,
) {
    let engines = Arc::new(EngineSet::build(tiny_spec()));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let handle = start(
        listener,
        Arc::clone(&engines),
        WorkerPool::new(1),
        ServerConfig::default(),
    )
    .expect("server starts");
    let sample = engines.spec().sample_queries(domain).swap_remove(0);
    let valid = with_l(&sample, m as u32);
    let mut window = vec![
        with_l(&sample, 0),
        valid.clone(),
        with_l(&sample, m as u32 + 1),
    ];
    window.extend(extra(&sample));

    let mut client = Client::connect(handle.addr()).expect("connect + negotiate");
    let outcomes = client
        .search_pipelined(&window, window.len())
        .expect("one pipelined window");
    for (i, outcome) in outcomes.into_iter().enumerate() {
        if i == 1 {
            let Outcome::Results(ids) = outcome else {
                panic!("{domain}: the valid query must answer results, got {outcome:?}");
            };
            let mut hasher = ResultHasher::new();
            hasher.push(&ids);
            assert_eq!(
                hasher.finish(),
                common::in_process_hash(&engines, domain, std::slice::from_ref(&valid)),
                "{domain}: valid query beside invalid ones"
            );
        } else {
            assert!(
                matches!(
                    outcome,
                    Outcome::Failed {
                        code: ErrorCode::InvalidQuery,
                        ..
                    }
                ),
                "{domain}: {:?} must draw InvalidQuery, got {outcome:?}",
                window[i]
            );
        }
    }
    handle.shutdown();
}

#[test]
fn hamming_l_and_tau_out_of_range_draw_invalid_query() {
    out_of_range_params_draw_invalid_query(Domain::Hamming, tiny_spec().hamming_m, |sample| {
        let DomainQuery::Hamming { query, l, .. } = sample else {
            unreachable!("hamming sample")
        };
        let tau_above_d = DomainQuery::Hamming {
            query: query.clone(),
            tau: query.dims() as u32 + 1,
            l: *l,
        };
        vec![tau_above_d]
    });
}

#[test]
fn editdist_l_out_of_range_draws_invalid_query() {
    out_of_range_params_draw_invalid_query(Domain::Edit, tiny_spec().edit_tau + 1, |_| vec![]);
}

#[test]
fn setsim_l_out_of_range_draws_invalid_query() {
    out_of_range_params_draw_invalid_query(Domain::Set, tiny_spec().set_m, |_| vec![]);
}

#[test]
fn graph_l_out_of_range_draws_invalid_query() {
    out_of_range_params_draw_invalid_query(Domain::Graph, tiny_spec().graph_tau + 1, |_| vec![]);
}
