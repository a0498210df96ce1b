//! Reactor soak: the nonblocking reactor under the exact traffic shape
//! it exists for — hundreds of concurrent *idle* connections (which
//! must cost file descriptors, not threads or correctness) while a few
//! active connections stream queries as deliberately fragmented frames
//! (every frame split into tiny byte chunks across many writes, so the
//! reactor's incremental decoder reassembles partial frames constantly)
//! — and the answers must still be hash-identical to a direct
//! in-process `search_batch_on` run.

#![cfg(target_os = "linux")]

mod common;

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use pigeonring_server::wire::{encode_request, read_frame, Domain, DomainQuery, Request, Response};
use pigeonring_server::{start, Client, EngineSet, EngineSpec, ServerConfig, PROTOCOL_VERSION};
use pigeonring_service::{ResultHasher, WorkerPool};
use pigeonring_telemetry::json::{self, Value};

/// How many idle negotiated connections stay parked on the reactor.
const IDLE_CONNS: usize = 256;

/// Bytes per write on the active connections: small enough that every
/// frame (length prefix included) is split across several reads.
const CHUNK: usize = 3;

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

/// One active connection's scripted traffic: the Hello frame plus one
/// Query frame per (request_id, query), all serialized back to back so
/// the chunker can split them at arbitrary byte offsets.
fn script(queries: &[(u64, DomainQuery)]) -> Vec<u8> {
    let mut bytes = Vec::new();
    let mut push = |req: &Request| {
        let payload = encode_request(req);
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&payload);
    };
    push(&Request::Hello {
        max_version: PROTOCOL_VERSION,
    });
    for (request_id, query) in queries {
        push(&Request::Query {
            request_id: *request_id,
            query: query.clone(),
            explain: false,
        });
    }
    bytes
}

/// Reads `expect` responses (after the HelloOk) off one connection,
/// returning `(request_id, ids)` pairs.
fn read_replies(stream: &mut TcpStream, expect: usize) -> Vec<(u64, Vec<u32>)> {
    let hello = read_frame(stream)
        .expect("hello reply")
        .expect("server answers hello");
    assert!(matches!(
        pigeonring_server::wire::decode_response(&hello).expect("decodes"),
        Response::HelloOk { .. }
    ));
    (0..expect)
        .map(|_| {
            let payload = read_frame(stream)
                .expect("reply frame")
                .expect("server answers every query");
            match pigeonring_server::wire::decode_response(&payload).expect("decodes") {
                Response::Results { request_id, ids } => (request_id, ids),
                other => panic!("soak queries must succeed, got {other:?}"),
            }
        })
        .collect()
}

#[test]
fn soak_idle_connections_and_fragmented_frames_match_in_process() {
    let spec = tiny_spec();
    let engines = Arc::new(EngineSet::build(spec.clone()));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let handle = start(
        listener,
        Arc::clone(&engines),
        WorkerPool::new(2),
        ServerConfig::default(),
    )
    .expect("server starts");
    let addr = handle.addr();

    // Park IDLE_CONNS fully negotiated connections on the reactor.
    // They stay open (and readable-armed) for the whole test.
    let idle: Vec<Client> = (0..IDLE_CONNS)
        .map(|_| Client::connect(addr).expect("idle connect"))
        .collect();

    // The connection gauge sees every parked connection.
    let stats = json::parse(&handle.stats_json()).expect("stats JSON");
    let conns = stats
        .get("metrics")
        .and_then(|m| m.get("gauges"))
        .and_then(|g| g.get("server.conns"))
        .and_then(Value::as_i64)
        .expect("server.conns gauge present");
    assert!(
        conns >= IDLE_CONNS as i64,
        "conns gauge must count the parked connections, got {conns}"
    );

    // Two active connections split the four domains between them; every
    // request id is globally unique so replies can't be cross-matched.
    let mut plans: [Vec<(u64, DomainQuery)>; 2] = [Vec::new(), Vec::new()];
    let mut next_id = 1u64;
    for (di, domain) in Domain::ALL.into_iter().enumerate() {
        for q in spec.sample_queries(domain) {
            plans[di % 2].push((next_id, q));
            next_id += 1;
        }
    }

    let mut streams: Vec<TcpStream> = plans
        .iter()
        .map(|_| TcpStream::connect(addr).expect("active connect"))
        .collect();
    for s in &streams {
        s.set_nodelay(true).expect("nodelay");
    }

    // Readers collect replies concurrently so the reply budget drains
    // while the writers are still dribbling bytes.
    let readers: Vec<_> = streams
        .iter()
        .zip(&plans)
        .map(|(stream, plan)| {
            let mut stream = stream.try_clone().expect("clone for reading");
            let expect = plan.len();
            std::thread::spawn(move || read_replies(&mut stream, expect))
        })
        .collect();

    // Interleave tiny chunks across the active connections: the reactor
    // sees partial frames on every wakeup and must carry the remainder
    // in each connection's decoder between readiness events.
    let scripts: Vec<Vec<u8>> = plans.iter().map(|p| script(p)).collect();
    let mut offsets = vec![0usize; scripts.len()];
    loop {
        let mut progressed = false;
        for (i, bytes) in scripts.iter().enumerate() {
            if offsets[i] >= bytes.len() {
                continue;
            }
            let end = (offsets[i] + CHUNK).min(bytes.len());
            streams[i]
                .write_all(&bytes[offsets[i]..end])
                .expect("chunked write");
            streams[i].flush().expect("flush chunk");
            offsets[i] = end;
            progressed = true;
        }
        if !progressed {
            break;
        }
        // Yield so reads genuinely interleave with the dribbled writes.
        std::thread::sleep(Duration::from_micros(200));
    }

    // Every reply must match the in-process run bit-for-bit, per domain.
    let mut replies: Vec<(u64, Vec<u32>)> = Vec::new();
    for reader in readers {
        replies.extend(reader.join().expect("reader thread"));
    }
    let by_id: std::collections::HashMap<u64, Vec<u32>> = replies.into_iter().collect();
    let mut next_id = 1u64;
    for domain in Domain::ALL {
        let queries = spec.sample_queries(domain);
        let mut hasher = ResultHasher::new();
        for _ in &queries {
            let ids = by_id
                .get(&next_id)
                .unwrap_or_else(|| panic!("request {next_id} unanswered"));
            hasher.push(ids);
            next_id += 1;
        }
        assert_eq!(
            hasher.finish(),
            common::in_process_hash(&engines, domain, &queries),
            "fragmented-frame soak differs from in-process search_batch_on for {domain}"
        );
    }

    // The reactor actually ran on readiness events, and the parked
    // connections are still all alive after the churn.
    let stats = json::parse(&handle.stats_json()).expect("stats JSON");
    let wakeups = stats
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .and_then(|c| c.get("server.reactor.wakeups"))
        .and_then(Value::as_u64)
        .expect("server.reactor.wakeups counter present");
    assert!(wakeups > 0, "reactor served this without a single wakeup?");
    drop(idle);
    handle.shutdown();
}
