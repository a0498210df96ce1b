//! Wire-protocol coverage: round-trip property tests for every
//! request/response variant — including the v2 request ids — plus
//! malformed-frame tests asserting the codec fails closed with a typed
//! [`WireError`], never a panic.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use pigeonring_graph::Graph;
use pigeonring_hamming::BitVector;
use pigeonring_server::wire::{
    decode_request, decode_response, encode_request, encode_response, read_frame, write_frame,
    DomainQuery, ErrorCode, Request, Response, WireError, MAX_FRAME_LEN, PROTOCOL_VERSION,
};

/// Deterministic random graph: `n` vertices, edge density from `seed`.
fn random_graph(seed: u64, n: usize) -> Graph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let vlabels: Vec<u32> = (0..n).map(|_| rng.gen_range(0u32..8)).collect();
    let mut g = Graph::new(vlabels);
    for u in 0..n as u32 {
        for v in (u + 1)..n as u32 {
            if rng.gen_range(0u32..3) == 0 {
                g.add_edge(u, v, rng.gen_range(0u32..4));
            }
        }
    }
    g
}

fn assert_request_round_trips(req: &Request) {
    let payload = encode_request(req);
    let back = decode_request(&payload).expect("encoded request decodes");
    assert_eq!(&back, req);
}

fn assert_response_round_trips(resp: &Response) {
    let payload = encode_response(resp);
    let back = decode_response(&payload).expect("encoded response decodes");
    assert_eq!(&back, resp);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn hello_round_trips(v in 0u64..256) {
        assert_request_round_trips(&Request::Hello { max_version: v as u8 });
    }

    #[test]
    fn hamming_query_round_trips(
        request_id in prop::num::u64::ANY,
        bits in prop::collection::vec(prop::bool::ANY, 1..200),
        tau in 0u32..512,
        l in 0u32..16,
        explain in prop::bool::ANY,
    ) {
        assert_request_round_trips(&Request::Query {
            request_id,
            query: DomainQuery::Hamming {
                query: BitVector::from_bits(bits),
                tau,
                l,
            },
            explain,
        });
    }

    #[test]
    fn edit_query_round_trips(
        request_id in prop::num::u64::ANY,
        bytes in prop::collection::vec(0u64..256, 0..64),
        l in 0u32..8,
        explain in prop::bool::ANY,
    ) {
        let query: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        assert_request_round_trips(&Request::Query {
            request_id,
            query: DomainQuery::Edit { query, l },
            explain,
        });
    }

    #[test]
    fn set_query_round_trips(
        request_id in prop::num::u64::ANY,
        tokens in prop::collection::vec(prop::num::u64::ANY, 0..64),
        l in 0u32..8,
        explain in prop::bool::ANY,
    ) {
        let tokens: Vec<u32> = tokens.into_iter().map(|t| t as u32).collect();
        assert_request_round_trips(&Request::Query {
            request_id,
            query: DomainQuery::Set { tokens, l },
            explain,
        });
    }

    #[test]
    fn graph_query_round_trips(
        request_id in prop::num::u64::ANY,
        seed in prop::num::u64::ANY,
        n in 1u64..10,
        l in 0u32..8,
        explain in prop::bool::ANY,
    ) {
        assert_request_round_trips(&Request::Query {
            request_id,
            query: DomainQuery::Graph {
                query: random_graph(seed, n as usize),
                l,
            },
            explain,
        });
    }

    #[test]
    fn hello_ok_round_trips(v in 0u64..256) {
        assert_response_round_trips(&Response::HelloOk { version: v as u8 });
    }

    #[test]
    fn results_round_trip(
        request_id in prop::num::u64::ANY,
        ids in prop::collection::vec(prop::num::u64::ANY, 0..256),
    ) {
        let ids: Vec<u32> = ids.into_iter().map(|i| i as u32).collect();
        assert_response_round_trips(&Response::Results { request_id, ids });
    }

    #[test]
    fn error_round_trips(
        request_id in prop::num::u64::ANY,
        code in 0u64..5,
        msg in prop::collection::vec(0u64..0xd800, 0..32),
    ) {
        let code = [
            ErrorCode::UnsupportedVersion,
            ErrorCode::Malformed,
            ErrorCode::InvalidQuery,
            ErrorCode::Unavailable,
            ErrorCode::Internal,
        ][code as usize];
        let message: String = msg
            .into_iter()
            .filter_map(|c| char::from_u32(c as u32))
            .collect();
        assert_response_round_trips(&Response::Error { request_id, code, message });
    }

    #[test]
    fn busy_round_trips(request_id in prop::num::u64::ANY) {
        assert_response_round_trips(&Response::Busy { request_id });
    }

    /// The request id survives the round trip bit-exactly — pipelining
    /// correctness rests on this.
    #[test]
    fn request_id_is_preserved_exactly(request_id in prop::num::u64::ANY) {
        let req = Request::Query {
            request_id,
            query: DomainQuery::Set { tokens: vec![1, 2], l: 1 },
            explain: false,
        };
        let Request::Query { request_id: back, .. } =
            decode_request(&encode_request(&req)).expect("decodes")
        else {
            panic!("wrong variant");
        };
        prop_assert_eq!(back, request_id);
        let resp = Response::Results { request_id, ids: vec![3] };
        prop_assert_eq!(
            decode_response(&encode_response(&resp)).expect("decodes").request_id(),
            request_id
        );
    }

    /// Any truncation of a valid frame decodes to a typed error — never
    /// panics, never a bogus success.
    #[test]
    fn truncated_payloads_fail_closed(
        bits in prop::collection::vec(prop::bool::ANY, 1..100),
        cut in prop::num::u64::ANY,
    ) {
        let payload = encode_request(&Request::Query {
            request_id: 7,
            query: DomainQuery::Hamming {
                query: BitVector::from_bits(bits),
                tau: 5,
                l: 3,
            },
            explain: true,
        });
        let cut = 1 + (cut as usize) % (payload.len() - 1);
        let result = decode_request(&payload[..cut]);
        prop_assert!(
            matches!(result, Err(WireError::Truncated)),
            "cut at {} gave {:?}",
            cut,
            result
        );
    }

    #[test]
    fn stats_request_round_trips(request_id in prop::num::u64::ANY) {
        assert_request_round_trips(&Request::Stats { request_id });
    }

    #[test]
    fn stats_response_round_trips(
        request_id in prop::num::u64::ANY,
        body in prop::collection::vec(0u64..0xd800, 0..256),
    ) {
        let json: String = body
            .into_iter()
            .filter_map(|c| char::from_u32(c as u32))
            .collect();
        assert_response_round_trips(&Response::Stats { request_id, json });
    }

    /// Any truncation of a Stats snapshot frame decodes to a typed
    /// error — the length-prefixed JSON body cannot half-parse.
    #[test]
    fn truncated_stats_response_fails_closed(
        body in prop::collection::vec(0x20u64..0x7f, 1..64),
        cut in prop::num::u64::ANY,
    ) {
        let json: String = body
            .into_iter()
            .filter_map(|c| char::from_u32(c as u32))
            .collect();
        let payload = encode_response(&Response::Stats { request_id: 7, json });
        let cut = 1 + (cut as usize) % (payload.len() - 1);
        let result = decode_response(&payload[..cut]);
        prop_assert!(
            matches!(result, Err(WireError::Truncated)),
            "cut at {} gave {:?}",
            cut,
            result
        );
    }

    /// Flipping the tag to an unassigned value is a typed BadTag
    /// (0x01–0x07 are assigned requests, 0x81+ responses).
    #[test]
    fn unknown_tags_fail_closed(tag in 0x08u64..0x81) {
        let mut payload = encode_request(&Request::Hello { max_version: 2 });
        payload[1] = tag as u8;
        prop_assert!(matches!(
            decode_request(&payload),
            Err(WireError::BadTag(t)) if t == tag as u8
        ));
    }
}

#[test]
fn truncated_length_prefix_is_typed() {
    for cut in 1..4 {
        let mut framed = Vec::new();
        write_frame(&mut framed, b"xyzw").expect("write to vec");
        let mut r = &framed[..cut];
        assert!(
            matches!(read_frame(&mut r), Err(WireError::Truncated)),
            "cut at {cut}"
        );
    }
}

#[test]
fn oversized_frame_is_typed() {
    let mut buf = Vec::new();
    buf.extend_from_slice(&(MAX_FRAME_LEN + 7).to_le_bytes());
    buf.extend_from_slice(&[0; 16]);
    let mut r = &buf[..];
    assert!(matches!(read_frame(&mut r), Err(WireError::Oversized(_))));
}

#[test]
fn wrong_version_is_typed() {
    // 1 is the retired v1: its frames draw the same typed BadVersion as
    // any other unknown version — there is no silent downgrade.
    for version in [0u8, 1, 7, 255] {
        let mut payload = encode_request(&Request::Query {
            request_id: 1,
            query: DomainQuery::Edit {
                query: b"abc".to_vec(),
                l: 1,
            },
            explain: false,
        });
        payload[0] = version;
        if version == PROTOCOL_VERSION {
            continue;
        }
        assert!(matches!(
            decode_request(&payload),
            Err(WireError::BadVersion(v)) if v == version
        ));
    }
}

#[test]
fn response_decoder_rejects_request_tags_and_vice_versa() {
    let req = encode_request(&Request::Hello { max_version: 2 });
    assert!(matches!(
        decode_response(&req),
        Err(WireError::BadTag(0x01))
    ));
    let resp = encode_response(&Response::Busy { request_id: 1 });
    assert!(matches!(
        decode_request(&resp),
        Err(WireError::BadTag(0x83))
    ));
}

/// One exemplar of every request and response kind, as encoded payloads
/// (`true`: a request).
fn exemplars() -> Vec<(bool, Vec<u8>)> {
    let query = |query| Request::Query {
        request_id: 9,
        query,
        explain: true,
    };
    let mut graph = Graph::new(vec![1, 2, 3]);
    graph.add_edge(0, 1, 5);
    graph.add_edge(1, 2, 6);
    let requests = [
        Request::Hello { max_version: 2 },
        query(DomainQuery::Hamming {
            query: BitVector::from_bits((0..100).map(|i| i % 3 == 0)),
            tau: 4,
            l: 2,
        }),
        query(DomainQuery::Edit {
            query: b"abcdef".to_vec(),
            l: 2,
        }),
        query(DomainQuery::Set {
            tokens: vec![1, 2, 3],
            l: 2,
        }),
        query(DomainQuery::Graph { query: graph, l: 2 }),
        Request::Stats { request_id: 9 },
        Request::Trace { request_id: 9 },
    ];
    let responses = [
        Response::HelloOk { version: 2 },
        Response::Results {
            request_id: 9,
            ids: vec![1, 2],
        },
        Response::Busy { request_id: 9 },
        Response::Stats {
            request_id: 9,
            json: "{}".into(),
        },
        Response::Trace {
            request_id: 9,
            json: "{}".into(),
        },
        Response::Explained {
            request_id: 9,
            ids: vec![3],
            json: "{}".into(),
        },
        Response::Error {
            request_id: 9,
            code: ErrorCode::Internal,
            message: "x".into(),
        },
    ];
    let requests = requests.iter().map(|r| (true, encode_request(r)));
    requests
        .chain(responses.iter().map(|r| (false, encode_response(r))))
        .collect()
}

/// Offsets of an encoded message's 4-byte count, length, `dims`, `l` and
/// `τ` fields, and of its query flags byte if it is a query. Every query
/// body starts after `[version, tag]`, the 8-byte request id and the
/// flags byte; every response count or length after `[version, tag]` and
/// the request id.
fn mutable_fields(payload: &[u8]) -> (Vec<usize>, Option<usize>) {
    let u32_at = |at: usize| u32::from_le_bytes(payload[at..at + 4].try_into().unwrap()) as usize;
    let fields = match payload[1] {
        0x02 => vec![11, 15, 19, 23], // hamming: τ, l, dims, word count
        0x03 | 0x04 => vec![11, 15],  // edit / set: l, length or count
        0x05 => vec![11, 15, 19 + 4 * u32_at(15)], // graph: l, |V|, |E|
        0x82 => vec![10],             // results: id count
        0x85 | 0x86 => vec![10],      // stats / trace: JSON length
        0x87 => vec![10, 14 + 4 * u32_at(10)], // explained: id count, JSON length
        0x84 => vec![11],             // error: message length
        _ => vec![],
    };
    let flags = (0x02..=0x05).contains(&payload[1]).then_some(10);
    (fields, flags)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// A frame with one field overwritten, cut short, or carrying an
    /// unknown query flag decodes to a typed error or to a message that
    /// re-encodes to itself; the decoder never panics.
    #[test]
    fn mutated_frames_fail_closed(
        which in 0usize..14,
        mutation in 0u32..3,
        at in prop::num::u64::ANY,
        value in prop::num::u64::ANY,
        small in prop::bool::ANY,
    ) {
        let (is_request, mut payload) = exemplars().swap_remove(which);
        let (fields, flags) = mutable_fields(&payload);
        match (mutation, fields.is_empty(), flags) {
            (0, false, _) => {
                let field = fields[at as usize % fields.len()];
                let value = if small { value % 16 } else { value } as u32;
                payload[field..field + 4].copy_from_slice(&value.to_le_bytes());
            }
            (2, _, Some(flags)) => payload[flags] |= 1 << (at % 8),
            _ => payload.truncate(at as usize % payload.len()),
        }
        let what = format!("mutation {mutation} of exemplar {which}: {payload:02x?}");
        if is_request {
            match decode_request(&payload) {
                Ok(m) => prop_assert_eq!(decode_request(&encode_request(&m)).ok(), Some(m), "{}", what),
                Err(e) => prop_assert!(!matches!(e, WireError::Io(_)), "{}: {:?}", what, e),
            }
        } else {
            match decode_response(&payload) {
                Ok(m) => prop_assert_eq!(decode_response(&encode_response(&m)).ok(), Some(m), "{}", what),
                Err(e) => prop_assert!(!matches!(e, WireError::Io(_)), "{}: {:?}", what, e),
            }
        }
    }
}

#[test]
fn mutable_fields_are_the_encoded_fields() {
    // Read back at each offset: the exemplars' τ, l, dims, counts and
    // lengths, in exemplar order.
    let read = |p: &[u8], at: usize| u32::from_le_bytes(p[at..at + 4].try_into().unwrap());
    let got: Vec<Vec<u32>> = exemplars()
        .iter()
        .map(|(_, p)| mutable_fields(p).0.iter().map(|&at| read(p, at)).collect())
        .collect();
    let want: [&[u32]; 14] = [
        &[],
        &[4, 2, 100, 2],
        &[2, 6],
        &[2, 3],
        &[2, 3, 2],
        &[],
        &[],
        &[],
        &[2],
        &[],
        &[2],
        &[2],
        &[1, 2],
        &[1],
    ];
    assert_eq!(got, want.map(<[u32]>::to_vec));
}
