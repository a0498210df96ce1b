//! The versioned, length-prefixed binary wire protocol.
//!
//! Every message travels as one *frame*:
//!
//! ```text
//! +----------------+---------------------------------------+
//! | len: u32 (LE)  | payload (len bytes)                   |
//! +----------------+---------------------------------------+
//! payload = [ version: u8 | tag: u8 | body ... ]
//! ```
//!
//! All integers are little-endian. `len` counts the payload only and is
//! capped at [`MAX_FRAME_LEN`]; an oversized length is rejected *before*
//! any allocation. The first payload byte is the protocol version
//! ([`PROTOCOL_VERSION`]); a mismatch decodes to
//! [`WireError::BadVersion`], which servers answer with a typed
//! [`ErrorCode::UnsupportedVersion`] response before closing — the
//! connection fails closed, never panics.
//!
//! Version negotiation: a client opens with [`Request::Hello`] carrying
//! the highest version it speaks; the server answers
//! [`Response::HelloOk`] with the version to use (today always `2`) or
//! an `UnsupportedVersion` error — a v1-only client is refused in
//! negotiation, and a stray v1 frame is [`WireError::BadVersion`].
//! Every later frame carries the agreed version in its header.
//!
//! **v2: tagged request ids.** Every [`Request::Query`] carries a
//! client-chosen `request_id: u64`, echoed verbatim on the
//! query-scoped responses ([`Response::Results`], [`Response::Busy`],
//! [`Response::Error`]). This is what makes request *pipelining*
//! possible: a client may keep many queries in flight on one connection
//! and the server may answer them **out of order** — responses are
//! matched by id, not by position. Id `0` ([`CONNECTION_REQUEST_ID`])
//! is reserved for connection-scoped errors (an undecodable frame has
//! no id to echo); clients allocate ids from `1`.
//!
//! **Tracing.** Every query body carries a flags byte; bit 0 is the
//! EXPLAIN flag, which forces tracing for that request and answers it
//! with [`Response::Explained`] — the result ids *plus* the request's
//! span tree as JSON. Unknown flag bits are
//! [`WireError::Malformed`] (fail closed, so a future flag cannot be
//! silently ignored by an old peer). [`Request::Trace`] asks for the
//! most recent sampled traces ([`Response::Trace`]) and — like
//! `Stats` — is answered inline on the reactor thread, so it works
//! under saturation.
//!
//! Decoding is strict: truncated bodies are [`WireError::Truncated`],
//! unconsumed trailing bytes are [`WireError::TrailingBytes`], unknown
//! tags are [`WireError::BadTag`], and structurally invalid queries
//! (stray bits in a packed vector, self-loops or duplicate edges in a
//! graph) are [`WireError::Malformed`]. Element counts are validated
//! against the remaining frame length before any buffer is sized, so a
//! hostile count cannot trigger a huge allocation.

use std::fmt;
use std::io::{Read, Write};

use pigeonring_graph::Graph;
use pigeonring_hamming::BitVector;

/// The protocol version this build speaks. v2 added tagged request ids
/// (pipelining); v1 — one un-tagged request/response pair at a time —
/// is no longer served, so a v1 client draws a typed
/// `UnsupportedVersion` in negotiation.
pub const PROTOCOL_VERSION: u8 = 2;

/// The reserved request id for connection-scoped messages: errors the
/// server must send without a query to echo an id from (an undecodable
/// frame, a pre-negotiation violation). Clients allocate query ids
/// starting at `1`, so id `0` is unambiguous.
pub const CONNECTION_REQUEST_ID: u64 = 0;

/// Upper bound on a frame's payload length (4 MiB) — generous for any
/// realistic query, small enough that a corrupt length prefix cannot
/// drive a giant allocation.
pub const MAX_FRAME_LEN: u32 = 4 * 1024 * 1024;

/// Why a frame or message failed to decode. Every variant is a typed,
/// recoverable error: protocol code never panics on remote input.
#[derive(Debug)]
pub enum WireError {
    /// Underlying socket error.
    Io(std::io::Error),
    /// The stream ended inside a frame, or a body is shorter than its
    /// declared element counts require.
    Truncated,
    /// Declared payload length exceeds [`MAX_FRAME_LEN`].
    Oversized(u32),
    /// Frame header carries an unknown protocol version.
    BadVersion(u8),
    /// Unknown message tag.
    BadTag(u8),
    /// The body decoded fully but left unconsumed bytes.
    TrailingBytes(usize),
    /// The body parsed but describes an invalid value (reason attached).
    Malformed(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "io error: {e}"),
            WireError::Truncated => write!(f, "truncated frame"),
            WireError::Oversized(n) => write!(f, "frame length {n} exceeds {MAX_FRAME_LEN}"),
            WireError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::BadTag(t) => write!(f, "unknown message tag 0x{t:02x}"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message body"),
            WireError::Malformed(why) => write!(f, "malformed message: {why}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// The four query domains the server multiplexes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Domain {
    /// Hamming distance over packed binary vectors.
    Hamming,
    /// Edit distance over byte strings.
    Edit,
    /// Set similarity (Jaccard) over token sets.
    Set,
    /// Graph edit distance over labeled graphs.
    Graph,
}

impl Domain {
    /// All domains, in wire-tag order.
    pub const ALL: [Domain; 4] = [Domain::Hamming, Domain::Edit, Domain::Set, Domain::Graph];

    /// CLI / artifact / metric-name label of the domain.
    pub fn as_str(self) -> &'static str {
        match self {
            Domain::Hamming => "hamming",
            Domain::Edit => "editdist",
            Domain::Set => "setsim",
            Domain::Graph => "graph",
        }
    }

    /// Parses a CLI / artifact name.
    pub fn parse_name(s: &str) -> Option<Domain> {
        Domain::ALL.into_iter().find(|d| d.as_str() == s)
    }
}

impl fmt::Display for Domain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One thresholded similarity query, tagged by domain, with its
/// per-request search parameters (thresholds fixed at index build time —
/// edit/set/graph — travel implicitly; Hamming's `τ` is per-request).
#[derive(Clone, Debug, PartialEq)]
pub enum DomainQuery {
    /// Hamming search: all records within distance `tau`, chain length
    /// `l`.
    Hamming {
        /// The query vector (must match the dataset's dimensionality).
        query: BitVector,
        /// Distance threshold `τ`.
        tau: u32,
        /// Chain length `l`.
        l: u32,
    },
    /// Edit-distance search with chain length `l` (`τ` is an index
    /// build-time parameter).
    Edit {
        /// The query string.
        query: Vec<u8>,
        /// Chain length `l`.
        l: u32,
    },
    /// Set-similarity search with chain length `l`. Tokens are **raw**
    /// ids (each shard re-ranks into its local frequency order).
    Set {
        /// The raw query token set.
        tokens: Vec<u32>,
        /// Chain length `l`.
        l: u32,
    },
    /// Graph-edit-distance search with chain length `l`.
    Graph {
        /// The query graph.
        query: Graph,
        /// Chain length `l`.
        l: u32,
    },
}

impl DomainQuery {
    /// The domain this query targets.
    pub fn domain(&self) -> Domain {
        match self {
            DomainQuery::Hamming { .. } => Domain::Hamming,
            DomainQuery::Edit { .. } => Domain::Edit,
            DomainQuery::Set { .. } => Domain::Set,
            DomainQuery::Graph { .. } => Domain::Graph,
        }
    }
}

/// A client → server message.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Version negotiation: the highest protocol version the client
    /// speaks. Must be the first frame on a connection.
    Hello {
        /// Highest version the client supports.
        max_version: u8,
    },
    /// One similarity query, tagged with a client-chosen id that the
    /// server echoes on the matching response. Ids let many queries be
    /// in flight per connection (answers may return out of order);
    /// `request_id` must not be [`CONNECTION_REQUEST_ID`].
    Query {
        /// The client-chosen id echoed on this query's response.
        request_id: u64,
        /// The query itself.
        query: DomainQuery,
        /// EXPLAIN mode: forces tracing for this request regardless of
        /// the server's sampling rate and answers with
        /// [`Response::Explained`] (result ids + the span tree)
        /// instead of plain `Results`.
        explain: bool,
    },
    /// Asks for a live metrics snapshot ([`Response::Stats`]). Answered
    /// directly on the reactor thread — it never enters the request
    /// queue, so it works even when every lane is saturated. Follows
    /// the same id rules as `Query`: `request_id` must not be
    /// [`CONNECTION_REQUEST_ID`].
    Stats {
        /// The client-chosen id echoed on the snapshot response.
        request_id: u64,
    },
    /// Asks for the most recent sampled traces ([`Response::Trace`]).
    /// Answered inline on the reactor thread, exactly like `Stats`,
    /// so traces stay readable while every lane is saturated. Same id
    /// rules as `Query`.
    Trace {
        /// The client-chosen id echoed on the trace response.
        request_id: u64,
    },
}

/// Typed error category carried by [`Response::Error`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The client's protocol version is not supported.
    UnsupportedVersion,
    /// The request frame failed to decode.
    Malformed,
    /// The query decoded but cannot run against the loaded dataset
    /// (wrong vector dimensionality, Hamming `τ > d`, or a chain
    /// length outside `1..=m`).
    InvalidQuery,
    /// The requested domain has no engine loaded.
    Unavailable,
    /// The server failed internally while executing the query.
    Internal,
}

impl ErrorCode {
    fn to_u8(self) -> u8 {
        match self {
            ErrorCode::UnsupportedVersion => 1,
            ErrorCode::Malformed => 2,
            ErrorCode::InvalidQuery => 3,
            ErrorCode::Unavailable => 4,
            ErrorCode::Internal => 5,
        }
    }

    fn from_u8(v: u8) -> Option<ErrorCode> {
        match v {
            1 => Some(ErrorCode::UnsupportedVersion),
            2 => Some(ErrorCode::Malformed),
            3 => Some(ErrorCode::InvalidQuery),
            4 => Some(ErrorCode::Unavailable),
            5 => Some(ErrorCode::Internal),
            _ => None,
        }
    }
}

/// A server → client message. Query-scoped responses (`Results`,
/// `Busy`, `Error`) echo the request id of the query they answer;
/// connection-scoped errors carry [`CONNECTION_REQUEST_ID`].
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Version accepted; all further frames use `version`.
    HelloOk {
        /// The negotiated protocol version.
        version: u8,
    },
    /// The query's merged result: global record ids, ascending.
    Results {
        /// Id of the query this answers.
        request_id: u64,
        /// Global record ids within the threshold, ascending.
        ids: Vec<u32>,
    },
    /// Admission control rejected the request: the queried domain's
    /// lane is full. The client may retry; the connection stays open
    /// and other domains' lanes are unaffected.
    Busy {
        /// Id of the rejected query.
        request_id: u64,
    },
    /// A live metrics snapshot answering [`Request::Stats`]. The body
    /// is a self-describing JSON document (machine fingerprint, uptime,
    /// counters/gauges/histograms, recent slow queries) so the schema
    /// can grow without a wire change.
    Stats {
        /// Id of the stats request this answers.
        request_id: u64,
        /// The snapshot document (UTF-8 JSON).
        json: String,
    },
    /// Recent sampled traces answering [`Request::Trace`]. Like
    /// `Stats`, the body is a self-describing JSON document (sampling
    /// rate, dropped-span count, span trees) so the schema can grow
    /// without a wire change.
    Trace {
        /// Id of the trace request this answers.
        request_id: u64,
        /// The trace document (UTF-8 JSON).
        json: String,
    },
    /// An EXPLAIN query's answer: the merged result ids *plus* the
    /// request's own span tree as JSON. Sent instead of `Results` when
    /// the query set its EXPLAIN flag.
    Explained {
        /// Id of the query this answers.
        request_id: u64,
        /// Global record ids within the threshold, ascending.
        ids: Vec<u32>,
        /// The request's span tree (UTF-8 JSON).
        json: String,
    },
    /// Typed failure; the server closes the connection after sending
    /// this for protocol-level errors (`UnsupportedVersion`,
    /// `Malformed` — then `request_id` is [`CONNECTION_REQUEST_ID`])
    /// and keeps it open for per-query errors.
    Error {
        /// Id of the failed query, or [`CONNECTION_REQUEST_ID`] for a
        /// connection-scoped failure.
        request_id: u64,
        /// What category of failure.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

impl Response {
    /// The request id this response answers ([`CONNECTION_REQUEST_ID`]
    /// for `HelloOk` and connection-scoped errors).
    pub fn request_id(&self) -> u64 {
        match self {
            Response::HelloOk { .. } => CONNECTION_REQUEST_ID,
            Response::Results { request_id, .. }
            | Response::Busy { request_id }
            | Response::Stats { request_id, .. }
            | Response::Trace { request_id, .. }
            | Response::Explained { request_id, .. }
            | Response::Error { request_id, .. } => *request_id,
        }
    }

    /// The same response re-tagged with `request_id` (`HelloOk`, which
    /// carries no id, is returned unchanged). The dispatcher uses this
    /// to stamp handler-produced responses with the id of the request
    /// they answer.
    pub fn with_request_id(self, id: u64) -> Response {
        match self {
            Response::HelloOk { .. } => self,
            Response::Results { ids, .. } => Response::Results {
                request_id: id,
                ids,
            },
            Response::Busy { .. } => Response::Busy { request_id: id },
            Response::Stats { json, .. } => Response::Stats {
                request_id: id,
                json,
            },
            Response::Trace { json, .. } => Response::Trace {
                request_id: id,
                json,
            },
            Response::Explained { ids, json, .. } => Response::Explained {
                request_id: id,
                ids,
                json,
            },
            Response::Error { code, message, .. } => Response::Error {
                request_id: id,
                code,
                message,
            },
        }
    }
}

// Message tags. Requests are < 0x80, responses ≥ 0x80.
const TAG_HELLO: u8 = 0x01;
const TAG_Q_HAMMING: u8 = 0x02;
const TAG_Q_EDIT: u8 = 0x03;
const TAG_Q_SET: u8 = 0x04;
const TAG_Q_GRAPH: u8 = 0x05;
const TAG_STATS: u8 = 0x06;
const TAG_TRACE: u8 = 0x07;
const TAG_HELLO_OK: u8 = 0x81;
const TAG_RESULTS: u8 = 0x82;
const TAG_BUSY: u8 = 0x83;
const TAG_ERROR: u8 = 0x84;
const TAG_STATS_RESP: u8 = 0x85;
const TAG_TRACE_RESP: u8 = 0x86;
const TAG_EXPLAINED: u8 = 0x87;

/// Query-body flags byte (follows `request_id` in every query tag).
/// Bit 0 is EXPLAIN; the remaining bits are reserved and must be zero.
const QUERY_FLAG_EXPLAIN: u8 = 0x01;

fn encode_query_flags(explain: bool) -> u8 {
    if explain {
        QUERY_FLAG_EXPLAIN
    } else {
        0
    }
}

fn decode_query_flags(r: &mut BodyReader<'_>) -> Result<bool, WireError> {
    let flags = r.u8()?;
    if flags & !QUERY_FLAG_EXPLAIN != 0 {
        return Err(WireError::Malformed("unknown query flags"));
    }
    Ok(flags & QUERY_FLAG_EXPLAIN != 0)
}

// ------------------------------------------------------------- frame IO

/// Writes one frame (`len` prefix + payload) and flushes.
///
/// Refuses payloads over [`MAX_FRAME_LEN`] with `InvalidInput` — the
/// decode-side cap has an encode-side counterpart, so an oversized
/// message (e.g. a huge result set) can never reach the peer as a frame
/// it would have to reject.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    if payload.len() > MAX_FRAME_LEN as usize {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!(
                "payload of {} bytes exceeds the {MAX_FRAME_LEN}-byte frame cap",
                payload.len()
            ),
        ));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame's payload. Returns `Ok(None)` on a clean end of
/// stream (connection closed *between* frames); an end of stream inside
/// a frame — even inside the 4-byte length prefix — is
/// [`WireError::Truncated`].
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, WireError> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        #[expect(
            clippy::indexing_slicing,
            reason = "`filled < 4` bounds the range into the 4-byte buffer"
        )]
        let n = r.read(&mut len_buf[filled..])?;
        if n == 0 {
            return if filled == 0 {
                Ok(None)
            } else {
                Err(WireError::Truncated)
            };
        }
        filled += n;
    }
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME_LEN {
        return Err(WireError::Oversized(len));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            WireError::Truncated
        } else {
            WireError::Io(e)
        }
    })?;
    Ok(Some(payload))
}

/// Incremental frame parser for nonblocking readers: feed whatever
/// bytes a readiness event yielded, pull out as many complete frames
/// as those bytes contain. The reactor's per-connection state
/// machine is built on this; the cap check mirrors [`read_frame`] —
/// an oversized declared length is rejected from the 4-byte prefix
/// alone, before any payload allocation.
#[derive(Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    pos: usize,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Appends bytes read from the socket.
    pub fn feed(&mut self, bytes: &[u8]) {
        // Compact before growing: consumed prefix space is reclaimed
        // once it dominates the buffer, so a long-lived connection's
        // decoder does not grow monotonically.
        if self.pos > 4096 && self.pos * 2 >= self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Extracts the next complete frame payload, if the buffered bytes
    /// contain one. `Ok(None)` means "need more bytes"; an oversized
    /// length prefix is a hard protocol error, detected as soon as the
    /// prefix itself is complete.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, WireError> {
        let avail = self.buf.len() - self.pos;
        if avail < 4 {
            return Ok(None);
        }
        #[expect(
            clippy::indexing_slicing,
            reason = "`avail >= 4` bounds the 4-byte prefix slice"
        )]
        let len_bytes: [u8; 4] = self.buf[self.pos..self.pos + 4]
            .try_into()
            .unwrap_or([0; 4]);
        let len = u32::from_le_bytes(len_bytes);
        if len > MAX_FRAME_LEN {
            return Err(WireError::Oversized(len));
        }
        let total = 4 + len as usize;
        if avail < total {
            return Ok(None);
        }
        #[expect(
            clippy::indexing_slicing,
            reason = "`avail >= total` bounds the payload slice"
        )]
        let payload = self.buf[self.pos + 4..self.pos + total].to_vec();
        self.pos += total;
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        }
        Ok(Some(payload))
    }

    /// True when bytes of an incomplete frame are buffered — at EOF
    /// this is the difference between a clean close and
    /// [`WireError::Truncated`].
    pub fn has_partial(&self) -> bool {
        self.pos < self.buf.len()
    }

    /// Number of not-yet-consumed buffered bytes.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }
}

// --------------------------------------------------- body read / write

/// Append-only little-endian body writer.
struct BodyWriter {
    buf: Vec<u8>,
}

impl BodyWriter {
    fn new(tag: u8) -> Self {
        BodyWriter {
            buf: vec![PROTOCOL_VERSION, tag],
        }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }
}

/// Strict little-endian body reader: every read is bounds-checked
/// ([`WireError::Truncated`]) and [`BodyReader::finish`] rejects
/// leftovers ([`WireError::TrailingBytes`]).
struct BodyReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> BodyReader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        BodyReader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        #[expect(
            clippy::indexing_slicing,
            reason = "the remaining() guard above keeps pos + n in bounds"
        )]
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        // take(N) returns exactly N bytes, so the conversion cannot
        // fail; mapping to Truncated keeps the path panic-free anyway.
        self.take(N)?.try_into().map_err(|_| WireError::Truncated)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(u8::from_le_bytes(self.array()?))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Reads a `count`-prefixed length, validating that `count * width`
    /// bytes actually remain before the caller sizes a buffer.
    fn checked_count(&mut self, width: usize) -> Result<usize, WireError> {
        let count = self.u32()? as usize;
        if count
            .checked_mul(width)
            .is_none_or(|b| b > self.remaining())
        {
            return Err(WireError::Truncated);
        }
        Ok(count)
    }

    fn finish(self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::TrailingBytes(self.remaining()));
        }
        Ok(())
    }
}

/// Reads and validates the `[version, tag]` header, returning the tag.
fn read_header(r: &mut BodyReader<'_>) -> Result<u8, WireError> {
    let version = r.u8()?;
    if version != PROTOCOL_VERSION {
        return Err(WireError::BadVersion(version));
    }
    r.u8()
}

// ------------------------------------------------------------ requests

/// Encodes a request into a frame payload.
pub fn encode_request(req: &Request) -> Vec<u8> {
    match req {
        Request::Hello { max_version } => {
            let mut w = BodyWriter::new(TAG_HELLO);
            w.u8(*max_version);
            w.buf
        }
        Request::Query {
            request_id,
            query,
            explain,
        } => encode_query(*request_id, *explain, query),
        Request::Stats { request_id } => {
            let mut w = BodyWriter::new(TAG_STATS);
            w.u64(*request_id);
            w.buf
        }
        Request::Trace { request_id } => {
            let mut w = BodyWriter::new(TAG_TRACE);
            w.u64(*request_id);
            w.buf
        }
    }
}

/// Encodes a query: the shared header (`request_id`, flags byte), then
/// the domain's body.
fn encode_query(request_id: u64, explain: bool, query: &DomainQuery) -> Vec<u8> {
    let mut w = BodyWriter::new(match query {
        DomainQuery::Hamming { .. } => TAG_Q_HAMMING,
        DomainQuery::Edit { .. } => TAG_Q_EDIT,
        DomainQuery::Set { .. } => TAG_Q_SET,
        DomainQuery::Graph { .. } => TAG_Q_GRAPH,
    });
    w.u64(request_id);
    w.u8(encode_query_flags(explain));
    match query {
        DomainQuery::Hamming { query, tau, l } => {
            w.u32(*tau);
            w.u32(*l);
            w.u32(query.dims() as u32);
            w.u32(query.words().len() as u32);
            for word in query.words() {
                w.u64(*word);
            }
        }
        DomainQuery::Edit { query, l } => {
            w.u32(*l);
            w.u32(query.len() as u32);
            w.bytes(query);
        }
        DomainQuery::Set { tokens, l } => {
            w.u32(*l);
            w.u32(tokens.len() as u32);
            for t in tokens {
                w.u32(*t);
            }
        }
        DomainQuery::Graph { query, l } => {
            w.u32(*l);
            w.u32(query.num_vertices() as u32);
            for &vl in query.vlabels() {
                w.u32(vl);
            }
            w.u32(query.num_edges() as u32);
            for (u, v, el) in query.edges() {
                w.u32(u);
                w.u32(v);
                w.u32(el);
            }
        }
    }
    w.buf
}

/// Decodes a frame payload into a request (strict; see module docs).
pub fn decode_request(payload: &[u8]) -> Result<Request, WireError> {
    let mut r = BodyReader::new(payload);
    let tag = read_header(&mut r)?;
    let req = match tag {
        TAG_HELLO => Request::Hello {
            max_version: r.u8()?,
        },
        TAG_Q_HAMMING | TAG_Q_EDIT | TAG_Q_SET | TAG_Q_GRAPH => decode_query(tag, &mut r)?,
        TAG_STATS => Request::Stats {
            request_id: r.u64()?,
        },
        TAG_TRACE => Request::Trace {
            request_id: r.u64()?,
        },
        other => return Err(WireError::BadTag(other)),
    };
    r.finish()?;
    Ok(req)
}

/// Decodes a query after its tag: the shared header (`request_id`,
/// flags byte), then the body `tag` names.
fn decode_query(tag: u8, r: &mut BodyReader<'_>) -> Result<Request, WireError> {
    let request_id = r.u64()?;
    let explain = decode_query_flags(r)?;
    let query = match tag {
        TAG_Q_HAMMING => {
            let tau = r.u32()?;
            let l = r.u32()?;
            let dims = r.u32()? as usize;
            let nwords = r.checked_count(8)?;
            let mut words = Vec::with_capacity(nwords);
            for _ in 0..nwords {
                words.push(r.u64()?);
            }
            let query = BitVector::from_words(dims, words)
                .ok_or(WireError::Malformed("invalid packed vector"))?;
            DomainQuery::Hamming { query, tau, l }
        }
        TAG_Q_EDIT => {
            let l = r.u32()?;
            let len = r.checked_count(1)?;
            let query = r.take(len)?.to_vec();
            DomainQuery::Edit { query, l }
        }
        TAG_Q_SET => {
            let l = r.u32()?;
            let count = r.checked_count(4)?;
            let mut tokens = Vec::with_capacity(count);
            for _ in 0..count {
                tokens.push(r.u32()?);
            }
            DomainQuery::Set { tokens, l }
        }
        TAG_Q_GRAPH => {
            let l = r.u32()?;
            let nv = r.checked_count(4)?;
            if nv == 0 {
                return Err(WireError::Malformed("graph needs at least one vertex"));
            }
            let mut vlabels = Vec::with_capacity(nv);
            for _ in 0..nv {
                vlabels.push(r.u32()?);
            }
            let ne = r.checked_count(12)?;
            let mut query = Graph::new(vlabels);
            for _ in 0..ne {
                let (u, v, el) = (r.u32()?, r.u32()?, r.u32()?);
                if u == v {
                    return Err(WireError::Malformed("graph self-loop"));
                }
                if u as usize >= nv || v as usize >= nv {
                    return Err(WireError::Malformed("graph edge endpoint out of range"));
                }
                if query.edge_label(u, v).is_some() {
                    return Err(WireError::Malformed("duplicate graph edge"));
                }
                query.add_edge(u, v, el);
            }
            DomainQuery::Graph { query, l }
        }
        other => return Err(WireError::BadTag(other)),
    };
    Ok(Request::Query {
        request_id,
        query,
        explain,
    })
}

// ----------------------------------------------------------- responses

/// Encodes a response into a frame payload.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    match resp {
        Response::HelloOk { version } => {
            let mut w = BodyWriter::new(TAG_HELLO_OK);
            w.u8(*version);
            w.buf
        }
        Response::Results { request_id, ids } => {
            let mut w = BodyWriter::new(TAG_RESULTS);
            w.u64(*request_id);
            w.u32(ids.len() as u32);
            for id in ids {
                w.u32(*id);
            }
            w.buf
        }
        Response::Busy { request_id } => {
            let mut w = BodyWriter::new(TAG_BUSY);
            w.u64(*request_id);
            w.buf
        }
        Response::Stats { request_id, json } => {
            let mut w = BodyWriter::new(TAG_STATS_RESP);
            w.u64(*request_id);
            w.u32(json.len() as u32);
            w.bytes(json.as_bytes());
            w.buf
        }
        Response::Trace { request_id, json } => {
            let mut w = BodyWriter::new(TAG_TRACE_RESP);
            w.u64(*request_id);
            w.u32(json.len() as u32);
            w.bytes(json.as_bytes());
            w.buf
        }
        Response::Explained {
            request_id,
            ids,
            json,
        } => {
            let mut w = BodyWriter::new(TAG_EXPLAINED);
            w.u64(*request_id);
            w.u32(ids.len() as u32);
            for id in ids {
                w.u32(*id);
            }
            w.u32(json.len() as u32);
            w.bytes(json.as_bytes());
            w.buf
        }
        Response::Error {
            request_id,
            code,
            message,
        } => {
            let mut w = BodyWriter::new(TAG_ERROR);
            w.u64(*request_id);
            w.u8(code.to_u8());
            w.u32(message.len() as u32);
            w.bytes(message.as_bytes());
            w.buf
        }
    }
}

/// Decodes a frame payload into a response (strict; see module docs).
pub fn decode_response(payload: &[u8]) -> Result<Response, WireError> {
    let mut r = BodyReader::new(payload);
    let tag = read_header(&mut r)?;
    let resp = match tag {
        TAG_HELLO_OK => Response::HelloOk { version: r.u8()? },
        TAG_RESULTS => {
            let request_id = r.u64()?;
            let count = r.checked_count(4)?;
            let mut ids = Vec::with_capacity(count);
            for _ in 0..count {
                ids.push(r.u32()?);
            }
            Response::Results { request_id, ids }
        }
        TAG_BUSY => Response::Busy {
            request_id: r.u64()?,
        },
        TAG_STATS_RESP => {
            let request_id = r.u64()?;
            let len = r.checked_count(1)?;
            let json = String::from_utf8(r.take(len)?.to_vec())
                .map_err(|_| WireError::Malformed("stats snapshot is not UTF-8"))?;
            Response::Stats { request_id, json }
        }
        TAG_TRACE_RESP => {
            let request_id = r.u64()?;
            let len = r.checked_count(1)?;
            let json = String::from_utf8(r.take(len)?.to_vec())
                .map_err(|_| WireError::Malformed("trace document is not UTF-8"))?;
            Response::Trace { request_id, json }
        }
        TAG_EXPLAINED => {
            let request_id = r.u64()?;
            let count = r.checked_count(4)?;
            let mut ids = Vec::with_capacity(count);
            for _ in 0..count {
                ids.push(r.u32()?);
            }
            let len = r.checked_count(1)?;
            let json = String::from_utf8(r.take(len)?.to_vec())
                .map_err(|_| WireError::Malformed("trace document is not UTF-8"))?;
            Response::Explained {
                request_id,
                ids,
                json,
            }
        }
        TAG_ERROR => {
            let request_id = r.u64()?;
            let code =
                ErrorCode::from_u8(r.u8()?).ok_or(WireError::Malformed("unknown error code"))?;
            let len = r.checked_count(1)?;
            let message = String::from_utf8(r.take(len)?.to_vec())
                .map_err(|_| WireError::Malformed("error message is not UTF-8"))?;
            Response::Error {
                request_id,
                code,
                message,
            }
        }
        other => return Err(WireError::BadTag(other)),
    };
    r.finish()?;
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").expect("write to vec");
        write_frame(&mut buf, b"").expect("write to vec");
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b"hello"[..]));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b""[..]));
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn oversized_payload_refused_at_write_time() {
        let huge = vec![0u8; MAX_FRAME_LEN as usize + 1];
        let mut out = Vec::new();
        let err = write_frame(&mut out, &huge).expect_err("must refuse");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(out.is_empty(), "nothing written for a refused frame");
    }

    #[test]
    fn truncated_length_prefix_fails_closed() {
        let mut r: &[u8] = &[5, 0];
        assert!(matches!(read_frame(&mut r), Err(WireError::Truncated)));
    }

    #[test]
    fn truncated_body_fails_closed() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"abcdef").expect("write to vec");
        buf.truncate(7); // 4-byte prefix + 3 of 6 body bytes
        let mut r = &buf[..];
        assert!(matches!(read_frame(&mut r), Err(WireError::Truncated)));
    }

    #[test]
    fn oversized_frame_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        let mut r = &buf[..];
        assert!(matches!(
            read_frame(&mut r),
            Err(WireError::Oversized(n)) if n == MAX_FRAME_LEN + 1
        ));
    }

    #[test]
    fn decoder_reassembles_byte_by_byte_feeds() {
        let mut stream = Vec::new();
        write_frame(&mut stream, b"hello").expect("write to vec");
        write_frame(&mut stream, b"").expect("write to vec");
        write_frame(&mut stream, b"worlds").expect("write to vec");
        let mut dec = FrameDecoder::new();
        let mut frames = Vec::new();
        for b in stream {
            dec.feed(&[b]);
            while let Some(p) = dec.next_frame().expect("valid stream") {
                frames.push(p);
            }
        }
        assert_eq!(frames.len(), 3);
        assert_eq!(frames[0], b"hello");
        assert_eq!(frames[1], b"");
        assert_eq!(frames[2], b"worlds");
        assert!(!dec.has_partial());
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn decoder_reports_partial_frames() {
        let mut stream = Vec::new();
        write_frame(&mut stream, b"abcdef").expect("write to vec");
        let mut dec = FrameDecoder::new();
        dec.feed(&stream[..7]); // prefix + half the body
        assert!(matches!(dec.next_frame(), Ok(None)));
        assert!(dec.has_partial());
        dec.feed(&stream[7..]);
        assert_eq!(
            dec.next_frame().expect("complete now").as_deref(),
            Some(&b"abcdef"[..])
        );
        assert!(!dec.has_partial());
    }

    #[test]
    fn decoder_rejects_oversized_prefix_before_payload_arrives() {
        let mut dec = FrameDecoder::new();
        dec.feed(&(MAX_FRAME_LEN + 1).to_le_bytes());
        assert!(matches!(
            dec.next_frame(),
            Err(WireError::Oversized(n)) if n == MAX_FRAME_LEN + 1
        ));
    }

    #[test]
    fn decoder_handles_many_frames_in_one_feed() {
        let mut stream = Vec::new();
        for i in 0..100u8 {
            write_frame(&mut stream, &[i; 3]).expect("write to vec");
        }
        let mut dec = FrameDecoder::new();
        dec.feed(&stream);
        for i in 0..100u8 {
            assert_eq!(
                dec.next_frame().expect("valid").as_deref(),
                Some(&[i; 3][..])
            );
        }
        assert!(matches!(dec.next_frame(), Ok(None)));
    }

    #[test]
    fn decoder_compacts_consumed_prefix() {
        let mut stream = Vec::new();
        write_frame(&mut stream, &[7u8; 4096]).expect("write to vec");
        let mut dec = FrameDecoder::new();
        for _ in 0..8 {
            dec.feed(&stream);
            assert!(dec.next_frame().expect("valid").is_some());
        }
        assert_eq!(dec.buffered(), 0);
        // Internal buffer must not have retained all eight frames.
        assert!(dec.buf.len() < 2 * stream.len());
    }

    #[test]
    fn bad_version_rejected() {
        let mut payload = encode_request(&Request::Hello { max_version: 1 });
        payload[0] = 99;
        assert!(matches!(
            decode_request(&payload),
            Err(WireError::BadVersion(99))
        ));
        assert!(matches!(
            decode_response(&payload),
            Err(WireError::BadVersion(99))
        ));
    }

    #[test]
    fn bad_tag_rejected() {
        let payload = [PROTOCOL_VERSION, 0x7f];
        assert!(matches!(
            decode_request(&payload),
            Err(WireError::BadTag(0x7f))
        ));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut payload = encode_request(&Request::Hello { max_version: 1 });
        payload.push(0);
        assert!(matches!(
            decode_request(&payload),
            Err(WireError::TrailingBytes(1))
        ));
    }

    #[test]
    fn hostile_count_cannot_drive_allocation() {
        // A Set query declaring u32::MAX tokens with a 4-byte body.
        let mut w = BodyWriter::new(TAG_Q_SET);
        w.u64(1); // request id
        w.u8(0); // flags
        w.u32(1); // l
        w.u32(u32::MAX); // token count
        w.u32(7); // only one token actually present
        assert!(matches!(decode_request(&w.buf), Err(WireError::Truncated)));
    }

    #[test]
    fn graph_validation() {
        let mk = |edges: &[(u32, u32, u32)]| {
            let mut w = BodyWriter::new(TAG_Q_GRAPH);
            w.u64(1); // request id
            w.u8(0); // flags
            w.u32(1); // l
            w.u32(3); // nv
            for vl in [1u32, 2, 3] {
                w.u32(vl);
            }
            w.u32(edges.len() as u32);
            for &(u, v, el) in edges {
                w.u32(u);
                w.u32(v);
                w.u32(el);
            }
            w.buf
        };
        assert!(decode_request(&mk(&[(0, 1, 9), (1, 2, 9)])).is_ok());
        assert!(matches!(
            decode_request(&mk(&[(1, 1, 9)])),
            Err(WireError::Malformed("graph self-loop"))
        ));
        assert!(matches!(
            decode_request(&mk(&[(0, 3, 9)])),
            Err(WireError::Malformed("graph edge endpoint out of range"))
        ));
        assert!(matches!(
            decode_request(&mk(&[(0, 1, 9), (1, 0, 9)])),
            Err(WireError::Malformed("duplicate graph edge"))
        ));
    }

    #[test]
    fn request_id_helpers_cover_every_variant() {
        assert_eq!(
            Response::HelloOk { version: 2 }.request_id(),
            CONNECTION_REQUEST_ID
        );
        let variants = [
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
        for resp in variants {
            assert_eq!(resp.request_id(), 9);
            let retagged = resp.with_request_id(42);
            assert_eq!(retagged.request_id(), 42);
        }
        // HelloOk carries no id; retagging is a no-op.
        let hello = Response::HelloOk { version: 2 }.with_request_id(42);
        assert_eq!(hello, Response::HelloOk { version: 2 });
    }

    #[test]
    fn v1_frame_fails_closed_with_bad_version() {
        let mut payload = encode_request(&Request::Hello { max_version: 2 });
        payload[0] = 1; // a v1-era frame header
        assert!(matches!(
            decode_request(&payload),
            Err(WireError::BadVersion(1))
        ));
    }

    #[test]
    fn stats_messages_round_trip() {
        let req = Request::Stats { request_id: 17 };
        assert_eq!(decode_request(&encode_request(&req)).unwrap(), req);
        let resp = Response::Stats {
            request_id: 17,
            json: r#"{"counters": {"service.hamming.queries": 3}}"#.into(),
        };
        assert_eq!(decode_response(&encode_response(&resp)).unwrap(), resp);
    }

    #[test]
    fn stats_response_rejects_bad_utf8_and_hostile_length() {
        // Valid frame, then corrupt the JSON bytes to invalid UTF-8.
        let mut payload = encode_response(&Response::Stats {
            request_id: 1,
            json: "ab".into(),
        });
        let n = payload.len();
        payload[n - 1] = 0xff;
        assert!(matches!(
            decode_response(&payload),
            Err(WireError::Malformed("stats snapshot is not UTF-8"))
        ));
        // Declared length far beyond the body must fail before sizing.
        let mut w = BodyWriter::new(TAG_STATS_RESP);
        w.u64(1);
        w.u32(u32::MAX);
        w.bytes(b"{}");
        assert!(matches!(decode_response(&w.buf), Err(WireError::Truncated)));
        // A trailing byte after the declared JSON is rejected.
        let mut payload = encode_response(&Response::Stats {
            request_id: 1,
            json: "{}".into(),
        });
        payload.push(0);
        assert!(matches!(
            decode_response(&payload),
            Err(WireError::TrailingBytes(1))
        ));
    }

    #[test]
    fn trace_messages_round_trip() {
        let req = Request::Trace { request_id: 23 };
        assert_eq!(decode_request(&encode_request(&req)).unwrap(), req);
        let resp = Response::Trace {
            request_id: 23,
            json: r#"{"traces": []}"#.into(),
        };
        assert_eq!(decode_response(&encode_response(&resp)).unwrap(), resp);
        let resp = Response::Explained {
            request_id: 23,
            ids: vec![1, 5, 9],
            json: r#"{"trace_id": 4, "spans": []}"#.into(),
        };
        assert_eq!(decode_response(&encode_response(&resp)).unwrap(), resp);
    }

    #[test]
    fn explain_flag_round_trips_on_every_domain() {
        let queries = [
            DomainQuery::Hamming {
                query: BitVector::from_words(64, vec![0x55]).unwrap(),
                tau: 4,
                l: 2,
            },
            DomainQuery::Edit {
                query: b"abc".to_vec(),
                l: 2,
            },
            DomainQuery::Set {
                tokens: vec![1, 2, 3],
                l: 2,
            },
            DomainQuery::Graph {
                query: Graph::new(vec![1, 2]),
                l: 2,
            },
        ];
        for query in queries {
            for explain in [false, true] {
                let req = Request::Query {
                    request_id: 7,
                    query: query.clone(),
                    explain,
                };
                assert_eq!(decode_request(&encode_request(&req)).unwrap(), req);
            }
        }
    }

    #[test]
    fn unknown_query_flag_bits_fail_closed() {
        let req = Request::Query {
            request_id: 7,
            query: DomainQuery::Edit {
                query: b"abc".to_vec(),
                l: 2,
            },
            explain: false,
        };
        let mut payload = encode_request(&req);
        // The flags byte sits right after [version, tag, request_id].
        payload[2 + 8] = 0x02;
        assert!(matches!(
            decode_request(&payload),
            Err(WireError::Malformed("unknown query flags"))
        ));
    }

    #[test]
    fn trace_response_rejects_bad_utf8_and_hostile_length() {
        let mut payload = encode_response(&Response::Trace {
            request_id: 1,
            json: "ab".into(),
        });
        let n = payload.len();
        payload[n - 1] = 0xff;
        assert!(matches!(
            decode_response(&payload),
            Err(WireError::Malformed("trace document is not UTF-8"))
        ));
        // A hostile id count in an Explained body fails before sizing.
        let mut w = BodyWriter::new(TAG_EXPLAINED);
        w.u64(1);
        w.u32(u32::MAX); // id count
        w.u32(0); // json length
        assert!(matches!(decode_response(&w.buf), Err(WireError::Truncated)));
        // ... and so does a hostile JSON length.
        let mut w = BodyWriter::new(TAG_EXPLAINED);
        w.u64(1);
        w.u32(0); // id count
        w.u32(u32::MAX); // json length
        w.bytes(b"{}");
        assert!(matches!(decode_response(&w.buf), Err(WireError::Truncated)));
    }

    #[test]
    fn domain_names_round_trip() {
        for (i, d) in Domain::ALL.into_iter().enumerate() {
            assert_eq!(Domain::parse_name(d.as_str()), Some(d));
            assert_eq!(crate::queue::lane_of(d), i, "{d}: lane is its ALL index");
        }
        assert_eq!(Domain::parse_name("nope"), None);
    }

    /// Each request kind's exemplar slot. No wildcard arm: a new
    /// variant does not compile until it gets a slot (and an exemplar).
    fn request_slot(req: &Request) -> usize {
        match req {
            Request::Hello { .. } => 0,
            Request::Query { query, .. } => match query {
                DomainQuery::Hamming { .. } => 1,
                DomainQuery::Edit { .. } => 2,
                DomainQuery::Set { .. } => 3,
                DomainQuery::Graph { .. } => 4,
            },
            Request::Stats { .. } => 5,
            Request::Trace { .. } => 6,
        }
    }

    /// Each response kind's exemplar slot, exhaustive like `request_slot`.
    fn response_slot(resp: &Response) -> usize {
        match resp {
            Response::HelloOk { .. } => 0,
            Response::Results { .. } => 1,
            Response::Busy { .. } => 2,
            Response::Stats { .. } => 3,
            Response::Trace { .. } => 4,
            Response::Explained { .. } => 5,
            Response::Error { .. } => 6,
        }
    }

    /// The tag of every message kind: its exemplar round-trips, tags
    /// are unique, requests are `< 0x80` and responses `>= 0x80`, every
    /// tag the decoders accept belongs to an exemplar, and the README
    /// wire tables list exactly these tags.
    #[test]
    fn every_message_kind_has_one_documented_tag() {
        let query = |query| Request::Query {
            request_id: 1,
            query,
            explain: false,
        };
        let requests = [
            Request::Hello { max_version: 2 },
            query(DomainQuery::Hamming {
                query: BitVector::from_words(64, vec![0x55]).unwrap(),
                tau: 4,
                l: 2,
            }),
            query(DomainQuery::Edit {
                query: b"abc".to_vec(),
                l: 2,
            }),
            query(DomainQuery::Set {
                tokens: vec![1, 2, 3],
                l: 2,
            }),
            query(DomainQuery::Graph {
                query: Graph::new(vec![1, 2]),
                l: 2,
            }),
            Request::Stats { request_id: 1 },
            Request::Trace { request_id: 1 },
        ];
        let responses = [
            Response::HelloOk { version: 2 },
            Response::Results {
                request_id: 1,
                ids: vec![1, 2],
            },
            Response::Busy { request_id: 1 },
            Response::Stats {
                request_id: 1,
                json: "{}".into(),
            },
            Response::Trace {
                request_id: 1,
                json: "{}".into(),
            },
            Response::Explained {
                request_id: 1,
                ids: vec![3],
                json: "{}".into(),
            },
            Response::Error {
                request_id: 1,
                code: ErrorCode::Internal,
                message: "x".into(),
            },
        ];
        let mut tags = Vec::new();
        for (slot, req) in requests.iter().enumerate() {
            assert_eq!(request_slot(req), slot, "exemplars in slot order");
            let payload = encode_request(req);
            assert_eq!(decode_request(&payload).unwrap(), *req);
            assert!(payload[1] < 0x80, "request tag {:#04x}", payload[1]);
            tags.push(payload[1]);
        }
        for (slot, resp) in responses.iter().enumerate() {
            assert_eq!(response_slot(resp), slot, "exemplars in slot order");
            let payload = encode_response(resp);
            assert_eq!(decode_response(&payload).unwrap(), *resp);
            assert!(payload[1] >= 0x80, "response tag {:#04x}", payload[1]);
            tags.push(payload[1]);
        }
        let mut unique = tags.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), tags.len(), "duplicate tag in {tags:02x?}");

        for tag in 0..=u8::MAX {
            let header = [PROTOCOL_VERSION, tag];
            let known = !matches!(decode_request(&header), Err(WireError::BadTag(_)))
                || !matches!(decode_response(&header), Err(WireError::BadTag(_)));
            assert_eq!(
                known,
                tags.contains(&tag),
                "decoders vs exemplars: {tag:#04x}"
            );
        }

        let readme = include_str!("../../../README.md");
        let section = readme
            .split("### Wire protocol")
            .nth(1)
            .and_then(|s| s.split("\n## ").next())
            .expect("README has a wire protocol section");
        let mut documented: Vec<u8> = section
            .lines()
            .filter_map(|line| line.strip_prefix("| `0x")?.get(..2))
            .map(|hex| u8::from_str_radix(hex, 16).unwrap())
            .collect();
        documented.sort_unstable();
        assert_eq!(documented, unique, "README wire tables vs code");
    }
}
