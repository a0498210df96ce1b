//! Blocking client for the pigeonring wire protocol (v2).
//!
//! One [`Client`] wraps one TCP connection. [`Client::connect`]
//! performs the Hello/HelloOk version negotiation before returning, so
//! a connected client is always protocol-compatible.
//!
//! Two modes:
//!
//! * **One at a time** — [`Client::search`] sends a query and waits for
//!   its answer (the v1-era call pattern, now id-checked under the
//!   hood).
//! * **Pipelined** — [`Client::search_pipelined`] keeps up to `window`
//!   queries in flight on the one connection, collecting answers *by
//!   request id* (the server may answer out of order) and returning
//!   outcomes in query order. The primitives it is built from —
//!   [`Client::send_query`] / [`Client::recv_reply`] — are public, so
//!   load generators can timestamp each request individually.

use std::collections::HashMap;
use std::io::{BufReader, BufWriter};
use std::net::{TcpStream, ToSocketAddrs};

use crate::wire::{
    decode_response, encode_request, read_frame, write_frame, DomainQuery, ErrorCode, Request,
    Response, WireError, CONNECTION_REQUEST_ID, PROTOCOL_VERSION,
};

/// Client-side failure talking to a pigeonring server.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The server's bytes did not decode.
    Wire(WireError),
    /// The server answered with a typed error.
    Server {
        /// The server's error category.
        code: ErrorCode,
        /// The server's message.
        message: String,
    },
    /// The server answered with the wrong message kind (e.g. results
    /// for a Hello), an unknown request id, or closed mid-exchange.
    Protocol(&'static str),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::Wire(e) => write!(f, "wire error: {e}"),
            ClientError::Server { code, message } => {
                write!(f, "server error ({code:?}): {message}")
            }
            ClientError::Protocol(why) => write!(f, "protocol violation: {why}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

/// What the server said about one query.
#[derive(Clone, Debug, PartialEq)]
pub enum Outcome {
    /// The query ran: global record ids within the threshold,
    /// ascending.
    Results(Vec<u32>),
    /// Admission control rejected the query (its domain's lane is
    /// full); retry later.
    Busy,
    /// The server answered this query with a typed per-query error
    /// (e.g. wrong vector dimensionality); the connection stays
    /// usable. [`Client::search`] surfaces this as
    /// [`ClientError::Server`]; pipelined collection keeps it inline so
    /// one bad query doesn't hide the other outcomes.
    Failed {
        /// The server's error category.
        code: ErrorCode,
        /// The server's message.
        message: String,
    },
    /// An EXPLAIN query's answer: the result ids plus the request's
    /// span tree as a JSON document.
    Explained {
        /// Global record ids within the threshold, ascending.
        ids: Vec<u32>,
        /// The request's span tree (JSON: `{"trace_id", "spans"}`).
        trace: String,
    },
}

/// A connected, version-negotiated client.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    version: u8,
    /// Next request id to allocate; starts at 1 (0 is the reserved
    /// connection-scoped id) and only grows.
    next_id: u64,
}

impl Client {
    /// Connects and negotiates the protocol version.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        let reader = BufReader::new(stream.try_clone()?);
        let writer = BufWriter::new(stream);
        let mut client = Client {
            reader,
            writer,
            version: PROTOCOL_VERSION,
            next_id: 1,
        };
        write_frame(
            &mut client.writer,
            &encode_request(&Request::Hello {
                max_version: PROTOCOL_VERSION,
            }),
        )?;
        match client.read_response()? {
            Response::HelloOk { version } => {
                client.version = version;
                Ok(client)
            }
            Response::Error { code, message, .. } => Err(ClientError::Server { code, message }),
            _ => Err(ClientError::Protocol("expected HelloOk to Hello")),
        }
    }

    /// The negotiated protocol version.
    pub fn version(&self) -> u8 {
        self.version
    }

    /// Sends one query without waiting for its answer, returning the
    /// request id its response will carry. Pair with
    /// [`Client::recv_reply`]; up to the server's per-lane queue depth
    /// may be usefully in flight at once.
    pub fn send_query(&mut self, query: DomainQuery) -> Result<u64, ClientError> {
        let request_id = self.next_id;
        self.next_id += 1;
        write_frame(
            &mut self.writer,
            &encode_request(&Request::Query {
                request_id,
                query,
                explain: false,
            }),
        )?;
        Ok(request_id)
    }

    /// Receives the next query-scoped response — **not necessarily for
    /// the oldest in-flight request**; match the returned id against
    /// [`Client::send_query`]'s. A connection-scoped error (id 0) is
    /// surfaced as [`ClientError::Server`] since it dooms every
    /// in-flight request.
    pub fn recv_reply(&mut self) -> Result<(u64, Outcome), ClientError> {
        match self.read_response()? {
            Response::Results { request_id, ids } => Ok((request_id, Outcome::Results(ids))),
            Response::Explained {
                request_id,
                ids,
                json,
            } => Ok((request_id, Outcome::Explained { ids, trace: json })),
            Response::Busy { request_id } => Ok((request_id, Outcome::Busy)),
            Response::Error {
                request_id,
                code,
                message,
            } => {
                if request_id == CONNECTION_REQUEST_ID {
                    Err(ClientError::Server { code, message })
                } else {
                    Ok((request_id, Outcome::Failed { code, message }))
                }
            }
            Response::HelloOk { .. } => Err(ClientError::Protocol("unexpected HelloOk")),
            Response::Stats { .. } => Err(ClientError::Protocol("unexpected Stats response")),
            Response::Trace { .. } => Err(ClientError::Protocol("unexpected Trace response")),
        }
    }

    /// Fetches the server's live metrics snapshot (a JSON document:
    /// machine fingerprint, uptime, all registered metrics, recent slow
    /// queries). Must not be interleaved with in-flight pipelined
    /// queries — like [`Client::search`], it waits for its own reply.
    pub fn stats(&mut self) -> Result<String, ClientError> {
        self.fetch_document(|request_id| Request::Stats { request_id })
    }

    /// Fetches the server's recent sampled traces (a JSON document:
    /// sampling rate, dropped-span count, span trees). Like
    /// [`Client::stats`], it is answered inline on the server's
    /// reactor thread — usable even under full lanes — and must not
    /// be interleaved with in-flight pipelined queries.
    pub fn trace(&mut self) -> Result<String, ClientError> {
        self.fetch_document(|request_id| Request::Trace { request_id })
    }

    /// Sends a Stats or Trace request and waits for the JSON document
    /// of the matching response variant.
    fn fetch_document(&mut self, request: fn(u64) -> Request) -> Result<String, ClientError> {
        let request_id = self.next_id;
        self.next_id += 1;
        let request = request(request_id);
        write_frame(&mut self.writer, &encode_request(&request))?;
        match (request, self.read_response()?) {
            (
                Request::Stats { .. },
                Response::Stats {
                    request_id: got,
                    json,
                },
            )
            | (
                Request::Trace { .. },
                Response::Trace {
                    request_id: got,
                    json,
                },
            ) => {
                if got != request_id {
                    return Err(ClientError::Protocol("response id does not match request"));
                }
                Ok(json)
            }
            (_, Response::Error { code, message, .. }) => {
                Err(ClientError::Server { code, message })
            }
            (Request::Stats { .. }, _) => Err(ClientError::Protocol("expected Stats response")),
            _ => Err(ClientError::Protocol("expected Trace response")),
        }
    }

    /// Sends one query with the EXPLAIN flag set and waits for its
    /// answer: the result ids plus the request's span tree. EXPLAIN
    /// forces tracing, so this works against a server with sampling
    /// disabled.
    pub fn explain(&mut self, query: DomainQuery) -> Result<(Vec<u32>, String), ClientError> {
        let request_id = self.next_id;
        self.next_id += 1;
        write_frame(
            &mut self.writer,
            &encode_request(&Request::Query {
                request_id,
                query,
                explain: true,
            }),
        )?;
        let (got, outcome) = self.recv_reply()?;
        if got != request_id {
            return Err(ClientError::Protocol("response id does not match request"));
        }
        match outcome {
            Outcome::Explained { ids, trace } => Ok((ids, trace)),
            Outcome::Failed { code, message } => Err(ClientError::Server { code, message }),
            _ => Err(ClientError::Protocol("expected Explained response")),
        }
    }

    /// Sends one query and waits for its answer.
    pub fn search(&mut self, query: DomainQuery) -> Result<Outcome, ClientError> {
        let id = self.send_query(query)?;
        let (got, outcome) = self.recv_reply()?;
        if got != id {
            // One request in flight ⇒ the reply must be its.
            return Err(ClientError::Protocol("response id does not match request"));
        }
        match outcome {
            Outcome::Failed { code, message } => Err(ClientError::Server { code, message }),
            done => Ok(done),
        }
    }

    /// Like [`Client::search`], but retries `Busy` answers up to
    /// `retries` times (yielding the thread between attempts).
    pub fn search_with_retry(
        &mut self,
        query: DomainQuery,
        retries: usize,
    ) -> Result<Outcome, ClientError> {
        for _ in 0..retries {
            match self.search(query.clone())? {
                Outcome::Busy => std::thread::yield_now(),
                done => return Ok(done),
            }
        }
        self.search(query)
    }

    /// Runs `queries` through the connection with up to `window`
    /// requests in flight, collecting responses by id — out-of-order
    /// completion is expected — and returning one [`Outcome`] per query
    /// **in query order**.
    ///
    /// On a connection-level failure (`Err`) the in-flight requests are
    /// lost and the client should be discarded.
    pub fn search_pipelined(
        &mut self,
        queries: &[DomainQuery],
        window: usize,
    ) -> Result<Vec<Outcome>, ClientError> {
        let window = window.max(1);
        let mut outcomes: Vec<Option<Outcome>> = queries.iter().map(|_| None).collect();
        let mut in_flight: HashMap<u64, usize> = HashMap::with_capacity(window);
        let mut next = 0usize;
        let mut done = 0usize;
        while done < queries.len() {
            while in_flight.len() < window && next < queries.len() {
                #[expect(
                    clippy::indexing_slicing,
                    reason = "the loop condition bounds next < queries.len()"
                )]
                let id = self.send_query(queries[next].clone())?;
                in_flight.insert(id, next);
                next += 1;
            }
            let (id, outcome) = self.recv_reply()?;
            let slot = in_flight
                .remove(&id)
                .ok_or(ClientError::Protocol("response for unknown request id"))?;
            *outcomes
                .get_mut(slot)
                .ok_or(ClientError::Protocol("response slot out of range"))? = Some(outcome);
            done += 1;
        }
        outcomes
            .into_iter()
            .map(|o| o.ok_or(ClientError::Protocol("query left unanswered")))
            .collect()
    }

    fn read_response(&mut self) -> Result<Response, ClientError> {
        let payload = read_frame(&mut self.reader)?
            .ok_or(ClientError::Protocol("server closed before responding"))?;
        Ok(decode_response(&payload)?)
    }
}
