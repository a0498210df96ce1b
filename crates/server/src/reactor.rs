//! The nonblocking reactor: one thread multiplexes every connection
//! over [`sys::Poller`] (epoll) readiness events — the only path
//! between sockets and the lanes. Linux only: the crate root gates
//! this module on `target_os = "linux"`.
//!
//! Per connection the reactor keeps a small state machine — an
//! incremental [`FrameDecoder`] on the read side, a queue of encoded
//! response frames plus a write cursor on the write side:
//!
//! * **Admission**: every complete frame goes through
//!   [`handle_payload`], which answers it with exactly one response.
//! * **Reply budget**: `outstanding` counts responses
//!   admitted-or-unwritten, incremented when a frame is accepted for
//!   handling and decremented when its response's last byte reaches
//!   the socket. Only the reactor thread touches it, so it needs no
//!   lock. At `conn_in_flight` the reactor stops parsing *and drops read
//!   interest*, so the kernel's receive window fills and the client
//!   blocks: real TCP backpressure without a parked thread.
//! * **Writer-stall teardown**: a connection that accepts no bytes for
//!   30 s ([`WRITER_STALL_TIMEOUT`]) while replies are buffered is
//!   counted in `server.writer.stalls` and torn down — after a
//!   best-effort terminal typed error is appended and flushed, so the
//!   buffered replies are never dropped *silently*.
//! * **Shutdown**: when the stop flag rises the reactor closes the
//!   listener (so `shutdown()` can return knowing no new connection
//!   will be accepted) but keeps serving open connections — their
//!   queries draw the terminal "server shutting down" error from the
//!   closed queue — and exits when the last one closes.
//!
//! Dispatchers hand finished responses to [`ReactorShared::send`]: a
//! mailbox plus a [`sys::Waker`] kick that interrupts a blocked
//! [`sys::Poller::wait`]. Stall deadlines are folded into the wait
//! timeout.

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::queue::{lock_recover, FairQueue};
use crate::server::{
    error_response, handle_payload, response_payload, FrameDisposition, Job, ReplySink,
    ServerMetrics, WRITER_STALL_TIMEOUT,
};
use crate::sys;
use crate::wire::{ErrorCode, FrameDecoder, Response, WireError, CONNECTION_REQUEST_ID};

/// Poller token of the listening socket.
const LISTENER: u64 = 0;
/// Poller token of the waker's receive side.
const WAKER: u64 = 1;
/// First token handed to an accepted connection.
const FIRST_CONN: u64 = 2;

/// Bytes pulled off a socket per `read` call.
const READ_CHUNK: usize = 16 * 1024;

/// The dispatcher-facing half of the reactor: finished responses land
/// in the mailbox and the waker interrupts a blocked poll wait so the
/// reactor picks them up immediately.
pub(crate) struct ReactorShared {
    pending: Mutex<Vec<(u64, Response)>>,
    waker: sys::Waker,
}

impl ReactorShared {
    /// Queues one response for connection `conn` and kicks the
    /// reactor. A token whose connection already closed is dropped at
    /// delivery, like a send on a closed channel.
    pub(crate) fn send(&self, conn: u64, response: Response) {
        lock_recover(&self.pending).push((conn, response));
        self.waker.wake();
    }
}

/// The server handle's grip on a running reactor.
pub(crate) struct ReactorControl {
    thread: Option<std::thread::JoinHandle<()>>,
    shared: Arc<ReactorShared>,
    listener_closed: Arc<AtomicBool>,
}

impl ReactorControl {
    /// Blocks (bounded at 1 s) until the reactor has observed the stop
    /// flag and closed its listener, waking it out of a blocked poll
    /// wait — after this returns, no new connection can be accepted.
    pub(crate) fn wait_listener_closed(&self) {
        let deadline = Instant::now() + Duration::from_secs(1);
        while !self.listener_closed.load(Ordering::Acquire) && Instant::now() < deadline {
            self.shared.waker.wake();
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Joins the reactor if it winds down promptly (no connections
    /// left), otherwise detaches it: a detached reactor keeps
    /// answering its open connections — every query now draws the
    /// terminal shutdown error from the closed queue — and exits when
    /// the last client hangs up.
    pub(crate) fn join_or_detach(&mut self) {
        let Some(handle) = self.thread.take() else {
            return;
        };
        // An idle reactor sits in a poll wait with no timeout: kick it
        // so it re-checks the stop flag and its connection count.
        self.shared.waker.wake();
        let deadline = Instant::now() + Duration::from_millis(250);
        while !handle.is_finished() {
            if Instant::now() >= deadline {
                return; // detach: open connections outlive shutdown()
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let _ = handle.join();
    }
}

/// Starts the reactor thread serving `listener`; a failing
/// `epoll_create1` is this call's error.
pub(crate) fn spawn(
    listener: TcpListener,
    queue: Arc<FairQueue<Job>>,
    stop: Arc<AtomicBool>,
    metrics: Arc<ServerMetrics>,
    conn_in_flight: usize,
) -> std::io::Result<ReactorControl> {
    listener.set_nonblocking(true)?;
    let (waker, wake_rx) = sys::wake_pair()?;
    let shared = Arc::new(ReactorShared {
        pending: Mutex::new(Vec::new()),
        waker,
    });
    let listener_closed = Arc::new(AtomicBool::new(false));
    let mut poller = sys::Poller::new()?;
    poller.register(listener.as_raw_fd(), LISTENER, sys::Interest::READ)?;
    poller.register(wake_rx.raw_fd(), WAKER, sys::Interest::READ)?;

    let mut reactor = Reactor {
        poller,
        listener: Some(listener),
        wake_rx,
        conns: HashMap::new(),
        next_token: FIRST_CONN,
        queue,
        stop,
        metrics,
        shared: Arc::clone(&shared),
        listener_closed: Arc::clone(&listener_closed),
        cap: conn_in_flight.max(1),
        events: Vec::new(),
    };
    let thread = std::thread::Builder::new()
        .name("pigeonring-reactor".into())
        .spawn(move || reactor.run())?;
    Ok(ReactorControl {
        thread: Some(thread),
        shared,
        listener_closed,
    })
}

/// One connection's state machine.
struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    /// Encoded outbound frames (4-byte length prefix + payload each),
    /// oldest first; `front_pos` is the write cursor into the front
    /// frame.
    outbuf: VecDeque<Vec<u8>>,
    front_pos: usize,
    /// Responses admitted-or-unwritten — the reply budget's ledger.
    outstanding: usize,
    negotiated: bool,
    /// A terminal response was sent: stop parsing, flush, then close.
    closing: bool,
    /// The peer cleanly ended its write side; in-flight responses
    /// still flush before the socket closes.
    read_closed: bool,
    /// Interest bits currently registered with the poller.
    registered: sys::Interest,
    /// Armed while buffered bytes make no progress; expiry is the
    /// writer-stall teardown.
    stall_deadline: Option<Instant>,
}

impl Conn {
    /// The interest this connection *should* have registered.
    fn desired_interest(&self, cap: usize) -> sys::Interest {
        sys::Interest {
            // Dropping read interest at the budget cap is the
            // backpressure: the kernel buffer fills and the client's
            // sends block.
            read: !self.read_closed && !self.closing && self.outstanding < cap,
            write: !self.outbuf.is_empty(),
        }
    }

    /// Whether this connection is fully drained and ready to close.
    fn done(&self) -> bool {
        (self.closing || self.read_closed) && self.outstanding == 0 && self.outbuf.is_empty()
    }
}

struct Reactor {
    poller: sys::Poller,
    listener: Option<TcpListener>,
    wake_rx: sys::WakeReceiver,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    queue: Arc<FairQueue<Job>>,
    stop: Arc<AtomicBool>,
    metrics: Arc<ServerMetrics>,
    shared: Arc<ReactorShared>,
    listener_closed: Arc<AtomicBool>,
    cap: usize,
    events: Vec<sys::Event>,
}

impl Reactor {
    fn run(&mut self) {
        loop {
            // Shutdown, phase 1: close the listener the moment the
            // stop flag is visible, so `shutdown()` can return knowing
            // no further connection will be accepted. Open connections
            // keep being served.
            if self.stop.load(Ordering::Acquire) {
                if let Some(listener) = self.listener.take() {
                    let _ = self.poller.deregister(listener.as_raw_fd());
                    drop(listener);
                    self.listener_closed.store(true, Ordering::Release);
                }
                // Shutdown, phase 2: the last connection is gone.
                if self.conns.is_empty() {
                    return;
                }
            }

            self.deliver_pending();
            self.sweep_stalled();

            let timeout = self
                .nearest_deadline()
                .map(|deadline| deadline.saturating_duration_since(Instant::now()));
            let mut events = std::mem::take(&mut self.events);
            match self.poller.wait(&mut events, timeout) {
                Ok(n) => {
                    self.metrics.reactor_wakeups.inc();
                    self.metrics.reactor_events_per_wake.record(n as u64);
                }
                Err(_) => {
                    // A failed wait (EBADF would be a reactor bug; an
                    // allocation-level failure is unrecoverable here)
                    // must not busy-loop at 100% CPU.
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
            self.events = events;

            for i in 0..self.events.len() {
                #[expect(
                    clippy::indexing_slicing,
                    reason = "i < events.len() by the loop bound"
                )]
                let ev = self.events[i];
                match ev.token {
                    LISTENER => self.accept_ready(),
                    WAKER => self.wake_rx.drain(),
                    token => {
                        if ev.readable || ev.error {
                            self.conn_readable(token);
                        }
                        if ev.writable {
                            self.flush_conn(token);
                        }
                        self.reconcile(token);
                    }
                }
            }
        }
    }

    /// Accepts every connection currently pending on the listener.
    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = self.listener.as_ref() else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let token = self.next_token;
                    self.next_token += 1;
                    let interest = sys::Interest::READ;
                    if self
                        .poller
                        .register(stream.as_raw_fd(), token, interest)
                        .is_err()
                    {
                        continue; // fd table full; drop the connection
                    }
                    self.metrics.conns.inc();
                    self.conns.insert(
                        token,
                        Conn {
                            stream,
                            decoder: FrameDecoder::new(),
                            outbuf: VecDeque::new(),
                            front_pos: 0,
                            outstanding: 0,
                            negotiated: false,
                            closing: false,
                            read_closed: false,
                            registered: interest,
                            stall_deadline: None,
                        },
                    );
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                // Transient accept failure (e.g. fd exhaustion): stop
                // for this readiness round instead of spinning; the
                // level-triggered poller re-reports while the backlog
                // persists, interleaved with fd-releasing closes.
                Err(_) => return,
            }
        }
    }

    /// Pulls available bytes off the socket, feeding the decoder and
    /// parsing frames, until the socket would block, the reply budget
    /// is exhausted, or the connection starts closing.
    fn conn_readable(&mut self, token: u64) {
        let mut buf = [0u8; READ_CHUNK];
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.closing || conn.read_closed || conn.outstanding >= self.cap {
                return;
            }
            match conn.stream.read(&mut buf) {
                Ok(0) => {
                    if conn.decoder.has_partial() {
                        // EOF inside a frame is a protocol error, not
                        // a clean close: answer it before winding down.
                        self.metrics.frames_rejected.inc();
                        self.metrics.errors.inc();
                        conn.outstanding += 1;
                        let resp = error_response(&WireError::Truncated);
                        enqueue_frame(conn, &resp);
                        conn.closing = true;
                    } else {
                        conn.read_closed = true;
                    }
                    self.flush_conn(token);
                    return;
                }
                Ok(n) => {
                    #[expect(clippy::indexing_slicing, reason = "read() guarantees n ≤ buf.len()")]
                    conn.decoder.feed(&buf[..n]);
                    self.pump_parse(token);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    // Hard socket error: the peer is unreachable, so
                    // buffered replies have nowhere to go.
                    self.close_conn(token);
                    return;
                }
            }
        }
    }

    /// Parses as many complete frames as the budget allows out of the
    /// connection's decoder, handing each to the shared
    /// [`handle_payload`]. Frames beyond the budget stay buffered (in
    /// the decoder or the kernel) until responses drain.
    fn pump_parse(&mut self, token: u64) {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.closing || conn.outstanding >= self.cap {
                return;
            }
            match conn.decoder.next_frame() {
                Ok(Some(payload)) => {
                    // Invariant: one response per frame. Its budget
                    // slot is taken before the frame is handled, so
                    // `outstanding` never undercounts a reply in flight.
                    conn.outstanding += 1;
                    let sink = ReplySink {
                        conn: token,
                        shared: Arc::clone(&self.shared),
                    };
                    let disposition = handle_payload(
                        &payload,
                        &mut conn.negotiated,
                        &sink,
                        &self.queue,
                        &self.metrics,
                    );
                    if matches!(disposition, FrameDisposition::Terminal) {
                        // Invariant: nothing past a terminal frame is
                        // parsed, even bytes already buffered — the
                        // terminal response is the connection's last.
                        let Some(conn) = self.conns.get_mut(&token) else {
                            return;
                        };
                        conn.closing = true;
                        return;
                    }
                }
                Ok(None) => return,
                Err(e) => {
                    // Undecodable frame boundary (oversized length):
                    // count the rejection, answer the typed error,
                    // then wind down.
                    self.metrics.frames_rejected.inc();
                    self.metrics.errors.inc();
                    conn.outstanding += 1;
                    let resp = error_response(&e);
                    enqueue_frame(conn, &resp);
                    conn.closing = true;
                    return;
                }
            }
        }
    }

    /// Writes buffered frames until the socket would block or the
    /// buffer drains. Completing a frame releases one budget slot; if
    /// that reopens read capacity, buffered-but-unparsed frames are
    /// pumped immediately (the client may never send another byte to
    /// re-trigger readable).
    fn flush_conn(&mut self, token: u64) {
        let mut progressed = false;
        let mut reopened = false;
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            let Some(front) = conn.outbuf.front() else {
                break;
            };
            #[expect(
                clippy::indexing_slicing,
                reason = "front_pos ≤ front.len() is a loop invariant"
            )]
            let rest = &front[conn.front_pos..];
            match conn.stream.write(rest) {
                Ok(0) => {
                    self.close_conn(token);
                    return;
                }
                Ok(n) => {
                    progressed = true;
                    conn.stall_deadline = None;
                    conn.front_pos += n;
                    if conn.front_pos == conn.outbuf.front().map(Vec::len).unwrap_or(conn.front_pos)
                    {
                        conn.outbuf.pop_front();
                        conn.front_pos = 0;
                        // Response fully on the wire: release its
                        // budget slot.
                        let was_at_cap = conn.outstanding >= self.cap;
                        conn.outstanding = conn.outstanding.saturating_sub(1);
                        if was_at_cap && conn.outstanding < self.cap && !conn.closing {
                            reopened = true;
                        }
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    // The client stopped draining: arm the stall
                    // deadline.
                    if conn.stall_deadline.is_none() {
                        conn.stall_deadline = Some(Instant::now() + WRITER_STALL_TIMEOUT);
                    }
                    break;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(token);
                    return;
                }
            }
        }
        if progressed {
            self.metrics.reactor_write_flushes.inc();
        }
        if reopened {
            self.pump_parse(token);
        }
        self.reconcile(token);
    }

    /// Moves mailbox responses into their connections' write buffers
    /// and flushes. Loops because a flush can release budget, which
    /// pumps the parser, which can produce new inline responses.
    fn deliver_pending(&mut self) {
        loop {
            let batch = std::mem::take(&mut *lock_recover(&self.shared.pending));
            if batch.is_empty() {
                return;
            }
            let mut touched = Vec::with_capacity(batch.len());
            for (token, response) in batch {
                let Some(conn) = self.conns.get_mut(&token) else {
                    continue; // connection already closed: drop, like a dead channel
                };
                enqueue_frame(conn, &response);
                if !touched.contains(&token) {
                    touched.push(token);
                }
            }
            for token in touched {
                self.flush_conn(token);
            }
        }
    }

    /// Brings a connection's poller registration in line with its
    /// state, and closes it once fully drained.
    fn reconcile(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.done() {
            self.close_conn(token);
            return;
        }
        let desired = conn.desired_interest(self.cap);
        if desired != conn.registered {
            if self
                .poller
                .reregister(conn.stream.as_raw_fd(), token, desired)
                .is_err()
            {
                self.close_conn(token);
                return;
            }
            conn.registered = desired;
        }
    }

    /// The soonest writer-stall deadline across connections — folded
    /// into the poll timeout so expiry wakes the reactor.
    fn nearest_deadline(&self) -> Option<Instant> {
        self.conns.values().filter_map(|c| c.stall_deadline).min()
    }

    /// Tears down connections whose stall deadline expired: count the
    /// stall, append a terminal typed error after the buffered frames
    /// (framing stays valid mid-frame), attempt one last nonblocking
    /// flush, and close. The buffered replies are dropped *loudly* —
    /// the error frame says so — never silently.
    fn sweep_stalled(&mut self) {
        let now = Instant::now();
        let expired: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| c.stall_deadline.is_some_and(|d| d <= now))
            .map(|(&t, _)| t)
            .collect();
        for token in expired {
            self.metrics.writer_stalls.inc();
            if let Some(conn) = self.conns.get_mut(&token) {
                let resp = Response::Error {
                    request_id: CONNECTION_REQUEST_ID,
                    code: ErrorCode::Internal,
                    message: format!(
                        "connection stalled for {}s with replies buffered; \
                         dropping {} unsent frame(s) and closing",
                        WRITER_STALL_TIMEOUT.as_secs(),
                        conn.outbuf.len(),
                    ),
                };
                enqueue_frame(conn, &resp);
                // Best-effort: whatever the socket buffer still
                // accepts goes out before the teardown.
                while let Some(front) = conn.outbuf.front() {
                    #[expect(
                        clippy::indexing_slicing,
                        reason = "front_pos ≤ front.len() is a loop invariant"
                    )]
                    match conn.stream.write(&front[conn.front_pos..]) {
                        Ok(n) if n > 0 => {
                            conn.front_pos += n;
                            if conn.front_pos == conn.outbuf.front().map(Vec::len).unwrap_or(0) {
                                conn.outbuf.pop_front();
                                conn.front_pos = 0;
                            }
                        }
                        _ => break,
                    }
                }
            }
            self.close_conn(token);
        }
    }

    /// Closes a connection: a graceful close once fully drained, or an
    /// abrupt teardown (peer unreachable or wedged) that discards its
    /// buffered state with it.
    fn close_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.poller.deregister(conn.stream.as_raw_fd());
            self.metrics.conns.dec();
        }
    }
}

/// Encodes `response` through [`response_payload`] — the frame-cap
/// substitution every outbound frame passes — and appends it to the
/// connection's write buffer.
fn enqueue_frame(conn: &mut Conn, response: &Response) {
    let payload = response_payload(response);
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&payload);
    conn.outbuf.push_back(frame);
}
