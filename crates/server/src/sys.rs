//! Readiness syscalls for the nonblocking reactor, with no
//! dependency on `libc`: hand-rolled `extern "C"` bindings for
//! `epoll_create1` / `epoll_ctl` / `epoll_wait`. Linux only — the
//! crate root gates this module (and the reactor) on
//! `target_os = "linux"`; elsewhere `start` answers `Unsupported`.
//!
//! Everything here returns typed [`io::Error`]s — a failed syscall is
//! an ordinary error on the connection or the reactor, never a panic —
//! and every unsafe block carries the `// SAFETY:` justification that
//! `clippy::undocumented_unsafe_blocks` enforces.
//!
//! The [`Waker`] deliberately avoids `pipe2`/`eventfd`: a connected
//! loopback UDP socket pair is readiness-compatible with epoll,
//! allocation-free on the wake path, and needs no unsafe at all.

// The `extern "C"` declarations and the four call sites
// (`epoll_create1`, `epoll_ctl`, `epoll_wait`, `close`) are the only
// unsafe in the crate (and in all of `crates/*/src`).
#![allow(
    unsafe_code,
    reason = "the workspace denies `unsafe_code`; this module is the scoped exception for the readiness-syscall FFI"
)]

use std::ffi::c_int;
use std::io;
use std::net::UdpSocket;
use std::os::fd::{AsRawFd, RawFd};
use std::time::Duration;

// ---------------------------------------------------------- constants
//
// Values are the Linux UAPI ABI constants.

const EPOLL_CLOEXEC: c_int = 0o2000000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;
const EPOLLIN: u32 = 0x1;
const EPOLLOUT: u32 = 0x4;
const EPOLLERR: u32 = 0x8;
const EPOLLHUP: u32 = 0x10;

// ------------------------------------------------------- FFI bindings

/// Mirror of the kernel's `struct epoll_event`. On x86-64 the kernel
/// ABI packs it (no padding between `events` and `data`); every other
/// architecture uses natural alignment — same split `libc` encodes.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn close(fd: c_int) -> c_int;
}

// ----------------------------------------------------------- surfaces

/// Which readiness classes a registration asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd is readable (or the peer hung up).
    pub read: bool,
    /// Wake when the fd is writable again.
    pub write: bool,
}

impl Interest {
    /// Read-only interest — the steady state of an idle connection.
    pub const READ: Interest = Interest {
        read: true,
        write: false,
    };

    fn events(self) -> u32 {
        let mut m = 0;
        if self.read {
            m |= EPOLLIN;
        }
        if self.write {
            m |= EPOLLOUT;
        }
        m
    }
}

/// One readiness report from [`Poller::wait`].
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// The token the fd was registered under.
    pub token: u64,
    /// Readable now (includes a pending EOF).
    pub readable: bool,
    /// Writable now.
    pub writable: bool,
    /// Error or hangup — the owner should read (draining any final
    /// bytes and observing the EOF/error) and wind the fd down.
    pub error: bool,
}

impl Event {
    /// Decodes an epoll readiness mask.
    fn from_mask(token: u64, mask: u32) -> Event {
        Event {
            token,
            readable: mask & EPOLLIN != 0,
            writable: mask & EPOLLOUT != 0,
            error: mask & (EPOLLERR | EPOLLHUP) != 0,
        }
    }
}

/// The readiness backend: a level-triggered epoll instance. The fd is
/// owned: closed on drop.
pub struct Poller {
    epfd: RawFd,
    buf: Vec<EpollEvent>,
}

impl Poller {
    /// Creates the epoll instance; a failing `epoll_create1` is the
    /// caller's `io::Error`.
    pub fn new() -> io::Result<Poller> {
        // SAFETY: epoll_create1 takes no pointers; any flag value is
        // safe to pass and an invalid one reports EINVAL via errno.
        let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Poller {
            epfd,
            buf: vec![EpollEvent { events: 0, data: 0 }; 256],
        })
    }

    /// Starts watching `fd` under `token`.
    pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Replaces `fd`'s interest set (re-arming `EPOLLOUT`, dropping
    /// read interest under backpressure).
    pub fn reregister(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, interest)
    }

    /// Stops watching `fd`. Must be called before the fd closes so the
    /// epoll interest list stays accurate.
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, Interest::READ)
    }

    fn ctl(&mut self, op: c_int, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: interest.events(),
            data: token,
        };
        // SAFETY: `ev` is a live, properly initialized EpollEvent for
        // the duration of the call; the kernel copies it and keeps no
        // reference past return (EPOLL_CTL_DEL ignores it entirely).
        let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Blocks until at least one registered fd is ready (or `timeout`
    /// elapses; `None` waits indefinitely), then fills `events`.
    /// Returns the number of events delivered; `0` means timeout.
    /// `EINTR` is retried internally.
    pub fn wait(
        &mut self,
        events: &mut Vec<Event>,
        timeout: Option<Duration>,
    ) -> io::Result<usize> {
        events.clear();
        let timeout_ms: c_int = match timeout {
            // +999_999 rounds nanoseconds up: sleeping *short* of a
            // stall deadline would spin the loop at 0 ms timeouts.
            Some(t) => t
                .as_millis()
                .saturating_add(u128::from(t.subsec_nanos() % 1_000_000 != 0))
                .min(c_int::MAX as u128) as c_int,
            None => -1,
        };
        loop {
            // SAFETY: the buffer outlives the call and `maxevents` is
            // its exact length, so the kernel writes only within it.
            let n = unsafe {
                epoll_wait(
                    self.epfd,
                    self.buf.as_mut_ptr(),
                    self.buf.len() as c_int,
                    timeout_ms,
                )
            };
            if n < 0 {
                let e = io::Error::last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    continue;
                }
                return Err(e);
            }
            let n = n as usize;
            for ev in self.buf.iter().take(n) {
                // Copy out of the (possibly packed) struct before use.
                let (mask, token) = (ev.events, ev.data);
                events.push(Event::from_mask(token, mask));
            }
            // A full buffer means more events may be pending; growing
            // amortizes toward one wait per loop turn.
            if n == self.buf.len() {
                self.buf
                    .resize(self.buf.len() * 2, EpollEvent { events: 0, data: 0 });
            }
            return Ok(events.len());
        }
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: epfd came from a successful epoll_create1 and is
        // closed exactly once, here.
        unsafe {
            close(self.epfd);
        }
    }
}

// --------------------------------------------------------------- waker

/// The cross-thread wake mechanism: dispatchers finishing a reply (and
/// shutdown) must interrupt a reactor blocked in [`Poller::wait`]. A
/// connected loopback UDP socket pair gives readiness semantics epoll
/// understands with no extra syscall bindings: `wake` sends one
/// datagram, the poller reports the receive side readable.
pub struct Waker {
    tx: UdpSocket,
}

impl Waker {
    /// Signals the reactor. Infallible by design: a full socket buffer
    /// means wakes are already pending, which is all a waker needs.
    pub fn wake(&self) {
        let _ = self.tx.send(&[1u8]);
    }
}

/// The reactor-side half of the wake pair: register
/// [`WakeReceiver::raw_fd`] for read interest and [`drain`] it on
/// every readiness report so the level-triggered poller quiesces.
///
/// [`drain`]: WakeReceiver::drain
pub struct WakeReceiver {
    rx: UdpSocket,
}

impl WakeReceiver {
    /// The fd to register with the poller.
    pub fn raw_fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }

    /// Consumes every pending wake datagram.
    pub fn drain(&self) {
        let mut buf = [0u8; 16];
        while self.rx.recv(&mut buf).is_ok() {}
    }
}

/// Builds a connected wake pair. Both sockets are loopback-bound,
/// mutually connected (stray datagrams from other senders are
/// rejected by the kernel), and nonblocking.
pub fn wake_pair() -> io::Result<(Waker, WakeReceiver)> {
    let tx = UdpSocket::bind("127.0.0.1:0")?;
    let rx = UdpSocket::bind("127.0.0.1:0")?;
    tx.connect(rx.local_addr()?)?;
    rx.connect(tx.local_addr()?)?;
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    Ok((Waker { tx }, WakeReceiver { rx }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};

    /// Socket pair over loopback: the client end and the nonblocking
    /// server end the reactor would register.
    fn tcp_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let client = TcpStream::connect(listener.local_addr().expect("addr")).expect("dial");
        let (serverside, _) = listener.accept().expect("accept");
        serverside.set_nonblocking(true).expect("nonblocking");
        (client, serverside)
    }

    /// The readiness story of a simple TCP exchange: nothing before
    /// data, readable after, writable on request, quiet once
    /// deregistered.
    #[test]
    fn default_poller_reports_readiness() {
        let mut poller = Poller::new().expect("poller");
        let (mut client, mut serverside) = tcp_pair();

        poller
            .register(serverside.as_raw_fd(), 7, Interest::READ)
            .expect("register");
        let mut events = Vec::new();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .expect("wait");
        assert_eq!(n, 0, "no data yet ⇒ timeout");

        client.write_all(b"ping").expect("send");
        client.flush().expect("flush");
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .expect("wait");
        assert_eq!(n, 1, "exactly the registered fd is ready");
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);

        let mut buf = [0u8; 16];
        let got = serverside.read(&mut buf).expect("read");
        assert_eq!(&buf[..got], b"ping");

        // Write interest on a fresh, unfilled socket reports writable.
        poller
            .reregister(
                serverside.as_raw_fd(),
                7,
                Interest {
                    read: true,
                    write: true,
                },
            )
            .expect("reregister");
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .expect("wait");
        assert!(n >= 1 && events.iter().any(|e| e.token == 7 && e.writable));

        poller
            .deregister(serverside.as_raw_fd())
            .expect("deregister");
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .expect("wait");
        assert_eq!(n, 0, "deregistered fd no longer reports");
    }

    /// A peer hang-up wakes read interest, and the read then sees EOF:
    /// the reactor's clean-close path (`conn_readable`'s `Ok(0)` arm)
    /// depends on both halves.
    #[test]
    fn hangup_reports_readable_then_eof() {
        let mut poller = Poller::new().expect("poller");
        let (client, mut serverside) = tcp_pair();
        poller
            .register(serverside.as_raw_fd(), 9, Interest::READ)
            .expect("register");

        drop(client);
        let mut events = Vec::new();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .expect("wait");
        assert_eq!(n, 1, "the hang-up is reported");
        assert_eq!(events[0].token, 9);
        assert!(events[0].readable || events[0].error, "{:?}", events[0]);

        let mut buf = [0u8; 16];
        assert_eq!(serverside.read(&mut buf).expect("read at EOF"), 0);
    }

    #[test]
    fn waker_interrupts_a_blocked_wait() {
        let mut poller = Poller::new().expect("poller");
        let (waker, receiver) = wake_pair().expect("wake pair");
        poller
            .register(receiver.raw_fd(), 1, Interest::READ)
            .expect("register");
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            waker.wake();
        });
        let mut events = Vec::new();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(10)))
            .expect("wait");
        assert_eq!(n, 1);
        assert_eq!(events[0].token, 1);
        receiver.drain();
        handle.join().expect("waker thread");
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .expect("wait");
        assert_eq!(n, 0, "drained waker quiesces");
    }

    #[test]
    fn wake_pair_rejects_stray_datagrams() {
        let (_waker, receiver) = wake_pair().expect("wake pair");
        // recv on the connected, empty socket reports WouldBlock, not
        // data from an unconnected sender.
        let mut buf = [0u8; 4];
        assert!(receiver.rx.recv(&mut buf).is_err());
    }
}
