//! What a connection costs, measured: the reactor multiplexes every
//! connection on one event-loop thread, so parking hundreds of idle,
//! fully negotiated connections must leave the process thread census
//! flat — the reactor and the dispatchers, independent of the
//! connection count.
//!
//! One test in its own file: an integration-test file is its own
//! binary, hence its own process, so no sibling test's threads pollute
//! the `/proc/self/status` census.

#![cfg(target_os = "linux")]

use std::net::TcpListener;
use std::sync::Arc;

use pigeonring_server::{start_with_handler, Client, ServerConfig};

/// Enough that any per-connection thread would be unmistakable.
const IDLE_CONNS: usize = 256;

/// `Threads:` from `/proc/self/status`.
fn thread_census() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("/proc/self/status has a Threads: line")
}

#[test]
fn idle_connections_add_no_threads() {
    let before = thread_census();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    // A no-op handler: the cost under test is connection handling, not
    // query execution.
    let handle = start_with_handler(listener, Arc::new(|_, _, _| {}), ServerConfig::default())
        .expect("server starts");
    let clients: Vec<Client> = (0..IDLE_CONNS)
        .map(|_| Client::connect(handle.addr()).expect("idle connect"))
        .collect();
    let added = thread_census().saturating_sub(before);
    println!(
        "{} idle connections parked, +{added} threads",
        clients.len()
    );
    assert!(
        added <= 16,
        "{IDLE_CONNS} idle connections added {added} threads: connections must not cost threads"
    );
    drop(clients);
    handle.shutdown();
}
