//! Long-life resource bounds of the daemon: connections that come and go
//! must not leave file descriptors (or thread handles) behind.
//!
//! This file holds a single test on purpose: it counts the process's open
//! file descriptors, so no other test may open sockets concurrently in the
//! same test binary.

use glove_serve::{ServeOptions, Server};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Open file descriptors of this process.
fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("/proc/self/fd is readable")
        .count()
}

#[test]
fn sequential_connections_do_not_leak_descriptors() {
    if !std::path::Path::new("/proc/self/fd").is_dir() {
        eprintln!("no /proc/self/fd on this platform; skipping the descriptor count");
        return;
    }
    let server = Server::bind("127.0.0.1:0", ServeOptions::default())
        .expect("bind")
        .spawn()
        .expect("spawn");
    // Warm up once so lazily opened process-wide descriptors are counted
    // in the baseline.
    drop(TcpStream::connect(server.addr()).expect("connect"));
    std::thread::sleep(Duration::from_millis(100));
    let before = open_fds();

    for _ in 0..500 {
        let conn = TcpStream::connect(server.addr()).expect("connect");
        drop(conn);
    }
    // The last connection threads may still be winding down; give them a
    // bounded grace period to deregister.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut after = open_fds();
    while after > before + 4 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
        after = open_fds();
    }
    assert!(
        after <= before + 4,
        "500 connect/close cycles grew the open descriptors from {before} to {after}"
    );

    glove_serve::client::shutdown(server.addr()).expect("shutdown");
    let summary = server.join();
    assert!(summary.failures.is_empty());
}
