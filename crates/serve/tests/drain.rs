//! The zero-orphan drain guarantee, checked against the ground truth:
//! the thread count of this process.
//!
//! `/proc/self/task` counts every thread of the test process, so a
//! sibling test's live server would show up as a leak. This binary
//! holds exactly one test for that reason; keep it that way.

use std::time::Duration;

use ham_core::explore::{random_memory, DesignKind};
use ham_core::resilience::PRIORITY_NORMAL;
use ham_serve::frame::STATUS_OK;
use ham_serve::{HamClient, ServeConfig, Server, TenantSpec};
use hdc::prelude::*;

const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);

/// Live threads of this process, from /proc.
fn live_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .map(|entries| entries.count())
        .unwrap_or(0)
}

#[test]
fn drain_rejects_new_work_joins_every_thread_and_reports_it() {
    let before = live_threads();
    let config = ServeConfig {
        read_timeout: Duration::from_millis(500),
        drain_grace: Duration::from_secs(2),
        ..ServeConfig::default()
    };
    let spec = TenantSpec::new(
        4,
        "tenant-4",
        DesignKind::Digital,
        random_memory(6, 512, 54),
    );
    let server = Server::start(config, vec![spec]).unwrap();
    let memory = random_memory(6, 512, 54);

    // Touch the server so connection threads exist, and keep the
    // clients alive across the drain (their sockets will be forced).
    let mut clients: Vec<HamClient> = (0..3)
        .map(|_| HamClient::connect(server.local_addr(), CLIENT_TIMEOUT).unwrap())
        .collect();
    for client in &mut clients {
        let query = vec![memory.row(ClassId(1)).unwrap().clone()];
        assert_eq!(
            client
                .request(4, PRIORITY_NORMAL, None, &query)
                .unwrap()
                .status,
            STATUS_OK
        );
    }

    let addr = server.local_addr();
    let report = server.drain();
    assert_eq!(report.accept_loops_joined, 2);
    assert_eq!(report.connection_threads_joined, 3);
    assert_eq!(
        report.connections_at_drain,
        report.drained_gracefully + report.forced_shutdowns
    );

    // Post-drain: the port no longer accepts (allow the OS a moment).
    std::thread::sleep(Duration::from_millis(50));
    assert!(HamClient::connect(addr, Duration::from_millis(200)).is_err());

    // Zero orphans: thread count is back to the pre-server baseline.
    for _ in 0..50 {
        if live_threads() <= before {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        live_threads() <= before,
        "drain leaked threads: {} before, {} after",
        before,
        live_threads()
    );
}
