//! Which threads a cluster runs, read from `/proc`: one per replica, the
//! sentinel only with a monitor attached, and no router in between. Alone
//! in its test binary, so no other test's cluster shows up in the census.
#![cfg(target_os = "linux")]

use std::collections::BTreeSet;
use std::sync::Arc;

use moc_checker::conditions::Condition;
use moc_core::ids::{ObjectId, ProcessId};
use moc_core::program::{imm, Program, ProgramBuilder};
use moc_protocol::MscOverSequencer;
use moc_runtime::{LiveCluster, MonitorConfig, RuntimeConfig};

/// The names of the process's threads that belong to a cluster.
fn cluster_threads() -> BTreeSet<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs is mounted")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim().to_string())
        .filter(|name| name.starts_with("replica-") || name == "sentinel" || name == "network")
        .collect()
}

/// The census once a joined cluster's threads have left it: `join` returns
/// when a thread has finished, and under load the kernel can list the
/// exiting task for a moment longer. Polled for at most a second.
fn cluster_threads_after_shutdown() -> BTreeSet<String> {
    for _ in 0..200 {
        if cluster_threads().is_empty() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    cluster_threads()
}

fn write_x() -> Arc<Program> {
    let mut b = ProgramBuilder::new("wx");
    b.write(ObjectId::new(0), imm(1)).ret(vec![]);
    Arc::new(b.build().expect("a one-write program"))
}

/// One update per process: every replica thread has run (and so named
/// itself) once all three have replied, and the sentinel has been fed.
fn touch_every_replica(cluster: &LiveCluster<MscOverSequencer>) {
    for p in 0..3 {
        cluster.invoke(ProcessId::new(p), write_x(), vec![]);
    }
}

#[test]
fn a_cluster_is_its_replicas_and_at_most_a_sentinel() {
    let names = |expected: &[&str]| -> BTreeSet<String> {
        expected.iter().map(|s| s.to_string()).collect()
    };
    assert_eq!(cluster_threads(), names(&[]));

    let bare: LiveCluster<MscOverSequencer> = LiveCluster::start(3, RuntimeConfig::new(1));
    touch_every_replica(&bare);
    assert_eq!(
        cluster_threads(),
        names(&["replica-0", "replica-1", "replica-2"])
    );
    assert!(bare.shutdown().anomalies.is_clean());
    assert_eq!(
        cluster_threads_after_shutdown(),
        names(&[]),
        "shutdown joins every thread"
    );

    let monitored: LiveCluster<MscOverSequencer> = LiveCluster::start_with_monitor(
        3,
        RuntimeConfig::new(1),
        MonitorConfig::new(Condition::MSequentialConsistency),
    );
    touch_every_replica(&monitored);
    // The sentinel names itself when it is first scheduled, which nothing
    // above waited for.
    let expected = names(&["replica-0", "replica-1", "replica-2", "sentinel"]);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while cluster_threads() != expected && std::time::Instant::now() < deadline {
        std::thread::yield_now();
    }
    assert_eq!(cluster_threads(), expected);
    assert!(monitored.shutdown().anomalies.is_clean());
    assert_eq!(cluster_threads_after_shutdown(), names(&[]));
}
