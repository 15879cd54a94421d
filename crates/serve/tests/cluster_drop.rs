//! A `LocalCluster` that is dropped, on purpose or by a panic, stops its
//! router, its replicas and every thread they started. Threads are
//! counted by name in `/proc/self/task`, which is why this test has a
//! binary of its own: another test's cluster would be counted too.

use std::time::{Duration, Instant};

use sophie_serve::{Client, GraphSpec, LocalCluster, RouterConfig, ServeConfig, SubmitArgs};

/// Name prefixes of the threads a router and its daemons start.
const CLUSTER_THREADS: [&str; 2] = ["router-", "serve-"];

/// This process's threads whose name starts with a cluster prefix.
fn cluster_threads() -> Vec<String> {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    tasks
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_string())
        .filter(|name| CLUSTER_THREADS.iter().any(|p| name.starts_with(p)))
        .collect()
}

/// Waits up to `limit` for every cluster thread to be gone.
fn wait_for_no_cluster_threads(limit: Duration) -> Vec<String> {
    let start = Instant::now();
    loop {
        let left = cluster_threads();
        if left.is_empty() || start.elapsed() > limit {
            return left;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// A cluster of two replicas that has served one routed job, so its
/// router holds replica links as well as its own threads.
fn busy_cluster() -> LocalCluster {
    let serve = ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    };
    let cluster = LocalCluster::start(2, serve, RouterConfig::default()).expect("cluster");
    let mut client = Client::connect(cluster.router_addr()).expect("connect");
    let mut job = SubmitArgs::new("sa", GraphSpec::Named("K20".into()));
    job.config_json = Some(r#"{"sweeps": 50}"#.into());
    client.submit("one", &job).expect("submit");
    let outcome = client.wait_result("one").expect("result");
    assert_eq!(outcome.status, "done", "{}", outcome.frame);
    cluster
}

#[test]
fn a_dropped_or_panicking_cluster_leaves_no_thread_behind() {
    assert!(
        std::fs::metadata("/proc/self/task").is_ok(),
        "the test counts threads in /proc/self/task"
    );
    let cluster = busy_cluster();
    let running = cluster_threads();
    // Linux keeps 15 bytes of a thread name: `router-supervis`.
    for name in [
        "router-link",
        "router-supervis",
        "serve-supervis",
        "serve-worker",
    ] {
        assert!(
            running.iter().any(|t| t.starts_with(name)),
            "no {name} in {running:?}"
        );
    }
    drop(cluster);
    let left = wait_for_no_cluster_threads(Duration::from_secs(5));
    assert!(left.is_empty(), "after drop: {left:?}");

    let unwound = std::panic::catch_unwind(|| {
        let _cluster = busy_cluster();
        panic!("a test fails with its cluster running");
    });
    assert!(unwound.is_err());
    let left = wait_for_no_cluster_threads(Duration::from_secs(5));
    assert!(left.is_empty(), "after a panic: {left:?}");
}
