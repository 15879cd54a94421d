//! A `LocalCluster`, or a bare `ServerHandle` or `RouterHandle`, that is
//! dropped, on purpose or by a panic, stops every thread it started.
//! Threads are counted by name in `/proc/self/task`, which is why these
//! tests have a binary of their own and take turns: another test's
//! daemons would be counted too.

use std::net::SocketAddr;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use sophie_serve::{
    Client, GraphSpec, LocalCluster, Router, RouterConfig, RouterHandle, ServeConfig, Server,
    ServerHandle, SubmitArgs,
};

/// Held by each test while it counts threads.
static TURN: Mutex<()> = Mutex::new(());

fn take_turn() -> MutexGuard<'static, ()> {
    TURN.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

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

fn serve_config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    }
}

/// Routes one job through the router at `addr`.
fn route_one_job(addr: SocketAddr) {
    let mut client = Client::connect(addr).expect("connect");
    let mut job = SubmitArgs::new("sa", GraphSpec::Named("K20".into()));
    job.config_json = Some(r#"{"sweeps": 50}"#.into());
    client.submit("one", &job).expect("submit");
    let outcome = client.wait_result("one").expect("result");
    assert_eq!(outcome.status, "done", "{}", outcome.frame);
}

/// A cluster of two replicas that has served one routed job, so its
/// router holds replica links as well as its own threads.
fn busy_cluster() -> LocalCluster {
    let cluster = LocalCluster::start(2, serve_config(), RouterConfig::default()).expect("cluster");
    route_one_job(cluster.router_addr());
    cluster
}

/// A bare daemon and a bare router over it, after one routed job.
fn busy_handles() -> (ServerHandle, RouterHandle) {
    let server =
        Server::start(serve_config(), sophie::default_registry(), "127.0.0.1:0").expect("daemon");
    let router = Router::start(
        RouterConfig::default(),
        &[server.local_addr()],
        "127.0.0.1:0",
    )
    .expect("router");
    route_one_job(router.local_addr());
    (server, router)
}

fn assert_threads_are_counted() {
    assert!(
        std::fs::metadata("/proc/self/task").is_ok(),
        "the test counts threads in /proc/self/task"
    );
}

/// Checks that each thread-name prefix in `names` is running.
fn assert_running(names: &[&str]) {
    let running = cluster_threads();
    for name in names {
        assert!(
            running.iter().any(|t| t.starts_with(name)),
            "no {name} in {running:?}"
        );
    }
}

#[test]
fn dropped_or_panicking_bare_handles_leave_no_thread_behind() {
    let _turn = take_turn();
    assert_threads_are_counted();
    let (server, router) = busy_handles();
    assert_running(&[
        "router-link",
        "router-supervis",
        "serve-supervis",
        "serve-worker",
    ]);
    drop(router);
    drop(server);
    let left = wait_for_no_cluster_threads(Duration::from_secs(5));
    assert!(left.is_empty(), "after drop: {left:?}");

    // The tuple drops the daemon before the router this time.
    let unwound = std::panic::catch_unwind(|| {
        let _handles = busy_handles();
        panic!("a test fails with its daemon and router running");
    });
    assert!(unwound.is_err());
    let left = wait_for_no_cluster_threads(Duration::from_secs(5));
    assert!(left.is_empty(), "after a panic: {left:?}");
}

#[test]
fn a_dropped_or_panicking_cluster_leaves_no_thread_behind() {
    let _turn = take_turn();
    assert_threads_are_counted();
    let cluster = busy_cluster();
    // Linux keeps 15 bytes of a thread name: `router-supervis`.
    assert_running(&[
        "router-link",
        "router-supervis",
        "serve-supervis",
        "serve-worker",
    ]);
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
