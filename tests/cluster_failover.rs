//! Cluster-level fault-tolerance tests over real localhost TCP: a replica
//! killed mid-batch with every job still completing (reports
//! byte-identical to a healthy run), quarantine and probe-driven
//! re-admission, content-addressed cache replay (including cache-only
//! serving when every replica is down, and deadline'd jobs bypassing the
//! cache — their reports are wall-clock-dependent), duplicate in-flight
//! job ids, hedged requests, and router/direct byte-identity for streamed
//! jobs. Also: the router's counters settled before each result, its
//! connection cap, and a prompt shutdown on an unspecified bind address.

use std::net::SocketAddr;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use sophie_serve::router::cache::{job_key, placement_hash};
use sophie_serve::{
    Client, ClientError, GraphSpec, HealthPolicy, Json, LocalCluster, RetryPolicy, Router,
    RouterConfig, ServeConfig, Server, SubmitArgs,
};

/// Serializes the tests in this file. Each spins up a full cluster and
/// asserts on wall-clock behavior (probe cadence, hedge delays,
/// deadlines); running them on parallel test threads makes the timing
/// assertions flaky under CPU contention.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn serve_config(workers: usize) -> ServeConfig {
    ServeConfig {
        workers,
        max_connections: 16,
        ..ServeConfig::default()
    }
}

/// Fast-probing router config so quarantine/re-admission transitions
/// happen in tens of milliseconds instead of seconds.
fn router_config(cache_capacity: usize) -> RouterConfig {
    RouterConfig {
        cache_capacity,
        probe_interval: Duration::from_millis(50),
        probe_timeout: Duration::from_millis(500),
        health: HealthPolicy::default(),
        retry: RetryPolicy {
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(100),
            ..RetryPolicy::default()
        },
        ..RouterConfig::default()
    }
}

fn connect(addr: std::net::SocketAddr) -> Client {
    let mut client = Client::connect(addr).expect("connect");
    // A backstop so a lost frame fails the test instead of hanging it.
    client
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("set timeout");
    client
}

/// Polls the router's `stats` frame until `pred` holds.
fn wait_stats(client: &mut Client, what: &str, pred: impl Fn(&Json) -> bool) -> Json {
    for _ in 0..1200 {
        let stats = client.stats().expect("stats");
        if pred(&stats) {
            return stats;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("stats condition not reached within 12s: {what}");
}

fn counter(stats: &Json, key: &str) -> u64 {
    stats.get(key).and_then(Json::as_u64).unwrap_or(u64::MAX)
}

fn replica_state(stats: &Json, index: usize) -> String {
    stats
        .get("replicas")
        .and_then(Json::as_arr)
        .and_then(|rs| rs.get(index))
        .and_then(|r| r.get("state"))
        .and_then(Json::as_str)
        .unwrap_or("missing")
        .to_string()
}

/// The raw `report` bytes of a result line — the payload that must be
/// byte-identical across healthy runs, failovers, and cache replays.
fn report_bytes(result_line: &str) -> &str {
    let marker = ",\"report\":";
    let start = result_line.find(marker).expect("result has a report") + marker.len();
    &result_line[start..result_line.len() - 1]
}

/// A deterministic batch job: no deadline (wall-clock budgets would make
/// `iterations_run` timing-dependent and break byte-identity), runtime in
/// the ~100ms range so a mid-batch replica kill lands on live work.
fn batch_job(seed: u64) -> SubmitArgs {
    let mut job = SubmitArgs::new("sa", GraphSpec::Named("K60".into()));
    job.seed = seed;
    job.config_json = Some(r#"{"sweeps": 120000}"#.into());
    job
}

#[test]
fn replica_kill_mid_batch_completes_all_jobs_with_identical_reports() {
    let _serial = serial();
    let jobs: Vec<(String, SubmitArgs)> = (0..12)
        .map(|i| (format!("job-{i}"), batch_job(100 + i)))
        .collect();

    // Healthy baseline: same workload on an intact cluster.
    let baseline = {
        let cluster = LocalCluster::start(3, serve_config(2), router_config(0)).expect("cluster");
        let mut client = connect(cluster.router_addr());
        let mut reports = Vec::new();
        for (id, job) in &jobs {
            let admission = client.submit(id, job).expect("submit");
            assert_eq!(admission.frame_type(), Some("accepted"));
        }
        for (id, _) in &jobs {
            let outcome = client.wait_result(id).expect("result");
            assert_eq!(outcome.status, "done", "{id} in healthy run");
            reports.push(report_bytes(&outcome.frame.line).to_string());
        }
        cluster.shutdown();
        reports
    };

    // Chaos run: same workload, replica 0 killed mid-batch, later
    // restarted. Cache disabled so every job really executes.
    let mut cluster = LocalCluster::start(3, serve_config(2), router_config(0)).expect("cluster");
    let mut client = connect(cluster.router_addr());
    let mut stats_client = connect(cluster.router_addr());
    for (id, job) in &jobs {
        let admission = client.submit(id, job).expect("submit");
        assert_eq!(admission.frame_type(), Some("accepted"));
    }
    wait_stats(&mut stats_client, "batch in flight", |s| {
        counter(s, "in_flight") > 0
    });
    cluster.kill(0);

    // Every job still completes, with reports byte-identical to the
    // healthy run — zero client-visible failures.
    for ((id, _), healthy_report) in jobs.iter().zip(&baseline) {
        let outcome = client.wait_result(id).expect("result under chaos");
        assert_eq!(outcome.status, "done", "{id} must survive the kill");
        assert_eq!(
            report_bytes(&outcome.frame.line),
            healthy_report,
            "{id}: failover must not change report bytes"
        );
    }

    // The dead replica is quarantined (dispatch failures + failed probes)...
    let stats = wait_stats(&mut stats_client, "replica 0 quarantined", |s| {
        replica_state(s, 0) == "quarantined"
    });
    assert_eq!(counter(&stats, "failed"), 0, "no job may fail");
    let retries = counter(&stats, "retries");
    assert!(retries > 0, "the kill must have forced retries");

    // ...keeps serving while degraded (new work avoids the dead replica)...
    let admission = client
        .submit("after-kill", &batch_job(999))
        .expect("submit");
    assert_eq!(admission.frame_type(), Some("accepted"));
    let outcome = client.wait_result("after-kill").expect("result");
    assert_eq!(outcome.status, "done");

    // ...and re-admits it after a restart (probe-driven, Healthy again).
    cluster.restart(0).expect("restart replica 0");
    let stats = wait_stats(&mut stats_client, "replica 0 re-admitted", |s| {
        replica_state(s, 0) == "healthy"
    });
    let transitions: Vec<String> = stats
        .get("replicas")
        .and_then(Json::as_arr)
        .and_then(|rs| rs.first())
        .and_then(|r| r.get("transitions"))
        .and_then(Json::as_arr)
        .expect("transition log")
        .iter()
        .filter_map(|t| t.as_str().map(str::to_string))
        .collect();
    assert_eq!(transitions.first().map(String::as_str), Some("healthy"));
    assert!(
        transitions.iter().any(|t| t == "quarantined"),
        "log must record the quarantine: {transitions:?}"
    );
    assert_eq!(transitions.last().map(String::as_str), Some("healthy"));

    cluster.shutdown();
}

#[test]
fn cache_replays_reports_and_serves_when_every_replica_is_down() {
    let _serial = serial();
    let mut cluster = LocalCluster::start(2, serve_config(2), router_config(64)).expect("cluster");
    let mut client = connect(cluster.router_addr());

    let mut job = SubmitArgs::new("sa", GraphSpec::Named("K40".into()));
    job.seed = 7;
    job.config_json = Some(r#"{"sweeps": 2000}"#.into());

    client.submit("first", &job).expect("submit first");
    let first = client.wait_result("first").expect("first result");
    assert_eq!(first.status, "done");
    let first_report = report_bytes(&first.frame.line).to_string();

    // Identical content under a different id: served from the cache,
    // byte-identical report.
    client.submit("second", &job).expect("submit second");
    let second = client.wait_result("second").expect("second result");
    assert_eq!(second.status, "done");
    assert_eq!(report_bytes(&second.frame.line), first_report);
    let stats = client.stats().expect("stats");
    assert!(
        stats
            .get("cache")
            .and_then(|c| c.get("hits"))
            .and_then(Json::as_u64)
            .unwrap_or(0)
            >= 1,
        "second submission must hit the cache"
    );

    // Mass replica loss: both replicas die and end up quarantined.
    cluster.kill(0);
    cluster.kill(1);
    wait_stats(&mut client, "all replicas quarantined", |s| {
        replica_state(s, 0) == "quarantined" && replica_state(s, 1) == "quarantined"
    });

    // Cached content still serves, byte-identically...
    client.submit("third", &job).expect("submit third");
    let third = client.wait_result("third").expect("third result");
    assert_eq!(third.status, "done");
    assert_eq!(report_bytes(&third.frame.line), first_report);

    // ...while uncached work gets typed cluster-degraded backpressure.
    let mut uncached = job.clone();
    uncached.seed = 8;
    let admission = client.submit("fourth", &uncached).expect("submit fourth");
    assert_eq!(admission.frame_type(), Some("rejected"));
    assert_eq!(
        admission.get("reason").and_then(Json::as_str),
        Some("cluster_degraded")
    );

    cluster.shutdown();
}

#[test]
fn deadlined_jobs_bypass_the_cache() {
    let _serial = serial();
    let cluster = LocalCluster::start(1, serve_config(2), router_config(64)).expect("cluster");
    let mut client = connect(cluster.router_addr());

    // Completes far inside its deadline, but a deadline'd run is stopped
    // at wall-clock time and still reports `done`, so its report is not
    // content-deterministic — it must execute every time, never replay.
    let mut job = SubmitArgs::new("sa", GraphSpec::Named("K40".into()));
    job.seed = 5;
    job.config_json = Some(r#"{"sweeps": 2000}"#.into());
    job.deadline_ms = Some(60_000);

    for id in ["d1", "d2"] {
        client.submit(id, &job).expect("submit");
        let outcome = client.wait_result(id).expect("result");
        assert_eq!(outcome.status, "done", "{id}");
    }
    let stats = client.stats().expect("stats");
    let cache = stats.get("cache").expect("cache block");
    assert_eq!(
        cache.get("inserts").and_then(Json::as_u64),
        Some(0),
        "deadline'd reports must not be cached: {stats}"
    );
    assert_eq!(
        cache.get("hits").and_then(Json::as_u64),
        Some(0),
        "deadline'd submissions must not replay: {stats}"
    );

    cluster.shutdown();
}

#[test]
fn duplicate_in_flight_id_is_rejected_and_the_first_job_stays_cancellable() {
    let _serial = serial();
    let cluster = LocalCluster::start(1, serve_config(1), router_config(0)).expect("cluster");
    let mut client = connect(cluster.router_addr());

    // A long-running job keeps the id in flight.
    let mut long_job = SubmitArgs::new("sa", GraphSpec::Named("K60".into()));
    long_job.seed = 1;
    long_job.config_json = Some(r#"{"sweeps": 100000000}"#.into());
    let admission = client.submit("dup", &long_job).expect("submit");
    assert_eq!(admission.frame_type(), Some("accepted"));

    // Reusing the id while the first dispatch is live is a typed
    // rejection — not a silent overwrite that would orphan the first
    // job's cancel plumbing.
    let admission = client.submit("dup", &long_job).expect("resubmit");
    assert_eq!(admission.frame_type(), Some("rejected"));
    assert_eq!(
        admission.get("reason").and_then(Json::as_str),
        Some("duplicate_id")
    );

    // The original job is still tracked: cancel finds it and ends it.
    assert!(
        client.cancel("dup").expect("cancel"),
        "cancel must still find the first job"
    );
    let outcome = client.wait_result("dup").expect("result");
    assert_eq!(outcome.status, "cancelled");

    // Once a result is out, the id is free again and the router's
    // counters have settled: the job left its connection's map and gave
    // back its in-flight slot before the frame was written.
    let mut watcher = connect(cluster.router_addr());
    let mut quick = SubmitArgs::new("sa", GraphSpec::Named("K4".into()));
    quick.config_json = Some(r#"{"sweeps": 2}"#.into());
    for i in 0..200 {
        let admission = client.submit("dup", &quick).expect("reuse");
        assert_eq!(admission.frame_type(), Some("accepted"), "job {i}");
        let outcome = client.wait_result("dup").expect("result");
        assert_eq!(outcome.status, "done", "job {i}");
        let stats = watcher.stats().expect("stats");
        assert_eq!(counter(&stats, "in_flight"), 0, "job {i}: {stats}");
        assert_eq!(
            counter(&stats, "submitted"),
            counter(&stats, "done") + counter(&stats, "cancelled") + counter(&stats, "failed"),
            "job {i}: {stats}"
        );
    }

    cluster.shutdown();
}

#[test]
fn router_refuses_a_third_connection_past_a_cap_of_two() {
    let _serial = serial();
    let config = RouterConfig {
        max_connections: 2,
        ..router_config(0)
    };
    let cluster = LocalCluster::start(1, serve_config(1), config).expect("cluster");
    let addr = cluster.router_addr();
    let first = connect(addr);
    let mut second = connect(addr);
    match Client::connect(addr) {
        Err(ClientError::Rejected { reason }) => assert_eq!(reason, "too_many_connections"),
        other => panic!("third connection: {:?}", other.map(|_| "accepted")),
    }
    second.ping().expect("ping");

    // Once one of the two closes, its slot is free again. The router
    // notices the close asynchronously, so a refusal may come first.
    drop(first);
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut third = loop {
        match Client::connect(addr) {
            Ok(client) => break client,
            Err(ClientError::Rejected { .. }) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => panic!("no slot freed: {e}"),
        }
    };
    third.ping().expect("ping");
    cluster.shutdown();
}

#[test]
fn router_and_cluster_on_an_unspecified_address_shut_down_within_a_second() {
    let _serial = serial();
    let loopback = |addr: SocketAddr| SocketAddr::from(([127, 0, 0, 1], addr.port()));
    let replica =
        Server::start(serve_config(1), sophie::default_registry(), "127.0.0.1:0").expect("replica");
    let router =
        Router::start(router_config(0), &[replica.local_addr()], "0.0.0.0:0").expect("router");
    connect(loopback(router.local_addr())).ping().expect("ping");
    let start = Instant::now();
    router.shutdown();
    let took = start.elapsed();
    assert!(
        took < Duration::from_secs(1),
        "router shutdown took {took:?}"
    );
    replica.shutdown();

    let cluster =
        LocalCluster::start_at(1, serve_config(1), router_config(0), "0.0.0.0:0").expect("cluster");
    connect(loopback(cluster.router_addr()))
        .ping()
        .expect("ping");
    let start = Instant::now();
    cluster.shutdown();
    let took = start.elapsed();
    assert!(
        took < Duration::from_secs(1),
        "cluster shutdown took {took:?}"
    );
}

#[test]
fn hedged_request_finishes_on_the_second_replica() {
    let _serial = serial();
    let mut config = router_config(0);
    config.retry.hedge = true;
    config.retry.hedge_fraction = 0.25;
    // Single worker per replica so one long job saturates its home.
    let cluster = LocalCluster::start(2, serve_config(1), config).expect("cluster");

    // The hedged job: quick, with a deadline so the hedge arms.
    let mut quick = SubmitArgs::new("sa", GraphSpec::Named("K40".into()));
    quick.seed = 21;
    quick.config_json = Some(r#"{"sweeps": 2000}"#.into());
    // Generous deadline: the hedge fires at 25% of it (2s), and the
    // remaining 6s absorbs scheduler noise on a loaded host.
    quick.deadline_ms = Some(8000);

    // Compute its home replica with the router's own placement function,
    // then saturate exactly that replica with a long-running direct job.
    let frame = quick.to_frame("hedged");
    let home = match sophie_serve::protocol::parse_request(&frame).expect("parse") {
        sophie_serve::Request::Submit(req) => (placement_hash(&job_key(&req)) % 2) as usize,
        other => panic!("expected submit, got {other:?}"),
    };
    let home_addr = cluster.replica_addr(home).expect("home replica runs");
    let mut saturator = connect(home_addr);
    let mut long_job = SubmitArgs::new("sa", GraphSpec::Named("K60".into()));
    long_job.config_json = Some(r#"{"sweeps": 100000000}"#.into());
    long_job.deadline_ms = Some(30_000);
    saturator.submit("long", &long_job).expect("submit long");

    // Wait until the saturator is actually executing on the home replica.
    let mut home_stats = connect(home_addr);
    wait_stats(&mut home_stats, "saturator running", |s| {
        counter(s, "in_flight") == 1
    });

    // Routed through the router, the job's primary attempt parks behind
    // the saturator; the hedge fires at 25% of the deadline and completes
    // on the other replica.
    let mut client = connect(cluster.router_addr());
    client.submit("hedged", &quick).expect("submit hedged");
    let outcome = client.wait_result("hedged").expect("hedged result");
    assert_eq!(
        outcome.status, "done",
        "result frame: {}",
        outcome.frame.line
    );
    let stats = client.stats().expect("router stats");
    assert!(
        counter(&stats, "hedges") >= 1,
        "hedge must have fired; result: {} stats: {}",
        outcome.frame.line,
        stats
    );
    assert!(
        counter(&stats, "hedge_wins") >= 1,
        "hedge must have won; result: {} stats: {}",
        outcome.frame.line,
        stats
    );

    cluster.shutdown();
}

#[test]
fn routed_stream_is_byte_identical_to_direct_serving() {
    let _serial = serial();
    let cluster = LocalCluster::start(1, serve_config(2), router_config(0)).expect("cluster");
    let replica_addr = cluster.replica_addr(0).expect("replica runs");

    let mut job = SubmitArgs::new("sophie", GraphSpec::Named("K40".into()));
    job.seed = 3;
    job.stream = true;
    job.config_json = Some(r#"{"global_iters": 4, "tile_size": 20, "local_iters": 2}"#.into());

    let mut direct = connect(replica_addr);
    direct.submit("s1", &job).expect("direct submit");
    let direct_outcome = direct.wait_result("s1").expect("direct result");

    let mut routed = connect(cluster.router_addr());
    routed.submit("s1", &job).expect("routed submit");
    let routed_outcome = routed.wait_result("s1").expect("routed result");

    assert_eq!(direct_outcome.status, "done");
    assert_eq!(routed_outcome.status, "done");
    // Every event frame — raw wire bytes — matches, in order.
    let direct_events: Vec<&str> = direct_outcome
        .events
        .iter()
        .map(|e| e.line.as_str())
        .collect();
    let routed_events: Vec<&str> = routed_outcome
        .events
        .iter()
        .map(|e| e.line.as_str())
        .collect();
    assert!(!direct_events.is_empty(), "streaming job must emit events");
    assert_eq!(routed_events, direct_events);
    // The report bytes match too (latency_ms legitimately differs).
    assert_eq!(
        report_bytes(&routed_outcome.frame.line),
        report_bytes(&direct_outcome.frame.line)
    );

    cluster.shutdown();
}

#[test]
fn problem_submits_route_cache_and_advertise_through_the_router() {
    let _serial = serial();
    let cluster = LocalCluster::start(2, serve_config(2), router_config(64)).expect("cluster");
    let mut client = connect(cluster.router_addr());

    // The router forwards a replica's `list-solvers` frame verbatim, so
    // the problem-compiler capability list reaches clients unchanged.
    let solvers = client.list_solvers().expect("list-solvers via router");
    let kinds: Vec<&str> = solvers
        .get("problems")
        .and_then(Json::as_arr)
        .expect("problems array forwarded")
        .iter()
        .map(|k| k.as_str().unwrap())
        .collect();
    assert_eq!(kinds, vec!["qubo", "max-cut", "coloring", "ldpc"]);

    // A problem-typed submit through the router returns decoded metrics
    // inside the report.
    let mut job = SubmitArgs::for_problem(
        "sa",
        r#"{"kind":"coloring","random":{"nodes":8,"edges":14,"colors":4,"seed":3}}"#,
    );
    job.seed = 5;
    job.config_json = Some(r#"{"sweeps": 4000}"#.into());
    client.submit("p-first", &job).expect("submit p-first");
    let first = client.wait_result("p-first").expect("p-first result");
    assert_eq!(first.status, "done");
    let first_report = report_bytes(&first.frame.line).to_string();
    let problem = first
        .frame
        .get("report")
        .and_then(|r| r.get("problem"))
        .expect("decoded problem metrics in routed result");
    assert_eq!(problem.get("kind").and_then(Json::as_str), Some("coloring"));
    assert_eq!(problem.get("feasible").and_then(Json::as_bool), Some(true));

    // Identical problem content under a new id replays from the cache,
    // byte-identical — including the spliced problem block.
    client.submit("p-second", &job).expect("submit p-second");
    let second = client.wait_result("p-second").expect("p-second result");
    assert_eq!(second.status, "done");
    assert_eq!(report_bytes(&second.frame.line), first_report);
    let stats = client.stats().expect("stats");
    assert!(
        stats
            .get("cache")
            .and_then(|c| c.get("hits"))
            .and_then(Json::as_u64)
            .unwrap_or(0)
            >= 1,
        "identical problem submission must hit the cache"
    );

    // Different problem content (another generator seed) must miss.
    let mut other_job = SubmitArgs::for_problem(
        "sa",
        r#"{"kind":"coloring","random":{"nodes":8,"edges":14,"colors":4,"seed":4}}"#,
    );
    other_job.seed = 5;
    other_job.config_json = Some(r#"{"sweeps": 4000}"#.into());
    assert_ne!(
        job_key(&parse_submit(&job.to_frame("x"))),
        job_key(&parse_submit(&other_job.to_frame("x"))),
        "problem identity must reach the cache key"
    );

    cluster.shutdown();
}

/// Parses a rendered submit frame back into the request the router keys.
fn parse_submit(line: &str) -> sophie_serve::SubmitRequest {
    match sophie_serve::protocol::parse_request(line).expect("valid submit frame") {
        sophie_serve::Request::Submit(req) => *req,
        other => panic!("expected Submit, got {other:?}"),
    }
}
