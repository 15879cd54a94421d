//! Cluster-level fault-tolerance tests over real localhost TCP: a replica
//! killed mid-batch with every job still completing (reports
//! byte-identical to a healthy run), quarantine and probe-driven
//! re-admission, content-addressed cache replay (including cache-only
//! serving when every replica is down, and deadline'd jobs bypassing the
//! cache — their reports are wall-clock-dependent), duplicate in-flight
//! job ids, hedged requests, and router/direct byte-identity for streamed
//! jobs. Also: the router's counters settled before each result, its
//! connection cap, and a prompt shutdown on an unspecified bind address;
//! and its shared replica links: a fixed set of them under a burst, one
//! thread per job in flight, a submit that outgrows the line cap once
//! rendered, a lost link booked as one health failure, and a replica that
//! never greets.

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

/// A job whose every attempt meets a full replica queue ends with one
/// `rejected` frame after its `accepted`, and the router's counters
/// account for it exactly: `submitted = done + cancelled + failed +
/// in_flight + rejected_after_accept`.
#[test]
fn attempts_exhausted_on_queue_full_balance_the_router_law() {
    let _serial = serial();
    let serve = ServeConfig {
        workers: 1,
        queue_capacity: 1,
        ..serve_config(1)
    };
    let cluster = LocalCluster::start(1, serve, router_config(0)).expect("cluster");
    let replica = cluster.replica_addr(0).expect("replica runs");

    // Fill the replica's one worker and its one queue slot directly.
    let mut saturator = connect(replica);
    let mut long_job = SubmitArgs::new("sa", GraphSpec::Named("K60".into()));
    long_job.config_json = Some(r#"{"sweeps": 100000000}"#.into());
    long_job.deadline_ms = Some(30_000);
    let admission = saturator.submit("running", &long_job).expect("submit");
    assert_eq!(admission.frame_type(), Some("accepted"));
    let mut replica_stats = connect(replica);
    wait_stats(&mut replica_stats, "long job running", |s| {
        counter(s, "in_flight") == 1
    });
    let admission = saturator.submit("queued", &long_job).expect("submit");
    assert_eq!(admission.frame_type(), Some("accepted"));

    let mut client = connect(cluster.router_addr());
    let mut job = SubmitArgs::new("sa", GraphSpec::Named("K20".into()));
    job.config_json = Some(r#"{"sweeps": 10}"#.into());
    let admission = client.submit("refused", &job).expect("submit");
    assert_eq!(admission.frame_type(), Some("accepted"));
    let outcome = client.wait_result("refused").expect("outcome");
    assert_eq!(outcome.status, "rejected", "{}", outcome.frame);
    assert_eq!(
        outcome.frame.get("reason").and_then(Json::as_str),
        Some("queue_full")
    );

    let stats = client.stats().expect("stats");
    let rejected = |key: &str| {
        stats
            .get("rejected")
            .and_then(|r| r.get(key))
            .and_then(Json::as_u64)
    };
    assert_eq!(rejected("upstream"), Some(1), "{stats}");
    assert_eq!(counter(&stats, "rejected_after_accept"), 1, "{stats}");
    let attempts = u64::from(RetryPolicy::default().max_attempts);
    assert_eq!(counter(&stats, "retries"), attempts - 1, "{stats}");
    assert_eq!(counter(&stats, "in_flight"), 0, "{stats}");
    assert_eq!(
        counter(&stats, "submitted"),
        counter(&stats, "done")
            + counter(&stats, "cancelled")
            + counter(&stats, "failed")
            + counter(&stats, "in_flight")
            + counter(&stats, "rejected_after_accept"),
        "{stats}"
    );

    // The queued job's result follows once the worker is free.
    for id in ["running", "queued"] {
        assert!(saturator.cancel(id).expect("cancel"), "{id}");
        let outcome = saturator.wait_result(id).expect("result");
        assert_eq!(outcome.status, "cancelled", "{}", outcome.frame);
    }
    cluster.shutdown();
}

/// 128 submits pipelined on one client connection through a one-replica
/// router reach the replica over the router's `LINKS` connections: with
/// the prober's, the replica never counts more than `LINKS + 1` router
/// connections (the watcher's own comes on top).
#[test]
fn a_pipelined_burst_reaches_the_replica_over_a_fixed_set_of_connections() {
    let _serial = serial();
    let serve = ServeConfig {
        queue_capacity: 256,
        ..serve_config(2)
    };
    let cluster = LocalCluster::start(1, serve, router_config(0)).expect("cluster");
    let mut watcher = connect(cluster.replica_addr(0).expect("replica runs"));
    let mut client = connect(cluster.router_addr());
    let mut job = SubmitArgs::new("sa", GraphSpec::Named("K60".into()));
    job.config_json = Some(r#"{"sweeps": 2000}"#.into());
    for seed in 0..128 {
        job.seed = seed;
        let admission = client.submit(&format!("b{seed}"), &job).expect("submit");
        assert_eq!(admission.frame_type(), Some("accepted"), "{admission}");
    }
    let mut peak = 0;
    for seed in 0..128 {
        let stats = watcher.stats().expect("replica stats");
        peak = peak.max(counter(&stats, "connections"));
        let outcome = client.wait_result(&format!("b{seed}")).expect("result");
        assert_eq!(outcome.status, "done", "{}", outcome.frame);
    }
    let links = sophie_serve::router::upstream::LINKS as u64;
    assert!(
        peak <= links + 2,
        "the replica saw {peak} connections: {links} links, the prober and the watcher at most"
    );
    let stats = client.stats().expect("router stats");
    let upstream = stats.get("upstream").expect("upstream block");
    assert!(
        upstream.get("connections").and_then(Json::as_u64) <= Some(links),
        "{stats}"
    );
    assert_eq!(
        upstream.get("pending").and_then(Json::as_u64),
        Some(0),
        "{stats}"
    );
    cluster.shutdown();
}

/// Two client connections may use one job id at once: each job gets its
/// own result, and cancelling one leaves the other running to `done`
/// with the report a direct submit produces.
#[test]
fn one_job_id_on_two_connections_runs_two_jobs_and_cancels_one() {
    let _serial = serial();
    let cluster = LocalCluster::start(1, serve_config(2), router_config(0)).expect("cluster");
    let replica = cluster.replica_addr(0).expect("replica runs");
    let mut first = connect(cluster.router_addr());
    let mut second = connect(cluster.router_addr());

    let mut long_job = SubmitArgs::new("sa", GraphSpec::Named("K60".into()));
    long_job.config_json = Some(r#"{"sweeps": 100000000}"#.into());
    long_job.deadline_ms = Some(30_000);
    let mut job = batch_job(7);
    job.config_json = Some(r#"{"sweeps": 400000}"#.into());
    for (client, submitted) in [(&mut first, &long_job), (&mut second, &job)] {
        let admission = client.submit("twin", submitted).expect("submit");
        assert_eq!(admission.frame_type(), Some("accepted"), "{admission}");
    }
    let mut replica_stats = connect(replica);
    wait_stats(&mut replica_stats, "both jobs running", |s| {
        counter(s, "in_flight") == 2
    });

    assert!(first.cancel("twin").expect("cancel"));
    let cancelled = first.wait_result("twin").expect("cancelled result");
    assert_eq!(cancelled.status, "cancelled", "{}", cancelled.frame);
    let done = second.wait_result("twin").expect("result");
    assert_eq!(done.status, "done", "{}", done.frame);

    let mut direct = connect(replica);
    direct.submit("twin", &job).expect("direct submit");
    let reference = direct.wait_result("twin").expect("direct result");
    assert_eq!(
        report_bytes(&done.frame.line),
        report_bytes(&reference.frame.line)
    );
    cluster.shutdown();
}

/// The placement home, among `replicas`, of `job` submitted as `id`.
fn home_of(job: &SubmitArgs, id: &str, replicas: u64) -> u64 {
    placement_hash(&job_key(&parse_submit(&job.to_frame(id)))) % replicas
}

/// `count` small jobs whose placement home among two replicas is replica
/// 0, each with its id.
fn jobs_homed_at_zero(count: usize) -> Vec<(String, SubmitArgs)> {
    let mut job = SubmitArgs::new("sa", GraphSpec::Named("K20".into()));
    job.config_json = Some(r#"{"sweeps": 200}"#.into());
    (0..)
        .filter_map(|seed| {
            job.seed = seed;
            let id = format!("h{seed}");
            (home_of(&job, &id, 2) == 0).then(|| (id, job.clone()))
        })
        .take(count)
        .collect()
}

/// How many of this process's threads carry `name`.
fn threads_named(name: &str) -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("task list")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.trim_end() == name)
        .count()
}

/// A submit that fits the line cap as the client sent it, but not as the
/// router renders it for a replica (a number prints without an exponent,
/// so `1e-300` takes some 300 bytes), is answered with an `error` frame
/// and never reaches the replica: a job already on the replica's
/// connections ends `done`, and the replica books no failure.
#[test]
fn a_submit_that_outgrows_the_line_cap_upstream_is_refused_and_harms_no_other_job() {
    let _serial = serial();
    let cap = 64 << 10;
    let serve = ServeConfig {
        max_line_bytes: cap,
        ..serve_config(2)
    };
    let router = RouterConfig {
        max_line_bytes: cap,
        ..router_config(0)
    };
    let cluster = LocalCluster::start(1, serve, router).expect("cluster");
    let mut client = connect(cluster.router_addr());
    let admission = client.submit("steady", &batch_job(3)).expect("submit");
    assert_eq!(admission.frame_type(), Some("accepted"), "{admission}");

    let pad = vec!["1e-300"; 2000].join(",");
    let padded = SubmitArgs::for_problem("sa", &format!(r#"{{"kind":"maxcut","pad":[{pad}]}}"#));
    let line = padded.to_frame("padded");
    assert!(line.len() < cap, "{} bytes", line.len());
    assert!(parse_submit(&line).to_frame("r0").len() > cap);
    let admission = client.submit("padded", &padded).expect("submit");
    assert_eq!(admission.frame_type(), Some("error"), "{admission}");

    let outcome = client.wait_result("steady").expect("result");
    assert_eq!(outcome.status, "done", "{}", outcome.frame);
    let stats = client.stats().expect("stats");
    let replica = &stats
        .get("replicas")
        .and_then(Json::as_arr)
        .expect("replicas")[0];
    for (key, want) in [("dispatched", 1), ("ok", 1), ("failed", 0)] {
        assert_eq!(
            replica.get(key).and_then(Json::as_u64),
            Some(want),
            "{key}: {stats}"
        );
    }
    cluster.shutdown();
}

/// A stand-in replica that greets and answers pings but no submit. Once
/// `total` submits have arrived, over however many connections, it drops
/// every connection that carried one, with all of them still pending.
struct DroppingReplica {
    addr: SocketAddr,
    /// Every accepted connection, shut when the stand-in is dropped.
    conns: std::sync::Arc<Mutex<Vec<std::net::TcpStream>>>,
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    acceptor: Option<std::thread::JoinHandle<()>>,
}

impl DroppingReplica {
    fn start(total: usize) -> Self {
        use sophie_serve::protocol::{bare_frame, hello_frame, parse_request};
        use std::io::{BufRead, BufReader, Write};
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let conns = std::sync::Arc::new(Mutex::new(Vec::new()));
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let (accepted, stopped) = (std::sync::Arc::clone(&conns), std::sync::Arc::clone(&stop));
        let acceptor = std::thread::spawn(move || {
            // Submits seen so far, and a handle on each one's connection.
            let carriers = Mutex::new((0, Vec::new()));
            std::thread::scope(|scope| {
                for stream in listener.incoming() {
                    if stopped.load(std::sync::atomic::Ordering::Acquire) {
                        return;
                    }
                    let Ok(stream) = stream else { return };
                    let mut writer = stream.try_clone().expect("clone");
                    accepted
                        .lock()
                        .unwrap()
                        .push(stream.try_clone().expect("clone"));
                    let carriers = &carriers;
                    scope.spawn(move || {
                        writeln!(writer, "{}", hello_frame(&[])).expect("hello");
                        for line in BufReader::new(stream).lines() {
                            let Ok(line) = line else { return };
                            match parse_request(&line) {
                                Ok(sophie_serve::Request::Ping) => {
                                    let _ = writeln!(writer, "{}", bare_frame("pong"));
                                }
                                Ok(sophie_serve::Request::Submit(_)) => {
                                    let mut seen = carriers.lock().unwrap();
                                    seen.0 += 1;
                                    seen.1.push(writer.try_clone().expect("clone"));
                                    if seen.0 == total {
                                        for carrier in &seen.1 {
                                            let _ = carrier.shutdown(std::net::Shutdown::Both);
                                        }
                                    }
                                }
                                _ => {}
                            }
                        }
                    });
                }
            });
        });
        DroppingReplica {
            addr,
            conns,
            stop,
            acceptor: Some(acceptor),
        }
    }
}

impl Drop for DroppingReplica {
    fn drop(&mut self) {
        self.stop.store(true, std::sync::atomic::Ordering::Release);
        let _ = std::net::TcpStream::connect(self.addr); // wakes the acceptor
        for conn in self.conns.lock().unwrap_or_else(|p| p.into_inner()).iter() {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }
}

/// A connection that dies with several attempts pending on it is one
/// failure against its replica's health, as one socket fault was when
/// each attempt had a connection of its own: three attempts lost on each
/// of a replica's links leave it unquarantined, and every job fails over
/// to the other replica and ends `done`. The stand-in drops its links
/// only once every job's first attempt has reached it, so each job was
/// placed while the replica was still healthy.
#[test]
fn a_connection_lost_with_attempts_pending_is_one_health_failure() {
    let _serial = serial();
    let links = sophie_serve::router::upstream::LINKS;
    let dropping = DroppingReplica::start(3 * links);
    let server =
        Server::start(serve_config(2), sophie::default_registry(), "127.0.0.1:0").expect("replica");
    let router = Router::start(
        router_config(0),
        &[dropping.addr, server.local_addr()],
        "127.0.0.1:0",
    )
    .expect("router");
    assert!(
        links < HealthPolicy::default().quarantine_after as usize,
        "one failure per link must stay below the quarantine threshold"
    );
    let mut client = connect(router.local_addr());
    let jobs = jobs_homed_at_zero(3 * links);
    for (id, job) in &jobs {
        let admission = client.submit(id, job).expect("submit");
        assert_eq!(admission.frame_type(), Some("accepted"), "{admission}");
    }
    for (id, _) in &jobs {
        let outcome = client.wait_result(id).expect("result");
        assert_eq!(outcome.status, "done", "{}", outcome.frame);
    }
    let stats = client.stats().expect("stats");
    let replica = &stats
        .get("replicas")
        .and_then(Json::as_arr)
        .expect("replicas")[0];
    assert_eq!(
        replica.get("quarantines").and_then(Json::as_u64),
        Some(0),
        "{stats}"
    );
    assert_eq!(
        replica.get("failed").and_then(Json::as_u64),
        Some(jobs.len() as u64),
        "every lost attempt still counts as a failed dispatch: {stats}"
    );
    router.shutdown();
    server.shutdown();
}

/// A replica that completes the TCP handshake but never greets holds up
/// no job past the dial bound (`probe_timeout`): jobs placed on it fail
/// over and end `done`, a job cancelled while its dial is under way ends
/// `cancelled`, and the router still shuts down promptly. Health
/// thresholds are set out of reach so that every job tries the silent
/// replica first.
#[test]
fn a_replica_that_never_greets_holds_up_no_job() {
    let _serial = serial();
    // Never accepted: the kernel completes each handshake, and no greeting
    // ever follows.
    let silent = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let server =
        Server::start(serve_config(2), sophie::default_registry(), "127.0.0.1:0").expect("replica");
    let config = RouterConfig {
        health: HealthPolicy {
            degraded_after: 1_000,
            quarantine_after: 1_000,
            readmit_after: 1,
        },
        ..router_config(0)
    };
    let bound = config.probe_timeout;
    let router = Router::start(
        config,
        &[silent.local_addr().expect("addr"), server.local_addr()],
        "127.0.0.1:0",
    )
    .expect("router");
    let mut client = connect(router.local_addr());
    let jobs = jobs_homed_at_zero(5);
    let start = Instant::now();
    for (id, job) in &jobs[..4] {
        let admission = client.submit(id, job).expect("submit");
        assert_eq!(admission.frame_type(), Some("accepted"), "{admission}");
    }
    for (id, _) in &jobs[..4] {
        let outcome = client.wait_result(id).expect("result");
        assert_eq!(outcome.status, "done", "{}", outcome.frame);
    }
    assert!(start.elapsed() < 10 * bound, "{:?}", start.elapsed());

    let (id, job) = &jobs[4];
    let start = Instant::now();
    let admission = client.submit(id, job).expect("submit");
    assert_eq!(admission.frame_type(), Some("accepted"), "{admission}");
    assert!(client.cancel(id).expect("cancel"));
    let outcome = client.wait_result(id).expect("result");
    assert_eq!(outcome.status, "cancelled", "{}", outcome.frame);
    assert!(start.elapsed() < 4 * bound, "{:?}", start.elapsed());

    let start = Instant::now();
    router.shutdown();
    assert!(start.elapsed() < 4 * bound, "{:?}", start.elapsed());
    server.shutdown();
}

/// The router's thread model: one thread per job in flight, and `LINKS`
/// connection threads per replica whatever the load. 128 submits held in
/// flight behind a replica whose one worker is busy run on 128
/// `router-dispatch` threads and at most `LINKS` `router-link` threads.
#[test]
fn jobs_in_flight_hold_one_thread_each_over_a_fixed_set_of_link_threads() {
    let _serial = serial();
    let serve = ServeConfig {
        workers: 1,
        queue_capacity: 256,
        max_connections: 256,
        ..serve_config(1)
    };
    let cluster = LocalCluster::start(1, serve, router_config(0)).expect("cluster");
    let replica = cluster.replica_addr(0).expect("replica runs");
    let mut blocker = connect(replica);
    let mut long_job = SubmitArgs::new("sa", GraphSpec::Named("K60".into()));
    long_job.config_json = Some(r#"{"sweeps": 100000000}"#.into());
    long_job.deadline_ms = Some(60_000);
    let admission = blocker.submit("blocker", &long_job).expect("submit");
    assert_eq!(admission.frame_type(), Some("accepted"), "{admission}");
    let mut watcher = connect(replica);
    wait_stats(&mut watcher, "blocker running", |s| {
        counter(s, "in_flight") == 1
    });

    // Counted against a baseline: threads a failed test left behind are
    // not this router's.
    let dispatch_before = threads_named("router-dispatch");
    let links_before = threads_named("router-link");
    let mut client = connect(cluster.router_addr());
    let mut job = SubmitArgs::new("sa", GraphSpec::Named("K60".into()));
    job.config_json = Some(r#"{"sweeps": 2000}"#.into());
    let jobs = 128;
    for seed in 0..jobs {
        job.seed = seed;
        let admission = client.submit(&format!("q{seed}"), &job).expect("submit");
        assert_eq!(admission.frame_type(), Some("accepted"), "{admission}");
    }
    wait_stats(&mut watcher, "every routed job queued", |s| {
        counter(s, "queue_depth") == jobs
    });
    let dispatch = threads_named("router-dispatch").saturating_sub(dispatch_before);
    let links = threads_named("router-link").saturating_sub(links_before);
    assert!(
        dispatch <= jobs as usize,
        "{dispatch} dispatch threads for {jobs} jobs in flight"
    );
    assert!(
        links <= sophie_serve::router::upstream::LINKS,
        "{links} link threads for one replica"
    );

    assert!(blocker.cancel("blocker").expect("cancel"));
    for seed in 0..jobs {
        let outcome = client.wait_result(&format!("q{seed}")).expect("result");
        assert_eq!(outcome.status, "done", "{}", outcome.frame);
    }
    cluster.shutdown();
}
