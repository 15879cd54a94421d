//! End-to-end daemon test over real localhost TCP.
//!
//! One server, concurrent clients, heterogeneous solvers: a long SA job
//! cancelled mid-run, a queued job that completes after the cancel frees
//! the worker, a submit rejected by the full admission queue, a streaming
//! SOPHIE job whose event frames arrive before its result, and a
//! graceful shutdown whose final stats counters account for every job.
//! Also: counters settled before each result, the connection cap, and a
//! prompt shutdown on an unspecified bind address.

use std::time::{Duration, Instant};

use sophie_serve::{Client, ClientError, GraphSpec, Json, ServeConfig, Server, SubmitArgs};

fn start_server(queue_capacity: usize, workers: usize) -> sophie_serve::ServerHandle {
    let config = ServeConfig {
        queue_capacity,
        workers,
        max_connections: 8,
        ..ServeConfig::default()
    };
    Server::start(config, sophie::default_registry(), "127.0.0.1:0").expect("server starts")
}

/// Polls `stats` until `pred` holds (daemon state transitions are
/// asynchronous; tests must wait for them, not assume them).
fn wait_stats(client: &mut Client, pred: impl Fn(&Json) -> bool) -> Json {
    for _ in 0..600 {
        let stats = client.stats().expect("stats");
        if pred(&stats) {
            return stats;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("stats condition not reached within 6s");
}

fn counter(stats: &Json, key: &str) -> u64 {
    stats.get(key).and_then(Json::as_u64).unwrap_or(u64::MAX)
}

#[test]
fn full_service_lifecycle_over_tcp() {
    let server = start_server(/* queue */ 1, /* workers */ 1);
    let addr = server.local_addr();

    let mut alice = Client::connect(addr).expect("alice connects");
    let mut bob = Client::connect(addr).expect("bob connects");

    // Protocol greeting names every registered solver.
    let solvers = alice.list_solvers().expect("list-solvers");
    let names: Vec<&str> = solvers
        .get("solvers")
        .and_then(Json::as_arr)
        .expect("solvers array")
        .iter()
        .map(|s| s.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(
        names,
        vec!["bls", "pris", "pt", "sa", "sb", "sophie", "sophie-opcm"]
    );
    alice.ping().expect("ping");

    // Job 1 (alice): an SA run far too long to finish, to be cancelled
    // mid-run. The deadline is a backstop so a cancellation bug cannot
    // hang the test forever.
    let mut long_job = SubmitArgs::new("sa", GraphSpec::Named("K60".into()));
    long_job.config_json = Some(r#"{"sweeps": 100000000}"#.into());
    long_job.deadline_ms = Some(30_000);
    long_job.seed = 1;
    let admission = alice.submit("long", &long_job).expect("submit long");
    assert_eq!(
        admission.get("type").and_then(Json::as_str),
        Some("accepted")
    );

    // Wait until it is actually executing so the next two submissions
    // deterministically hit the queue (capacity 1) and then the rejection.
    wait_stats(&mut bob, |s| counter(s, "in_flight") == 1);

    // Job 2 (alice): queued behind the long job.
    let mut quick = SubmitArgs::new("sa", GraphSpec::Inline("3 2\n1 2 1\n2 3 1\n".into()));
    quick.config_json = Some(r#"{"sweeps": 20}"#.into());
    let admission = alice.submit("quick", &quick).expect("submit quick");
    assert_eq!(
        admission.get("type").and_then(Json::as_str),
        Some("accepted")
    );

    // Job 3 (bob): the queue (capacity 1) is full — typed rejection.
    let rejected = bob.submit("overflow", &quick).expect("submit overflow");
    assert_eq!(
        rejected.get("type").and_then(Json::as_str),
        Some("rejected")
    );
    assert_eq!(
        rejected.get("reason").and_then(Json::as_str),
        Some("queue_full")
    );

    // Cancel the long job mid-run; cooperative cancellation stops the
    // solver within one sweep.
    assert!(alice.cancel("long").expect("cancel long"));
    let outcome = alice.wait_result("long").expect("long result");
    assert_eq!(outcome.status, "cancelled");
    let report = outcome.frame.get("report").expect("report");
    let planned = report
        .get("planned_iterations")
        .and_then(Json::as_u64)
        .unwrap();
    let ran = report.get("iterations_run").and_then(Json::as_u64).unwrap();
    assert!(
        ran < planned,
        "cancelled run must stop early ({ran} of {planned})"
    );

    // The queued job now runs to completion.
    let outcome = alice.wait_result("quick").expect("quick result");
    assert_eq!(outcome.status, "done");
    assert_eq!(
        outcome
            .frame
            .get("report")
            .and_then(|r| r.get("best_cut"))
            .and_then(Json::as_f64),
        Some(2.0)
    );

    // Job 4 (bob): streaming SOPHIE job — heterogeneous solver, event
    // frames precede the result and carry the engine's event vocabulary.
    let mut streaming = SubmitArgs::new("sophie", GraphSpec::Named("K40".into()));
    streaming.stream = true;
    streaming.config_json =
        Some(r#"{"global_iters": 4, "tile_size": 20, "local_iters": 2}"#.into());
    streaming.seed = 3;
    let admission = bob.submit("stream", &streaming).expect("submit stream");
    assert_eq!(
        admission.get("type").and_then(Json::as_str),
        Some("accepted")
    );
    let outcome = bob.wait_result("stream").expect("stream result");
    assert_eq!(outcome.status, "done");
    assert!(!outcome.events.is_empty(), "streaming job must emit events");
    let kinds: Vec<&str> = outcome
        .events
        .iter()
        .map(|e| {
            e.get("event")
                .and_then(|ev| ev.get("event"))
                .and_then(Json::as_str)
                .expect("event kind")
        })
        .collect();
    assert_eq!(kinds.first(), Some(&"run_started"));
    assert_eq!(kinds.last(), Some(&"run_finished"));
    assert!(kinds.contains(&"global_sync"));

    // A malformed request gets a typed error frame, not a dropped
    // connection.
    bob.send_line(r#"{"cmd":"submit","id":"bad","solver":"sa"}"#)
        .expect("send malformed");
    let err = bob.read_frame().expect("error frame");
    assert_eq!(err.get("type").and_then(Json::as_str), Some("error"));

    // Final counters: 3 accepted (long, quick, stream), 1 completed +
    // 1 via quick = 2 done, 1 cancelled, 1 rejected.
    let stats = wait_stats(&mut bob, |s| {
        counter(s, "in_flight") == 0 && counter(s, "queue_depth") == 0
    });
    assert_eq!(counter(&stats, "accepted"), 3);
    assert_eq!(counter(&stats, "completed"), 2);
    assert_eq!(counter(&stats, "cancelled"), 1);
    assert_eq!(counter(&stats, "rejected"), 1);
    assert_eq!(counter(&stats, "failed"), 0);
    let sa_latency = stats
        .get("latency_ms")
        .and_then(|l| l.get("sa"))
        .expect("sa latency bucket");
    assert_eq!(sa_latency.get("count").and_then(Json::as_u64), Some(1));

    // Graceful shutdown via the protocol; join() returns only after full
    // teardown.
    bob.shutdown().expect("shutdown ack");
    server.join();

    // The daemon is really gone.
    assert!(Client::connect(addr).is_err());
}

#[test]
fn connection_drop_cancels_in_flight_jobs() {
    let server = start_server(4, 1);
    let addr = server.local_addr();

    let mut doomed = Client::connect(addr).expect("doomed connects");
    let mut watcher = Client::connect(addr).expect("watcher connects");

    let mut long_job = SubmitArgs::new("sa", GraphSpec::Named("K60".into()));
    long_job.config_json = Some(r#"{"sweeps": 100000000}"#.into());
    long_job.deadline_ms = Some(30_000);
    let admission = doomed.submit("orphan", &long_job).expect("submit");
    assert_eq!(
        admission.get("type").and_then(Json::as_str),
        Some("accepted")
    );
    wait_stats(&mut watcher, |s| counter(s, "in_flight") == 1);

    // Drop the submitting connection; the server cancels its jobs.
    drop(doomed);
    let stats = wait_stats(&mut watcher, |s| counter(s, "in_flight") == 0);
    assert_eq!(counter(&stats, "cancelled"), 1);

    server.shutdown();
}

#[test]
fn shutdown_fails_queued_jobs_and_rejects_new_ones() {
    let server = start_server(8, 1);
    let addr = server.local_addr();

    let mut client = Client::connect(addr).expect("connect");
    let mut long_job = SubmitArgs::new("sa", GraphSpec::Named("K60".into()));
    long_job.config_json = Some(r#"{"sweeps": 100000000}"#.into());
    long_job.deadline_ms = Some(30_000);
    client.submit("running", &long_job).expect("submit running");
    let mut queued_job = SubmitArgs::new("sa", GraphSpec::Named("K40".into()));
    queued_job.config_json = Some(r#"{"sweeps": 100000000}"#.into());
    queued_job.deadline_ms = Some(30_000);
    let mut sidecar = Client::connect(addr).expect("sidecar connects");
    wait_stats(&mut sidecar, |s| counter(s, "in_flight") == 1);
    client.submit("parked", &queued_job).expect("submit parked");

    // Trigger shutdown from the sidecar; the parked job is failed as
    // cancelled without running, the running one is cancelled
    // cooperatively, and the daemon tears down.
    sidecar.shutdown().expect("shutdown ack");
    let running = client.wait_result("running").expect("running result");
    assert_eq!(running.status, "cancelled");
    let parked = client.wait_result("parked").expect("parked result");
    assert_eq!(parked.status, "cancelled");
    assert_eq!(parked.frame.get("report"), Some(&Json::Null));
    server.join();
}

#[test]
fn problem_submits_return_decoded_metrics() {
    let server = start_server(8, 2);
    let addr = server.local_addr();
    let mut client = Client::connect(addr).expect("connect");

    // list-solvers advertises the problem-compiler capability list.
    let solvers = client.list_solvers().expect("list-solvers");
    let kinds: Vec<&str> = solvers
        .get("problems")
        .and_then(Json::as_arr)
        .expect("problems array")
        .iter()
        .map(|k| k.as_str().unwrap())
        .collect();
    assert_eq!(kinds, vec!["qubo", "max-cut", "coloring", "ldpc"]);

    // One small instance per front end; SA with enough sweeps to reach a
    // feasible decode on instances this small.
    let cases = [
        (
            "qubo",
            r#"{"kind":"qubo","random":{"n":12,"density":0.4,"seed":3}}"#,
        ),
        (
            "max-cut",
            r#"{"kind":"max-cut","random":{"n":12,"m":30,"seed":3}}"#,
        ),
        (
            "coloring",
            r#"{"kind":"coloring","random":{"nodes":8,"edges":14,"colors":4,"seed":3}}"#,
        ),
        (
            "ldpc",
            r#"{"kind":"ldpc","random":{"n":12,"wc":2,"wr":3,"flips":1,"seed":3}}"#,
        ),
    ];
    for (kind, payload) in cases {
        let mut job = SubmitArgs::for_problem("sa", payload);
        job.seed = 5;
        job.config_json = Some(r#"{"sweeps": 4000}"#.into());
        let id = format!("p-{kind}");
        let admission = client.submit(&id, &job).expect("submit problem");
        assert_eq!(
            admission.get("type").and_then(Json::as_str),
            Some("accepted"),
            "{kind}"
        );
        let outcome = client.wait_result(&id).expect("problem result");
        assert_eq!(outcome.status, "done", "{kind}");
        let report = outcome.frame.get("report").expect("report");
        let problem = report.get("problem").unwrap_or_else(|| {
            panic!(
                "{kind}: result report carries no problem block: {}",
                outcome.frame
            )
        });
        assert_eq!(problem.get("kind").and_then(Json::as_str), Some(kind));
        match kind {
            "qubo" => assert!(problem.get("objective").and_then(Json::as_f64).is_some()),
            "max-cut" => assert!(problem.get("cut").and_then(Json::as_f64).is_some()),
            "coloring" | "ldpc" => {
                assert_eq!(
                    problem.get("feasible").and_then(Json::as_bool),
                    Some(true),
                    "{kind}: SA should find a feasible state on a tiny instance: {problem:?}"
                );
            }
            _ => unreachable!(),
        }
    }

    // A problem-units target is translated to the cut scale: asking for
    // objective 0 on a colorable instance converges early.
    let mut targeted = SubmitArgs::for_problem(
        "sa",
        r#"{"kind":"coloring","random":{"nodes":8,"edges":14,"colors":4,"seed":3}}"#,
    );
    targeted.seed = 5;
    targeted.target = Some(0.0);
    targeted.config_json = Some(r#"{"sweeps": 4000}"#.into());
    client
        .submit("targeted", &targeted)
        .expect("submit targeted");
    let outcome = client.wait_result("targeted").expect("targeted result");
    assert_eq!(outcome.status, "done");
    let report = outcome.frame.get("report").expect("report");
    assert!(
        report
            .get("iterations_to_target")
            .and_then(Json::as_u64)
            .is_some(),
        "feasibility target should be reached: {report:?}"
    );

    server.shutdown();
}

#[test]
fn named_complete_graphs_obey_the_edge_cap() {
    let server = start_server(8, 1);
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // K4096 is within the node cap (4096) but has ~8.4 M edges, above the
    // default edge cap (1 M): rejected before anything is generated.
    let mut huge = SubmitArgs::new("sa", GraphSpec::Named("K4096".into()));
    huge.config_json = Some(r#"{"sweeps": 1}"#.into());
    let err = client.submit("huge", &huge).expect("submit huge");
    assert_eq!(err.get("type").and_then(Json::as_str), Some("error"));
    let message = err.get("message").and_then(Json::as_str).unwrap();
    assert!(message.contains("edges"), "{message}");

    let mut k512 = SubmitArgs::new("sa", GraphSpec::Named("K512".into()));
    k512.config_json = Some(r#"{"sweeps": 1}"#.into());
    let admission = client.submit("k512", &k512).expect("submit K512");
    assert_eq!(
        admission.get("type").and_then(Json::as_str),
        Some("accepted")
    );
    assert_eq!(
        client.wait_result("k512").expect("K512 result").status,
        "done"
    );

    server.shutdown();
}

#[test]
fn sophie_tile_size_obeys_the_node_cap() {
    let config = ServeConfig {
        queue_capacity: 8,
        workers: 1,
        max_connections: 8,
        max_instance_nodes: 64,
        ..ServeConfig::default()
    };
    let server =
        Server::start(config, sophie::default_registry(), "127.0.0.1:0").expect("server starts");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // No admitted instance has more than 64 nodes, so a wider tile is only
    // padding, t² weights of it: refused at admission, before any tiling.
    for solver in ["sophie", "sophie-opcm"] {
        let mut wide = SubmitArgs::new(solver, GraphSpec::Named("K20".into()));
        wide.config_json = Some(r#"{"tile_size": 65, "global_iters": 1}"#.into());
        let id = format!("wide-{solver}");
        let err = client.submit(&id, &wide).expect("submit wide tile");
        assert_eq!(err.frame_type(), Some("error"), "{solver}");
        let message = err.get("message").and_then(Json::as_str).unwrap();
        assert!(
            message.contains("tile_size") && message.contains("64"),
            "{message}"
        );
    }

    let mut at_cap = SubmitArgs::new("sophie", GraphSpec::Named("K20".into()));
    at_cap.config_json = Some(r#"{"tile_size": 64, "global_iters": 1}"#.into());
    let admission = client.submit("at-cap", &at_cap).expect("submit tile 64");
    assert_eq!(admission.frame_type(), Some("accepted"));
    assert_eq!(client.wait_result("at-cap").expect("result").status, "done");

    // The daemon still serves a later job.
    let mut later = SubmitArgs::new("sa", GraphSpec::Named("K20".into()));
    later.config_json = Some(r#"{"sweeps": 5}"#.into());
    let admission = client.submit("later", &later).expect("submit later");
    assert_eq!(admission.frame_type(), Some("accepted"));
    assert_eq!(client.wait_result("later").expect("result").status, "done");
    assert_eq!(counter(&client.stats().expect("stats"), "completed"), 2);

    server.shutdown();
}

#[test]
fn duplicate_in_flight_id_is_rejected_and_free_again_after_its_result() {
    let server = start_server(4, 1);
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let mut long_job = SubmitArgs::new("sa", GraphSpec::Named("K60".into()));
    long_job.config_json = Some(r#"{"sweeps": 100000000}"#.into());
    long_job.deadline_ms = Some(30_000);
    let admission = client.submit("dup", &long_job).expect("submit");
    assert_eq!(admission.frame_type(), Some("accepted"));

    // Reusing the id while the first job runs is a typed rejection, not a
    // silent overwrite of the first job's cancel token.
    let admission = client.submit("dup", &long_job).expect("resubmit");
    assert_eq!(admission.frame_type(), Some("rejected"));
    assert_eq!(
        admission.get("reason").and_then(Json::as_str),
        Some("duplicate_id")
    );
    assert_eq!(counter(&client.stats().expect("stats"), "rejected"), 1);

    // The first job is still tracked: cancel finds it and ends it.
    assert!(
        client.cancel("dup").expect("cancel"),
        "cancel must find the first job"
    );
    assert_eq!(
        client.wait_result("dup").expect("result").status,
        "cancelled"
    );

    // Once its result is out, the id is free again.
    let mut quick = SubmitArgs::new("sa", GraphSpec::Named("K20".into()));
    quick.config_json = Some(r#"{"sweeps": 5}"#.into());
    let admission = client.submit("dup", &quick).expect("reuse");
    assert_eq!(admission.frame_type(), Some("accepted"));
    assert_eq!(client.wait_result("dup").expect("result").status, "done");

    server.shutdown();
}

#[test]
fn counters_settle_before_each_result_frame() {
    let server = start_server(4, 1);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let mut watcher = Client::connect(server.local_addr()).expect("watcher connects");
    let mut job = SubmitArgs::new("sa", GraphSpec::Named("K4".into()));
    job.config_json = Some(r#"{"sweeps": 2}"#.into());
    for i in 0..200 {
        let admission = client.submit("job", &job).expect("submit");
        assert_eq!(admission.frame_type(), Some("accepted"), "job {i}");
        assert_eq!(client.wait_result("job").expect("result").status, "done");
        // The job gave back its in-flight count before its result frame.
        let stats = watcher.stats().expect("stats");
        assert_eq!(counter(&stats, "in_flight"), 0, "job {i}: {stats}");
        assert_eq!(counter(&stats, "queue_depth"), 0, "job {i}: {stats}");
        assert_eq!(
            counter(&stats, "accepted"),
            counter(&stats, "completed") + counter(&stats, "cancelled") + counter(&stats, "failed"),
            "job {i}: {stats}"
        );
    }
    server.shutdown();
}

#[test]
fn a_third_connection_past_a_cap_of_two_is_refused_and_counted() {
    let config = ServeConfig {
        max_connections: 2,
        ..ServeConfig::default()
    };
    let server = Server::start(config, sophie::default_registry(), "127.0.0.1:0").expect("starts");
    let addr = server.local_addr();
    let first = Client::connect(addr).expect("first connects");
    let mut second = Client::connect(addr).expect("second connects");
    match Client::connect(addr) {
        Err(ClientError::Rejected { reason }) => assert_eq!(reason, "too_many_connections"),
        other => panic!("third connection: {:?}", other.map(|_| "accepted")),
    }
    assert_eq!(counter(&second.stats().expect("stats"), "rejected"), 1);

    // Once one of the two closes, its slot is free again. The server
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
    server.shutdown();
}

#[test]
fn a_daemon_on_an_unspecified_address_shuts_down_within_a_second() {
    let server = Server::start(
        ServeConfig::default(),
        sophie::default_registry(),
        "0.0.0.0:0",
    )
    .expect("starts");
    let port = server.local_addr().port();
    let mut client = Client::connect(("127.0.0.1", port)).expect("connect");
    client.ping().expect("ping");
    let start = Instant::now();
    server.shutdown();
    let took = start.elapsed();
    assert!(took < Duration::from_secs(1), "shutdown took {took:?}");
}
