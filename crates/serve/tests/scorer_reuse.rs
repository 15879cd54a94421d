//! Jobs served on one named graph share its cut scorer: the daemon keeps
//! each named graph as one `Arc<Graph>`, and a graph builds the integer
//! form its scorer sums with once, on its first job. Builds are counted
//! process-wide, which is why this test has a binary of its own.

use sophie_graph::cut::exact_builds;
use sophie_serve::{Client, GraphSpec, ServeConfig, Server, SubmitArgs};

#[test]
fn two_served_k512_jobs_build_one_scorer() {
    let handle = Server::start(
        ServeConfig::default(),
        sophie::default_registry(),
        "127.0.0.1:0",
    )
    .expect("server starts");
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    let before = exact_builds();
    let jobs = [
        ("sophie", r#"{"global_iters": 2}"#),
        ("sophie", r#"{"global_iters": 2}"#),
        ("pris", r#"{"iterations": 2}"#),
    ];
    for (seed, (solver, config)) in jobs.into_iter().enumerate() {
        let mut job = SubmitArgs::new(solver, GraphSpec::Named("K512".into()));
        job.config_json = Some(config.into());
        job.seed = seed as u64;
        let id = format!("job-{seed}");
        client.submit(&id, &job).expect("submit");
        let outcome = client.wait_result(&id).expect("result");
        assert_eq!(outcome.status, "done", "{}", outcome.frame);
        if seed == 1 {
            assert_eq!(exact_builds() - before, 1, "two sophie jobs on K512");
        }
    }
    assert_eq!(exact_builds() - before, 1, "and a pris job after them");
    drop(client);
    handle.shutdown();
}
