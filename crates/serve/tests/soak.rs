//! Soak: 10,000 jobs through a router over three replicas, then the
//! bounds a cluster that runs for days must keep.
//!
//! Eight client connections each run 1,250 jobs, at most four small jobs
//! plus one long job in flight at a time, and reconnect every
//! [`PER_CONNECTION`] jobs. Every connection submits a long job and a
//! duplicate of its id, which must be refused `duplicate_id`: half the
//! connections do so first and cancel the long job, the other half do so
//! last and close with it and their last small jobs still in flight. Ids are reused once their
//! results are in. The small jobs walk the named graphs `K20`…`K80`, with
//! some problem-typed, streamed and cache-replayed jobs among them.
//! Replica 1 is killed and restarted during the first half.
//!
//! At quiescence, after each half, the test checks:
//! * on each live replica, `accepted = completed + cancelled + failed +
//!   in_flight + queue_depth` with nothing left in flight or queued;
//! * on the router, `submitted = done + cancelled + failed + in_flight +
//!   rejected_after_accept`, with nothing in flight;
//! * `jobs_tracked` at 0 on the router and every replica, and the
//!   router's `upstream.pending` at 0;
//! * the thread count in `/proc/self/task` back at its level before the
//!   run, with a peak under [`thread_bound`];
//! * live heap after the second half within [`HEAP_SLACK`] of its level
//!   after the first.
//!
//! A counting global allocator tracks live heap bytes for this binary,
//! which holds this one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use sophie_serve::router::cache::{job_key, placement_hash};
use sophie_serve::{
    Client, GraphSpec, HealthPolicy, Json, LocalCluster, RetryPolicy, RouterConfig, ServeConfig,
    SubmitArgs,
};

struct CountingAlloc;

static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every call forwards to the system allocator unchanged; the
// counter is only bookkeeping.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const REPLICAS: usize = 3;
const CLIENTS: usize = 8;
/// Small jobs a client keeps in flight.
const DEPTH: usize = 4;
/// Jobs per client and half: 8 × 2 × 625 = 10,000.
const HALF: usize = 625;
/// Small jobs run on one connection before the client reconnects.
const PER_CONNECTION: usize = 40;
/// Live heap may grow by this much from the first half's end to the
/// second's: the router's result cache and the replicas' named graphs
/// are full after the first half, so what is left is allocator noise
/// such as map capacities and buffered frames.
const HEAP_SLACK: isize = 1 << 20;

/// Threads the run may add at its peak over the level before it: per
/// client, its own thread and the router's connection thread, and for
/// each job it keeps in flight (four small and one long) three threads,
/// which is what a router spending a dispatch thread, an attempt thread
/// and a replica connection on each job needs, doubled because a
/// finished thread lingers in `/proc/self/task` for a moment; plus the
/// sampling thread and a restarted replica's start-up overlap.
fn thread_bound(before: usize) -> usize {
    let serve = ServeConfig::default();
    before + CLIENTS * (2 + 2 * 3 * (DEPTH + 1)) + 1 + serve.workers + 2
}

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(0, Iterator::count)
}

fn counter(stats: &Json, key: &str) -> u64 {
    stats.get(key).and_then(Json::as_u64).unwrap_or(u64::MAX)
}

fn connect(addr: std::net::SocketAddr) -> Client {
    let mut client = Client::connect(addr).expect("connect");
    // A backstop so a lost frame fails the test instead of hanging it.
    client
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("set timeout");
    client
}

/// Polls `client`'s `stats` until `pred` holds.
fn wait_stats(client: &mut Client, what: &str, pred: impl Fn(&Json) -> bool) -> Json {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = client.stats().expect("stats");
        if pred(&stats) {
            return stats;
        }
        assert!(Instant::now() < deadline, "{what} not reached: {stats}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Small job `n` of client `c`: a walk over `K20`…`K80`, every 25th a
/// problem-typed job, every 50th a streamed one, every 10th a repeat
/// the router's cache can replay.
fn small_job(c: usize, n: usize) -> SubmitArgs {
    if n % 50 == 7 {
        let mut job = SubmitArgs::new("sophie", GraphSpec::Named("K20".into()));
        job.stream = true;
        job.seed = (c * 100_000 + n) as u64;
        job.config_json = Some(r#"{"global_iters": 2, "tile_size": 10, "local_iters": 2}"#.into());
        return job;
    }
    let mut job = if n % 25 == 3 {
        let payload = format!(r#"{{"kind":"qubo","random":{{"n":24,"density":0.25,"seed":{n}}}}}"#);
        SubmitArgs::for_problem("sa", &payload)
    } else {
        let graph = format!("K{}", 20 + (n * 7 + c) % 61);
        SubmitArgs::new("sa", GraphSpec::Named(graph))
    };
    job.seed = if n % 10 == 5 {
        (n % 30) as u64
    } else {
        (c * 100_000 + n) as u64
    };
    job.config_json = Some(r#"{"sweeps": 20}"#.into());
    job
}

fn long_job(seed: u64) -> SubmitArgs {
    let mut job = SubmitArgs::new("sa", GraphSpec::Named("K60".into()));
    job.seed = seed;
    job.config_json = Some(r#"{"sweeps": 100000000}"#.into());
    // A backstop: a cancellation bug cannot run it for ever.
    job.deadline_ms = Some(30_000);
    job
}

/// One client's half: connections of [`PER_CONNECTION`] small jobs each.
fn run_client(addr: std::net::SocketAddr, c: usize, half: usize, done: &AtomicUsize) {
    let mut n = half * HALF;
    let end = n + HALF;
    let mut incarnation = half * 100;
    while n < end {
        incarnation += 1;
        let mut client = connect(addr);
        // Odd connections close with their long job in flight; even ones
        // cancel it at once. Either way it holds a worker only briefly.
        let keep_long = incarnation % 2 == 1;
        if !keep_long {
            submit_long_and_a_duplicate(&mut client, incarnation);
            assert!(client.cancel("long").expect("cancel"));
            let outcome = client.wait_result("long").expect("long result");
            assert_eq!(outcome.status, "cancelled", "{}", outcome.frame);
        }
        let stop = end.min(n + PER_CONNECTION);
        let mut in_flight: std::collections::VecDeque<(String, bool)> = Default::default();
        while n < stop {
            let id = format!("j{}", n % (DEPTH + 1));
            let job = small_job(c, n);
            let admission = client.submit(&id, &job).expect("submit");
            assert_eq!(admission.frame_type(), Some("accepted"), "{admission}");
            in_flight.push_back((id, job.stream));
            n += 1;
            // Drop a connection with its last jobs still in flight.
            let leave = keep_long && n == stop;
            while in_flight.len() >= DEPTH || (n == stop && !leave && !in_flight.is_empty()) {
                let (id, streamed) = in_flight.pop_front().expect("a job in flight");
                let outcome = client.wait_result(&id).expect("result");
                assert_eq!(outcome.status, "done", "{}", outcome.frame);
                assert_eq!(!outcome.events.is_empty(), streamed, "{}", outcome.frame);
                done.fetch_add(1, Ordering::Relaxed);
            }
        }
        if keep_long {
            submit_long_and_a_duplicate(&mut client, incarnation);
        }
        drop(client);
    }
}

/// Submits connection `incarnation`'s long job, then the same id again,
/// which must be refused while the first is in flight.
fn submit_long_and_a_duplicate(client: &mut Client, incarnation: usize) {
    let job = long_job(incarnation as u64);
    let long = client.submit("long", &job).expect("submit long");
    assert_eq!(long.frame_type(), Some("accepted"), "{long}");
    let dup = client.submit("long", &job).expect("submit duplicate");
    assert_eq!(
        dup.get("reason").and_then(Json::as_str),
        Some("duplicate_id"),
        "{dup}"
    );
}

/// Eight jobs whose home is each replica, all in flight at once, and a
/// `sophie` job: every replica connection a router keeps is dialled, and
/// the solver thread pool started, before the baseline is read, and the
/// connections again before the final count.
fn warm(cluster: &LocalCluster, seed_base: u64) {
    let mut client = connect(cluster.router_addr());
    let mut homes = [0usize; REPLICAS];
    let mut ids = Vec::new();
    for seed in seed_base.. {
        if homes.iter().all(|&h| h >= 8) {
            break;
        }
        let mut job = SubmitArgs::new("sa", GraphSpec::Named("K60".into()));
        job.seed = seed;
        job.config_json = Some(r#"{"sweeps": 2000}"#.into());
        let frame = job.to_frame("w");
        let home = match sophie_serve::protocol::parse_request(&frame).expect("parse") {
            sophie_serve::Request::Submit(req) => {
                (placement_hash(&job_key(&req)) % REPLICAS as u64) as usize
            }
            other => panic!("expected a submit, got {other:?}"),
        };
        if homes[home] >= 8 {
            continue;
        }
        homes[home] += 1;
        let id = format!("w{seed}");
        let admission = client.submit(&id, &job).expect("submit");
        assert_eq!(admission.frame_type(), Some("accepted"), "{admission}");
        ids.push(id);
    }
    // A `sophie` job starts the process's solver thread pool.
    let sophie = small_job(0, 7);
    client.submit("pool", &sophie).expect("submit");
    ids.push("pool".to_string());
    for id in ids {
        let outcome = client.wait_result(&id).expect("warm-up result");
        assert_eq!(outcome.status, "done", "{}", outcome.frame);
    }
}

/// Waits until the cluster is idle, then checks both conservation laws
/// and the map sizes.
fn check_quiescent(cluster: &LocalCluster, what: &str) {
    let mut router = connect(cluster.router_addr());
    let stats = wait_stats(&mut router, what, |s| {
        counter(s, "in_flight") == 0
            && counter(s, "jobs_tracked") == 0
            && s.get("upstream")
                .and_then(|u| u.get("pending"))
                .and_then(Json::as_u64)
                == Some(0)
    });
    assert_eq!(
        counter(&stats, "submitted"),
        counter(&stats, "done")
            + counter(&stats, "cancelled")
            + counter(&stats, "failed")
            + counter(&stats, "rejected_after_accept"),
        "{what}: router law: {stats}"
    );
    assert_eq!(counter(&stats, "failed"), 0, "{what}: {stats}");
    for index in 0..REPLICAS {
        let Some(addr) = cluster.replica_addr(index) else {
            continue;
        };
        let mut replica = connect(addr);
        let stats = wait_stats(&mut replica, what, |s| {
            counter(s, "in_flight") == 0
                && counter(s, "queue_depth") == 0
                && counter(s, "jobs_tracked") == 0
        });
        assert_eq!(
            counter(&stats, "accepted"),
            counter(&stats, "completed") + counter(&stats, "cancelled") + counter(&stats, "failed"),
            "{what}: replica {index} law: {stats}"
        );
    }
}

/// Waits for the thread count to fall back to `level`.
fn settle_threads(level: usize, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while threads() > level {
        assert!(
            Instant::now() < deadline,
            "{what}: {} threads, {level} before the run",
            threads()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn ten_thousand_jobs_leave_counters_maps_threads_and_heap_bounded() {
    let serve = ServeConfig {
        // A router that holds one replica connection per job in flight
        // needs more than the default 32 here.
        max_connections: 128,
        ..ServeConfig::default()
    };
    let router = RouterConfig {
        probe_interval: Duration::from_millis(50),
        probe_timeout: Duration::from_millis(500),
        health: HealthPolicy::default(),
        retry: RetryPolicy {
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(50),
            max_attempts: 6,
            ..RetryPolicy::default()
        },
        ..RouterConfig::default()
    };
    let mut cluster = LocalCluster::start(REPLICAS, serve, router).expect("cluster");
    let addr = cluster.router_addr();
    warm(&cluster, 1_000_000);
    check_quiescent(&cluster, "before the run");
    std::thread::sleep(Duration::from_millis(100));
    let before = threads();

    let done = Arc::new(AtomicUsize::new(0));
    let sampling = Arc::new(AtomicBool::new(true));
    let peak = Arc::new(AtomicUsize::new(0));
    let sampler = {
        let (sampling, peak) = (Arc::clone(&sampling), Arc::clone(&peak));
        std::thread::spawn(move || {
            while sampling.load(Ordering::Relaxed) {
                peak.fetch_max(threads(), Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(2));
            }
        })
    };
    // Clients meet the main thread at each half's end (twice) and before
    // the second half starts.
    let halfway = Arc::new(Barrier::new(CLIENTS + 1));
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let (done, halfway) = (Arc::clone(&done), Arc::clone(&halfway));
            std::thread::spawn(move || {
                for half in 0..2 {
                    run_client(addr, c, half, &done);
                    halfway.wait();
                    if half == 0 {
                        halfway.wait();
                    }
                }
            })
        })
        .collect();

    // Replica 1 dies with jobs on it, then comes back on a new port.
    while done.load(Ordering::Relaxed) < 1_500 {
        std::thread::sleep(Duration::from_millis(5));
    }
    cluster.kill(1);
    while done.load(Ordering::Relaxed) < 2_500 {
        std::thread::sleep(Duration::from_millis(5));
    }
    cluster.restart(1).expect("restart replica 1");

    halfway.wait();
    check_quiescent(&cluster, "after the first half");
    let first_half_heap = LIVE_BYTES.load(Ordering::Relaxed);
    halfway.wait();
    halfway.wait();
    for client in clients {
        client.join().expect("client thread");
    }
    check_quiescent(&cluster, "after the second half");
    let second_half_heap = LIVE_BYTES.load(Ordering::Relaxed);
    sampling.store(false, Ordering::Relaxed);
    sampler.join().expect("sampler");

    let mut router = connect(addr);
    let stats = router.stats().expect("stats");
    assert!(
        counter(&stats, "submitted") >= 10_000,
        "{} jobs submitted: {stats}",
        counter(&stats, "submitted")
    );
    assert!(counter(&stats, "cache_hits") > 0, "{stats}");
    assert!(counter(&stats, "cancelled") > 0, "{stats}");
    assert!(
        counter(&stats, "retries") > 0,
        "the kill forced no retry: {stats}"
    );
    drop(router);

    let peak = peak.load(Ordering::Relaxed);
    let bound = thread_bound(before);
    assert!(peak <= bound, "{peak} threads at the peak, bound {bound}");
    warm(&cluster, 2_000_000);
    check_quiescent(&cluster, "after the final warm-up");
    settle_threads(before, "after the run");

    let growth = second_half_heap - first_half_heap;
    assert!(
        growth <= HEAP_SLACK,
        "live heap grew {growth} bytes over the second half ({first_half_heap} → {second_half_heap})"
    );
    eprintln!(
        "soak: {} threads before, peak {peak} (bound {bound}); heap {first_half_heap} → \
         {second_half_heap} bytes",
        before
    );
    cluster.shutdown();
}
