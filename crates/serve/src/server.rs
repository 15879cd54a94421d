//! The solve daemon: acceptor, connection threads, and job workers.
//!
//! # Thread model
//!
//! All concurrency is hand-rolled on `std` threads and channels — the
//! build environment vendors no async runtime, and none is needed:
//!
//! * one **supervisor** thread owns the (non-blocking) listener, accepts
//!   connections, and performs the teardown sequence on shutdown;
//! * one **connection thread** per client reads request lines, performs
//!   admission (graph resolution, solver construction, queue push), and
//!   answers control commands; writes to the shared socket writer are
//!   serialized through a mutex so frames never interleave;
//! * `workers` **worker threads** block on the admission queue and run
//!   jobs; streaming jobs get a socket-backed
//!   [`FnObserver`] sink that emits `event`
//!   frames as the solver produces them.
//!
//! The admitted-frame guarantee: the connection thread holds the writer
//! lock across queue push *and* `accepted` write, so a worker can never
//! emit this job's `result` before the client saw `accepted`.
//!
//! # Shutdown
//!
//! `shutdown` (the protocol command, or [`ServerHandle::shutdown`])
//! closes the admission queue — queued jobs get `cancelled` results
//! without running — cancels every in-flight job's token (solvers wind
//! down within one iteration), joins the workers, then shuts every client
//! socket down and joins the connection threads. The build environment
//! has no signal-handling crate, so SIGINT is *not* trapped; the protocol
//! command is the one graceful path.

use std::collections::{BTreeMap, HashMap};
use std::io::{BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sophie_graph::generate::presets;
use sophie_graph::io::{read_graph_limited, ParseLimits};
use sophie_graph::Graph;
use sophie_solve::{
    CancelToken, FnObserver, JobBudget, Json, NullObserver, SolveJob, SolveReport, Solver,
    SolverRegistry,
};

use sophie::problems::{IsingInstance, ProblemSpec};

use crate::config::ServeConfig;
use crate::configs::build_solver;
use crate::conn::{Conn, ConnTracker};
use crate::error::{Result, ServeError};
use crate::metrics::Metrics;
use crate::problems::compile_problem;
use crate::protocol::{
    accepted_frame, bare_frame, cancel_ok_frame, error_frame, event_frame, failed_frame,
    hello_frame, parse_request, read_line_bounded, rejected_frame, result_frame, GraphSpec,
    Request, SubmitRequest,
};
use crate::queue::{AdmissionQueue, PushError};

/// A job admitted to the queue, carrying everything a worker needs.
struct QueuedJob {
    request: SubmitRequest,
    graph: Arc<Graph>,
    /// Set for `problem`-typed submits: the compiled spec + instance the
    /// worker decodes the winning state through.
    problem: Option<(ProblemSpec, IsingInstance)>,
    solver: Arc<dyn Solver>,
    cancel: CancelToken,
    conn: Arc<Conn>,
    /// The submitting connection's in-flight jobs, which this one leaves
    /// when it ends.
    conn_jobs: Arc<ConnJobs>,
    submitted_at: Instant,
}

impl QueuedJob {
    /// Writes the job's final frame, after taking the job out of its
    /// connection's map: a client that reuses the id once it has read this
    /// frame must not be told `duplicate_id`.
    fn send_final(&self, frame: &str) {
        self.conn_jobs.finish(&self.request.id);
        self.conn.send(frame);
    }
}

/// One connection's in-flight jobs by client id. `cancel` finds a job
/// here and dropping the connection cancels every job still here. A job
/// enters before it is queued and leaves before its final frame is
/// written, so the map holds only live jobs and an id is free again once
/// its result has been sent.
#[derive(Default)]
struct ConnJobs(Mutex<HashMap<String, CancelToken>>);

impl ConnJobs {
    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<String, CancelToken>> {
        self.0.lock().expect("conn jobs lock")
    }

    fn contains(&self, id: &str) -> bool {
        self.lock().contains_key(id)
    }

    fn insert(&self, id: &str, token: CancelToken) {
        self.lock().insert(id.to_string(), token);
    }

    fn finish(&self, id: &str) {
        self.lock().remove(id);
    }

    /// Cancels job `id`; returns whether it was in flight.
    fn cancel(&self, id: &str) -> bool {
        self.lock().get(id).map(CancelToken::cancel).is_some()
    }

    fn cancel_all(&self) {
        for token in self.lock().values() {
            token.cancel();
        }
    }
}

/// State shared by every thread of one daemon.
struct Shared {
    config: ServeConfig,
    registry: SolverRegistry,
    metrics: Metrics,
    queue: AdmissionQueue<QueuedJob>,
    shutdown: AtomicBool,
    conn_count: AtomicUsize,
    job_serial: AtomicU64,
    /// Cancel tokens of jobs currently executing, keyed by a worker-side
    /// serial; shutdown cancels them all.
    active: Mutex<HashMap<u64, CancelToken>>,
    /// Named-instance cache: each name is generated once per daemon, and
    /// its shared `Arc` lets the registry's transform cache confirm hits
    /// by identity instead of comparing edges.
    graphs: Mutex<BTreeMap<String, Arc<Graph>>>,
    /// Live connections, swept and joined by the supervisor at teardown.
    conns: ConnTracker,
}

/// Entry point: binds and runs a daemon in background threads.
pub struct Server;

/// A running daemon. Dropping the handle does *not* stop the server; call
/// [`ServerHandle::shutdown`] (or send the protocol command and
/// [`ServerHandle::join`]).
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    supervisor: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts the daemon with `registry`'s solvers.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadConfig`] if `config` fails validation,
    /// [`ServeError::Io`] if the bind fails.
    pub fn start(
        config: ServeConfig,
        registry: SolverRegistry,
        addr: impl ToSocketAddrs,
    ) -> Result<ServerHandle> {
        config.validate()?;
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            queue: AdmissionQueue::new(config.queue_capacity),
            config,
            registry,
            metrics: Metrics::new(),
            shutdown: AtomicBool::new(false),
            conn_count: AtomicUsize::new(0),
            job_serial: AtomicU64::new(0),
            active: Mutex::new(HashMap::new()),
            graphs: Mutex::new(BTreeMap::new()),
            conns: ConnTracker::default(),
        });
        let workers: Vec<JoinHandle<()>> = (0..config.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker")
            })
            .collect();
        let supervisor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("serve-supervisor".into())
                .spawn(move || supervise(&shared, &listener, workers))
                .expect("spawn supervisor")
        };
        Ok(ServerHandle {
            addr,
            shared,
            supervisor: Some(supervisor),
        })
    }
}

impl ServerHandle {
    /// The bound address (resolves ephemeral ports).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether shutdown has been triggered (by either side).
    #[must_use]
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::Acquire)
    }

    /// Triggers graceful shutdown and blocks until teardown completes.
    pub fn shutdown(mut self) {
        trigger_shutdown(&self.shared);
        if let Some(t) = self.supervisor.take() {
            let _ = t.join();
        }
    }

    /// Blocks until a client-triggered shutdown completes teardown.
    pub fn join(mut self) {
        if let Some(t) = self.supervisor.take() {
            let _ = t.join();
        }
    }
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.addr)
            .field("shutting_down", &self.is_shutting_down())
            .finish()
    }
}

/// Flips the shutdown flag once: closes the queue (failing queued jobs as
/// `cancelled`) and cancels every in-flight token.
fn trigger_shutdown(shared: &Shared) {
    if shared.shutdown.swap(true, Ordering::AcqRel) {
        return;
    }
    for job in shared.queue.close() {
        shared.metrics.cancelled.fetch_add(1, Ordering::Relaxed);
        let latency = job.submitted_at.elapsed().as_secs_f64() * 1e3;
        let frame = result_frame(&job.request.id, "cancelled", latency, Json::Null);
        job.send_final(&frame);
    }
    for token in shared.active.lock().expect("active lock").values() {
        token.cancel();
    }
}

/// Accept loop plus the ordered teardown sequence.
fn supervise(shared: &Arc<Shared>, listener: &TcpListener, workers: Vec<JoinHandle<()>>) {
    while !shared.shutdown.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _peer)) => accept_conn(shared, stream),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    // Queue is closed; workers finish their current job and exit. Joining
    // them *before* closing sockets lets final result frames flush.
    for w in workers {
        let _ = w.join();
    }
    shared.conns.close_all();
}

fn accept_conn(shared: &Arc<Shared>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    // Reads must not block forever once shutdown closes the socket; a
    // blocking read on a shut-down socket returns promptly, so plain
    // blocking mode is fine here (the listener alone is non-blocking).
    let _ = stream.set_nonblocking(false);
    shared.conns.reap_finished();
    if shared.conn_count.load(Ordering::Acquire) >= shared.config.max_connections {
        shared.metrics.rejected.fetch_add(1, Ordering::Relaxed);
        let mut stream = stream;
        let _ = writeln!(stream, "{}", rejected_frame("", "too_many_connections"));
        let _ = stream.shutdown(Shutdown::Both);
        return;
    }
    shared.conn_count.fetch_add(1, Ordering::AcqRel);
    let shared2 = Arc::clone(shared);
    let handle = std::thread::Builder::new()
        .name("serve-conn".into())
        .spawn(move || {
            handle_conn(&shared2, stream, &Arc::default());
            shared2.conn_count.fetch_sub(1, Ordering::AcqRel);
        })
        .expect("spawn connection thread");
    shared.conns.add_thread(handle);
}

/// Serves one connection; `jobs` starts empty and tracks the jobs it
/// submits.
fn handle_conn(shared: &Arc<Shared>, stream: TcpStream, jobs: &Arc<ConnJobs>) {
    let writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let conn = Arc::new(Conn::new(writer));
    shared.conns.add_conn(&conn);
    conn.send(&hello_frame(&shared.registry.names()));
    let mut reader = BufReader::new(stream);
    loop {
        let line = match read_line_bounded(&mut reader, shared.config.max_line_bytes) {
            Ok(Some(line)) => line,
            Ok(None) => break,
            Err(e) => {
                conn.send(&error_frame("", &e.to_string()));
                break;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        match parse_request(&line) {
            Err(e) => conn.send(&error_frame("", &e.to_string())),
            Ok(Request::Submit(req)) => handle_submit(shared, &conn, jobs, *req),
            Ok(Request::Cancel { id }) => conn.send(&cancel_ok_frame(&id, jobs.cancel(&id))),
            Ok(Request::ListSolvers) => conn.send(&solvers_frame(shared)),
            Ok(Request::Stats) => conn.send(&stats_frame(shared)),
            Ok(Request::Ping) => conn.send(&bare_frame("pong")),
            Ok(Request::Shutdown) => {
                conn.send(&bare_frame("shutdown_ack"));
                trigger_shutdown(shared);
                break;
            }
        }
        if !conn.is_alive() {
            break;
        }
    }
    // Connection gone (or shutting down): cancel everything it submitted.
    jobs.cancel_all();
    conn.mark_dead();
}

fn handle_submit(
    shared: &Arc<Shared>,
    conn: &Arc<Conn>,
    jobs: &Arc<ConnJobs>,
    request: SubmitRequest,
) {
    // A reused id still in flight on this connection would overwrite the
    // first job's cancel token, leaving it uncancellable by id or by a
    // connection drop. Only this thread inserts, so the check holds until
    // the insert below.
    if jobs.contains(&request.id) {
        shared.metrics.rejected.fetch_add(1, Ordering::Relaxed);
        conn.send(&rejected_frame(&request.id, "duplicate_id"));
        return;
    }
    // Exactly one of `graph` / `problem` is set (parse-time invariant):
    // direct submits resolve their instance, problem submits compile one.
    let resolved = match (&request.graph, &request.problem) {
        (Some(spec), None) => resolve_graph(shared, spec).map(|g| (g, None)),
        (None, Some(payload)) => {
            let limits = ParseLimits::new(
                shared.config.max_instance_nodes,
                shared.config.max_instance_edges,
            );
            compile_problem(payload, &limits)
                .map(|(spec, instance)| (Arc::clone(instance.graph()), Some((spec, instance))))
        }
        _ => Err(ServeError::Protocol {
            message: "submit requires exactly one of `graph` and `problem`".into(),
        }),
    };
    let (graph, problem) = match resolved {
        Ok(r) => r,
        Err(e) => {
            conn.send(&error_frame(&request.id, &e.to_string()));
            return;
        }
    };
    let solver = match build_solver(&shared.registry, &request.solver, request.config.as_ref()) {
        Ok(s) => s,
        Err(e) => {
            conn.send(&error_frame(&request.id, &e.to_string()));
            return;
        }
    };
    let cancel = CancelToken::new();
    let id = request.id.clone();
    // The job enters the map before a worker can see it, so its
    // `finish` always follows this insert.
    jobs.insert(&id, cancel.clone());
    let job = QueuedJob {
        request,
        graph,
        problem,
        solver,
        cancel,
        conn: Arc::clone(conn),
        conn_jobs: Arc::clone(jobs),
        submitted_at: Instant::now(),
    };
    // Hold the writer lock across push + ack: the worker that picks the
    // job up cannot write its frames before the client sees `accepted`.
    conn.send_locked(|| {
        let reason = match shared.queue.try_push(job) {
            Ok(depth) => {
                shared.metrics.accepted.fetch_add(1, Ordering::Relaxed);
                return accepted_frame(&id, depth);
            }
            Err(PushError::Full) => "queue_full",
            Err(PushError::Closed) => "shutting_down",
        };
        jobs.finish(&id);
        shared.metrics.rejected.fetch_add(1, Ordering::Relaxed);
        rejected_frame(&id, reason)
    });
}

/// Resolves a submit's instance: a cached named benchmark graph, or an
/// inline GSET document parsed under the configured size limits.
fn resolve_graph(shared: &Shared, spec: &GraphSpec) -> Result<Arc<Graph>> {
    let limits = ParseLimits::new(
        shared.config.max_instance_nodes,
        shared.config.max_instance_edges,
    );
    match spec {
        GraphSpec::Inline(gset) => {
            let graph = read_graph_limited(gset.as_bytes(), &limits)?;
            Ok(Arc::new(graph))
        }
        GraphSpec::Named(name) => {
            if let Some(g) = shared.graphs.lock().expect("graphs lock").get(name) {
                return Ok(Arc::clone(g));
            }
            // Benchmark-harness instances, generated with its seed (1).
            let graph = match name.as_str() {
                "G1" => presets::g1_like(1)?,
                "G22" => presets::g22_like(1)?,
                "K100" => presets::k100(1)?,
                k if k.starts_with('K') => {
                    let n: usize = k[1..].parse().map_err(|_| ServeError::Protocol {
                        message: format!("unknown named instance {name:?}"),
                    })?;
                    check_complete_size(&shared.config, n)?;
                    presets::k_graph(n, 1)?
                }
                _ => {
                    return Err(ServeError::Protocol {
                        message: format!("unknown named instance {name:?}"),
                    })
                }
            };
            let graph = Arc::new(graph);
            shared
                .graphs
                .lock()
                .expect("graphs lock")
                .insert(name.clone(), Arc::clone(&graph));
            Ok(graph)
        }
    }
}

/// Rejects a named `K<n>` past the node or edge limits inline graphs
/// obey, before anything is generated.
fn check_complete_size(config: &ServeConfig, n: usize) -> Result<()> {
    let edges = n.saturating_mul(n.saturating_sub(1)) / 2;
    for (what, got, limit) in [
        ("nodes", n, config.max_instance_nodes),
        ("edges", edges, config.max_instance_edges),
    ] {
        if got > limit {
            return Err(ServeError::Graph(sophie_graph::GraphError::Oversized {
                what,
                got,
                limit,
            }));
        }
    }
    Ok(())
}

fn solvers_frame(shared: &Shared) -> String {
    let registry = &shared.registry;
    let solvers = registry
        .names()
        .into_iter()
        .map(|name| {
            Json::obj([
                ("name", name.into()),
                ("summary", registry.summary(name).unwrap_or("").into()),
                ("config", registry.config_type(name).unwrap_or("").into()),
            ])
        })
        .collect();
    let problems = sophie::problems::KINDS.iter().map(|&k| k.into()).collect();
    Json::obj([
        ("type", "solvers".into()),
        ("solvers", solvers),
        ("problems", problems),
    ])
    .to_string()
}

fn stats_frame(shared: &Shared) -> String {
    let shutting_down = shared.shutdown.load(Ordering::Acquire);
    let header = [
        ("type", "stats".into()),
        ("protocol", crate::protocol::PROTOCOL_VERSION.into()),
        ("shutting_down", shutting_down.into()),
    ];
    let counters = shared.metrics.snapshot(shared.queue.depth());
    Json::obj(header.into_iter().chain(counters)).to_string()
}

/// The `report` payload of a result frame: the solver's report and, for a
/// problem-typed job, the decoded domain metrics (or the decode error) as
/// its last member. They sit inside the report object so the router's
/// report-slice cache replays them verbatim with the rest of its bytes.
fn report_json(report: &SolveReport, problem: Option<&(ProblemSpec, IsingInstance)>) -> Json {
    let mut json = report.json();
    if let (Some((spec, instance)), Json::Obj(members)) = (problem, &mut json) {
        let decoded = spec.decode(instance, &report.best_bits).map_or_else(
            |e| Json::obj([("error", e.to_string().into())]),
            |d| d.json(),
        );
        members.push(("problem".to_string(), decoded));
    }
    json
}

/// Worker: pops admitted jobs and runs them to completion.
fn worker_loop(shared: &Shared) {
    while let Some(job) = shared.queue.pop() {
        run_job(shared, job);
    }
}

fn run_job(shared: &Shared, job: QueuedJob) {
    let id = job.request.id.clone();
    if job.cancel.is_cancelled() || !job.conn.is_alive() {
        // Cancelled while queued (explicit cancel or connection drop).
        shared.metrics.cancelled.fetch_add(1, Ordering::Relaxed);
        let latency = job.submitted_at.elapsed().as_secs_f64() * 1e3;
        job.send_final(&result_frame(&id, "cancelled", latency, Json::Null));
        return;
    }
    let serial = shared.job_serial.fetch_add(1, Ordering::Relaxed);
    shared
        .active
        .lock()
        .expect("active lock")
        .insert(serial, job.cancel.clone());
    shared.metrics.in_flight.fetch_add(1, Ordering::Relaxed);

    let budget = JobBudget {
        max_iterations: job.request.max_iterations,
        time_limit: job.request.deadline_ms.map(Duration::from_millis),
    };
    // For problem-typed submits the client's target is in the problem's
    // own objective units; translate it to the lowered graph's cut scale.
    let target = match (&job.problem, job.request.target) {
        (Some((_, instance)), Some(objective)) => Some(instance.cut_for_objective(objective)),
        (_, target) => target,
    };
    let solve_job = SolveJob::new(Arc::clone(&job.graph), job.request.seed)
        .with_target(target)
        .with_budget(budget)
        .with_cancel(job.cancel.clone());

    let outcome = if job.request.stream {
        let conn = Arc::clone(&job.conn);
        let cancel = job.cancel.clone();
        let stream_id = id.clone();
        let mut sink = FnObserver::new(move |event: &sophie_solve::SolveEvent| {
            conn.send(&event_frame(&stream_id, event.json()));
            // A dead socket means nobody is listening: stop the run
            // instead of streaming into the void.
            if !conn.is_alive() {
                cancel.cancel();
            }
        });
        job.solver.solve(&solve_job, &mut sink)
    } else {
        job.solver.solve(&solve_job, &mut NullObserver)
    };

    let latency_ms = job.submitted_at.elapsed().as_secs_f64() * 1e3;
    match outcome {
        Ok(report) => {
            let status = if job.cancel.is_cancelled() {
                shared.metrics.cancelled.fetch_add(1, Ordering::Relaxed);
                "cancelled"
            } else {
                shared.metrics.completed.fetch_add(1, Ordering::Relaxed);
                shared
                    .metrics
                    .record_latency(&job.request.solver, latency_ms);
                "done"
            };
            let report = report_json(&report, job.problem.as_ref());
            job.send_final(&result_frame(&id, status, latency_ms, report));
        }
        Err(e) => {
            shared.metrics.failed.fetch_add(1, Ordering::Relaxed);
            job.send_final(&failed_frame(&id, latency_ms, &e.to_string()));
        }
    }
    shared.metrics.in_flight.fetch_sub(1, Ordering::Relaxed);
    shared.active.lock().expect("active lock").remove(&serial);
}

#[cfg(test)]
mod tests {
    use std::io::BufRead;

    use super::*;
    use crate::client::{Client, SubmitArgs};

    /// Connects, reads the hello frame, and closes.
    fn hello_round_trip(addr: SocketAddr) {
        let stream = TcpStream::connect(addr).expect("connect");
        let mut line = String::new();
        BufReader::new(stream)
            .read_line(&mut line)
            .expect("read hello");
        assert!(line.contains(r#""type":"hello""#), "{line}");
    }

    /// Exact bytes of the `problem` member the daemon appends inside the
    /// report object, for every kind and for a decode error.
    #[test]
    fn report_with_problem_bytes_are_pinned() {
        let limits = ParseLimits::new(1000, 10_000);
        let mut got = Vec::new();
        for payload in [
            r#"{"kind":"qubo","text":"qubo 2 2\n1 1 -1\n1 2 2\n"}"#,
            r#"{"kind":"max-cut","gset":"3 2\n1 2 1\n2 3 -1\n"}"#,
            r#"{"kind":"coloring","random":{"nodes":4,"edges":5,"colors":3,"seed":7}}"#,
            r#"{"kind":"ldpc","random":{"n":8,"wc":2,"wr":4,"flips":1,"seed":7}}"#,
        ] {
            let problem = compile_problem(&Json::parse(payload).unwrap(), &limits).unwrap();
            let n = problem.1.graph().num_nodes();
            let report = sophie_solve::SolveReport {
                solver: "sa".to_string(),
                dimension: n,
                seed: u64::MAX,
                best_cut: 0.1 + 0.2,
                best_bits: (0..n).map(|i| i % 3 == 0).collect(),
                ..sophie_solve::SolveReport::default()
            };
            // The report's own bytes are pinned in `sophie-solve`; this pins
            // the `problem` member appended inside the report object.
            let bare = report.to_json();
            let lead = &bare[..bare.len() - 1];
            let mut tail = |report: &sophie_solve::SolveReport| {
                let rendered = report_json(report, Some(&problem)).to_string();
                got.push(rendered.strip_prefix(lead).unwrap().to_string());
            };
            tail(&report);
            if payload.contains("ldpc") {
                // Too few bits to decode: the error lands in `problem`.
                tail(&sophie_solve::SolveReport {
                    best_bits: vec![true],
                    ..report.clone()
                });
            }
        }
        assert_eq!(got, [
            ",\"problem\":{\"kind\":\"qubo\",\"objective\":-0}}",
            ",\"problem\":{\"kind\":\"max-cut\",\"cut\":1}}",
            ",\"problem\":{\"kind\":\"coloring\",\"conflicts\":5,\"one_hot_violations\":0,\"feasible\":false}}",
            ",\"problem\":{\"kind\":\"ldpc\",\"unsatisfied_checks\":2,\"bit_errors\":5,\"bit_error_rate\":0.625,\
            \"feasible\":false}}",
            ",\"problem\":{\"error\":\"decode error: solver returned 1 bits for a 17-spin instance\"}}",
        ]);
    }

    /// The daemon's `hello` and `solvers` frames for the default registry,
    /// byte for byte.
    #[test]
    fn hello_and_solvers_frame_bytes_are_pinned() {
        let handle = Server::start(
            ServeConfig::default(),
            sophie::default_registry(),
            "127.0.0.1:0",
        )
        .unwrap();
        let stream = TcpStream::connect(handle.local_addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let mut hello = String::new();
        reader.read_line(&mut hello).unwrap();
        writeln!(writer, "{{\"cmd\":\"list-solvers\"}}").unwrap();
        let mut solvers = String::new();
        reader.read_line(&mut solvers).unwrap();
        assert_eq!(vec![hello, solvers], [
            "{\"type\":\"hello\",\"protocol\":1,\"solvers\":[\"bls\",\"pris\",\"pt\",\"sa\",\"sb\",\
            \"sophie\",\"sophie-opcm\"]}\n",
            "{\"type\":\"solvers\",\"solvers\":[{\"name\":\"bls\",\"summary\":\"breakout local search (steepest-ascent descent plus multi-flip perturbations)\",\
            \"config\":\"sophie_baselines::local_search::BlsConfig\"},{\"name\":\"pris\",\"summary\":\"unmodified photonic recurrent Ising sampler (software baseline)\",\
            \"config\":\"sophie_pris::solver::PrisJobConfig\"},{\"name\":\"pt\",\"summary\":\"parallel tempering (replica exchange over a geometric temperature ladder)\",\
            \"config\":\"sophie_baselines::tempering::PtConfig\"},{\"name\":\"sa\",\"summary\":\"simulated annealing (Metropolis, geometric cooling)\",\
            \"config\":\"sophie_baselines::sa::SaConfig\"},{\"name\":\"sb\",\"summary\":\"simulated bifurcation (ballistic or discrete oscillator dynamics)\",\
            \"config\":\"sophie_baselines::sb::SbConfig\"},{\"name\":\"sophie\",\"summary\":\"SOPHIE tiled recurrent Ising engine on the exact floating-point backend\",\
            \"config\":\"sophie_core::config::SophieConfig\"},{\"name\":\"sophie-opcm\",\"summary\":\"SOPHIE tiled engine on the OPCM device models (quantization, read noise, ADC, faults)\",\
            \"config\":\"(sophie_core::config::SophieConfig, sophie_hw::backend::OpcmBackendConfig)\"}],\
            \"problems\":[\"qubo\",\"max-cut\",\"coloring\",\"ldpc\"]}\n",
        ]);
        handle.shutdown();
    }

    #[test]
    fn finished_connections_are_reaped_on_accept() {
        let handle = Server::start(
            ServeConfig::default(),
            sophie::default_registry(),
            "127.0.0.1:0",
        )
        .unwrap();
        let addr = handle.local_addr();
        for _ in 0..40 {
            hello_round_trip(addr);
        }
        // Let the last connection thread see its EOF, so the next accept
        // finds every earlier connection finished.
        let deadline = Instant::now() + Duration::from_secs(10);
        while handle.shared.conn_count.load(Ordering::Acquire) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        hello_round_trip(addr);
        let (threads, conns) = handle.shared.conns.tracked();
        assert!(
            threads <= 2 && conns <= 2,
            "41 connections served, {threads} threads and {conns} write halves still tracked"
        );
        handle.shutdown();
    }

    #[test]
    fn finished_jobs_leave_their_connections_job_map() {
        let handle = Server::start(
            ServeConfig::default(),
            sophie::default_registry(),
            "127.0.0.1:0",
        )
        .unwrap();
        // Serve one connection by hand so the test can watch its map.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let jobs = Arc::new(ConnJobs::default());
        let serving = {
            let shared = Arc::clone(&handle.shared);
            let jobs = Arc::clone(&jobs);
            std::thread::spawn(move || {
                let (stream, _) = listener.accept().unwrap();
                handle_conn(&shared, stream, &jobs);
            })
        };
        let mut client = Client::connect(addr).unwrap();
        let mut job = SubmitArgs::new("sa", GraphSpec::Named("K20".into()));
        job.config_json = Some(r#"{"sweeps": 5}"#.into());
        for i in 0..100 {
            let id = format!("job-{}", i % 3);
            let admission = client.submit(&id, &job).unwrap();
            assert_eq!(admission.frame_type(), Some("accepted"), "job {i}");
            assert_eq!(client.wait_result(&id).unwrap().status, "done");
        }
        // Each job left the map before its result frame was written.
        assert_eq!(
            jobs.lock().len(),
            0,
            "100 finished jobs left entries behind"
        );
        drop(client);
        serving.join().unwrap();
        handle.shutdown();
    }
}
