//! The solve daemon: admission, job workers, and the `solvers` and
//! `stats` frames, behind the connection front end it shares with the
//! router (the private `conn` module).
//!
//! # Thread model
//!
//! All concurrency is hand-rolled on `std` threads and channels — the
//! build environment vendors no async runtime, and none is needed:
//!
//! * one **supervisor** thread blocks in `accept` on the listener and
//!   performs the teardown sequence on shutdown;
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
//! emit this job's `result` before the client saw `accepted`. A job
//! settles before its final frame is written: it leaves its connection's
//! job map and gives back its `in_flight` count, so a client that has read
//! its result can reuse the id, and sees the job finished in `stats`.
//!
//! # Shutdown
//!
//! `shutdown` (the protocol command, or [`ServerHandle::shutdown`])
//! closes the admission queue — queued jobs get `cancelled` results
//! without running — cancels every in-flight job's token (solvers wind
//! down within one iteration), and wakes the supervisor's `accept`. The
//! supervisor joins the workers, then shuts every client socket down and
//! joins the connection threads. The build environment has no
//! signal-handling crate, so SIGINT is *not* trapped; the protocol
//! command is the one graceful path.

use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::Ordering;
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
use crate::configs::{build_solver, check_tile_size};
use crate::conn::{self, Conn, FrontEnd, Service};
use crate::error::{Result, ServeError};
use crate::metrics::Metrics;
use crate::problems::{check_size, compile_problem};
use crate::protocol::{
    accepted_frame, error_frame, event_frame, failed_frame, hello_frame, rejected_frame,
    result_frame, GraphSpec, SubmitRequest,
};
use crate::queue::{AdmissionQueue, PushError};

/// Byte budget of a daemon's named graphs, the transform cache's: the
/// largest `K<n>` under the default edge cap (K1448, ≈ 59 MB) fits.
const NAMED_GRAPH_BYTES: usize = 64 << 20;

/// A job admitted to the queue, carrying everything a worker needs.
struct QueuedJob {
    request: SubmitRequest,
    graph: Arc<Graph>,
    /// Set for `problem`-typed submits: the compiled spec + instance the
    /// worker decodes the winning state through.
    problem: Option<(ProblemSpec, IsingInstance)>,
    solver: Arc<dyn Solver>,
    cancel: CancelToken,
    /// The submitting connection, whose job map this job leaves when it
    /// ends.
    conn: Arc<Conn<CancelToken>>,
    submitted_at: Instant,
}

impl QueuedJob {
    /// Settles the job, then writes its final frame. It leaves its
    /// connection's map and, if it ran, gives back its in-flight count
    /// first: a client that has read this frame must not be told
    /// `duplicate_id` when it reuses the id, nor see the job still in
    /// flight in `stats`.
    fn send_final(&self, shared: &Shared, ran: bool, frame: &str) {
        self.conn.jobs.remove(&self.request.id);
        if ran {
            shared.metrics.in_flight.fetch_sub(1, Ordering::Relaxed);
        }
        self.conn.send(frame);
    }
}

/// Named instances, each generated once while it stays here. Graphs are
/// evicted first in, first out once their `Graph::heap_bytes` and names
/// would pass [`NAMED_GRAPH_BYTES`]; a larger graph serves its job and is
/// not kept.
/// A kept graph is shared by `Arc`, which lets the registry's transform
/// cache confirm hits by identity instead of comparing edges.
#[derive(Default)]
struct NamedGraphs {
    graphs: HashMap<String, Arc<Graph>>,
    /// Names in insertion order.
    order: VecDeque<String>,
    bytes: usize,
}

impl NamedGraphs {
    fn insert(&mut self, name: &str, graph: &Arc<Graph>) {
        // Names count too: `K<n>` parses leading zeros, so one graph can
        // come under any number of names of any length.
        let bytes = graph.heap_bytes() + name.len();
        if bytes > NAMED_GRAPH_BYTES || self.graphs.contains_key(name) {
            return;
        }
        while self.bytes + bytes > NAMED_GRAPH_BYTES {
            let oldest = self.order.pop_front().expect("bytes are held by graphs");
            let evicted = self.graphs.remove(&oldest).expect("ordered graph exists");
            self.bytes -= evicted.heap_bytes() + oldest.len();
        }
        self.order.push_back(name.to_string());
        self.bytes += bytes;
        self.graphs.insert(name.to_string(), Arc::clone(graph));
    }
}

/// State shared by every thread of one daemon.
struct Shared {
    config: ServeConfig,
    registry: SolverRegistry,
    metrics: Metrics,
    queue: AdmissionQueue<QueuedJob>,
    front: FrontEnd<CancelToken>,
    graphs: Mutex<NamedGraphs>,
}

impl Service for Shared {
    type Job = CancelToken;

    fn front(&self) -> &FrontEnd<CancelToken> {
        &self.front
    }

    fn submit(shared: &Arc<Self>, conn: &Arc<Conn<CancelToken>>, request: SubmitRequest) {
        let cancel = CancelToken::new();
        if !conn.jobs.insert(&request.id, cancel.clone()) {
            shared.metrics.rejected.fetch_add(1, Ordering::Relaxed);
            conn.send(&rejected_frame(&request.id, "duplicate_id"));
            return;
        }
        let id = request.id.clone();
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
        let prepared = resolved.and_then(|(graph, problem)| {
            let config = request.config.as_ref();
            check_tile_size(&request.solver, config, shared.config.max_instance_nodes)?;
            let solver = build_solver(&shared.registry, &request.solver, config)?;
            Ok((graph, problem, solver))
        });
        let (graph, problem, solver) = match prepared {
            Ok(prepared) => prepared,
            Err(e) => {
                conn.jobs.remove(&id);
                conn.send(&error_frame(&id, &e.to_string()));
                return;
            }
        };
        let job = QueuedJob {
            request,
            graph,
            problem,
            solver,
            cancel,
            conn: Arc::clone(conn),
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
            conn.jobs.remove(&id);
            shared.metrics.rejected.fetch_add(1, Ordering::Relaxed);
            rejected_frame(&id, reason)
        });
    }

    fn solvers_frame(&self) -> String {
        let registry = &self.registry;
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

    fn stats_frame(&self) -> String {
        let header = [
            ("type", "stats".into()),
            ("protocol", crate::protocol::PROTOCOL_VERSION.into()),
            ("shutting_down", self.front.is_shutting_down().into()),
        ];
        let counters = self.metrics.snapshot(self.queue.depth());
        let members = header.into_iter().chain(self.front.stats()).chain(counters);
        Json::obj(members).to_string()
    }

    /// Closes the queue, answering every parked job `cancelled`; running
    /// jobs are cancelled through their connections' job maps next.
    fn drain(&self) {
        for job in self.queue.close() {
            self.metrics.cancelled.fetch_add(1, Ordering::Relaxed);
            let latency = job.submitted_at.elapsed().as_secs_f64() * 1e3;
            let frame = result_frame(&job.request.id, "cancelled", latency, Json::Null);
            job.send_final(self, false, &frame);
        }
    }

    fn refused(&self) {
        self.metrics.rejected.fetch_add(1, Ordering::Relaxed);
    }
}

/// Entry point: binds and runs a daemon in background threads.
pub struct Server;

/// A running daemon. Dropping the handle shuts the daemon down like
/// [`ServerHandle::shutdown`], and the drop blocks until its threads have
/// joined; to wait for a client's protocol `shutdown` instead, call
/// [`ServerHandle::join`].
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
    /// [`ServeError::Io`] if the bind fails or a worker or supervisor
    /// thread cannot be spawned (the threads already started are stopped
    /// first).
    pub fn start(
        config: ServeConfig,
        registry: SolverRegistry,
        addr: impl ToSocketAddrs,
    ) -> Result<ServerHandle> {
        config.validate()?;
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let front = FrontEnd::new(
            "serve",
            &listener,
            config.max_connections,
            config.max_line_bytes,
            hello_frame(&registry.names()),
        )?;
        let shared = Arc::new(Shared {
            queue: AdmissionQueue::new(config.queue_capacity),
            config,
            registry,
            metrics: Metrics::new(),
            front,
            graphs: Mutex::default(),
        });
        for i in 0..config.workers {
            let worker = Arc::clone(&shared);
            let run = move || worker_loop(&worker);
            if let Err(e) = shared.front.spawn_helper(format!("serve-worker-{i}"), run) {
                conn::abort(&*shared);
                return Err(e.into());
            }
        }
        let supervisor = conn::spawn_supervisor(&shared, listener)?;
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
        self.shared.front.is_shutting_down()
    }

    /// Triggers graceful shutdown and blocks until teardown completes.
    pub fn shutdown(mut self) {
        self.stop();
    }

    /// Blocks until a client-triggered shutdown completes teardown.
    pub fn join(mut self) {
        if let Some(t) = self.supervisor.take() {
            let _ = t.join();
        }
    }

    /// Triggers shutdown, unless teardown already ran, and waits for it.
    fn stop(&mut self) {
        if let Some(t) = self.supervisor.take() {
            conn::shut_down(&*self.shared);
            let _ = t.join();
        }
    }
}

/// A handle dropped without `shutdown` or `join` (a test that panics,
/// say) still stops every thread it started.
impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
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
            if let Some(graph) = shared.graphs.lock().expect("graphs lock").graphs.get(name) {
                return Ok(Arc::clone(graph));
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
                    // Past the limits inline graphs obey: rejected before
                    // anything is generated.
                    check_size(&limits, n, n.saturating_mul(n.saturating_sub(1)) / 2)?;
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
                .insert(name, &graph);
            Ok(graph)
        }
    }
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
        job.send_final(
            shared,
            false,
            &result_frame(&id, "cancelled", latency, Json::Null),
        );
        return;
    }
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
    let frame = match outcome {
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
            result_frame(&id, status, latency_ms, report)
        }
        Err(e) => {
            shared.metrics.failed.fetch_add(1, Ordering::Relaxed);
            failed_frame(&id, latency_ms, &e.to_string())
        }
    };
    job.send_final(shared, true, &frame);
}

#[cfg(test)]
mod tests {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

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
        while handle.shared.front.conn_count.load(Ordering::Acquire) > 0
            && Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(5));
        }
        hello_round_trip(addr);
        let (threads, conns) = handle.shared.front.tracked();
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
        let (conn_tx, conn_rx) = std::sync::mpsc::channel();
        let serving = {
            let shared = Arc::clone(&handle.shared);
            std::thread::spawn(move || {
                let (stream, _) = listener.accept().unwrap();
                let conn = Arc::new(Conn::new(stream.try_clone().unwrap()));
                conn_tx.send(Arc::clone(&conn)).unwrap();
                conn::read_loop(&shared, &conn, stream);
            })
        };
        let mut client = Client::connect(addr).unwrap();
        let jobs = &conn_rx.recv().unwrap().jobs;
        let mut job = SubmitArgs::new("sa", GraphSpec::Named("K20".into()));
        job.config_json = Some(r#"{"sweeps": 5}"#.into());
        for i in 0..100 {
            let id = format!("job-{}", i % 3);
            let admission = client.submit(&id, &job).unwrap();
            assert_eq!(admission.frame_type(), Some("accepted"), "job {i}");
            assert_eq!(client.wait_result(&id).unwrap().status, "done");
        }
        // Each job left the map before its result frame was written.
        assert_eq!(jobs.len(), 0, "100 finished jobs left entries behind");
        drop(client);
        serving.join().unwrap();
        handle.shutdown();
    }

    #[test]
    fn named_graphs_stay_within_their_byte_budget() {
        let handle = Server::start(
            ServeConfig::default(),
            sophie::default_registry(),
            "127.0.0.1:0",
        )
        .unwrap();
        // K2…K200: 1,333,300 edges, ≈ 75 MB of graphs.
        let mut generated = 0;
        let mut last = None;
        for n in 2..=200 {
            let graph = resolve_graph(&handle.shared, &GraphSpec::Named(format!("K{n}"))).unwrap();
            generated += graph.heap_bytes();
            last = Some(graph);
        }
        assert!(generated > NAMED_GRAPH_BYTES, "{generated} bytes generated");
        let held = handle.shared.graphs.lock().unwrap().bytes;
        assert!(
            held <= NAMED_GRAPH_BYTES,
            "{held} bytes of named graphs held, budget {NAMED_GRAPH_BYTES}"
        );
        let again = resolve_graph(&handle.shared, &GraphSpec::Named("K200".into())).unwrap();
        assert!(Arc::ptr_eq(&again, &last.unwrap()), "K200 was regenerated");
        handle.shutdown();
    }

    /// After `shutdown` returns, no thread of the daemon holds its shared
    /// state: plain, streamed and named-graph jobs have run, one job was
    /// still running and two clients were still connected.
    #[test]
    fn shutdown_releases_the_shared_state() {
        let handle = Server::start(
            ServeConfig::default(),
            sophie::default_registry(),
            "127.0.0.1:0",
        )
        .unwrap();
        let addr = handle.local_addr();
        let mut alice = Client::connect(addr).unwrap();
        let mut bob = Client::connect(addr).unwrap();

        let mut plain = SubmitArgs::new("sa", GraphSpec::Inline("3 2\n1 2 1\n2 3 1\n".into()));
        plain.config_json = Some(r#"{"sweeps": 20}"#.into());
        let mut streamed = SubmitArgs::new("sophie", GraphSpec::Named("K20".into()));
        streamed.stream = true;
        streamed.config_json =
            Some(r#"{"global_iters": 2, "tile_size": 10, "local_iters": 2}"#.into());
        let mut named = SubmitArgs::new("sa", GraphSpec::Named("K30".into()));
        named.config_json = Some(r#"{"sweeps": 20}"#.into());
        for (id, job) in [
            ("plain", &plain),
            ("streamed", &streamed),
            ("named", &named),
        ] {
            assert_eq!(
                alice.submit(id, job).unwrap().frame_type(),
                Some("accepted")
            );
            let outcome = alice.wait_result(id).unwrap();
            assert_eq!(outcome.status, "done", "{id}");
            assert_eq!(outcome.events.is_empty(), id != "streamed", "{id}");
        }

        // A job far too long to finish, left running; the deadline is a
        // backstop so a cancellation bug cannot hang the test.
        let mut long_job = SubmitArgs::new("sa", GraphSpec::Named("K60".into()));
        long_job.config_json = Some(r#"{"sweeps": 100000000}"#.into());
        long_job.deadline_ms = Some(30_000);
        assert_eq!(
            bob.submit("long", &long_job).unwrap().frame_type(),
            Some("accepted")
        );
        let deadline = Instant::now() + Duration::from_secs(10);
        while handle.shared.metrics.in_flight.load(Ordering::Acquire) == 0 {
            assert!(Instant::now() < deadline, "the long job never started");
            std::thread::sleep(Duration::from_millis(2));
        }

        let shared = Arc::downgrade(&handle.shared);
        handle.shutdown();
        assert!(
            shared.upgrade().is_none(),
            "a thread of the stopped daemon still holds its shared state"
        );
        drop((alice, bob));
    }
}
