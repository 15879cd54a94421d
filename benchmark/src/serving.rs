//! The serving workloads, each against an in-process daemon (the default
//! `ServeConfig`, with larger admission and connection caps for the small
//! workloads; see [`serve_config`]) and, for `routed-small`, a
//! default-config router over that one daemon as its replica.
//!
//! * `serve-sophie-k512`: a closed loop of `sophie` jobs on the named K512
//!   graph. Every submit builds a fresh solver, so every request reruns
//!   the eigenvalue-dropout preprocessing before it solves.
//! * `serve-small` / `routed-small`: closed-loop capacity segments
//!   alternating with paced open-loop segments, of small `sa` jobs — half
//!   on the named K60, a quarter on random QUBO payloads, a quarter on
//!   inline MAX-CUT GSET payloads. Nothing is preprocessed; per-request
//!   overhead dominates.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sophie_core::SophieConfig;
use sophie_graph::generate::{gnm, presets, WeightDist};
use sophie_graph::io::{format_graph, read_graph_limited, ParseLimits};
use sophie_graph::Graph;
use sophie_serve::configs::build_solver;
use sophie_serve::json::escape;
use sophie_serve::problems::compile_problem;
use sophie_serve::protocol::parse_request;
use sophie_serve::{
    Client, GraphSpec, Json, LocalCluster, RouterConfig, ServeConfig, Server, ServerHandle,
    SubmitArgs,
};
use sophie_solve::{
    run_batch, BatchJob, BatchOptions, NullObserver, SolveJob, Solver, SolverRegistry,
};

use crate::layers::{self, TimedSolver};
use crate::load::{self, Record, Source, Status};
use crate::report::Outcome;
use crate::stats;
use crate::trace::Tracer;
use crate::{RunOptions, SETUP_REPS};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Serving {
    SophieK512,
    Small,
    RoutedSmall,
}

/// Closed-loop clients, each with its own connection (the reference host
/// has two cores).
const CLIENTS: usize = 2;
/// Open-loop arrival rate of the small workloads, in requests per second:
/// under half of the routed capacity, so the open loop measures latency
/// at a load both targets sustain rather than a growing backlog.
const OPEN_RATE: f64 = 600.0;
/// Share of a small workload's run spent in its capacity phase.
const CAPACITY_SHARE: f64 = 0.4;
/// Capacity/latency segment pairs in a small workload's run.
const SMALL_SEGMENTS: usize = 4;
/// Windows of the per-window estimators (see [`stats::upper_quartile`]):
/// each holds hundreds of small requests or open-loop arrivals, or a
/// handful of K512 requests.
const SMALL_WINDOW_S: f64 = 0.5;
const K512_WINDOW_S: f64 = 1.0;
/// Small requests checked against an in-process solve: every one whose
/// index is a multiple of this (prime to the 4-request mix cycle, so every
/// kind is sampled).
const CHECK_EVERY: usize = 101;
/// Set-ups of a small workload per run. One takes a few tens of
/// milliseconds and moves in steps (set-ups of `routed-small` land near
/// 55 ms or near 75 ms; the daemon and the router accept connections by
/// polling every 5 ms), so the median needs more of them than
/// [`SETUP_REPS`] to settle.
const SMALL_SETUP_REPS: usize = 15;
/// Inline MAX-CUT payload graphs per run, cycled through by the mix.
const GSET_POOL: usize = 64;
const SA_CONFIG: &str = r#"{"sweeps":60}"#;
/// K512 requests pin the sparse crossover the `auto` path would otherwise
/// calibrate once per process: the calibration settles near 0.16 in most
/// processes and near 0.35 in a few, and the high draws run a fifth
/// slower, so a run's speed would hang on a start-up coin toss. The
/// crossover only decides which kernel computes; results are identical.
const K512_CONFIG: &str = r#"{"global_iters":100,"sparse_crossover":0.16}"#;
const K512_GLOBAL_ITERS: usize = 100;
const K512_CROSSOVER: f64 = 0.16;

/// Warm-up requests per set-up: enough to fill the daemon's named-graph
/// cache and run every code path (and, the first time in a process, the
/// kernel autotune) before timing starts.
fn warmup_requests(kind: Serving) -> usize {
    match kind {
        Serving::SophieK512 => 2,
        Serving::Small | Serving::RoutedSmall => 64,
    }
}

struct K512Jobs {
    seed: u64,
}

impl Source for K512Jobs {
    fn args(&self, index: usize) -> SubmitArgs {
        let mut args = SubmitArgs::new("sophie", GraphSpec::Named("K512".into()));
        args.seed = layers::job_seed(self.seed, index);
        args.config_json = Some(K512_CONFIG.into());
        args
    }

    fn keep_report(&self, _: usize) -> bool {
        true
    }
}

/// The small-job mix, generated from the run seed.
struct SmallMix {
    seed: u64,
    /// GSET text of each pool graph, and its rendered `problem` payload.
    gsets: Vec<(String, String)>,
}

impl SmallMix {
    fn new(seed: u64) -> Result<Self, String> {
        let gsets = (0..GSET_POOL)
            .map(|k| {
                let g = gnm(
                    64,
                    256,
                    WeightDist::Unit,
                    layers::job_seed(seed ^ 0x5eed, k),
                )
                .map_err(|e| format!("generating a max-cut payload: {e}"))?;
                let text = format_graph(&g);
                let payload = format!("{{\"kind\":\"max-cut\",\"gset\":\"{}\"}}", escape(&text));
                Ok((text, payload))
            })
            .collect::<Result<_, String>>()?;
        Ok(SmallMix { seed, gsets })
    }
}

impl Source for SmallMix {
    fn args(&self, index: usize) -> SubmitArgs {
        let seed = layers::job_seed(self.seed, index);
        let mut args = match index % 4 {
            0 | 1 => SubmitArgs::new("sa", GraphSpec::Named("K60".into())),
            2 => SubmitArgs::for_problem(
                "sa",
                &format!("{{\"kind\":\"qubo\",\"random\":{{\"n\":64,\"density\":0.25,\"seed\":{seed}}}}}"),
            ),
            _ => SubmitArgs::for_problem("sa", &self.gsets[(index / 4) % GSET_POOL].1),
        };
        args.seed = seed;
        args.config_json = Some(SA_CONFIG.into());
        args
    }

    fn keep_report(&self, index: usize) -> bool {
        index.is_multiple_of(CHECK_EVERY)
    }
}

/// The daemon under test, alone or behind a router.
enum Target {
    Direct(ServerHandle),
    Routed(LocalCluster),
}

/// The daemon's configuration: the default, except that the small
/// workloads raise the admission queue and the connection cap to the
/// router's in-flight cap. A host stall of some tens of milliseconds holds
/// up the open loop's sender, which then sends every request that fell due
/// at once; behind the router each request in flight takes a replica
/// connection of its own, and the default caps (64 queued, 32 connections)
/// turned such a burst into rejected requests and a quarantined replica.
/// With the caps raised a stall shows as latency, which the open loop
/// measures, on both small workloads alike.
fn serve_config(kind: Serving) -> ServeConfig {
    let cap = RouterConfig::default().max_inflight;
    match kind {
        Serving::SophieK512 => ServeConfig::default(),
        Serving::Small | Serving::RoutedSmall => ServeConfig {
            queue_capacity: cap,
            max_connections: cap,
            ..ServeConfig::default()
        },
    }
}

impl Target {
    fn start(kind: Serving) -> Result<Self, String> {
        let config = serve_config(kind);
        if kind == Serving::RoutedSmall {
            LocalCluster::start(1, config, RouterConfig::default())
                .map(Target::Routed)
                .map_err(|e| format!("starting the cluster: {e}"))
        } else {
            Server::start(config, sophie::default_registry(), "127.0.0.1:0")
                .map(Target::Direct)
                .map_err(|e| format!("starting the daemon: {e}"))
        }
    }

    /// Where clients connect.
    fn addr(&self) -> SocketAddr {
        match self {
            Target::Direct(h) => h.local_addr(),
            Target::Routed(c) => c.router_addr(),
        }
    }

    /// The daemon itself (the replica, when routed).
    fn daemon_addr(&self) -> SocketAddr {
        match self {
            Target::Direct(h) => h.local_addr(),
            Target::Routed(c) => c.replica_addr(0).expect("the only replica is never killed"),
        }
    }

    fn router_addr(&self) -> Option<SocketAddr> {
        match self {
            Target::Direct(_) => None,
            Target::Routed(c) => Some(c.router_addr()),
        }
    }

    fn shutdown(self) {
        match self {
            Target::Direct(h) => h.shutdown(),
            Target::Routed(c) => c.shutdown(),
        }
    }
}

fn stats_of(addr: SocketAddr) -> Result<Json, String> {
    Client::connect(addr)
        .and_then(|mut c| c.stats())
        .map_err(|e| format!("stats from {addr}: {e}"))
}

fn counter(stats: &Json, key: &str) -> u64 {
    stats.get(key).and_then(Json::as_u64).unwrap_or(0)
}

fn delta(before: &Json, after: &Json, key: &str) -> u64 {
    counter(after, key).saturating_sub(counter(before, key))
}

/// One set-up: start the target, then warm it with requests `0..warmup`.
fn setup(kind: Serving, source: &dyn Source, tracer: &Tracer) -> Result<Target, String> {
    let target = Target::start(kind)?;
    let warmup = warmup_requests(kind);
    let (records, _) = load::closed_loop(
        target.addr(),
        1,
        Duration::from_secs(120),
        0,
        warmup,
        source,
        tracer,
    )?;
    if records.len() != warmup || records.iter().any(|r| r.status != Status::Done) {
        target.shutdown();
        return Err("warm-up requests did not all complete".into());
    }
    Ok(target)
}

/// In-process reference for served reports: the same solver built the
/// same way, on the same instance, through the layers' public functions.
struct Reference {
    registry: SolverRegistry,
    limits: ParseLimits,
    k60: Arc<Graph>,
    sa: Arc<TimedSolver>,
}

impl Reference {
    fn new(tracer: &Arc<Tracer>) -> Result<Self, String> {
        let registry = sophie::default_registry();
        let config = Json::parse(SA_CONFIG).map_err(|e| e.to_string())?;
        let sa = build_solver(&registry, "sa", Some(&config)).map_err(|e| e.to_string())?;
        let serve = ServeConfig::default();
        Ok(Reference {
            limits: ParseLimits::new(serve.max_instance_nodes, serve.max_instance_edges),
            k60: Arc::new(presets::k_graph(60, 1).map_err(|e| e.to_string())?),
            sa: Arc::new(TimedSolver::new(sa, Arc::clone(tracer))),
            registry,
        })
    }

    /// The report bytes the daemon should have sent for `args`, solved in
    /// process, with the problem decode spliced in the way the daemon does.
    fn expected(&self, args: &SubmitArgs, tracer: &Tracer) -> Result<String, String> {
        let problem = match &args.problem_json {
            None => None,
            Some(text) => {
                let payload = Json::parse(text).map_err(|e| e.to_string())?;
                if let Some(gset) = payload.get("gset").and_then(Json::as_str) {
                    tracer
                        .time("graph.gset_parse", 0, args.seed, || {
                            read_graph_limited(gset.as_bytes(), &self.limits)
                        })
                        .map_err(|e| e.to_string())?;
                }
                let compiled = tracer.time("problems.compile", 0, args.seed, || {
                    compile_problem(&payload, &self.limits)
                });
                Some(compiled.map_err(|e| e.to_string())?)
            }
        };
        let graph = match &problem {
            Some((_, instance)) => Arc::clone(instance.graph()),
            None => Arc::clone(&self.k60),
        };
        let report = self
            .sa
            .solve(&SolveJob::new(graph, args.seed), &mut NullObserver)
            .map_err(|e| e.to_string())?;
        let mut json = report.to_json();
        if let Some((spec, instance)) = &problem {
            let decoded = tracer.time("problems.decode", 0, args.seed, || {
                spec.decode(instance, &report.best_bits)
            });
            let decoded = decoded.map_or_else(
                |e| format!("{{\"error\":\"{}\"}}", escape(&e.to_string())),
                |d| d.to_json(),
            );
            json.truncate(json.len() - 1);
            json.push_str(",\"problem\":");
            json.push_str(&decoded);
            json.push('}');
        }
        Ok(json)
    }
}

/// Times the daemon's first two request layers on the submit lines of
/// `records`: protocol parsing and solver construction.
fn replay_admission(
    tracer: &Tracer,
    registry: &SolverRegistry,
    source: &dyn Source,
    records: &[&Record],
) {
    for r in records {
        let args = source.args(r.index);
        let line = args.to_frame(&format!("r{}", r.index));
        let _ = std::hint::black_box(
            tracer.time("serve.parse", 0, r.index as u64, || parse_request(&line)),
        );
        let config = args
            .config_json
            .as_deref()
            .and_then(|c| Json::parse(c).ok());
        let _ = std::hint::black_box(tracer.time("serve.build_solver", 0, r.index as u64, || {
            build_solver(registry, &args.solver, config.as_ref())
        }));
    }
}

fn values(records: &[Record], f: fn(&Record) -> Option<f64>) -> Vec<f64> {
    records.iter().filter_map(f).collect()
}

fn put_p50_p99(out: &mut Outcome, name: &str, samples: &[f64]) {
    if let Some(p50) = stats::quantile(&stats::sorted(samples), 0.5) {
        out.put(&format!("{name}.p50"), p50, "ms", samples.len());
    }
    out.put_tail(&format!("{name}.p99"), samples, 0.99);
}

/// # Errors
///
/// Set-up failures, unreachable targets and failed reference solves.
pub fn run(
    kind: Serving,
    opts: &RunOptions,
    seconds: f64,
    tracer: &Arc<Tracer>,
    threads: usize,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let small = kind != Serving::SophieK512;
    let traced = tracer.enabled();
    tracer.set_enabled(false);

    // Set-up, repeated; the last target is the one measured.
    let reps = if small { SMALL_SETUP_REPS } else { SETUP_REPS };
    let mut setup_s = Vec::with_capacity(reps);
    let mut built: Option<(Target, Box<dyn Source>)> = None;
    for _ in 0..reps {
        if let Some((target, _)) = built.take() {
            target.shutdown();
        }
        let start = Instant::now();
        tracer.set_enabled(traced);
        let source: Box<dyn Source> = if small {
            Box::new(tracer.time("graph.generate", 0, 0, || SmallMix::new(opts.seed))?)
        } else {
            Box::new(K512Jobs { seed: opts.seed })
        };
        tracer.set_enabled(false);
        let target = setup(kind, source.as_ref(), tracer)?;
        setup_s.push(start.elapsed().as_secs_f64());
        built = Some((target, source));
    }
    let (target, source) = built.expect("at least one set-up");
    let source = source.as_ref();
    out.put("setup_s", stats::p50(&setup_s), "s", reps);
    out.put("ready_heap_mb", layers::live_heap_mb(), "MB", 1);

    let daemon_before = stats_of(target.daemon_addr())?;
    let router_before = target.router_addr().map(stats_of).transpose()?;

    // The run alternates segments of capacity (closed loop) and, for the
    // small workloads, latency (paced open loop), so each estimator samples
    // the whole run rather than one stretch of it. A traced run traces every
    // other segment and compares their capacity with the untraced ones, for
    // the tracing overhead.
    let segments = if small { SMALL_SEGMENTS } else { 2 };
    let closed_s = seconds * if small { CAPACITY_SHARE } else { 1.0 } / segments as f64;
    let open_s = seconds * (1.0 - CAPACITY_SHARE) / segments as f64;
    let window = if small { SMALL_WINDOW_S } else { K512_WINDOW_S };
    let mut next = warmup_requests(kind);
    let (mut closed, mut open) = (Vec::new(), Vec::new());
    // Window rates of the untraced and traced segments.
    let (mut rates, mut traced_rates) = (Vec::new(), Vec::new());
    // Median latency of each window, over the requests due in it: the open
    // loop's for the small workloads, the closed loop's for K512 (whose
    // requests are due when sent).
    let mut latency_windows = Vec::new();
    let cpu_before = layers::cpu_seconds()?;
    for segment in 0..segments {
        let traced_segment = traced && segment % 2 == 1;
        tracer.set_enabled(traced_segment);
        let duration = Duration::from_secs_f64(closed_s);
        let (records, start) = load::closed_loop(
            target.addr(),
            CLIENTS,
            duration,
            next,
            usize::MAX,
            source,
            tracer,
        )?;
        next += records.len();
        let r = stats::window_rates(&load::completed_spans(&records, start), closed_s, window);
        if traced_segment {
            traced_rates.extend(r);
        } else {
            rates.extend(r);
        }
        if !small {
            let samples = load::due_latencies(&records, start);
            latency_windows.extend(stats::window_medians(&samples, closed_s, window));
        }
        closed.extend(records);
        if small {
            let duration = Duration::from_secs_f64(open_s);
            let records =
                load::open_loop(target.addr(), OPEN_RATE, duration, next, source, tracer)?;
            next += records.len();
            if let Some(first) = records.first() {
                let samples = load::due_latencies(&records, first.due);
                latency_windows.extend(stats::window_medians(&samples, open_s, window));
            }
            open.extend(records);
        }
    }
    let cpu_s = layers::cpu_seconds()? - cpu_before;
    if traced {
        let overhead = stats::p50(&rates) / stats::p50(&traced_rates) - 1.0;
        out.put("trace.overhead_frac", overhead, "frac", traced_rates.len());
    }
    rates.extend(traced_rates);
    let throughput = stats::upper_quartile(&rates);
    out.put("throughput_rps", throughput, "1/s", rates.len());
    let done = closed
        .iter()
        .chain(&open)
        .filter(|r| r.status == Status::Done)
        .count();
    out.put(
        "cpu_ms_per_job",
        cpu_s * 1e3 / done.max(1) as f64,
        "ms",
        done,
    );

    let latency_set: &[Record] = if small { &open } else { &closed };
    let latency = values(latency_set, Record::latency_ms);
    out.put(
        "latency_p50_ms",
        stats::lower_quartile(&latency_windows),
        "ms",
        latency.len(),
    );
    out.put_tail("latency_p90_ms", &latency, 0.90);
    out.put_tail("latency_p99_ms", &latency, 0.99);
    if small {
        let late = values(&open, Record::lateness_ms);
        out.put_tail("client.late_p99_ms", &late, 0.99);
        let late_p99 = stats::tail_percentile(&stats::sorted(&late), 0.99);
        out.note(
            "open_loop",
            format!("{OPEN_RATE} req/s over one connection"),
        );
        out.require(late_p99.is_some_and(|l| l <= 1.0), || {
            format!("the open loop ran late: p99 lateness {late_p99:?} ms exceeds 1 ms")
        });
    }
    put_p50_p99(
        &mut out,
        "serve.admit_ms",
        &values(latency_set, Record::admit_ms),
    );
    put_p50_p99(
        &mut out,
        "serve.server_ms",
        &values(latency_set, |r| {
            (r.status == Status::Done).then_some(r.server_ms)
        }),
    );
    let outside = if kind == Serving::RoutedSmall {
        "router.outside_ms"
    } else {
        "serve.outside_ms"
    };
    put_p50_p99(&mut out, outside, &values(latency_set, Record::outside_ms));

    // Before the in-process reference solves below add their own memory.
    out.put("peak_rss_mb", layers::peak_rss_mb()?, "MB", 1);

    let measured: Vec<&Record> = closed.iter().chain(&open).collect();
    out.attempted = measured.len() as u64;
    let finished: Vec<&Record> = measured
        .iter()
        .copied()
        .filter(|r| r.status == Status::Done)
        .collect();
    let unfinished: Vec<&Record> = measured
        .iter()
        .copied()
        .filter(|r| r.status != Status::Done)
        .collect();
    out.failed += unfinished.len() as u64;
    if !unfinished.is_empty() {
        let first: Vec<String> = unfinished
            .iter()
            .take(10)
            .map(|r| format!("r{} {:?}", r.index, r.status))
            .collect();
        let note = format!("{} ({} in all)", first.join(", "), unfinished.len());
        out.note("unfinished_requests", note);
    }
    let cuts: Vec<f64> = finished.iter().map(|r| r.best_cut).collect();
    out.put(
        "best_cut_mean",
        cuts.iter().sum::<f64>() / cuts.len().max(1) as f64,
        "cut",
        cuts.len(),
    );

    // Conservation: every request the daemon (and router) accepted during
    // the run finished, and the finished ones are the ones the clients saw.
    let daemon_after = stats_of(target.daemon_addr())?;
    let d = |key: &str| delta(&daemon_before, &daemon_after, key);
    for (name, key) in [
        ("serve.accepted", "accepted"),
        ("serve.completed", "completed"),
        ("serve.rejected", "rejected"),
        ("serve.failed", "failed"),
    ] {
        out.put(name, d(key) as f64, "count", 1);
    }
    let pending = counter(&daemon_after, "in_flight") + counter(&daemon_after, "queue_depth");
    out.check(
        d("accepted") == d("completed") + d("cancelled") + d("failed") + pending && pending == 0,
        || format!("daemon counters do not balance: {daemon_after}"),
    );
    if let Some(before) = &router_before {
        let after = stats_of(target.addr())?;
        let r = |key: &str| delta(before, &after, key);
        for (name, key) in [
            ("router.retries", "retries"),
            ("router.failovers", "failovers"),
            ("router.hedges", "hedges"),
            ("router.cache_hits", "cache_hits"),
        ] {
            out.put(name, r(key) as f64, "count", 1);
        }
        let in_flight = counter(&after, "in_flight");
        out.check(
            r("submitted") == r("done") + r("cancelled") + r("failed") + in_flight
                && in_flight == 0
                && r("done") == finished.len() as u64,
            || {
                format!(
                    "router counters do not balance with {} finished requests: {after}",
                    finished.len()
                )
            },
        );
    } else {
        out.check(d("completed") == finished.len() as u64, || {
            format!(
                "daemon completed {} but clients saw {} results",
                d("completed"),
                finished.len()
            )
        });
    }
    target.shutdown();

    // Served reports must be byte-equal to in-process solves of the same
    // jobs: every K512 request, every CHECK_EVERY-th small one.
    tracer.set_enabled(traced);
    let sampled: Vec<&Record> = finished
        .iter()
        .copied()
        .filter(|r| r.report.is_some())
        .collect();
    out.note("reports_checked", sampled.len().to_string());
    if small {
        let reference = Reference::new(tracer)?;
        for r in &sampled {
            let want = reference.expected(&source.args(r.index), tracer)?;
            out.check(r.report.as_deref() == Some(want.as_str()), || {
                format!(
                    "request {}: served report differs from the in-process solve",
                    r.index
                )
            });
        }
        if traced {
            replay_admission(tracer, &reference.registry, source, &sampled);
        }
    } else {
        check_k512(
            &mut out, &sampled, throughput, source, tracer, threads, opts.seed,
        )?;
    }
    out.put(
        "error_rate",
        out.failed as f64 / out.attempted.max(1) as f64,
        "frac",
        measured.len(),
    );
    if traced {
        out.put_span_metrics(&tracer.spans(), "request");
    }
    Ok(out)
}

/// Solves every served K512 seed in process (preprocessing included, in
/// spans) and compares the report bytes; also fills the engine metrics.
fn check_k512(
    out: &mut Outcome,
    sampled: &[&Record],
    throughput: f64,
    source: &dyn Source,
    tracer: &Arc<Tracer>,
    threads: usize,
    seed: u64,
) -> Result<(), String> {
    let config = SophieConfig {
        global_iters: K512_GLOBAL_ITERS,
        sparse_crossover: Some(K512_CROSSOVER),
        ..SophieConfig::default()
    };
    let graph = tracer
        .time("graph.generate", 0, 0, || presets::k_graph(512, 1))
        .map_err(|e| e.to_string())?;
    let (c, engine) = layers::build_engine(&graph, &config, tracer, 0)?;
    // The plan the daemon's engines used: it is resolved once per process,
    // and the daemon runs in this one.
    layers::note_kernel_plan(out, config.tile_size);
    let timed = Arc::new(TimedSolver::new(Arc::new(engine), Arc::clone(tracer)));
    let solver: Arc<dyn Solver> = timed.clone();
    let graph = Arc::new(graph);
    let jobs: Vec<BatchJob> = sampled
        .iter()
        .map(|r| {
            BatchJob::new(
                Arc::clone(&solver),
                SolveJob::new(Arc::clone(&graph), source.args(r.index).seed),
            )
        })
        .collect();
    if jobs.is_empty() {
        out.check(false, || "no K512 request completed".to_string());
        return Ok(());
    }
    let start = Instant::now();
    let batch =
        run_batch(&jobs, &BatchOptions::default()).map_err(|e| format!("reference batch: {e}"))?;
    let batch_wall = start.elapsed().as_secs_f64();
    let solve_s = layers::seconds_of(&timed.take_runs());
    for (r, report) in sampled.iter().zip(&batch.reports) {
        let want = report.to_json();
        out.check(r.report.as_deref() == Some(want.as_str()), || {
            format!(
                "request {}: served report differs from the in-process solve",
                r.index
            )
        });
    }
    out.put("solve.batch_wall_s", batch_wall, "s", jobs.len());
    out.put(
        "solve.parallel_eff",
        solve_s.iter().sum::<f64>() / (batch_wall * threads as f64),
        "frac",
        jobs.len(),
    );
    // Simulated tile MVMs the daemon executed per second.
    let mvms_per_job = batch.ops.total_tile_mvms() as f64 / batch.reports.len() as f64;
    out.put(
        "sim_mvms_per_s",
        throughput * mvms_per_job,
        "1/s",
        batch.reports.len(),
    );
    if tracer.enabled() {
        layers::replay_schedules(tracer, &c, &config, &batch.reports)?;
        layers::put_engine_metrics(out, &batch.reports, &solve_s, &c, &config, seed)?;
        let registry = sophie::default_registry();
        replay_admission(tracer, &registry, source, sampled);
    }
    Ok(())
}
