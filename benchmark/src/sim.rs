//! `sim-g1`: the simulator user reproducing the paper in process.
//!
//! A G1-shaped instance (800 nodes, 19,176 unit edges) is read from GSET
//! text, preprocessed and tiled once, then batches of jobs at the paper's
//! settings (tile 64, 10 local and 500 global iterations, every tile pair
//! each round) run through `run_batch` until the run time is spent. The
//! engine and its kernels do nearly all the work; no serving layer is on
//! the path.

use std::sync::Arc;
use std::time::{Duration, Instant};

use sophie_core::{ComputeMode, KernelPlan, SophieConfig, SophieSolver};
use sophie_graph::cut::cut_value_binary;
use sophie_graph::generate::presets;
use sophie_graph::io::{format_graph, read_graph_limited, ParseLimits};
use sophie_graph::Graph;
use sophie_linalg::Matrix;
use sophie_solve::{run_batch, BatchJob, BatchOptions, SolveJob, SolveReport, Solver};

use crate::layers::{self, JobRun, TimedSolver};
use crate::report::Outcome;
use crate::stats;
use crate::trace::Tracer;
use crate::{RunOptions, DEFAULT_SEED, SETUP_REPS};

/// Digests of the first jobs' reports at [`DEFAULT_SEED`], one
/// `<job index> <hex digest>` line each. A simulator-only change must
/// reproduce them exactly.
const GOLDEN: &str = include_str!("../golden-sim-g1.txt");

/// The instance seed is fixed, so every run preprocesses the same graph;
/// the run seed picks the job seeds.
const INSTANCE_SEED: u64 = 1;

fn golden() -> Vec<(usize, u64)> {
    GOLDEN
        .lines()
        .filter_map(|l| {
            let (index, hex) = l.split_once(' ')?;
            Some((
                index.parse().ok()?,
                u64::from_str_radix(hex.trim(), 16).ok()?,
            ))
        })
        .collect()
}

/// Generation, GSET round trip, preprocessing and tiling, each a span
/// under one `setup` root.
fn setup(config: &SophieConfig, tracer: &Tracer) -> Result<(Graph, Matrix, SophieSolver), String> {
    let start = Instant::now();
    let root = tracer.next_id();
    let generated = tracer
        .time("graph.generate", root, 0, || {
            presets::g1_like(INSTANCE_SEED)
        })
        .map_err(|e| format!("generating G1: {e}"))?;
    let text = format_graph(&generated);
    let graph = tracer
        .time("graph.gset_parse", root, 0, || {
            read_graph_limited(text.as_bytes(), &ParseLimits::none())
        })
        .map_err(|e| format!("parsing G1: {e}"))?;
    let (c, engine) = layers::build_engine(&graph, config, tracer, root)?;
    tracer.record_as(root, "setup", 0, 0, start, Instant::now());
    Ok((graph, c, engine))
}

/// Jobs of one measured phase.
struct Phase {
    reports: Vec<SolveReport>,
    /// Each job's timing, from the timing wrapper.
    runs: Vec<JobRun>,
    start: Instant,
    wall: Duration,
}

/// Runs batches of jobs until `seconds` have passed, numbering jobs from
/// `first`. A first batch of two jobs per thread times the job rate; the
/// next is sized to fill the remaining time, so the workers wait at a
/// batch barrier twice rather than every few jobs.
fn measure(
    timed: &Arc<TimedSolver>,
    graph: &Arc<Graph>,
    seed: u64,
    first: usize,
    threads: usize,
    seconds: Duration,
) -> Result<Phase, String> {
    let solver: Arc<dyn Solver> = timed.clone();
    let start = Instant::now();
    let mut reports = Vec::new();
    while start.elapsed() < seconds {
        let count = if reports.is_empty() {
            2 * threads
        } else {
            let per_job = start.elapsed().as_secs_f64() / reports.len() as f64;
            let remaining = (seconds - start.elapsed()).as_secs_f64();
            ((remaining / per_job).round() as usize)
                .div_ceil(threads)
                .max(1)
                * threads
        };
        let index = first + reports.len();
        let jobs: Vec<BatchJob> = (index..index + count)
            .map(|i| {
                BatchJob::new(
                    Arc::clone(&solver),
                    SolveJob::new(Arc::clone(graph), layers::job_seed(seed, i)),
                )
            })
            .collect();
        let batch =
            run_batch(&jobs, &BatchOptions::default()).map_err(|e| format!("batch failed: {e}"))?;
        reports.extend(batch.reports);
    }
    Ok(Phase {
        reports,
        runs: timed.take_runs(),
        start,
        wall: start.elapsed(),
    })
}

/// Throughput windows: a job takes one to two seconds here, but a round
/// a few milliseconds, so each window sees dozens of rounds.
const WINDOW_S: f64 = 0.1;

/// # Errors
///
/// Set-up failures and failed batches, as text.
pub fn run(
    opts: &RunOptions,
    seconds: f64,
    tracer: &Arc<Tracer>,
    threads: usize,
) -> Result<Outcome, String> {
    // The paper's settings, on the dense compute path. The default `auto`
    // path calibrates its sparse crossover once per process, and on the
    // reference host that calibration lands near 0.15 or near 0.25 from one
    // process to the next, which moves this instance's job time by a
    // quarter; dense is also the faster path here. Results are identical
    // under every compute mode.
    let config = SophieConfig {
        compute: ComputeMode::Dense,
        ..SophieConfig::default()
    };
    let mut out = Outcome::default();
    out.note(
        "instance",
        "G1-shaped gnm(800, 19176, unit), seed 1; dense compute",
    );

    // Process-wide lazy set-up every user pays once: the kernel autotune.
    tracer.time("setup.warmup", 0, 0, || {
        KernelPlan::for_size(config.tile_size)
    });
    layers::note_kernel_plan(&mut out, config.tile_size);

    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        built = Some(setup(&config, tracer)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let (graph, c, engine) = built.expect("at least one set-up");
    out.put("ready_heap_mb", layers::live_heap_mb(), "MB", 1);
    let graph = Arc::new(graph);
    let timed = Arc::new(TimedSolver::new(Arc::new(engine), Arc::clone(tracer)));

    // A traced run measures an untraced first half against a traced second
    // half, for the tracing overhead; an untraced run measures once.
    let seconds = Duration::from_secs_f64(seconds);
    let traced = tracer.enabled();
    let cpu_before = layers::cpu_seconds()?;
    let (mut reports, phase) = if traced {
        tracer.set_enabled(false);
        let untraced = measure(&timed, &graph, opts.seed, 0, threads, seconds / 2)?;
        tracer.set_enabled(true);
        let phase = measure(
            &timed,
            &graph,
            opts.seed,
            untraced.reports.len(),
            threads,
            seconds / 2,
        )?;
        let (before, after) = (
            layers::seconds_of(&untraced.runs),
            layers::seconds_of(&phase.runs),
        );
        out.put(
            "trace.overhead_frac",
            stats::p50(&after) / stats::p50(&before) - 1.0,
            "frac",
            after.len(),
        );
        (untraced.reports, phase)
    } else {
        (
            Vec::new(),
            measure(&timed, &graph, opts.seed, 0, threads, seconds)?,
        )
    };
    let cpu_s = layers::cpu_seconds()? - cpu_before;
    out.put("peak_rss_mb", layers::peak_rss_mb()?, "MB", 1);
    reports.extend(phase.reports.iter().cloned());

    // The measured phase (the traced half of a traced run).
    let window = &phase.reports;
    let jobs = window.len();
    let wall = phase.wall.as_secs_f64();
    let solve_s = layers::seconds_of(&phase.runs);
    // Throughput from the jobs' round-by-round progress, so a window sees
    // the pace of dozens of rounds rather than a share of one job.
    let pieces: Vec<(f64, f64, f64)> = phase
        .runs
        .iter()
        .flat_map(|r| r.pieces(phase.start))
        .collect();
    out.attempted = reports.len() as u64;
    out.put("setup_s", stats::p50(&setup_s), "s", SETUP_REPS);
    let rates = stats::window_rates(&pieces, wall, WINDOW_S.min(wall));
    out.put(
        "throughput_rps",
        stats::upper_quartile(&rates),
        "1/s",
        rates.len(),
    );
    let paced_ms: Vec<f64> = phase.runs.iter().map(|r| r.paced_seconds() * 1e3).collect();
    out.put("latency_p50_ms", stats::p50(&paced_ms), "ms", jobs);
    let latency_ms: Vec<f64> = solve_s.iter().map(|s| s * 1e3).collect();
    out.put_tail("latency_p90_ms", &latency_ms, 0.90);
    out.put_tail("latency_p99_ms", &latency_ms, 0.99);
    out.put(
        "cpu_ms_per_job",
        cpu_s * 1e3 / reports.len() as f64,
        "ms",
        reports.len(),
    );
    let mvms: f64 = window.iter().map(|r| r.ops.total_tile_mvms() as f64).sum();
    out.put("sim_mvms_per_s", mvms / wall, "1/s", jobs);
    out.put(
        "best_cut_mean",
        window.iter().map(|r| r.best_cut).sum::<f64>() / jobs as f64,
        "cut",
        jobs,
    );
    out.put("solve.batch_wall_s", wall, "s", jobs);
    out.put(
        "solve.parallel_eff",
        solve_s.iter().sum::<f64>() / (wall * threads as f64),
        "frac",
        jobs,
    );

    // Correctness: every reported cut is the cut of the reported bits, every
    // job ran its full budget, and at the default seed the first jobs
    // reproduce their golden digests.
    for (i, r) in reports.iter().enumerate() {
        let recomputed = (!r.best_bits.is_empty()).then(|| cut_value_binary(&graph, &r.best_bits));
        out.check(recomputed == Some(r.best_cut), || {
            format!(
                "job {i}: best_cut {} but its bits cut {recomputed:?}",
                r.best_cut
            )
        });
        out.check(r.iterations_run == config.global_iters, || {
            format!(
                "job {i}: ran {} of {} global iterations",
                r.iterations_run, config.global_iters
            )
        });
    }
    if opts.seed == DEFAULT_SEED {
        let golden = golden();
        let checked: Vec<&(usize, u64)> =
            golden.iter().filter(|(i, _)| *i < reports.len()).collect();
        out.check(!checked.is_empty(), || {
            let digests: Vec<String> = reports
                .iter()
                .enumerate()
                .map(|(i, r)| format!("{i} {:016x}", layers::digest(r)))
                .collect();
            format!(
                "no golden digest covers the jobs run; their digests: {}",
                digests.join("; ")
            )
        });
        for &&(i, want) in &checked {
            let got = layers::digest(&reports[i]);
            out.check(got == want, || {
                format!("job {i}: digest {got:016x}, golden {want:016x}")
            });
        }
        out.note("golden_jobs_checked", checked.len().to_string());
    }

    out.put(
        "error_rate",
        out.failed as f64 / reports.len() as f64,
        "frac",
        reports.len(),
    );

    if traced {
        layers::replay_schedules(tracer, &c, &config, window)?;
        layers::put_engine_metrics(&mut out, &reports, &solve_s, &c, &config, opts.seed)?;
        out.put_span_metrics(&tracer.spans(), "setup");
    }
    Ok(out)
}
