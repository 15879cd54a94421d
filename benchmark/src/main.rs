//! The repository benchmark: four workloads covering the simulator, the
//! solve daemon and the router, each measured end to end with tracing off
//! and layer by layer in a separate traced run.
//!
//! ```text
//! benchmark run [--workload NAME] [--seed N] [--seconds RUN_SECONDS] [--trace 0|1|SPANS.jsonl] [--out RESULTS.jsonl]
//! benchmark compare BASE.jsonl NEW.jsonl
//! ```
//!
//! `run` prints a table and, as its last line, one JSON object with the
//! end-to-end metrics (or, when traced, the per-layer ones), and exits
//! non-zero if a correctness check failed. Without `--workload` it runs
//! every workload, each in its own child process. `--out` appends a full
//! record per run for `compare`. The metric set, units, bounds and the
//! run length (`run_seconds`) come from the repository's `BENCHMARK.json`,
//! compiled in; `--seconds`, when given, must repeat that run length.

mod compare;
mod layers;
mod load;
mod report;
mod serving;
mod sim;
mod spec;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::sync::Arc;

use report::RunInfo;
use serving::Serving;
use sophie_serve::Json;
use spec::Spec;
use trace::Tracer;

#[global_allocator]
static ALLOC: layers::CountingAlloc = layers::CountingAlloc;

/// The seed the golden digests were recorded at.
pub const DEFAULT_SEED: u64 = 0;
/// Set-ups per run (the small serving workloads make more); `setup_s` is
/// their median.
pub const SETUP_REPS: usize = 5;
/// Scratch space inside the working directory: the kernel-tune cache and
/// the span files.
const SCRATCH: &str = ".bench_out";

const USAGE: &str = "usage: benchmark run [--workload NAME] [--seed N] [--seconds RUN_SECONDS] [--trace 0|1|SPANS.jsonl] [--out RESULTS.jsonl]\n       benchmark compare BASE.jsonl NEW.jsonl";

#[derive(Debug, Clone)]
pub struct RunOptions {
    pub workload: Option<String>,
    pub seed: u64,
    /// Where the spans go; `None` runs untraced.
    pub spans: Option<PathBuf>,
    pub out: Option<PathBuf>,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run_cmd(&args[1..]),
        Some("compare") => compare::cli(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    result.unwrap_or_else(|message| {
        eprintln!("benchmark: {message}");
        ExitCode::from(2)
    })
}

fn parse_run(args: &[String], spec: &Spec) -> Result<RunOptions, String> {
    let mut opts = RunOptions {
        workload: None,
        seed: DEFAULT_SEED,
        spans: None,
        out: None,
    };
    let mut trace: Option<String> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => opts.workload = Some(value()?.clone()),
            "--seed" => {
                opts.seed = value()?
                    .parse()
                    .map_err(|_| "--seed needs a whole number")?
            }
            // Part of the benchmark's invocation: it must repeat the run
            // length the spec fixes, so every run is as long.
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|_| "--seconds needs a number")?;
                if seconds != spec.run_seconds as f64 {
                    return Err(format!(
                        "--seconds {seconds}: every run measures run_seconds = {} of BENCHMARK.json",
                        spec.run_seconds
                    ));
                }
            }
            "--trace" => trace = Some(value()?.clone()),
            "--out" => opts.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    if let Some(w) = &opts.workload {
        if !spec.workloads.contains(w) {
            return Err(format!(
                "unknown workload {w:?}; known: {}",
                spec.workloads.join(", ")
            ));
        }
    }
    opts.spans = match trace.as_deref() {
        None | Some("0") => None,
        Some("1") => Some(PathBuf::from(format!(
            "{SCRATCH}/spans-{}-{}.jsonl",
            opts.workload.as_deref().unwrap_or("all"),
            opts.seed
        ))),
        Some(path) => Some(PathBuf::from(path)),
    };
    Ok(opts)
}

fn run_cmd(args: &[String]) -> Result<ExitCode, String> {
    if cfg!(debug_assertions) {
        return Err("refusing to measure a debug build; build with --release".into());
    }
    let spec = Spec::load()?;
    let opts = parse_run(args, &spec)?;
    match opts.workload.clone() {
        Some(workload) => run_one(&spec, &opts, &workload),
        None => run_all(&spec, &opts, args),
    }
}

/// Runs every workload in its own child process, so each one's peak
/// memory and process-wide caches are its own.
fn run_all(spec: &Spec, opts: &RunOptions, args: &[String]) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics = Vec::new();
    for workload in &spec.workloads {
        let mut child_args = vec!["run".to_string(), "--workload".into(), workload.clone()];
        child_args.extend(args.iter().cloned());
        if opts.spans.is_some() {
            // Each child writes its spans to its own default file.
            let pos = child_args
                .iter()
                .position(|a| a == "--trace")
                .expect("traced runs name --trace");
            child_args[pos + 1] = "1".into();
        }
        let output = Command::new(&exe)
            .args(&child_args)
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("running {workload}: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        let last = stdout.lines().last().unwrap_or("");
        let Ok(result) = Json::parse(last) else {
            eprintln!("benchmark: {workload} printed no result");
            correct = false;
            continue;
        };
        correct &= result.get("correct").and_then(Json::as_bool) == Some(true);
        attempted += result.get("attempted").and_then(Json::as_u64).unwrap_or(0);
        failed += result.get("failed").and_then(Json::as_u64).unwrap_or(0);
        if let Some(members) = result.get("metrics").and_then(Json::as_obj) {
            metrics.extend(
                members
                    .iter()
                    .map(|(k, v)| format!("\"{workload}.{k}\":{v}")),
            );
        }
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        metrics.join(",")
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Pins the environment the measurement depends on: the engine's worker
/// pool at the host's core count, no kernel override, and a fresh kernel
/// autotune cache inside the working directory (so the autotune runs in
/// this process's warm-up). Called before any thread starts.
fn pin_environment(cores: usize) -> Result<PathBuf, String> {
    std::fs::create_dir_all(SCRATCH).map_err(|e| format!("{SCRATCH}: {e}"))?;
    let cache = PathBuf::from(format!("{SCRATCH}/kernel-tune-{}", std::process::id()));
    let _ = std::fs::remove_file(&cache);
    std::env::set_var("SOPHIE_THREADS", cores.to_string());
    std::env::remove_var("SOPHIE_KERNEL");
    std::env::set_var("SOPHIE_KERNEL_CACHE", &cache);
    Ok(cache)
}

/// The checked-out revision, read from `.git` without running git;
/// `unknown` outside a git checkout.
fn git_revision() -> String {
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(Path::new(".git/HEAD")) else {
        return "unknown".into();
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(reference) => read(&Path::new(".git").join(reference))
            .or_else(|| {
                read(Path::new(".git/packed-refs"))?
                    .lines()
                    .find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
            })
            .unwrap_or_else(|| "unknown".into()),
    }
}

fn run_one(spec: &Spec, opts: &RunOptions, workload: &str) -> Result<ExitCode, String> {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let cache = pin_environment(cores)?;
    let tracer = Arc::new(Tracer::new(opts.spans.is_some()));
    let seconds = spec.run_seconds as f64;
    let outcome = match workload {
        "sim-g1" => sim::run(opts, seconds, &tracer, cores),
        "serve-sophie-k512" => serving::run(Serving::SophieK512, opts, seconds, &tracer, cores),
        "serve-small" => serving::run(Serving::Small, opts, seconds, &tracer, cores),
        "routed-small" => serving::run(Serving::RoutedSmall, opts, seconds, &tracer, cores),
        other => Err(format!(
            "workload {other:?} is in BENCHMARK.json but not implemented"
        )),
    };
    let _ = std::fs::remove_file(&cache);
    let mut outcome = outcome?;
    if let Some(path) = &opts.spans {
        tracer
            .write_jsonl(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        outcome.note("spans", path.display().to_string());
    }
    let info = RunInfo {
        workload,
        seed: opts.seed,
        seconds,
        traced: opts.spans.is_some(),
        host_cores: cores,
        git_revision: git_revision(),
    };
    let correct = report::emit(spec, &info, &outcome, opts.out.as_deref())?;
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
