//! `repro` — regenerate the SOPHIE paper's tables and figures.
//!
//! Usage:
//!
//! ```text
//! repro <table1|table2|table3|fig6|fig7|fig8|fig9|fig10|summary|ablations|power|robustness|all> [--fast] [--out DIR]
//! repro trace --out <path.jsonl> [--graph NAME] [--seed N] [--fast]
//! repro solvers
//! repro serve [--addr HOST:PORT] [--queue N] [--conns N] [--workers N] [--port-file PATH]
//! repro submit --addr HOST:PORT --solver NAME [--graph NAME] [--stream] ...
//! repro ctl <stats|solvers|ping|shutdown> --addr HOST:PORT
//! repro loadgen [--addr HOST:PORT] [--clients N] [--requests N] [--rate RPS] [--out PATH.jsonl] ...
//! ```
//!
//! `--fast` shrinks grids/repetitions for a minutes-scale run; the default
//! uses the paper's settings. Results print to stdout and are mirrored as
//! CSV into the output directory (default `results/`).
//!
//! `trace` runs one SOPHIE job and dumps its solve-event stream as JSONL
//! (schema in EXPERIMENTS.md § "Event traces"). `timeline` runs one
//! fault-injected job through the OPCM device model and dumps the
//! engine's device-command stream with per-command §IV-A costs (schema in
//! EXPERIMENTS.md § "Command timelines"). `solvers` lists every
//! solver registered in the workspace [`sophie::default_registry`] with
//! its capabilities, and smoke-runs each one through the batch scheduler
//! on a tiny instance.

use std::path::PathBuf;
use std::process::ExitCode;

use sophie_bench::experiments;
use sophie_bench::{Fidelity, Instances, Report};

const USAGE: &str = "usage: repro <table1|table2|table3|fig6|fig7|fig8|fig9|fig10|summary|ablations|power|robustness|all|bench-summary> [--fast] [--out DIR]\n       repro tune [--check] [--out DIR]\n       repro problems [--fast] [--out DIR]\n       repro trace --out <path.jsonl> [--graph NAME] [--seed N] [--fast]\n       repro timeline --out <path.jsonl> [--graph NAME] [--seed N] [--fast]\n       repro solvers\n       repro <serve|cluster|submit|ctl|loadgen> ... (serving layer; wrong flags print the full usage)";

/// `repro solvers`: one line per registered solver (name, capability
/// flags, config type, summary), then a scheduler smoke-run of every
/// default-configured solver on a small complete graph.
fn list_solvers() -> ExitCode {
    use std::sync::Arc;

    use sophie_solve::{run_batch, BatchJob, BatchOptions, SolveJob};

    let registry = sophie::default_registry();
    println!("{} registered solvers:\n", registry.len());
    for name in registry.names() {
        let solver = registry
            .build_default(name)
            .expect("default configs are valid");
        let caps = solver.capabilities();
        let flags = [
            (caps.tiled, "tiled"),
            (caps.op_model, "op-model"),
            (caps.fault_model, "fault-model"),
        ]
        .iter()
        .filter(|(on, _)| *on)
        .map(|(_, label)| *label)
        .collect::<Vec<_>>()
        .join(",");
        println!(
            "  {name:<12} [{}] config {} — {}",
            if flags.is_empty() { "-" } else { &flags },
            registry.config_type(name).unwrap_or("?"),
            registry.summary(name).unwrap_or(""),
        );
    }

    println!("\nscheduler smoke-run (K16, 2 seeds each):");
    let graph = match sophie_graph::generate::presets::k_graph(16, 1) {
        Ok(g) => Arc::new(g),
        Err(e) => {
            eprintln!("cannot generate smoke graph: {e:?}");
            return ExitCode::FAILURE;
        }
    };
    let mut jobs: Vec<BatchJob> = Vec::new();
    let mut labels: Vec<&'static str> = Vec::new();
    for name in registry.names() {
        let solver = registry
            .build_default(name)
            .expect("default configs are valid");
        for seed in 0..2u64 {
            jobs.push(BatchJob::new(
                Arc::clone(&solver),
                SolveJob::new(Arc::clone(&graph), seed),
            ));
            labels.push(name);
        }
    }
    match run_batch(&jobs, &BatchOptions::default()) {
        Ok(batch) => {
            for (label, r) in labels.iter().zip(&batch.reports) {
                println!(
                    "  {label:<12} seed {}: best cut {:.1} after {} iterations",
                    r.seed, r.best_cut, r.iterations_run
                );
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("smoke batch failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    // Serving subcommands own their flag vocabulary (--addr, --clients, ...)
    // which the experiment flag loop below would reject — dispatch them on
    // the raw tail first.
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if let Some(first) = raw.first() {
        if sophie_bench::serving::is_serving_command(first) {
            return sophie_bench::serving::cli(first, &raw[1..]);
        }
    }

    let mut command: Option<String> = None;
    let mut fast = false;
    let mut check = false;
    let mut out_dir: Option<PathBuf> = None;
    let mut graph_name = "K100".to_string();
    let mut seed = 0u64;

    let mut args = raw.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--fast" => fast = true,
            "--check" => check = true,
            "--out" => match args.next() {
                Some(dir) => out_dir = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("--out requires a path\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--graph" => match args.next() {
                Some(name) => graph_name = name,
                None => {
                    eprintln!("--graph requires an instance name\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--seed" => match args.next().and_then(|s| s.parse().ok()) {
                Some(s) => seed = s,
                None => {
                    eprintln!("--seed requires an unsigned integer\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if command.is_none() && !other.starts_with('-') => {
                command = Some(other.to_string());
            }
            other => {
                eprintln!("unexpected argument {other:?}\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(command) = command else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };

    if command == "solvers" {
        return list_solvers();
    }

    if command == "trace" {
        // Single-run event dump: --out names the JSONL file itself.
        let Some(path) = out_dir else {
            eprintln!("trace requires --out <path.jsonl>\n{USAGE}");
            return ExitCode::FAILURE;
        };
        let fidelity = Fidelity::from_fast_flag(fast);
        let mut instances = Instances::new();
        eprintln!("\n### tracing {graph_name} seed {seed} ({fidelity:?}) ###");
        let start = std::time::Instant::now();
        match sophie_bench::trace::write_trace(&mut instances, &graph_name, seed, fidelity, &path) {
            Ok(s) => {
                eprintln!(
                    "### trace done in {:.1?}: {} events, best cut {}, wrote {} ###",
                    start.elapsed(),
                    s.events_written,
                    s.best_cut,
                    path.display()
                );
                return ExitCode::SUCCESS;
            }
            Err(e) => {
                eprintln!("cannot write trace {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }

    if command == "timeline" {
        // Single-run device-command dump with per-command costs: --out
        // names the JSONL file itself.
        let Some(path) = out_dir else {
            eprintln!("timeline requires --out <path.jsonl>\n{USAGE}");
            return ExitCode::FAILURE;
        };
        let fidelity = Fidelity::from_fast_flag(fast);
        let mut instances = Instances::new();
        eprintln!("\n### timeline {graph_name} seed {seed} ({fidelity:?}) ###");
        let start = std::time::Instant::now();
        match sophie_bench::timeline::write_timeline(
            &mut instances,
            &graph_name,
            seed,
            fidelity,
            &path,
        ) {
            Ok(s) => {
                eprintln!(
                    "### timeline done in {:.1?}: {} device + {} host records \
                     ({} probes), best cut {}, {:.1} µs / {:.3} µJ device budget, wrote {} ###",
                    start.elapsed(),
                    s.device_records,
                    s.host_records,
                    s.probe_records,
                    s.best_cut,
                    s.total_ns / 1e3,
                    s.total_j * 1e6,
                    path.display()
                );
                return ExitCode::SUCCESS;
            }
            Err(e) => {
                eprintln!("cannot write timeline {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }

    if command == "bench-summary" {
        // Microbench sweep, not a paper experiment: medians land next to
        // the repo (or in --out DIR) as BENCH_sophie.json for PR-over-PR
        // tracking.
        let path = out_dir
            .map(|d| d.join("BENCH_sophie.json"))
            .unwrap_or_else(|| PathBuf::from("BENCH_sophie.json"));
        eprintln!("\n### running bench-summary (quick mode) ###");
        let start = std::time::Instant::now();
        if let Err(e) = sophie_bench::micro::write_bench_summary(&path) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!(
            "### bench-summary done in {:.1?}, wrote {} ###",
            start.elapsed(),
            path.display()
        );
        return ExitCode::SUCCESS;
    }

    if command == "tune" {
        // Host kernel timing record: times every variant on distinct 0/1
        // inputs at the acceptance tile sizes, next to each size's fixed
        // plan, and upserts the `kernel_tune` block of BENCH_sophie.json
        // (next to the repo, or in --out DIR).
        let path = out_dir
            .map(|d| d.join("BENCH_sophie.json"))
            .unwrap_or_else(|| PathBuf::from("BENCH_sophie.json"));
        eprintln!("\n### timing the tile kernels ###");
        let start = std::time::Instant::now();
        let outcome = sophie_bench::tune::run_tune();
        sophie_bench::tune::print_report(&outcome);
        if let Err(e) = sophie_bench::tune::write_kernel_tune(&path, &outcome) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!(
            "### tune done in {:.1?}, wrote {} ###",
            start.elapsed(),
            path.display()
        );
        if check && outcome.forward_64_speedup < sophie_bench::tune::CHECK_MIN_SPEEDUP {
            eprintln!(
                "tune --check FAILED: forward 64\u{b2} speedup {:.2}\u{d7} < required {:.1}\u{d7}",
                outcome.forward_64_speedup,
                sophie_bench::tune::CHECK_MIN_SPEEDUP
            );
            return ExitCode::FAILURE;
        }
        return ExitCode::SUCCESS;
    }

    if command == "problems" {
        // Problem-compiler sweep: every front end compiled, solved through
        // the registry, decoded; upserts the `problems` block of
        // BENCH_sophie.json (next to the repo, or in --out DIR).
        let path = out_dir
            .map(|d| d.join("BENCH_sophie.json"))
            .unwrap_or_else(|| PathBuf::from("BENCH_sophie.json"));
        let fidelity = Fidelity::from_fast_flag(fast);
        eprintln!("\n### running problem-compiler sweep ({fidelity:?}) ###");
        let start = std::time::Instant::now();
        let cells = match sophie_bench::problems::run_sweep(fidelity) {
            Ok(cells) => cells,
            Err(e) => {
                eprintln!("problem sweep failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        sophie_bench::problems::print_report(&cells);
        if let Err(e) = sophie_bench::problems::write_problems(&path, &cells, fidelity) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!(
            "### problems done in {:.1?}, wrote {} ###",
            start.elapsed(),
            path.display()
        );
        return ExitCode::SUCCESS;
    }

    let out_dir = out_dir.unwrap_or_else(|| PathBuf::from("results"));
    let fidelity = Fidelity::from_fast_flag(fast);
    let report = match Report::new(&out_dir) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cannot create output directory {}: {e}", out_dir.display());
            return ExitCode::FAILURE;
        }
    };
    let mut instances = Instances::new();

    type Exp = fn(&mut Instances, Fidelity, &Report) -> std::io::Result<()>;
    let all: &[(&str, Exp)] = &[
        ("table1", experiments::table1::run),
        ("fig6", experiments::fig6::run),
        ("fig7", experiments::fig7::run),
        ("fig8", experiments::fig8::run),
        ("fig9", experiments::fig9::run),
        ("fig10", experiments::fig10::run),
        ("table2", experiments::table2::run),
        ("table3", experiments::table3::run),
        ("summary", experiments::summary::run),
        ("ablations", experiments::ablations::run),
        ("power", experiments::power::run),
        ("robustness", experiments::robustness::run),
    ];

    let selected: Vec<&(&str, Exp)> = if command == "all" {
        all.iter().collect()
    } else {
        match all.iter().find(|(name, _)| *name == command) {
            Some(e) => vec![e],
            None => {
                eprintln!("unknown experiment {command:?}\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    };

    for (name, exp) in selected {
        eprintln!("\n### running {name} ({fidelity:?}) ###");
        let start = std::time::Instant::now();
        if let Err(e) = exp(&mut instances, fidelity, &report) {
            eprintln!("experiment {name} failed: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("### {name} done in {:.1?} ###", start.elapsed());
    }
    ExitCode::SUCCESS
}
