//! Registry + scheduler integration tests across the whole solver family.
//!
//! Three contracts are pinned here, at the facade level, against every
//! solver in [`sophie::default_registry`]:
//!
//! 1. **Constructibility** — each of the seven configurations builds by
//!    name from its typed config and runs through the batch scheduler.
//! 2. **Stream fidelity** — `Solver::solve` emits an event stream whose
//!    FNV-1a digest matches one recorded from each solver's former
//!    observed entry point, at `SOPHIE_THREADS` 1 *and* 4. Set
//!    `SOPHIE_PRINT_DIGESTS=1` to print the digests instead of checking
//!    them.
//! 3. **Batch determinism** — a heterogeneous SOPHIE + SA batch produces
//!    bit-identical reports regardless of the worker-pool width.

mod common;

use std::sync::{Arc, Mutex};

use sophie::baselines::{BlsConfig, PtConfig, SaConfig, SbConfig};
use sophie::core::SophieConfig;
use sophie::default_registry;
use sophie::graph::generate::{gnm, WeightDist};
use sophie::graph::Graph;
use sophie::hw::OpcmBackendConfig;
use sophie::pris::PrisJobConfig;
use sophie::solve::{
    run_batch, run_seeds, BatchJob, BatchOptions, EventLog, JobBudget, SolveJob, Solver,
};

/// `SOPHIE_THREADS` is process-global; serialize the tests that set it.
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn with_threads<T>(threads: &str, f: impl FnOnce() -> T) -> T {
    std::env::set_var("SOPHIE_THREADS", threads);
    let out = f();
    std::env::remove_var("SOPHIE_THREADS");
    out
}

fn test_graph() -> Arc<Graph> {
    Arc::new(gnm(48, 220, WeightDist::UniformInt { lo: -2, hi: 2 }, 13).unwrap())
}

fn sophie_config() -> SophieConfig {
    SophieConfig {
        tile_size: 16,
        local_iters: 4,
        global_iters: 25,
        tile_fraction: 0.6,
        phi: 0.25,
        alpha: 0.1,
        ..SophieConfig::default()
    }
}

const SEED: u64 = 42;
const TARGET: Option<f64> = Some(120.0);

/// (registry name, trait solver built from a small typed config).
fn family() -> Vec<(&'static str, Arc<dyn Solver>)> {
    let registry = default_registry();
    vec![
        (
            "sophie",
            registry.build("sophie", &sophie_config()).unwrap(),
        ),
        (
            "sophie-opcm",
            registry
                .build("sophie-opcm", &(sophie_config(), opcm_config()))
                .unwrap(),
        ),
        ("pris", registry.build("pris", &pris_config()).unwrap()),
        ("sa", registry.build("sa", &sa_config()).unwrap()),
        ("sb", registry.build("sb", &sb_config()).unwrap()),
        ("pt", registry.build("pt", &pt_config()).unwrap()),
        ("bls", registry.build("bls", &bls_config()).unwrap()),
    ]
}

fn opcm_config() -> OpcmBackendConfig {
    OpcmBackendConfig {
        seed: 7,
        ..OpcmBackendConfig::default()
    }
}

fn pris_config() -> PrisJobConfig {
    PrisJobConfig {
        alpha: 0.0,
        iterations: 40,
        phi: 0.15,
    }
}

fn sa_config() -> SaConfig {
    SaConfig {
        sweeps: 60,
        ..SaConfig::default()
    }
}

fn sb_config() -> SbConfig {
    SbConfig {
        steps: 80,
        ..SbConfig::default()
    }
}

fn pt_config() -> PtConfig {
    PtConfig {
        exchanges: 10,
        ..PtConfig::default()
    }
}

fn bls_config() -> BlsConfig {
    BlsConfig {
        rounds: 12,
        ..BlsConfig::default()
    }
}

/// Digest of `solver`'s event stream on `graph` at the fixed seed and
/// target.
fn trait_digest(solver: &Arc<dyn Solver>, graph: &Arc<Graph>) -> u64 {
    let mut log = EventLog::new();
    let job = SolveJob::new(Arc::clone(graph), SEED).with_target(TARGET);
    solver.solve(&job, &mut log).unwrap();
    assert!(!log.events().is_empty(), "{}: empty stream", solver.name());
    common::event_digest(log.events())
}

/// Event-stream digests of [`family`] on [`test_graph`] at [`SEED`] and
/// [`TARGET`], recorded from each solver's former observed entry point
/// (the engine's with its ideal or OPCM backend, PRIS's runner on a model
/// preprocessed at the config's α, and the four baselines' with the job
/// seed spliced into their configs).
const GOLDEN: &[(&str, u64)] = &[
    ("sophie", 0x5882_f368_8420_7a5c),
    ("sophie-opcm", 0xa4e1_fa56_6430_3748),
    ("pris", 0x75e5_cd9b_9df7_1f6a),
    ("sa", 0xdc2c_4267_7eab_c362),
    ("sb", 0xc177_7a26_79c3_2bb6),
    ("pt", 0x61fd_1ad9_012d_cfc5),
    ("bls", 0x07d3_a3ae_b811_4c05),
];

#[test]
fn all_seven_solvers_build_by_name_and_run_through_the_scheduler() {
    let _guard = ENV_LOCK.lock().unwrap();
    let graph = test_graph();
    let entries = family();
    assert_eq!(entries.len(), 7);
    assert_eq!(
        default_registry().names(),
        ["bls", "pris", "pt", "sa", "sb", "sophie", "sophie-opcm"]
    );
    for (name, solver) in entries {
        let batch = run_seeds(&solver, &graph, 2, None).unwrap();
        assert_eq!(batch.reports.len(), 2, "{name}");
        for (seed, report) in batch.reports.iter().enumerate() {
            assert_eq!(report.seed, seed as u64, "{name}");
            assert!(report.iterations_run > 0, "{name}");
            assert!(report.best_cut.is_finite(), "{name}");
            assert!(!report.cut_trace.is_empty(), "{name}");
        }
        assert!(batch.best_cut >= batch.mean_cut, "{name}");
    }
}

#[test]
fn trait_streams_match_legacy_observed_at_one_and_four_threads() {
    let _guard = ENV_LOCK.lock().unwrap();
    let graph = test_graph();
    let print = std::env::var_os("SOPHIE_PRINT_DIGESTS").is_some();
    for (name, solver) in family() {
        for threads in ["1", "4"] {
            let got = with_threads(threads, || trait_digest(&solver, &graph));
            if print {
                println!("    (\"{name}\", {got:#018x}), // {threads}");
                continue;
            }
            let want = GOLDEN
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap_or_else(|| panic!("no golden digest for {name}"))
                .1;
            assert_eq!(got, want, "{name} at SOPHIE_THREADS={threads}");
        }
    }
}

#[test]
fn heterogeneous_sophie_plus_sa_batch_is_thread_count_independent() {
    let _guard = ENV_LOCK.lock().unwrap();
    let graph = test_graph();
    let registry = default_registry();
    let run = || {
        let sophie = registry.build("sophie", &sophie_config()).unwrap();
        let sa = registry.build("sa", &sa_config()).unwrap();
        let mut jobs = Vec::new();
        for seed in 0..3u64 {
            jobs.push(BatchJob::new(
                Arc::clone(&sophie),
                SolveJob::new(Arc::clone(&graph), seed),
            ));
            jobs.push(BatchJob::new(
                Arc::clone(&sa),
                SolveJob::new(Arc::clone(&graph), seed),
            ));
        }
        run_batch(&jobs, &BatchOptions::default()).unwrap()
    };
    let serial = with_threads("1", run);
    let four = with_threads("4", run);
    assert_eq!(serial.reports.len(), 6);
    assert_eq!(serial.reports, four.reports);
    assert_eq!(serial.mean_cut, four.mean_cut);
    assert_eq!(serial.ops, four.ops);
    // The batch really is heterogeneous, in submission order.
    let names: Vec<&str> = serial.reports.iter().map(|r| r.solver.as_str()).collect();
    assert_eq!(names, ["sophie", "sa", "sophie", "sa", "sophie", "sa"]);
}

#[test]
fn budgets_cap_iterations_deterministically_through_the_registry() {
    let graph = test_graph();
    let registry = default_registry();
    let solver = registry.build("sa", &sa_config()).unwrap();
    let job = SolveJob::new(Arc::clone(&graph), 3).with_budget(JobBudget {
        max_iterations: Some(15),
        time_limit: None,
    });
    let capped = solver
        .solve(&job, &mut sophie::solve::NullObserver)
        .unwrap();
    assert_eq!(capped.planned_iterations, 15);
    assert_eq!(capped.iterations_run, 15);
    // Same cap, direct config: identical outcome.
    let direct = registry
        .build(
            "sa",
            &SaConfig {
                sweeps: 15,
                ..sa_config()
            },
        )
        .unwrap();
    let full = direct
        .solve(
            &SolveJob::new(Arc::clone(&graph), 3),
            &mut sophie::solve::NullObserver,
        )
        .unwrap();
    assert_eq!(capped.best_cut, full.best_cut);
    assert_eq!(capped.cut_trace, full.cut_trace);
}
