//! Thread-count-independence regression tests.
//!
//! The engine runs the selected tile pairs of every round concurrently on
//! the persistent worker pool, with noise drawn from counter-derived
//! per-(round, pair) RNG streams (see the `sophie_core::engine` module
//! docs). These tests pin the resulting contract: a job's entire
//! [`SolveReport`] — cut trace, best bits, activity, and the exact op
//! counts consumed by the PPA models — is bit-identical no matter what
//! `SOPHIE_THREADS` is set to, on both the exact backend and the OPCM
//! device model. A property test also randomizes the instance and the
//! algorithm configuration and compares whole event streams.

use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use sophie::core::queue::NullTimeline;
use sophie::core::{EngineRun, SophieConfig, SophieSolver};
use sophie::graph::generate::{gnm, WeightDist};
use sophie::graph::Graph;
use sophie::hw::{OpcmBackend, OpcmBackendConfig};
use sophie::solve::{run_seeds, EventLog, NullObserver, SolveJob, SolveReport, Solver};

/// `SOPHIE_THREADS` is process-global; serialize the tests that set it.
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn with_threads<T>(threads: &str, f: impl FnOnce() -> T) -> T {
    std::env::set_var("SOPHIE_THREADS", threads);
    let out = f();
    std::env::remove_var("SOPHIE_THREADS");
    out
}

fn assert_identical(serial: &SolveReport, parallel: &SolveReport, label: &str) {
    assert_eq!(serial.best_cut, parallel.best_cut, "{label}: best_cut");
    assert_eq!(serial.best_bits, parallel.best_bits, "{label}: best_bits");
    assert_eq!(serial.cut_trace, parallel.cut_trace, "{label}: cut_trace");
    assert_eq!(
        serial.activity_trace, parallel.activity_trace,
        "{label}: activity_trace"
    );
    assert_eq!(
        serial.iterations_to_target, parallel.iterations_to_target,
        "{label}: iters_to_target"
    );
    assert_eq!(serial.ops, parallel.ops, "{label}: op counts");
}

fn solve(solver: &SophieSolver, g: &Arc<Graph>, seed: u64) -> SolveReport {
    solver
        .solve(&SolveJob::new(Arc::clone(g), seed), &mut NullObserver)
        .unwrap()
}

fn test_instance() -> (Arc<Graph>, SophieSolver) {
    let g = Arc::new(gnm(96, 500, WeightDist::UniformInt { lo: -3, hi: 3 }, 11).unwrap());
    let cfg = SophieConfig {
        tile_size: 16,
        local_iters: 4,
        global_iters: 40,
        tile_fraction: 0.6,
        phi: 0.25,
        alpha: 0.1,
        ..SophieConfig::default()
    };
    let solver = SophieSolver::from_graph(&g, cfg).unwrap();
    (g, solver)
}

#[test]
fn ideal_backend_outcome_is_identical_across_thread_counts() {
    let _guard = ENV_LOCK.lock().unwrap();
    let (g, solver) = test_instance();
    for seed in [0u64, 42, 1234] {
        let serial = with_threads("1", || solve(&solver, &g, seed));
        let four = with_threads("4", || solve(&solver, &g, seed));
        let eight = with_threads("8", || solve(&solver, &g, seed));
        assert_identical(&serial, &four, &format!("ideal seed {seed}, 4 threads"));
        assert_identical(&serial, &eight, &format!("ideal seed {seed}, 8 threads"));
    }
}

#[test]
fn ideal_backend_majority_vote_mode_is_identical_across_thread_counts() {
    let _guard = ENV_LOCK.lock().unwrap();
    let g = Arc::new(gnm(64, 300, WeightDist::Unit, 5).unwrap());
    let cfg = SophieConfig {
        tile_size: 16,
        local_iters: 3,
        global_iters: 30,
        tile_fraction: 0.8,
        phi: 0.2,
        stochastic_spin_update: false,
        ..SophieConfig::default()
    };
    let solver = SophieSolver::from_graph(&g, cfg).unwrap();
    let serial = with_threads("1", || solve(&solver, &g, 9));
    let four = with_threads("4", || solve(&solver, &g, 9));
    assert_identical(&serial, &four, "ideal majority-vote");
}

#[test]
fn opcm_backend_outcome_is_identical_across_thread_counts() {
    let _guard = ENV_LOCK.lock().unwrap();
    let (g, solver) = test_instance();
    // A fresh backend per run: unit ids come from a shared counter, and the
    // engine programs units serially precisely so the id ↔ pair mapping
    // stays deterministic.
    let run = || {
        let backend = OpcmBackend::new(OpcmBackendConfig {
            seed: 7,
            ..OpcmBackendConfig::default()
        });
        solver
            .solve_job(
                &backend,
                &SolveJob::new(Arc::clone(&g), 42),
                &EngineRun::default(),
                &mut NullObserver,
                &mut NullTimeline,
            )
            .unwrap()
    };
    let serial = with_threads("1", run);
    let four = with_threads("4", run);
    let eight = with_threads("8", run);
    assert_identical(&serial, &four, "opcm, 4 threads");
    assert_identical(&serial, &eight, "opcm, 8 threads");
}

#[test]
fn scheduler_batches_over_the_trait_object_are_identical_across_thread_counts() {
    let _guard = ENV_LOCK.lock().unwrap();
    let (graph, solver) = test_instance();
    let solver: Arc<dyn Solver> = Arc::new(solver);
    let run = || run_seeds(&solver, &graph, 3, None).unwrap();
    let serial = with_threads("1", run);
    let four = with_threads("4", run);
    let eight = with_threads("8", run);
    assert_eq!(serial.reports, four.reports, "1 vs 4 threads");
    assert_eq!(serial.reports, eight.reports, "1 vs 8 threads");
    assert_eq!(serial.ops, four.ops, "aggregate op counts");
}

/// One run: outcome fields plus the full event stream rendered to a
/// string, so stream comparison is a byte comparison.
fn run_fingerprint(
    g: &Arc<Graph>,
    cfg: &SophieConfig,
    seed: u64,
) -> (f64, Vec<bool>, Vec<f64>, String) {
    let solver = SophieSolver::from_graph(g, cfg.clone()).expect("engine build");
    let mut log = EventLog::new();
    let out = solver
        .solve(&SolveJob::new(Arc::clone(g), seed), &mut log)
        .expect("run");
    (
        out.best_cut,
        out.best_bits,
        out.cut_trace,
        format!("{:?}", log.events()),
    )
}

/// Tile sizes that split the instance into a few pairs, both spin-update
/// modes, and activity from frozen (φ = 0) to busy (φ = 0.2).
fn config_strategy() -> impl Strategy<Value = SophieConfig> {
    (
        prop_oneof![Just(8usize), Just(16)],
        2usize..5,
        6usize..16,
        0.4f64..=1.0,
        prop_oneof![Just(0.0f64), Just(0.0), Just(0.2)],
        proptest::bool::ANY,
    )
        .prop_map(|(tile, local, global, frac, phi, stoch)| SophieConfig {
            tile_size: tile,
            local_iters: local,
            global_iters: global,
            tile_fraction: frac,
            phi,
            alpha: 0.0,
            stochastic_spin_update: stoch,
            ..SophieConfig::default()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random instances and configurations yield byte-identical event
    /// streams and outcomes at 1 and 4 threads.
    #[test]
    fn random_jobs_are_identical_across_thread_counts(
        cfg in config_strategy(),
        n in 32usize..72,
        edge_factor in 2usize..5,
        seed in 0u64..1000,
    ) {
        let _guard = ENV_LOCK.lock().unwrap();
        let g = Arc::new(
            gnm(n, edge_factor * n, WeightDist::UniformInt { lo: -3, hi: 3 }, seed ^ 0xA5)
                .unwrap(),
        );
        let serial = with_threads("1", || run_fingerprint(&g, &cfg, seed));
        let four = with_threads("4", || run_fingerprint(&g, &cfg, seed));
        prop_assert_eq!(&serial.0, &four.0, "best_cut diverged");
        prop_assert_eq!(&serial.1, &four.1, "best_bits diverged");
        prop_assert_eq!(&serial.2, &four.2, "cut_trace diverged");
        prop_assert_eq!(&serial.3, &four.3, "event stream diverged");
    }
}
