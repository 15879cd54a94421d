//! Sparse/dense compute-path equivalence (property-based).
//!
//! The `compute` knob on [`SophieConfig`] selects between the dense
//! [`IdealBackend`](sophie::core::backend::IdealBackend) and the
//! delta-driven [`SparseBackend`](sophie::core::SparseBackend), with
//! `Auto` switching kernels per MVM around a density-crossover threshold.
//! The contract (see `sophie_core::sparse`) is that this choice is
//! invisible in every output: cut trajectories, best bits, op counts, and
//! the *entire typed event stream* must be byte-identical across compute
//! modes, crossover settings (including thresholds that force kernel
//! switches mid-run), and thread counts.
//!
//! These tests randomize the instance, the algorithm configuration, and
//! the activity profile (φ = 0 runs freeze quickly → sparse diffs; high φ
//! keeps activity high → dense fallbacks) and compare every variant
//! against the dense reference at `SOPHIE_THREADS` 1 and 4.

use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use sophie::core::{ComputeMode, SophieConfig, SophieSolver};
use sophie::graph::generate::{gnm, WeightDist};
use sophie::graph::Graph;
use sophie::solve::{EventLog, SolveJob, Solver};

/// `SOPHIE_THREADS` is process-global; serialize the tests that set it.
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn with_threads<T>(threads: &str, f: impl FnOnce() -> T) -> T {
    std::env::set_var("SOPHIE_THREADS", threads);
    let out = f();
    std::env::remove_var("SOPHIE_THREADS");
    out
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

    /// Every compute mode and crossover setting yields byte-identical
    /// event streams and outcomes, at 1 and 4 threads.
    #[test]
    fn all_compute_paths_are_byte_identical(
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

        // Dense reference at one thread.
        let dense_cfg = SophieConfig { compute: ComputeMode::Dense, ..cfg.clone() };
        let reference = with_threads("1", || run_fingerprint(&g, &dense_cfg, seed));

        // Variants: pure sparse, auto with a genuine mid-run crossover
        // threshold, auto forced to the dense kernel (θ → 0), and auto
        // forced to the incremental kernel (θ huge).
        let variants = [
            SophieConfig { compute: ComputeMode::Sparse, ..cfg.clone() },
            SophieConfig {
                compute: ComputeMode::Auto,
                sparse_crossover: Some(0.25),
                ..cfg.clone()
            },
            SophieConfig {
                compute: ComputeMode::Auto,
                sparse_crossover: Some(1e-9),
                ..cfg.clone()
            },
            SophieConfig {
                compute: ComputeMode::Auto,
                sparse_crossover: Some(1e9),
                ..cfg.clone()
            },
        ];
        for (vi, vcfg) in variants.iter().enumerate() {
            for threads in ["1", "4"] {
                let got = with_threads(threads, || run_fingerprint(&g, vcfg, seed));
                prop_assert_eq!(
                    &reference.0, &got.0,
                    "best_cut diverged: variant {} threads {}", vi, threads
                );
                prop_assert_eq!(
                    &reference.1, &got.1,
                    "best_bits diverged: variant {} threads {}", vi, threads
                );
                prop_assert_eq!(
                    &reference.2, &got.2,
                    "cut_trace diverged: variant {} threads {}", vi, threads
                );
                prop_assert_eq!(
                    &reference.3, &got.3,
                    "event stream diverged: variant {} threads {}", vi, threads
                );
            }
        }
    }
}

/// Deterministic (non-property) spot check with a warm-started polish run
/// at φ = 0 — the late-anneal regime the sparse path is built for — and a
/// crossover threshold chosen so the auto path demonstrably switches
/// kernels mid-run.
#[test]
fn warm_started_polish_is_identical_across_paths() {
    let _guard = ENV_LOCK.lock().unwrap();
    let g = Arc::new(gnm(80, 320, WeightDist::UniformInt { lo: -2, hi: 2 }, 31).unwrap());
    let base = SophieConfig {
        tile_size: 16,
        local_iters: 4,
        global_iters: 20,
        phi: 0.0,
        ..SophieConfig::default()
    };
    let mut fingerprints = Vec::new();
    for compute in [ComputeMode::Dense, ComputeMode::Sparse, ComputeMode::Auto] {
        let cfg = SophieConfig {
            compute,
            sparse_crossover: (compute == ComputeMode::Auto).then_some(0.1),
            ..base.clone()
        };
        for threads in ["1", "4"] {
            fingerprints.push(with_threads(threads, || run_fingerprint(&g, &cfg, 7)));
        }
    }
    let first = &fingerprints[0];
    for (i, fp) in fingerprints.iter().enumerate().skip(1) {
        assert_eq!(first.0, fp.0, "best_cut diverged at variant {i}");
        assert_eq!(first.1, fp.1, "best_bits diverged at variant {i}");
        assert_eq!(first.2, fp.2, "cut_trace diverged at variant {i}");
        assert_eq!(first.3, fp.3, "event stream diverged at variant {i}");
    }
}
