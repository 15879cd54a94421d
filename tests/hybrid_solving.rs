//! Hybrid solving flows: SOPHIE composed with the classical baselines.

use std::sync::Arc;

use sophie::baselines::local_search::{search, BlsConfig};
use sophie::baselines::sb::{bifurcate, SbConfig};
use sophie::core::backend::IdealBackend;
use sophie::core::queue::NullTimeline;
use sophie::core::{EngineRun, Schedule, SophieConfig, SophieSolver};
use sophie::graph::cut::{cut_value_binary, spins_to_binary};
use sophie::graph::generate::{gnm, WeightDist};
use sophie::graph::Graph;
use sophie::solve::{NullObserver, SolveJob, SolveReport, Solver};

/// One job on the ideal backend over `schedule`, warm-started from
/// `initial_bits` when given.
fn polish(
    solver: &SophieSolver,
    g: &Arc<Graph>,
    schedule: &Schedule,
    seed: u64,
    initial_bits: Option<&[bool]>,
) -> SolveReport {
    let run = EngineRun {
        schedule: Some(schedule),
        initial_bits,
        ..EngineRun::default()
    };
    solver
        .solve_job(
            &IdealBackend::new(),
            &SolveJob::new(Arc::clone(g), seed),
            &run,
            &mut NullObserver,
            &mut NullTimeline,
        )
        .unwrap()
}

#[test]
fn sophie_polishes_an_sb_solution() {
    let g = Arc::new(gnm(96, 460, WeightDist::Unit, 31).unwrap());
    // A deliberately short SB run leaves room for improvement.
    let sb = bifurcate(
        &g,
        &SbConfig {
            steps: 30,
            ..SbConfig::default()
        },
    );
    let cfg = SophieConfig {
        tile_size: 16,
        global_iters: 60,
        phi: 0.08,
        ..SophieConfig::default()
    };
    let solver = SophieSolver::from_graph(&g, cfg.clone()).unwrap();
    let schedule = Schedule::generate(solver.grid(), cfg.global_iters, 1.0, true, 5);
    let warm = polish(
        &solver,
        &g,
        &schedule,
        3,
        Some(&spins_to_binary(&sb.best_spins)),
    );
    assert!(
        warm.best_cut >= sb.best_cut,
        "warm start must not regress: {} vs {}",
        warm.best_cut,
        sb.best_cut
    );
}

#[test]
fn local_search_certifies_sophie_output_as_partition() {
    let g = Arc::new(gnm(80, 360, WeightDist::Unit, 37).unwrap());
    let cfg = SophieConfig {
        tile_size: 16,
        global_iters: 80,
        phi: 0.08,
        ..SophieConfig::default()
    };
    let solver = SophieSolver::from_graph(&g, cfg).unwrap();
    let out = solver
        .solve(&SolveJob::new(Arc::clone(&g), 1), &mut NullObserver)
        .unwrap();
    // The reported cut is the cut of the reported bits.
    assert_eq!(cut_value_binary(&g, &out.best_bits), out.best_cut);
    // A one-flip local search from scratch should land in the same league
    // (sanity that SOPHIE's output is competitive, not degenerate).
    let bls = search(&g, &BlsConfig::default());
    assert!(
        out.best_cut >= 0.85 * bls.best_cut,
        "{} vs {}",
        out.best_cut,
        bls.best_cut
    );
}

#[test]
fn chained_batches_keep_improving_or_hold() {
    let g = Arc::new(gnm(64, 300, WeightDist::Unit, 41).unwrap());
    let cfg = SophieConfig {
        tile_size: 16,
        global_iters: 25,
        phi: 0.08,
        ..SophieConfig::default()
    };
    let solver = SophieSolver::from_graph(&g, cfg.clone()).unwrap();
    let mut bits: Option<Vec<bool>> = None;
    let mut best = f64::NEG_INFINITY;
    for stage in 0..3u64 {
        let schedule = Schedule::generate(solver.grid(), cfg.global_iters, 1.0, true, stage);
        let out = polish(&solver, &g, &schedule, stage + 10, bits.as_deref());
        assert!(out.best_cut >= best || bits.is_none());
        best = best.max(out.best_cut);
        bits = Some(out.best_bits);
    }
    assert!(best > 150.0, "chained best {best}"); // random ≈ m/2 = 150
}
