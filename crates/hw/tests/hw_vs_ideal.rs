//! End-to-end check that SOPHIE's algorithm survives its own hardware:
//! running the tiled engine through the OPCM device model (6-bit cells,
//! read noise, 8-bit ADC) must yield solution quality close to the exact
//! floating-point backend.

use std::sync::Arc;

use sophie_core::backend::{IdealBackend, MvmBackend};
use sophie_core::observe::NullObserver;
use sophie_core::queue::NullTimeline;
use sophie_core::{EngineRun, SolveJob, SolveReport, SophieConfig, SophieSolver};
use sophie_graph::cut::cut_value_binary;
use sophie_graph::generate::{complete, gnm, WeightDist};
use sophie_graph::Graph;
use sophie_hw::{OpcmBackend, OpcmBackendConfig};

fn config(tile: usize, giters: usize) -> SophieConfig {
    SophieConfig {
        tile_size: tile,
        local_iters: 10,
        global_iters: giters,
        tile_fraction: 1.0,
        phi: 0.25,
        alpha: 0.0,
        stochastic_spin_update: true,
        ..SophieConfig::default()
    }
}

/// One job on `backend` through the engine core.
fn solve_on<B: MvmBackend>(
    solver: &SophieSolver,
    backend: &B,
    graph: &Arc<Graph>,
    seed: u64,
) -> SolveReport {
    let job = SolveJob::new(Arc::clone(graph), seed);
    solver
        .solve_job(
            backend,
            &job,
            &EngineRun::default(),
            &mut NullObserver,
            &mut NullTimeline,
        )
        .unwrap()
}

fn best_of(solver: &SophieSolver, graph: &Arc<Graph>, runs: u64, hw: bool) -> f64 {
    (0..runs)
        .map(|seed| {
            if hw {
                let backend = OpcmBackend::new(OpcmBackendConfig {
                    seed: seed * 31 + 1,
                    ..OpcmBackendConfig::default()
                });
                solve_on(solver, &backend, graph, seed).best_cut
            } else {
                solve_on(solver, &IdealBackend::new(), graph, seed).best_cut
            }
        })
        .fold(f64::NEG_INFINITY, f64::max)
}

#[test]
fn opcm_backend_matches_ideal_quality_on_dense_graph() {
    let g = Arc::new(complete(48, WeightDist::Unit, 3).unwrap());
    let solver = SophieSolver::from_graph(&g, config(16, 80)).unwrap();
    let ideal = best_of(&solver, &g, 3, false);
    let device = best_of(&solver, &g, 3, true);
    // Optimum of K48 (unit) is 24·24 = 576.
    assert!(ideal >= 540.0, "ideal backend cut {ideal}");
    assert!(
        device >= 0.95 * ideal,
        "device backend cut {device} vs ideal {ideal}"
    );
}

#[test]
fn opcm_backend_matches_ideal_quality_on_sparse_graph() {
    let g = Arc::new(gnm(120, 600, WeightDist::Unit, 11).unwrap());
    let solver = SophieSolver::from_graph(&g, config(32, 100)).unwrap();
    let ideal = best_of(&solver, &g, 3, false);
    let device = best_of(&solver, &g, 3, true);
    assert!(
        device >= 0.93 * ideal,
        "device backend cut {device} vs ideal {ideal}"
    );
}

#[test]
fn device_run_reports_consistent_bits() {
    let g = Arc::new(gnm(64, 256, WeightDist::Unit, 5).unwrap());
    let solver = SophieSolver::from_graph(&g, config(16, 40)).unwrap();
    let backend = OpcmBackend::default();
    let out = solve_on(&solver, &backend, &g, 9);
    assert_eq!(cut_value_binary(&g, &out.best_bits), out.best_cut);
}

#[test]
fn coarser_cells_degrade_gracefully() {
    // 4-level (2-bit) cells hold much less weight precision than 64-level
    // cells; quality may dip but the machine must still beat random.
    let g = Arc::new(gnm(80, 400, WeightDist::Unit, 2).unwrap());
    let solver = SophieSolver::from_graph(&g, config(16, 80)).unwrap();
    let coarse = OpcmBackend::new(OpcmBackendConfig {
        cell: sophie_hw::device::opcm::OpcmCellSpec {
            levels: 4,
            ..Default::default()
        },
        ..OpcmBackendConfig::default()
    });
    let out = solve_on(&solver, &coarse, &g, 4);
    // Random cuts average m/2 = 200.
    assert!(out.best_cut > 210.0, "cut {}", out.best_cut);
}
