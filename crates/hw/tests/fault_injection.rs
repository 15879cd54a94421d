//! Fault-injection study: how much GST device degradation SOPHIE's
//! algorithm absorbs before solution quality collapses.

use std::sync::Arc;

use sophie_core::observe::NullObserver;
use sophie_core::queue::NullTimeline;
use sophie_core::{EngineRun, SolveJob, SophieConfig, SophieSolver};
use sophie_graph::generate::{gnm, WeightDist};
use sophie_graph::Graph;
use sophie_hw::device::variability::VariabilityModel;
use sophie_hw::{OpcmBackend, OpcmBackendConfig};

fn solver_and_graph() -> (SophieSolver, Arc<Graph>) {
    let g = Arc::new(gnm(128, 640, WeightDist::Unit, 17).unwrap());
    let cfg = SophieConfig {
        tile_size: 32,
        global_iters: 100,
        phi: 0.1,
        ..SophieConfig::default()
    };
    (SophieSolver::from_graph(&g, cfg).unwrap(), g)
}

fn best_with(model: VariabilityModel, solver: &SophieSolver, g: &Arc<Graph>) -> f64 {
    (0..3u64)
        .map(|seed| {
            let backend = OpcmBackend::new(OpcmBackendConfig {
                variability: model,
                seed: seed + 1,
                ..OpcmBackendConfig::default()
            });
            solver
                .solve_job(
                    &backend,
                    &SolveJob::new(Arc::clone(g), seed),
                    &EngineRun::default(),
                    &mut NullObserver,
                    &mut NullTimeline,
                )
                .unwrap()
                .best_cut
        })
        .fold(f64::NEG_INFINITY, f64::max)
}

#[test]
fn tolerates_realistic_drift() {
    let (solver, g) = solver_and_graph();
    let healthy = best_with(VariabilityModel::ideal(), &solver, &g);
    // A decade of normalized drift at ν = 0.02 plus 1 % mismatch.
    let drifted = best_with(
        VariabilityModel {
            drift_nu: 0.02,
            drift_time: 10.0,
            ..VariabilityModel::default()
        },
        &solver,
        &g,
    );
    assert!(
        drifted >= 0.95 * healthy,
        "drifted {drifted} vs healthy {healthy}"
    );
}

#[test]
fn tolerates_one_percent_stuck_cells() {
    let (solver, g) = solver_and_graph();
    let healthy = best_with(VariabilityModel::ideal(), &solver, &g);
    let faulty = best_with(
        VariabilityModel {
            stuck_fraction: 0.01,
            ..VariabilityModel::ideal()
        },
        &solver,
        &g,
    );
    assert!(
        faulty >= 0.92 * healthy,
        "1% stuck cells: {faulty} vs healthy {healthy}"
    );
}

#[test]
fn heavy_faults_degrade_gracefully_not_catastrophically() {
    let (solver, g) = solver_and_graph();
    let heavy = best_with(
        VariabilityModel {
            stuck_fraction: 0.10,
            ..VariabilityModel::ideal()
        },
        &solver,
        &g,
    );
    // Even at 10 % stuck cells the machine must beat a random cut
    // (m/2 = 320): annealing dynamics absorb weight errors.
    assert!(heavy > 340.0, "10% stuck cells: cut {heavy}");
}

#[test]
fn quality_is_monotone_in_fault_rate_on_average() {
    let (solver, g) = solver_and_graph();
    let lo = best_with(
        VariabilityModel {
            stuck_fraction: 0.005,
            ..VariabilityModel::ideal()
        },
        &solver,
        &g,
    );
    let hi = best_with(
        VariabilityModel {
            stuck_fraction: 0.25,
            ..VariabilityModel::ideal()
        },
        &solver,
        &g,
    );
    assert!(lo >= hi - 5.0, "low faults {lo} vs high faults {hi}");
}
