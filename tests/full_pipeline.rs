//! Integration tests spanning every crate: graph generation →
//! preprocessing → tiled engine → hardware backend → PPA models.

use std::sync::Arc;

use sophie::core::backend::IdealBackend;
use sophie::core::queue::NullTimeline;
use sophie::core::{EngineRun, SophieConfig, SophieSolver};
use sophie::graph::cut::cut_value_binary;
use sophie::graph::generate::{gnm, WeightDist};
use sophie::hw::arch::MachineConfig;
use sophie::hw::cost::{edap, params::CostParams, workload::WorkloadSummary};
use sophie::hw::device::opcm::OpcmCellSpec;
use sophie::hw::OpcmBackend;
use sophie::pris::{PrisJobConfig, PrisSolver};
use sophie::solve::{NullObserver, SolveJob, Solver};

fn config(giters: usize) -> SophieConfig {
    SophieConfig {
        tile_size: 32,
        local_iters: 10,
        global_iters: giters,
        tile_fraction: 0.75,
        phi: 0.1,
        alpha: 0.0,
        stochastic_spin_update: true,
        ..SophieConfig::default()
    }
}

#[test]
fn graph_to_ppa_pipeline_runs_end_to_end() {
    // 1. Workload.
    let graph = Arc::new(gnm(200, 1200, WeightDist::Unit, 13).unwrap());
    let cfg = config(40);

    // 2. Functional run on the hardware backend.
    let solver = SophieSolver::from_graph(&graph, cfg.clone()).unwrap();
    let backend = OpcmBackend::default();
    let out = solver
        .solve_job(
            &backend,
            &SolveJob::new(Arc::clone(&graph), 5),
            &EngineRun::default(),
            &mut NullObserver,
            &mut NullTimeline,
        )
        .unwrap();
    assert!(out.best_cut > 600.0 * 0.55, "cut {}", out.best_cut);
    assert_eq!(cut_value_binary(&graph, &out.best_bits), out.best_cut);

    // 3. Operation counts feed the PPA models.
    let w = WorkloadSummary::from_ops(200, &cfg, &out.ops, 10);
    let machine = MachineConfig::sophie_default(1);
    let ppa = edap::evaluate(
        &machine,
        &CostParams::default(),
        &OpcmCellSpec::default(),
        &w,
        &out.ops,
        8,
    )
    .unwrap();
    assert!(ppa.timing.per_job_s > 0.0 && ppa.timing.per_job_s.is_finite());
    assert!(ppa.energy.total_j() > 0.0);
    assert!(ppa.area.total_mm2() > 100.0);
    assert!(ppa.edap().is_finite());
}

#[test]
fn engine_quality_tracks_pris_quality() {
    // The tiled engine approximates PRIS; on a mid-size sparse graph their
    // best cuts should be within a few percent of each other.
    let graph = Arc::new(gnm(160, 800, WeightDist::Unit, 21).unwrap());
    let job = SolveJob::new(Arc::clone(&graph), 3);
    let pris = PrisSolver::new(
        PrisJobConfig {
            alpha: 0.0,
            iterations: 600,
            phi: 0.1,
        },
        Arc::default(),
    )
    .solve(&job, &mut NullObserver)
    .unwrap();
    let solver = SophieSolver::from_graph(&graph, config(60)).unwrap();
    let tiled = solver.solve(&job, &mut NullObserver).unwrap();
    assert!(
        tiled.best_cut >= 0.9 * pris.best_cut,
        "tiled {} vs pris {}",
        tiled.best_cut,
        pris.best_cut
    );
}

#[test]
fn gset_io_round_trips_through_the_solver() {
    let graph = Arc::new(gnm(96, 400, WeightDist::PlusMinusOne, 2).unwrap());
    let text = sophie::graph::io::format_graph(&graph);
    let parsed = Arc::new(sophie::graph::io::parse_graph(&text).unwrap());
    let solver = SophieSolver::from_graph(&parsed, config(30)).unwrap();
    let out = solver
        .solve(&SolveJob::new(Arc::clone(&parsed), 1), &mut NullObserver)
        .unwrap();
    assert_eq!(cut_value_binary(&parsed, &out.best_bits), out.best_cut);
}

#[test]
fn analytic_counts_predict_engine_counts_across_crates() {
    let graph = Arc::new(gnm(128, 700, WeightDist::Unit, 9).unwrap());
    let cfg = config(15);
    let solver = SophieSolver::from_graph(&graph, cfg.clone()).unwrap();
    let schedule = sophie::core::Schedule::generate(
        solver.grid(),
        cfg.global_iters,
        cfg.tile_fraction,
        cfg.stochastic_spin_update,
        77,
    );
    let run = EngineRun {
        schedule: Some(&schedule),
        ..EngineRun::default()
    };
    let out = solver
        .solve_job(
            &IdealBackend::new(),
            &SolveJob::new(graph, 1),
            &run,
            &mut NullObserver,
            &mut NullTimeline,
        )
        .unwrap();
    let analytic = sophie::core::analytic::analytic_op_counts(128, &cfg, 77).unwrap();
    // Reuse-model counters are dynamics-dependent and stay zero in the
    // schedule-only analytic replay (see `analytic_op_counts`).
    let mut measured = out.ops;
    measured.sparse_spin_flips = 0;
    measured.sparse_field_updates = 0;
    measured.sparse_delta_macs = 0;
    assert_eq!(measured, analytic);
}
