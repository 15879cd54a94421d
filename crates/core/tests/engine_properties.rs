//! Property-based tests of the tiled engine's invariants.

use std::sync::Arc;

use proptest::prelude::*;
use sophie_core::backend::IdealBackend;
use sophie_core::observe::NullObserver;
use sophie_core::queue::NullTimeline;
use sophie_core::{EngineRun, Schedule, SolveJob, SolveReport, Solver, SophieConfig, SophieSolver};
use sophie_graph::cut::cut_value_binary;
use sophie_graph::generate::{gnm, WeightDist};
use sophie_graph::Graph;

fn solve(solver: &SophieSolver, g: &Arc<Graph>, seed: u64, target: Option<f64>) -> SolveReport {
    let job = SolveJob::new(Arc::clone(g), seed).with_target(target);
    solver.solve(&job, &mut NullObserver).unwrap()
}

fn config_strategy() -> impl Strategy<Value = SophieConfig> {
    (
        prop_oneof![Just(8usize), Just(16), Just(24)],
        1usize..6,
        2usize..10,
        0.25f64..=1.0,
        0.0f64..0.3,
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
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The reported best configuration must reproduce the reported cut,
    /// for every configuration of the engine.
    #[test]
    fn best_bits_always_match_best_cut(cfg in config_strategy(), seed in 0u64..100) {
        let g = Arc::new(gnm(48, 180, WeightDist::Unit, 11).unwrap());
        let solver = SophieSolver::from_graph(&g, cfg).unwrap();
        let out = solve(&solver, &g, seed, None);
        prop_assert_eq!(cut_value_binary(&g, &out.best_bits), out.best_cut);
    }

    /// The best cut equals the maximum of the trace, and the trace has one
    /// entry per synchronization plus the initial state.
    #[test]
    fn trace_invariants(cfg in config_strategy(), seed in 0u64..100) {
        let g = Arc::new(gnm(40, 150, WeightDist::PlusMinusOne, 7).unwrap());
        let solver = SophieSolver::from_graph(&g, cfg.clone()).unwrap();
        let out = solve(&solver, &g, seed, None);
        prop_assert_eq!(out.cut_trace.len(), cfg.global_iters + 1);
        let trace_max = out.cut_trace.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(out.best_cut, trace_max);
    }

    /// Identical (seed, schedule) runs are bit-for-bit identical;
    /// different seeds diverge (with noise enabled).
    #[test]
    fn determinism(cfg in config_strategy(), seed in 0u64..50) {
        let g = Arc::new(gnm(40, 160, WeightDist::Unit, 3).unwrap());
        let solver = SophieSolver::from_graph(&g, cfg).unwrap();
        let a = solve(&solver, &g, seed, None);
        let b = solve(&solver, &g, seed, None);
        prop_assert_eq!(a.cut_trace, b.cut_trace);
        prop_assert_eq!(a.best_bits, b.best_bits);
    }

    /// Engine-measured operation counts equal the analytic schedule
    /// replay, for every configuration.
    #[test]
    fn op_counts_match_analytic(cfg in config_strategy(), sched_seed in 0u64..100) {
        let g = Arc::new(gnm(48, 200, WeightDist::Unit, 5).unwrap());
        let solver = SophieSolver::from_graph(&g, cfg.clone()).unwrap();
        let schedule = Schedule::generate(
            solver.grid(),
            cfg.global_iters,
            cfg.tile_fraction,
            cfg.stochastic_spin_update,
            sched_seed,
        );
        let run = EngineRun { schedule: Some(&schedule), ..EngineRun::default() };
        let job = SolveJob::new(g, 1);
        let out = solver
            .solve_job(&IdealBackend::new(), &job, &run, &mut NullObserver, &mut NullTimeline)
            .unwrap();
        let analytic =
            sophie_core::analytic::analytic_op_counts(48, &cfg, sched_seed).unwrap();
        // The reuse-model counters are dynamics-dependent; the analytic
        // replay leaves them zero (see `analytic_op_counts` docs).
        let mut measured = out.ops;
        measured.sparse_spin_flips = 0;
        measured.sparse_field_updates = 0;
        measured.sparse_delta_macs = 0;
        prop_assert_eq!(measured, analytic);
    }

    /// Selecting fewer tiles never increases per-round compute.
    #[test]
    fn fraction_monotonicity(frac_lo in 0.2f64..0.5, frac_hi in 0.6f64..1.0) {
        let base = SophieConfig {
            tile_size: 16,
            global_iters: 6,
            ..SophieConfig::default()
        };
        let lo = sophie_core::analytic::analytic_op_counts(
            96,
            &SophieConfig { tile_fraction: frac_lo, ..base.clone() },
            9,
        )
        .unwrap();
        let hi = sophie_core::analytic::analytic_op_counts(
            96,
            &SophieConfig { tile_fraction: frac_hi, ..base },
            9,
        )
        .unwrap();
        prop_assert!(lo.total_tile_mvms() <= hi.total_tile_mvms());
        prop_assert!(lo.pairs_executed <= hi.pairs_executed);
    }

    /// A target below the achieved best must be detected, and the hit
    /// iteration must be consistent with the trace.
    #[test]
    fn target_detection_is_consistent(cfg in config_strategy(), seed in 0u64..50) {
        let g = Arc::new(gnm(40, 150, WeightDist::Unit, 13).unwrap());
        let solver = SophieSolver::from_graph(&g, cfg).unwrap();
        let free = solve(&solver, &g, seed, None);
        let target = free.best_cut; // achievable by construction
        let tracked = solve(&solver, &g, seed, Some(target));
        let hit = tracked.iterations_to_target;
        prop_assert!(hit.is_some());
        let g_hit = hit.unwrap();
        prop_assert!(tracked.cut_trace[g_hit] >= target);
        for before in 0..g_hit {
            prop_assert!(tracked.cut_trace[before] < target);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Activity (spins flipped per sync) has one entry per round and each
    /// entry is bounded by the graph order; late activity should not
    /// exceed the maximum possible (sanity of the Hamming accounting).
    #[test]
    fn activity_trace_is_well_formed(cfg in config_strategy(), seed in 0u64..40) {
        let g = Arc::new(gnm(40, 150, WeightDist::Unit, 19).unwrap());
        let solver = SophieSolver::from_graph(&g, cfg.clone()).unwrap();
        let out = solve(&solver, &g, seed, None);
        prop_assert_eq!(out.activity_trace.len(), cfg.global_iters);
        for &flips in &out.activity_trace {
            prop_assert!(flips <= 40);
        }
    }
}
