//! Tests pinning the paper's qualitative claims at reduced scale.

use std::sync::Arc;

use sophie::baselines::{best_known_cut, Effort};
use sophie::core::{SophieConfig, SophieSolver};
use sophie::graph::generate::{gnm, WeightDist};
use sophie::graph::Graph;
use sophie::linalg::TileGrid;
use sophie::solve::{NullObserver, SolveJob, SolveReport, Solver};

fn solve(solver: &SophieSolver, g: &Arc<Graph>, seed: u64, target: Option<f64>) -> SolveReport {
    let job = SolveJob::new(Arc::clone(g), seed).with_target(target);
    solver.solve(&job, &mut NullObserver).unwrap()
}

fn base_config() -> SophieConfig {
    SophieConfig {
        tile_size: 16,
        local_iters: 10,
        global_iters: 80,
        tile_fraction: 1.0,
        phi: 0.1,
        alpha: 0.0,
        stochastic_spin_update: true,
        ..SophieConfig::default()
    }
}

/// Claim (§III-D, Conclusion): symmetric tile mapping saves ≈½ the OPCM
/// array area.
#[test]
fn symmetric_mapping_halves_physical_arrays() {
    for n in [512usize, 1024, 2048] {
        let grid = TileGrid::new(n, 64).unwrap();
        let logical = grid.logical_tiles();
        let physical = grid.symmetric_pairs().len();
        let saving = logical as f64 / physical as f64;
        assert!(
            (1.75..=2.0).contains(&saving),
            "n={n}: saving {saving}× should approach 2×"
        );
    }
}

/// Claim (Abstract, §IV): stochastic global iteration removes 25–50 % of
/// computation and synchronization traffic at 50–75 % tile selection.
#[test]
fn stochastic_selection_cuts_25_to_50_percent_of_work() {
    let cfg_full = base_config();
    let cfg_half = SophieConfig {
        tile_fraction: 0.5,
        ..base_config()
    };
    let cfg_75 = SophieConfig {
        tile_fraction: 0.75,
        ..base_config()
    };
    let full = sophie::core::analytic::analytic_op_counts(512, &cfg_full, 1).unwrap();
    let half = sophie::core::analytic::analytic_op_counts(512, &cfg_half, 1).unwrap();
    let sel75 = sophie::core::analytic::analytic_op_counts(512, &cfg_75, 1).unwrap();

    let ratio_half = half.total_tile_mvms() as f64 / full.total_tile_mvms() as f64;
    let ratio_75 = sel75.total_tile_mvms() as f64 / full.total_tile_mvms() as f64;
    assert!(
        (0.45..0.60).contains(&ratio_half),
        "50% selection → {ratio_half}"
    );
    assert!(
        (0.70..0.85).contains(&ratio_75),
        "75% selection → {ratio_75}"
    );
    assert!(half.sync_traffic_bits() < full.sync_traffic_bits());
}

/// Claim (Fig. 7): reducing the selected fraction degrades quality only
/// mildly (within ~10 % of the best-known solution at the same budget).
#[test]
fn quality_degrades_mildly_with_fewer_tiles() {
    let graph = Arc::new(gnm(192, 1000, WeightDist::Unit, 4).unwrap());
    let reference = best_known_cut(&graph, Effort::Quick);

    let quality = |fraction: f64| {
        let cfg = SophieConfig {
            tile_fraction: fraction,
            ..base_config()
        };
        let solver = SophieSolver::from_graph(&graph, cfg).unwrap();
        let mut best: f64 = 0.0;
        for seed in 0..3 {
            best = best.max(solve(&solver, &graph, seed, None).best_cut);
        }
        best / reference
    };

    let full = quality(1.0);
    let half = quality(0.5);
    assert!(full > 0.85, "full selection quality {full}");
    assert!(
        half > full - 0.12,
        "half selection quality {half} vs {full}"
    );
}

/// Claim (Fig. 8 trend): more local iterations per global iteration (less
/// synchronization) needs more total iterations to converge.
#[test]
fn skipping_synchronization_slows_convergence() {
    let graph = Arc::new(gnm(160, 900, WeightDist::Unit, 8).unwrap());
    let reference = best_known_cut(&graph, Effort::Quick);
    let target = 0.9 * reference;

    let avg_local_iters_to_target = |local: usize| {
        let cfg = SophieConfig {
            local_iters: local,
            global_iters: 3000 / local, // same total local-iteration budget
            ..base_config()
        };
        let solver = SophieSolver::from_graph(&graph, cfg).unwrap();
        let mut total = 0.0;
        let mut hits = 0u32;
        for seed in 0..4 {
            let out = solve(&solver, &graph, seed, Some(target));
            if let Some(g) = out.iterations_to_target {
                total += (g * local) as f64;
                hits += 1;
            }
        }
        (
            hits,
            if hits > 0 {
                total / f64::from(hits)
            } else {
                f64::INFINITY
            },
        )
    };

    let (hits_tight, iters_tight) = avg_local_iters_to_target(2);
    let (hits_loose, iters_loose) = avg_local_iters_to_target(30);
    assert!(hits_tight >= 3, "frequent sync should converge reliably");
    // Less frequent synchronization must not make convergence *faster*
    // in local-iteration terms (the paper's upper-left-corner effect).
    if hits_loose > 0 {
        assert!(
            iters_loose >= 0.8 * iters_tight,
            "loose sync {iters_loose} vs tight {iters_tight}"
        );
    }
}

/// Claim (§IV-B, Fig. 6): a moderate positive φ beats both the noiseless
/// and the very noisy regimes.
#[test]
fn moderate_noise_is_optimal() {
    let graph = Arc::new(gnm(128, 640, WeightDist::Unit, 6).unwrap());
    let quality = |phi: f64| {
        let cfg = SophieConfig {
            phi,
            ..base_config()
        };
        let solver = SophieSolver::from_graph(&graph, cfg).unwrap();
        (0..3)
            .map(|seed| solve(&solver, &graph, seed, None).best_cut)
            .fold(f64::NEG_INFINITY, f64::max)
    };
    let none = quality(0.0);
    let moderate = quality(0.08);
    let heavy = quality(1.5);
    assert!(
        moderate > none,
        "noise should help escape: {moderate} vs {none}"
    );
    assert!(
        moderate > heavy,
        "too much noise should hurt: {moderate} vs {heavy}"
    );
}
