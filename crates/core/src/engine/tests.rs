use std::sync::Arc;

use sophie_graph::cut::{binary_to_spins, cut_value};
use sophie_graph::generate::{complete, gnm, WeightDist};
use sophie_graph::Graph;
use sophie_linalg::TilePair;
use sophie_solve::{
    NullObserver, SolveError, SolveEvent, SolveJob, SolveObserver, SolveReport, Solver,
};

use super::{EngineRun, SophieSolver};
use crate::backend::IdealBackend;
use crate::config::SophieConfig;
use crate::queue::NullTimeline;
use crate::schedule::Schedule;

/// One job through `Solver::solve`.
fn solve_observing(
    solver: &SophieSolver,
    g: &Arc<Graph>,
    seed: u64,
    target: Option<f64>,
    observer: &mut dyn SolveObserver,
) -> SolveReport {
    let job = SolveJob::new(Arc::clone(g), seed).with_target(target);
    solver.solve(&job, observer).unwrap()
}

fn solve(solver: &SophieSolver, g: &Arc<Graph>, seed: u64, target: Option<f64>) -> SolveReport {
    solve_observing(solver, g, seed, target, &mut NullObserver)
}

/// One job through the backend-generic core on the ideal backend.
fn solve_run(
    solver: &SophieSolver,
    g: &Arc<Graph>,
    seed: u64,
    run: &EngineRun<'_>,
) -> Result<SolveReport, SolveError> {
    let job = SolveJob::new(Arc::clone(g), seed);
    solver.solve_job(
        &IdealBackend::new(),
        &job,
        run,
        &mut NullObserver,
        &mut NullTimeline,
    )
}

fn small_config(tile: usize, giters: usize) -> SophieConfig {
    SophieConfig {
        tile_size: tile,
        local_iters: 5,
        global_iters: giters,
        tile_fraction: 1.0,
        phi: 0.25,
        alpha: 0.0,
        stochastic_spin_update: true,
        ..SophieConfig::default()
    }
}

#[test]
fn pair_index_matches_enumeration() {
    let g = Arc::new(complete(40, WeightDist::Unit, 0).unwrap());
    let solver = SophieSolver::from_graph(&g, small_config(8, 1)).unwrap();
    let b = solver.grid().blocks();
    for r in 0..b {
        for c in 0..b {
            let pi = solver.pair_index(r, c);
            let (lo, hi) = if r <= c { (r, c) } else { (c, r) };
            let pair = solver.pairs[pi];
            match pair {
                TilePair::Diagonal(d) => assert_eq!((lo, hi), (d, d)),
                TilePair::OffDiagonal { row, col } => assert_eq!((lo, hi), (row, col)),
            }
        }
    }
}

#[test]
fn solves_k4_exactly() {
    let g = Arc::new(complete(4, WeightDist::Unit, 0).unwrap());
    let config = SophieConfig {
        tile_size: 2,
        local_iters: 3,
        global_iters: 80,
        phi: 0.3,
        ..SophieConfig::default()
    };
    let solver = SophieSolver::from_graph(&g, config).unwrap();
    let out = solve(&solver, &g, 3, Some(4.0));
    assert_eq!(out.best_cut, 4.0);
    assert!(out.iterations_to_target.is_some());
}

#[test]
fn beats_random_on_sparse_graph() {
    let g = Arc::new(gnm(96, 400, WeightDist::Unit, 7).unwrap());
    let solver = SophieSolver::from_graph(&g, small_config(16, 120)).unwrap();
    let out = solve(&solver, &g, 5, None);
    assert!(
        out.best_cut > 230.0,
        "best cut {} ≤ random baseline",
        out.best_cut
    );
    // Reported bits must reproduce the reported cut, as the ±1 ordered
    // sum computes it.
    assert_eq!(
        cut_value(&g, &binary_to_spins(&out.best_bits)),
        out.best_cut
    );
}

#[test]
fn deterministic_per_seed() {
    let g = Arc::new(gnm(48, 180, WeightDist::Unit, 2).unwrap());
    let solver = SophieSolver::from_graph(&g, small_config(16, 30)).unwrap();
    let a = solve(&solver, &g, 11, None);
    let b = solve(&solver, &g, 11, None);
    assert_eq!(a.best_cut, b.best_cut);
    assert_eq!(a.cut_trace, b.cut_trace);
    let c = solve(&solver, &g, 12, None);
    assert_ne!(a.cut_trace, c.cut_trace);
}

#[test]
fn trace_has_one_entry_per_sync_plus_initial() {
    let g = Arc::new(gnm(40, 100, WeightDist::Unit, 1).unwrap());
    let solver = SophieSolver::from_graph(&g, small_config(16, 25)).unwrap();
    let out = solve(&solver, &g, 0, None);
    assert_eq!(out.cut_trace.len(), 26);
    assert_eq!(out.iterations_run, 25);
    assert_eq!(out.ops.global_syncs, 25);
}

#[test]
fn op_counts_match_closed_form_at_full_selection() {
    let g = Arc::new(gnm(64, 200, WeightDist::Unit, 4).unwrap());
    let cfg = small_config(16, 10); // 4 blocks → 10 pairs (4 diag, 6 off)
    let solver = SophieSolver::from_graph(&g, cfg.clone()).unwrap();
    let out = solve(&solver, &g, 0, None);
    let (b, t, l, giters) = (4u64, 16u64, cfg.local_iters as u64, 10u64);
    let pairs = b * (b + 1) / 2;
    let off = pairs - b;
    let mvms_per_local_pass = b + 2 * off; // logical tiles touched
                                           // Init: every logical tile once (8-bit); per round: L passes, the
                                           // last one 8-bit.
    let expect_8bit = mvms_per_local_pass + giters * mvms_per_local_pass;
    let expect_1bit = giters * (l - 1) * mvms_per_local_pass;
    assert_eq!(out.ops.tile_mvms_8bit, expect_8bit);
    assert_eq!(out.ops.tile_mvms_1bit, expect_1bit);
    assert_eq!(out.ops.pairs_executed, giters * pairs);
    assert_eq!(out.ops.tiles_programmed, pairs);
    // All columns update each round at full selection.
    assert_eq!(out.ops.spin_broadcast_bits, giters * b * b * t);
    assert_eq!(
        out.ops.partial_sum_bits,
        giters * mvms_per_local_pass * t * 8
    );
}

#[test]
fn stochastic_selection_reduces_compute() {
    let g = Arc::new(gnm(64, 200, WeightDist::Unit, 4).unwrap());
    let full = SophieSolver::from_graph(&g, small_config(16, 20)).unwrap();
    let half_cfg = SophieConfig {
        tile_fraction: 0.5,
        ..small_config(16, 20)
    };
    let half = SophieSolver::from_graph(&g, half_cfg).unwrap();
    let fo = solve(&full, &g, 1, None);
    let ho = solve(&half, &g, 1, None);
    assert!(ho.ops.total_tile_mvms() < fo.ops.total_tile_mvms());
    assert!(ho.ops.pairs_executed <= fo.ops.pairs_executed / 2 + 20);
    assert!(ho.ops.sync_traffic_bits() < fo.ops.sync_traffic_bits());
}

#[test]
fn majority_vote_mode_runs() {
    let g = Arc::new(gnm(40, 120, WeightDist::Unit, 3).unwrap());
    let cfg = SophieConfig {
        stochastic_spin_update: false,
        ..small_config(8, 40)
    };
    let solver = SophieSolver::from_graph(&g, cfg).unwrap();
    let out = solve(&solver, &g, 2, None);
    assert!(out.best_cut > 60.0, "cut {}", out.best_cut);
}

#[test]
fn tiled_engine_matches_pris_quality_on_small_graph() {
    // With one tile covering the whole matrix and the paper's L=10, the
    // engine should solve small instances as well as plain PRIS.
    let g = Arc::new(complete(16, WeightDist::Unit, 5).unwrap());
    let cfg = SophieConfig {
        tile_size: 16,
        local_iters: 10,
        global_iters: 50,
        phi: 0.3,
        ..SophieConfig::default()
    };
    let solver = SophieSolver::from_graph(&g, cfg).unwrap();
    let out = solve(&solver, &g, 7, None);
    // Optimum of K16 (unit weights) is 8·8 = 64.
    assert!(out.best_cut >= 60.0, "cut {}", out.best_cut);
}

#[test]
fn rejects_mismatched_graph() {
    let g = Arc::new(complete(20, WeightDist::Unit, 0).unwrap());
    let other = Arc::new(complete(24, WeightDist::Unit, 0).unwrap());
    let solver = SophieSolver::from_graph(&g, small_config(8, 2)).unwrap();
    let result = solve_run(&solver, &other, 0, &EngineRun::default());
    assert!(
        matches!(result, Err(SolveError::BadJob { .. })),
        "{result:?}"
    );
}

#[test]
fn rejects_a_schedule_for_another_grid() {
    let g = Arc::new(complete(20, WeightDist::Unit, 0).unwrap());
    let solver = SophieSolver::from_graph(&g, small_config(8, 2)).unwrap();
    let other = SophieSolver::from_graph(&g, small_config(4, 2)).unwrap();
    let schedule = Schedule::generate(other.grid(), 2, 1.0, true, 0);
    let run = EngineRun {
        schedule: Some(&schedule),
        ..EngineRun::default()
    };
    let result = solve_run(&solver, &g, 0, &run);
    assert!(
        matches!(result, Err(SolveError::BadJob { .. })),
        "{result:?}"
    );
}

#[test]
fn zero_noise_still_produces_valid_runs() {
    let g = Arc::new(gnm(32, 90, WeightDist::Unit, 9).unwrap());
    let cfg = SophieConfig {
        phi: 0.0,
        ..small_config(8, 15)
    };
    let solver = SophieSolver::from_graph(&g, cfg).unwrap();
    let out = solve(&solver, &g, 0, None);
    assert!(out.best_cut >= 0.0);
    assert_eq!(
        out.ops.noise_injections,
        out.ops.adc_1bit_samples + out.ops.adc_8bit_samples - initial_samples(&solver)
    );
}

fn initial_samples(solver: &SophieSolver) -> u64 {
    // Initial partial-sum pass: one 8-bit sample set per logical tile,
    // no noise applied there.
    let b = solver.grid().blocks() as u64;
    let t = solver.grid().tile() as u64;
    let off = b * (b + 1) / 2 - b;
    (b + 2 * off) * t
}

mod observed {
    use super::*;
    use sophie_solve::{EventLog, OpCounts};

    #[test]
    fn observed_run_is_bit_identical_to_plain_run() {
        let g = Arc::new(gnm(48, 180, WeightDist::Unit, 2).unwrap());
        let solver = SophieSolver::from_graph(&g, small_config(16, 30)).unwrap();
        let plain = solve(&solver, &g, 11, Some(300.0));
        let mut log = EventLog::new();
        let observed = solve_observing(&solver, &g, 11, Some(300.0), &mut log);
        // Attaching an observer must not perturb the run…
        assert_eq!(plain, observed);
        // …and the report's bits must reproduce its best cut.
        assert_eq!(
            cut_value(&g, &binary_to_spins(&plain.best_bits)),
            plain.best_cut
        );
        assert_eq!(plain.solver, "sophie");
        assert!(matches!(
            log.events().last(),
            Some(SolveEvent::RunFinished { best_cut, .. }) if *best_cut == plain.best_cut
        ));
    }

    #[test]
    fn event_stream_follows_the_ordering_contract() {
        let g = Arc::new(gnm(40, 120, WeightDist::Unit, 3).unwrap());
        let solver = SophieSolver::from_graph(&g, small_config(8, 12)).unwrap();
        let mut log = EventLog::new();
        let out = solve_observing(&solver, &g, 4, None, &mut log);
        let events = log.into_events();
        assert!(matches!(
            events.first(),
            Some(SolveEvent::RunStarted { .. })
        ));
        assert!(matches!(
            events.last(),
            Some(SolveEvent::RunFinished { .. })
        ));
        // One sync per round plus the initial state.
        let syncs: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                SolveEvent::GlobalSync { round, .. } => Some(*round),
                _ => None,
            })
            .collect();
        assert_eq!(syncs, (0..=12).collect::<Vec<_>>());
        // The per-round ops deltas add up to the run totals.
        let delta_sum = events.iter().fold(OpCounts::new(), |acc, e| match e {
            SolveEvent::GlobalSync { ops_delta, .. } => acc.combined(ops_delta),
            _ => acc,
        });
        assert_eq!(delta_sum, out.ops);
        // Pair events stay in ascending pair order within each round.
        let mut last: Option<(usize, usize)> = None;
        for e in &events {
            if let SolveEvent::PairIterated { round, pair, .. } = e {
                if let Some((lr, lp)) = last {
                    assert!(*round > lr || (*round == lr && *pair > lp));
                }
                last = Some((*round, *pair));
            }
        }
        assert!(last.is_some(), "tiled engine must emit pair events");
    }

    #[test]
    fn target_reached_emitted_at_most_once() {
        let g = Arc::new(complete(4, WeightDist::Unit, 0).unwrap());
        let config = SophieConfig {
            tile_size: 2,
            local_iters: 3,
            global_iters: 80,
            phi: 0.3,
            ..SophieConfig::default()
        };
        let solver = SophieSolver::from_graph(&g, config).unwrap();
        let mut log = EventLog::new();
        let out = solve_observing(&solver, &g, 3, Some(4.0), &mut log);
        let hits: Vec<_> = log
            .events()
            .iter()
            .filter_map(|e| match e {
                SolveEvent::TargetReached { round, .. } => Some(*round),
                _ => None,
            })
            .collect();
        assert_eq!(hits.len(), 1);
        assert_eq!(Some(hits[0]), out.iterations_to_target);
    }
}

mod warm_start_tests {
    use super::*;
    use sophie_solve::JobBudget;

    #[test]
    fn warm_start_begins_from_the_given_state() {
        let g = Arc::new(gnm(40, 150, WeightDist::Unit, 23).unwrap());
        let cfg = SophieConfig {
            tile_size: 16,
            global_iters: 10,
            phi: 0.1,
            ..SophieConfig::default()
        };
        let solver = SophieSolver::from_graph(&g, cfg.clone()).unwrap();
        let schedule = Schedule::generate(solver.grid(), cfg.global_iters, 1.0, true, 3);
        let initial = vec![true; 40]; // all-one-side: cut 0 at iteration 0
        let run = EngineRun {
            schedule: Some(&schedule),
            initial_bits: Some(&initial),
            ..EngineRun::default()
        };
        let out = solve_run(&solver, &g, 1, &run).unwrap();
        assert_eq!(out.cut_trace[0], 0.0);
        assert!(out.best_cut > 0.0, "annealing should escape the start");
    }

    #[test]
    fn warm_start_from_good_state_does_not_regress_best() {
        let g = Arc::new(gnm(48, 200, WeightDist::Unit, 29).unwrap());
        let cfg = SophieConfig {
            tile_size: 16,
            global_iters: 30,
            phi: 0.08,
            ..SophieConfig::default()
        };
        let solver = SophieSolver::from_graph(&g, cfg.clone()).unwrap();
        let cold = solve(&solver, &g, 5, None);
        let schedule = Schedule::generate(solver.grid(), cfg.global_iters, 1.0, true, 7);
        let run = EngineRun {
            schedule: Some(&schedule),
            initial_bits: Some(&cold.best_bits),
            ..EngineRun::default()
        };
        let warm = solve_run(&solver, &g, 6, &run).unwrap();
        // The warm run starts at the cold run's best, so its best can only
        // match or improve it.
        assert!(warm.best_cut >= cold.best_cut);
        assert_eq!(warm.cut_trace[0], cold.best_cut);
    }

    #[test]
    fn rejects_wrong_length_initial_state() {
        let g = Arc::new(gnm(30, 90, WeightDist::Unit, 1).unwrap());
        let cfg = SophieConfig {
            tile_size: 16,
            global_iters: 2,
            ..SophieConfig::default()
        };
        let solver = SophieSolver::from_graph(&g, cfg.clone()).unwrap();
        let schedule = Schedule::generate(solver.grid(), 2, 1.0, true, 0);
        let run = EngineRun {
            schedule: Some(&schedule),
            initial_bits: Some(&[true; 10]),
            ..EngineRun::default()
        };
        let result = solve_run(&solver, &g, 0, &run);
        assert!(
            matches!(result, Err(SolveError::BadJob { .. })),
            "{result:?}"
        );
    }

    #[test]
    fn a_budget_caps_a_supplied_schedule() {
        let g = Arc::new(gnm(30, 90, WeightDist::Unit, 1).unwrap());
        let solver = SophieSolver::from_graph(&g, small_config(8, 20)).unwrap();
        let schedule = Schedule::generate(solver.grid(), 20, 1.0, true, 4);
        let run = EngineRun {
            schedule: Some(&schedule),
            ..EngineRun::default()
        };
        let job = |budget| SolveJob::new(Arc::clone(&g), 2).with_budget(budget);
        let solve_capped = |budget| {
            solver
                .solve_job(
                    &IdealBackend::new(),
                    &job(budget),
                    &run,
                    &mut NullObserver,
                    &mut NullTimeline,
                )
                .unwrap()
        };
        let full = solve_capped(JobBudget::default());
        let capped = solve_capped(JobBudget {
            max_iterations: Some(7),
            time_limit: None,
        });
        assert_eq!((full.planned_iterations, full.iterations_run), (20, 20));
        assert_eq!((capped.planned_iterations, capped.iterations_run), (7, 7));
        // The capped run is a prefix of the full one.
        assert_eq!(capped.cut_trace[..], full.cut_trace[..8]);
    }
}

mod reuse_tally {
    use sophie_linalg::SparseCsr;
    use sophie_solve::OpCounts;

    use super::super::tally_reuse;

    /// The tally without the saturation exit: every flipped row scanned.
    fn full_scan(adjacency: &SparseCsr, prev: &[bool], now: &[bool]) -> (u64, u64, u64) {
        let mut seen = vec![false; prev.len()];
        let (mut flips, mut touched, mut macs) = (0, 0, 0);
        for (j, (&a, &b)) in prev.iter().zip(now).enumerate() {
            if a != b {
                flips += 1;
                let rows = adjacency.row(j);
                macs += rows.len() as u64;
                for &i in rows {
                    if !seen[i as usize] {
                        seen[i as usize] = true;
                        touched += 1;
                    }
                }
            }
        }
        (flips, touched, macs)
    }

    /// Drives the tally over a random walk of spin states with a few to
    /// all spins flipping per step, and checks every step's counters
    /// against the full scan.
    fn assert_matches_full_scan(n: usize, density_permille: u64, seed: u64) {
        let mut state = seed | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            state >> 33
        };
        let data: Vec<f32> = (0..n * n)
            .map(|k| {
                let (r, c) = (k / n, k % n);
                f32::from(u8::from(r != c && next() % 1000 < density_permille))
            })
            .collect();
        let adjacency = SparseCsr::from_dense(n, n, &data).unwrap();
        let mut stamp = vec![0_u32; n];
        let mut gen = 0_u32;
        let mut prev: Vec<bool> = (0..n).map(|_| next() % 2 == 1).collect();
        for step in 0..200 {
            let flip_permille = [5, 50, 300, 1000][step % 4];
            let now: Vec<bool> = prev
                .iter()
                .map(|&b| b ^ (next() % 1000 < flip_permille))
                .collect();
            let mut ops = OpCounts::new();
            tally_reuse(&adjacency, &prev, &now, &mut stamp, &mut gen, &mut ops);
            assert_eq!(
                (
                    ops.sparse_spin_flips,
                    ops.sparse_field_updates,
                    ops.sparse_delta_macs
                ),
                full_scan(&adjacency, &prev, &now),
                "n={n} density={density_permille}‰ step {step}"
            );
            prev = now;
        }
    }

    #[test]
    fn saturating_tally_matches_a_full_scan_on_a_dense_pattern() {
        assert_matches_full_scan(96, 1000, 3);
    }

    #[test]
    fn saturating_tally_matches_a_full_scan_on_a_sparse_pattern() {
        assert_matches_full_scan(200, 20, 5);
    }
}
