//! Analytic (state-free) operation counting.
//!
//! The iteration schedule of the modified algorithm is fixed ahead of time
//! (§III-D) and the per-round work depends only on *which* pairs were
//! selected, never on spin values. So for performance/energy questions —
//! Table III's K16384/K32768 rows, Fig. 9's EDAP sweep — the operation
//! counts can be replayed from the schedule alone, without materializing a
//! 32768² coupling matrix or any spin state. [`analytic_op_counts`] produces
//! exactly the counts the engine would have tallied for the same schedule
//! seed (asserted by tests against real runs on small instances).

use sophie_linalg::{TileGrid, TilePair};

use crate::config::SophieConfig;
use crate::error::Result;
use crate::schedule::RoundGenerator;
use sophie_solve::OpCounts;

/// Replays the schedule for a problem of order `n` and returns the exact
/// operation counts of one job.
///
/// `schedule_seed` must match the seed handed to
/// [`crate::Schedule::generate`] for count-for-count equality with a real
/// run (engine runs derive it as `seed ^ 0x5c3a_11ed_0b57_aced`).
///
/// The reuse-model counters (`sparse_spin_flips`, `sparse_field_updates`,
/// `sparse_delta_macs`) depend on the spin dynamics and are left zero: a
/// schedule-only replay cannot know which spins flip.
///
/// # Errors
///
/// Returns configuration or tiling errors.
pub fn analytic_op_counts(n: usize, config: &SophieConfig, schedule_seed: u64) -> Result<OpCounts> {
    config.validate()?;
    let grid = TileGrid::new(n, config.tile_size)?;
    let b = grid.blocks() as u64;
    let t = grid.tile() as u64;
    let total_pairs = grid.blocks() * (grid.blocks() + 1) / 2;
    let off_pairs = total_pairs as u64 - b;
    let l = config.local_iters as u64;

    let mut ops = OpCounts::new();
    ops.tiles_programmed = total_pairs as u64;

    // Initial partial-sum pass: one 8-bit read per logical tile.
    let logical_tiles = b + 2 * off_pairs;
    ops.tile_mvms_8bit += logical_tiles;
    ops.adc_8bit_samples += logical_tiles * t;
    ops.eo_input_bits += logical_tiles * t;
    ops.glue_adds += 2 * b * b * t; // initial offset computation

    let mut gen = RoundGenerator::new(
        &grid,
        config.tile_fraction,
        config.stochastic_spin_update,
        schedule_seed,
    );
    let mut covered = vec![false; grid.blocks()];
    for _ in 0..config.global_iters {
        let round = gen.next_round();
        let mut diag_sel = 0u64;
        let mut off_sel = 0u64;
        covered.fill(false);
        for &pi in &round.pairs {
            match gen.pairs()[pi] {
                TilePair::Diagonal(d) => {
                    diag_sel += 1;
                    covered[d] = true;
                }
                TilePair::OffDiagonal { row, col } => {
                    off_sel += 1;
                    covered[row] = true;
                    covered[col] = true;
                }
            }
        }
        let lambda = diag_sel + 2 * off_sel; // logical tiles touched per pass

        ops.tile_mvms_8bit += lambda;
        ops.adc_8bit_samples += lambda * t;
        ops.tile_mvms_1bit += (l - 1) * lambda;
        ops.adc_1bit_samples += (l - 1) * lambda * t;
        ops.eo_input_bits += l * lambda * t;
        ops.noise_injections += l * lambda * t;

        let covered_cols = covered.iter().filter(|&&x| x).count() as u64;
        if !config.stochastic_spin_update {
            // Majority vote sums every fresh copy in each covered column.
            for (c, &cov) in covered.iter().enumerate() {
                if cov {
                    let votes = gen
                        .pairs()
                        .iter()
                        .enumerate()
                        .filter(|&(pi, p)| {
                            round.pairs.binary_search(&pi).is_ok()
                                && match *p {
                                    TilePair::Diagonal(d) => d == c,
                                    TilePair::OffDiagonal { row, col } => row == c || col == c,
                                }
                        })
                        .count() as u64;
                    ops.glue_adds += votes * t;
                }
            }
        }
        ops.spin_broadcast_bits += covered_cols * b * t;
        ops.partial_sum_bits += lambda * t * 8;
        ops.glue_adds += 2 * b * b * t;
        ops.global_syncs += 1;
        ops.pairs_executed += round.pairs.len() as u64;
    }
    Ok(ops)
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::backend::IdealBackend;
    use crate::engine::{EngineRun, SophieSolver};
    use crate::queue::NullTimeline;
    use crate::schedule::Schedule;
    use sophie_graph::generate::{gnm, WeightDist};
    use sophie_solve::{NullObserver, SolveJob};

    fn config(tile: usize, frac: f64, giters: usize) -> SophieConfig {
        SophieConfig {
            tile_size: tile,
            local_iters: 4,
            global_iters: giters,
            tile_fraction: frac,
            phi: 0.2,
            alpha: 0.0,
            stochastic_spin_update: true,
            ..SophieConfig::default()
        }
    }

    /// The analytic replay must equal a real engine run count-for-count.
    fn check_matches_engine(n: usize, cfg: &SophieConfig, seed: u64) {
        let g = Arc::new(gnm(n, 3 * n, WeightDist::Unit, 17).unwrap());
        let solver = SophieSolver::from_graph(&g, cfg.clone()).unwrap();
        let schedule = Schedule::generate(
            solver.grid(),
            cfg.global_iters,
            cfg.tile_fraction,
            cfg.stochastic_spin_update,
            seed,
        );
        let run = solver
            .solve_job(
                &IdealBackend::new(),
                &SolveJob::new(g, 99),
                &EngineRun {
                    schedule: Some(&schedule),
                    ..EngineRun::default()
                },
                &mut NullObserver,
                &mut NullTimeline,
            )
            .unwrap();
        let analytic = analytic_op_counts(n, cfg, seed).unwrap();
        // The reuse-model counters (`sparse_*`) depend on the spin
        // dynamics, which a schedule-only replay cannot know; the analytic
        // replay leaves them zero. Compare everything else exactly.
        let mut run_ops = run.ops;
        run_ops.sparse_spin_flips = 0;
        run_ops.sparse_field_updates = 0;
        run_ops.sparse_delta_macs = 0;
        assert_eq!(run_ops, analytic);
    }

    #[test]
    fn matches_engine_full_selection() {
        check_matches_engine(64, &config(16, 1.0, 8), 3);
    }

    #[test]
    fn matches_engine_half_selection() {
        check_matches_engine(80, &config(16, 0.5, 12), 5);
    }

    #[test]
    fn matches_engine_sparse_selection() {
        check_matches_engine(96, &config(16, 0.2, 10), 7);
    }

    #[test]
    fn matches_engine_majority_mode() {
        let cfg = SophieConfig {
            stochastic_spin_update: false,
            ..config(16, 0.6, 9)
        };
        check_matches_engine(72, &cfg, 11);
    }

    #[test]
    fn scales_to_k32768_shapes_quickly() {
        // The Table III workload: 32768 nodes, tile 64 → 512 blocks,
        // 131 328 pairs. Must run in well under a second per round set.
        let cfg = SophieConfig {
            global_iters: 5,
            ..config(64, 0.74, 5)
        };
        let ops = analytic_op_counts(32_768, &cfg, 1).unwrap();
        assert!(ops.total_tile_mvms() > 0);
        assert_eq!(ops.global_syncs, 5);
        assert_eq!(ops.tiles_programmed, 512 * 513 / 2);
    }

    #[test]
    fn halving_fraction_halves_compute() {
        let full = analytic_op_counts(1024, &config(64, 1.0, 20), 2).unwrap();
        let half = analytic_op_counts(1024, &config(64, 0.5, 20), 2).unwrap();
        let ratio = half.total_tile_mvms() as f64 / full.total_tile_mvms() as f64;
        assert!((0.4..=0.62).contains(&ratio), "ratio {ratio}");
        assert!(half.sync_traffic_bits() < full.sync_traffic_bits());
    }
}
