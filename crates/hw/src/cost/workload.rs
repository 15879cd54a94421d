//! Per-round workload summary derived from a schedule's operation counts.
//!
//! The timing/energy models don't consume raw [`OpCounts`] directly —
//! they need per-round averages (how many pairs run between two global
//! synchronizations, how much traffic each synchronization moves). This
//! module reduces exact per-job counts from the engine or from
//! [`sophie_core::analytic::analytic_op_counts`] into that summary.

use sophie_core::{OpCounts, SophieConfig};

/// Average per-round workload of one job, plus the batch context.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSummary {
    /// Problem order (number of spins).
    pub n: usize,
    /// Tile edge length the schedule was generated for.
    pub tile: usize,
    /// Global iterations (rounds).
    pub rounds: usize,
    /// Local iterations per round.
    pub local_iters: usize,
    /// Total symmetric pairs of the problem (physical arrays for residency).
    pub pairs_total: usize,
    /// Average pairs selected per round.
    pub avg_pairs_per_round: f64,
    /// Average logical tiles touched per local pass per round
    /// (`λ = diag + 2·offdiag` of the selection).
    pub avg_logical_tiles_per_round: f64,
    /// Average synchronization traffic per round in bits (broadcasts +
    /// partial sums), counted naively (every value to the controller).
    pub avg_sync_bits_per_round: f64,
    /// Average block columns whose spins are broadcast per round.
    pub avg_covered_cols_per_round: f64,
    /// Average controller glue adds per round.
    pub avg_glue_adds_per_round: f64,
    /// Jobs sharing one programming pass (batch size).
    pub batch_jobs: usize,
}

impl WorkloadSummary {
    /// Builds a summary from exact per-job operation counts.
    ///
    /// # Panics
    ///
    /// Panics if `ops.global_syncs == 0` or `batch_jobs == 0`.
    #[must_use]
    pub fn from_ops(n: usize, config: &SophieConfig, ops: &OpCounts, batch_jobs: usize) -> Self {
        assert!(
            ops.global_syncs > 0,
            "workload must contain at least one round"
        );
        assert!(batch_jobs > 0, "batch must contain at least one job");
        let rounds = ops.global_syncs as f64;
        let blocks = n.div_ceil(config.tile_size);
        let pairs_total = blocks * (blocks + 1) / 2;
        // Initial pass contributes one 8-bit MVM per logical tile; the rest
        // of the 8-bit MVMs are one per logical tile per round.
        let logical_tiles_total = (blocks + 2 * (pairs_total - blocks)) as f64;
        let per_round_8bit = (ops.tile_mvms_8bit as f64 - logical_tiles_total).max(0.0) / rounds;
        WorkloadSummary {
            n,
            tile: config.tile_size,
            rounds: ops.global_syncs as usize,
            local_iters: config.local_iters,
            pairs_total,
            avg_pairs_per_round: ops.pairs_executed as f64 / rounds,
            avg_logical_tiles_per_round: per_round_8bit,
            avg_sync_bits_per_round: ops.sync_traffic_bits() as f64 / rounds,
            avg_covered_cols_per_round: ops.spin_broadcast_bits as f64
                / rounds
                / (blocks * config.tile_size) as f64,
            avg_glue_adds_per_round: ops.glue_adds as f64 / rounds,
            batch_jobs,
        }
    }

    /// Number of block rows/columns of the tiling.
    #[must_use]
    pub fn blocks(&self) -> usize {
        self.n.div_ceil(self.tile)
    }

    /// Builds a summary for a problem too large to simulate, by replaying
    /// the schedule analytically.
    ///
    /// # Errors
    ///
    /// Propagates configuration/tiling errors.
    pub fn analytic(
        n: usize,
        config: &SophieConfig,
        batch_jobs: usize,
        schedule_seed: u64,
    ) -> sophie_core::Result<Self> {
        let ops = sophie_core::analytic::analytic_op_counts(n, config, schedule_seed)?;
        Ok(Self::from_ops(n, config, &ops, batch_jobs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(frac: f64) -> SophieConfig {
        SophieConfig {
            tile_size: 16,
            local_iters: 5,
            global_iters: 12,
            tile_fraction: frac,
            phi: 0.2,
            alpha: 0.0,
            stochastic_spin_update: true,
            ..SophieConfig::default()
        }
    }

    #[test]
    fn summary_from_analytic_counts() {
        let cfg = config(1.0);
        let w = WorkloadSummary::analytic(64, &cfg, 10, 7).unwrap();
        // 4 blocks → 10 pairs, 16 logical tiles.
        assert_eq!(w.pairs_total, 10);
        assert_eq!(w.rounds, 12);
        assert!((w.avg_pairs_per_round - 10.0).abs() < 1e-9);
        assert!((w.avg_logical_tiles_per_round - 16.0).abs() < 1e-9);
    }

    #[test]
    fn fraction_reduces_per_round_work() {
        let full = WorkloadSummary::analytic(128, &config(1.0), 10, 3).unwrap();
        let half = WorkloadSummary::analytic(128, &config(0.5), 10, 3).unwrap();
        assert!(half.avg_pairs_per_round < full.avg_pairs_per_round);
        assert!(half.avg_sync_bits_per_round < full.avg_sync_bits_per_round);
    }

    #[test]
    fn matches_engine_counts() {
        use std::sync::Arc;

        use sophie_core::backend::IdealBackend;
        use sophie_core::observe::NullObserver;
        use sophie_core::queue::NullTimeline;
        use sophie_core::{EngineRun, Schedule, SolveJob, SophieSolver};
        use sophie_graph::generate::{gnm, WeightDist};

        let cfg = config(0.6);
        let g = Arc::new(gnm(64, 180, WeightDist::Unit, 5).unwrap());
        let solver = SophieSolver::from_graph(&g, cfg.clone()).unwrap();
        let schedule = Schedule::generate(solver.grid(), cfg.global_iters, 0.6, true, 21);
        let run = EngineRun {
            schedule: Some(&schedule),
            ..EngineRun::default()
        };
        let out = solver
            .solve_job(
                &IdealBackend::new(),
                &SolveJob::new(g, 0),
                &run,
                &mut NullObserver,
                &mut NullTimeline,
            )
            .unwrap();
        let from_run = WorkloadSummary::from_ops(64, &cfg, &out.ops, 4);
        let analytic = WorkloadSummary::analytic(64, &cfg, 4, 21).unwrap();
        assert_eq!(from_run, analytic);
    }
}
