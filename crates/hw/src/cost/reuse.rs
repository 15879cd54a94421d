//! Reuse-aware energy estimate from the engine's delta counters.
//!
//! The dense SOPHIE datapath recomputes every field on every MVM, whether
//! or not its inputs changed. The engine's reuse-model counters
//! (`sparse_spin_flips`, `sparse_field_updates`, `sparse_delta_macs` on
//! [`OpCounts`]) record, strategy-independently, what an *incremental*
//! update datapath would have to do instead: per global synchronization,
//! one MAC per (flipped spin, adjacent field) pair and one field-register
//! update per touched field. This module turns those counters into an
//! energy estimate for such a digital delta engine and compares it with
//! the dynamic energy the dense optical pipeline actually pays — the PPA
//! headroom a delta-driven SOPHIE ASIC revision could claim on GSET-class
//! sparse workloads.
//!
//! The estimate is deliberately conservative and simple: a delta MAC is
//! costed as two controller glue adds (multiply + accumulate in the same
//! arithmetic class as [`CostParams::glue_energy_per_add_j`]) and a field
//! update as one more (threshold compare and register write). No laser,
//! E-O, or ADC energy appears on the incremental side — the delta engine
//! is electrical.

use sophie_core::OpCounts;

use crate::arch::MachineConfig;
use crate::cost::energy::ops_energy_j;
use crate::cost::params::CostParams;
use crate::device::opcm::OpcmCellSpec;

/// Dense-vs-incremental energy comparison for one job's operation counts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReuseEstimate {
    /// Dynamic energy of the dense optical pipeline for these counts
    /// (laser + E-O + ADC + glue, via [`ops_energy_j`]).
    pub dense_dynamic_j: f64,
    /// Estimated dynamic energy of a digital delta-update datapath doing
    /// only the work the reuse counters demand.
    pub incremental_dynamic_j: f64,
    /// Scalar MACs the dense pipeline executed
    /// (`total_tile_mvms × tile_size²`).
    pub dense_macs: u64,
    /// Global-state spin flips across all synchronizations.
    pub spin_flips: u64,
    /// Field updates adjacent to at least one flipped spin (deduplicated
    /// per sync), including the initial full field pass.
    pub field_updates: u64,
    /// Delta MACs: Σ over flipped spins of their coupling degree,
    /// including the initial full pass over the nonzeros of `C`.
    pub delta_macs: u64,
}

impl ReuseEstimate {
    /// Dense-over-incremental dynamic-energy factor (`> 1` means the delta
    /// datapath is cheaper). Infinite when the incremental side is free
    /// (e.g. a run with zero activity); `NaN` only if both sides are zero.
    #[must_use]
    pub fn savings_factor(&self) -> f64 {
        self.dense_dynamic_j / self.incremental_dynamic_j
    }

    /// Fraction of dense MAC work the delta model actually needed
    /// (`delta_macs / dense_macs`); the activity level of the run as seen
    /// by the reuse model. Zero for a run with no dense MVMs.
    #[must_use]
    pub fn activity(&self) -> f64 {
        if self.dense_macs == 0 {
            0.0
        } else {
            self.delta_macs as f64 / self.dense_macs as f64
        }
    }
}

/// Builds the [`ReuseEstimate`] for one job's counts.
///
/// `ops` must come from a real engine run (or a per-sync `ops_delta`
/// slice); the analytic schedule replay leaves the reuse counters zero
/// and would make the incremental side look free.
#[must_use]
pub fn reuse_estimate(
    machine: &MachineConfig,
    params: &CostParams,
    cell: &OpcmCellSpec,
    ops: &OpCounts,
    adc_cycles: u64,
) -> ReuseEstimate {
    let t = machine.tile_size() as u64;
    let dense_dynamic_j = ops_energy_j(machine, params, cell, ops, adc_cycles);
    let incremental_dynamic_j = params.glue_energy_per_add_j
        * (2.0 * ops.sparse_delta_macs as f64 + ops.sparse_field_updates as f64);
    ReuseEstimate {
        dense_dynamic_j,
        incremental_dynamic_j,
        dense_macs: ops.total_tile_mvms() * t * t,
        spin_flips: ops.sparse_spin_flips,
        field_updates: ops.sparse_field_updates,
        delta_macs: ops.sparse_delta_macs,
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use sophie_core::observe::NullObserver;
    use sophie_core::{SolveJob, Solver, SophieConfig, SophieSolver};
    use sophie_graph::generate::{gnm, WeightDist};

    fn run_ops(n: usize, m: usize) -> OpCounts {
        let g = Arc::new(gnm(n, m, WeightDist::UniformInt { lo: -2, hi: 2 }, 9).unwrap());
        let cfg = SophieConfig {
            tile_size: 16,
            local_iters: 4,
            global_iters: 25,
            ..SophieConfig::default()
        };
        let solver = SophieSolver::from_graph(&g, cfg).unwrap();
        let out = solver
            .solve(&SolveJob::new(g, 3), &mut NullObserver)
            .unwrap();
        out.ops
    }

    fn estimate_for(ops: &OpCounts) -> ReuseEstimate {
        let m = MachineConfig::sophie_default(1);
        reuse_estimate(&m, &CostParams::default(), &OpcmCellSpec::default(), ops, 8)
    }

    #[test]
    fn zero_counts_give_zero_energy_on_both_sides() {
        let e = estimate_for(&OpCounts::default());
        assert_eq!(e.dense_dynamic_j, 0.0);
        assert_eq!(e.incremental_dynamic_j, 0.0);
        assert_eq!(e.activity(), 0.0);
    }

    #[test]
    fn engine_run_counters_flow_into_the_estimate() {
        let ops = run_ops(64, 250);
        let e = estimate_for(&ops);
        assert_eq!(e.spin_flips, ops.sparse_spin_flips);
        assert_eq!(e.field_updates, ops.sparse_field_updates);
        assert_eq!(e.delta_macs, ops.sparse_delta_macs);
        // The initial full pass alone guarantees nonzero delta work.
        assert!(e.delta_macs > 0);
        assert!(e.field_updates >= 64);
    }

    #[test]
    fn sparse_workload_shows_dense_overcompute() {
        // A sparse graph runs L local iterations per sync on every tile;
        // the delta model pays only per-flip degree work once per sync.
        let ops = run_ops(96, 300);
        let e = estimate_for(&ops);
        assert!(e.dense_macs > 0);
        assert!(
            e.activity() < 1.0,
            "delta work {} should undercut dense {}",
            e.delta_macs,
            e.dense_macs
        );
        assert!(e.savings_factor() > 1.0, "factor {}", e.savings_factor());
    }

    #[test]
    fn estimate_is_linear_in_the_counters() {
        let ops = run_ops(64, 250);
        let doubled = ops.combined(&ops);
        let e1 = estimate_for(&ops);
        let e2 = estimate_for(&doubled);
        assert!((e2.incremental_dynamic_j - 2.0 * e1.incremental_dynamic_j).abs() < 1e-24);
        assert_eq!(e2.delta_macs, 2 * e1.delta_macs);
    }
}
