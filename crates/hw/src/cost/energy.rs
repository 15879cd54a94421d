//! Energy model.
//!
//! Combines exact per-job operation counts with the §IV-A constants.
//! Dynamic energies (laser, conversion, programming, DRAM, glue) scale
//! with operation counts; static power (SRAM, controller, DRAM background)
//! integrates over the batch run time from [`crate::cost::timing`].

use sophie_core::OpCounts;

use crate::arch::MachineConfig;
use crate::cost::params::CostParams;
use crate::cost::timing::TimingBreakdown;
use crate::cost::workload::WorkloadSummary;
use crate::device::opcm::OpcmCellSpec;

/// Where the energy of one job goes (joules).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// Laser power integrated over MVM activity.
    pub laser_j: f64,
    /// E-O modulation of the 1-bit spin inputs.
    pub eo_j: f64,
    /// O-E conversion (photodetector + ADC), both precisions.
    pub adc_j: f64,
    /// GST programming (electrical switching), amortized over the batch.
    pub programming_j: f64,
    /// DRAM traffic (matrix load, context swaps, synchronization).
    pub dram_j: f64,
    /// Controller glue arithmetic.
    pub glue_j: f64,
    /// SRAM buffers: dynamic access energy plus leakage over the run.
    pub sram_j: f64,
    /// Static power (controller + DRAM background) × run time.
    pub static_j: f64,
}

impl EnergyBreakdown {
    /// Total energy per job.
    #[must_use]
    pub fn total_j(&self) -> f64 {
        self.laser_j
            + self.eo_j
            + self.adc_j
            + self.programming_j
            + self.dram_j
            + self.glue_j
            + self.sram_j
            + self.static_j
    }
}

/// Dynamic energy of one operation-count slice (joules).
///
/// Evaluates the op-proportional terms of [`job_energy`] — laser, E-O
/// modulation, O-E conversion (ADC), and controller glue — for an
/// arbitrary [`OpCounts`] slice, such as the `ops_delta` carried by each
/// `GlobalSync` solve event
/// ([`sophie_core::observe::SolveEvent::GlobalSync`]). Every term is
/// linear in the counts, so the per-sync energies of a run sum exactly
/// to the dynamic energy of the run's total counts; this is what makes
/// per-round energy attribution from an event stream well-defined.
///
/// Programming, DRAM, SRAM, and static power are batch-amortized or
/// time-integrated and cannot be attributed to a single sync; use
/// [`job_energy`] for the full per-job breakdown.
#[must_use]
pub fn ops_energy_j(
    machine: &MachineConfig,
    params: &CostParams,
    cell: &OpcmCellSpec,
    ops: &OpCounts,
    adc_cycles: u64,
) -> f64 {
    let (laser_j, eo_j, adc_j, glue_j) = dynamic_terms(machine, params, cell, ops, adc_cycles);
    laser_j + eo_j + adc_j + glue_j
}

/// Programming energy of recovery reprograms alone.
///
/// [`job_energy`] derives its programming term from the workload *shape*
/// (pairs × rounds), which does not see reprograms issued by the health
/// monitor at run time; those are tallied in `ops.recovery_reprograms`.
/// Each writes a full array (`2 t²` cells). Add this to a job's energy
/// when the run used fault recovery.
#[must_use]
pub fn recovery_energy_j(params: &CostParams, tile_size: usize, ops: &OpCounts) -> f64 {
    let cells_per_array = (2 * tile_size * tile_size) as f64;
    ops.recovery_reprograms as f64 * cells_per_array * params.program_energy_per_cell_j
}

/// The four op-proportional energy terms shared by [`job_energy`] and
/// [`ops_energy_j`]: `(laser_j, eo_j, adc_j, glue_j)`.
fn dynamic_terms(
    machine: &MachineConfig,
    params: &CostParams,
    cell: &OpcmCellSpec,
    ops: &OpCounts,
    adc_cycles: u64,
) -> (f64, f64, f64, f64) {
    let t = machine.tile_size();
    let cycle = machine.cycle_s();

    // Laser: while an array computes, T wavelengths are lit at the power
    // the loss model demands (detector power scales with the summation
    // width to keep 8-bit SNR); 1-bit reads hold the laser 1 cycle, 8-bit
    // reads `adc_cycles` cycles.
    let laser_power_array =
        cell.laser_power_per_wavelength_w(t, params.detector_power_for_tile_w(t)) * t as f64;
    let laser_cycles = ops.tile_mvms_1bit as f64 + ops.tile_mvms_8bit as f64 * adc_cycles as f64;
    let laser_j = laser_power_array * laser_cycles * cycle;

    let eo_j = params.eo.energy_j(ops.eo_input_bits);
    let adc_j = params.oe.energy_1bit_j(ops.adc_1bit_samples)
        + params
            .oe
            .energy_multibit_j(ops.adc_8bit_samples, adc_cycles);
    let glue_j = params.glue_energy_per_add_j * ops.glue_adds as f64;
    (laser_j, eo_j, adc_j, glue_j)
}

/// Computes the per-job energy.
///
/// `ops` are per-job operation counts (engine-measured or analytic);
/// `timing` comes from [`crate::cost::timing::batch_time`] for the same
/// workload; `cell` supplies the optical-loss model for laser power.
#[must_use]
pub fn job_energy(
    machine: &MachineConfig,
    params: &CostParams,
    cell: &OpcmCellSpec,
    w: &WorkloadSummary,
    ops: &OpCounts,
    timing: &TimingBreakdown,
    adc_cycles: u64,
) -> EnergyBreakdown {
    let t = machine.tile_size();
    let batch = w.batch_jobs as f64;

    let (laser_j, eo_j, adc_j, glue_j) = dynamic_terms(machine, params, cell, ops, adc_cycles);

    // Programming: resident problems program each array once per batch;
    // non-resident problems reprogram every wave of every round. Either
    // way the cost is shared by the whole batch.
    let cells_per_array = 2 * t * t;
    let program_events = if timing.resident {
        w.pairs_total as f64
    } else {
        w.pairs_total as f64 + w.rounds as f64 * w.avg_pairs_per_round
    };
    let programming_j =
        program_events * cells_per_array as f64 * params.program_energy_per_cell_j / batch;

    // DRAM traffic: the matrix load is batch-shared; context swaps and
    // sync aggregates are per job.
    let matrix_bits = (w.n as f64) * (w.n as f64) * 8.0;
    let context_bits = if timing.resident {
        0.0
    } else {
        w.rounds as f64 * w.avg_pairs_per_round * (w.tile as f64) * 18.0
    };
    let sync_bits = w.rounds as f64
        * (2.0 * w.blocks() as f64 * w.tile as f64 * 8.0
            + w.avg_covered_cols_per_round * w.tile as f64);
    let dram_j = params.dram_energy_per_bit_j * (matrix_bits / batch + context_bits + sync_bits);

    // SRAM: every MVM reads its input spins and offset vector and writes
    // its thresholded output; 8-bit reads store multi-bit partial sums.
    let sram_bytes = (machine.total_arrays() * w.batch_jobs) as f64
        * machine.accelerator.chiplet.pe.buffer_bytes_per_job() as f64;
    let sram_bits_accessed = ops.eo_input_bits as f64       // spin reads
        + ops.adc_1bit_samples as f64                        // bit writes
        + 8.0 * ops.adc_8bit_samples as f64                  // partial-sum writes
        + 8.0 * (ops.total_tile_mvms() * t as u64) as f64; // offset reads
    let sram_j = params.sram_energy_per_bit_j(sram_bytes) * sram_bits_accessed
        + params.sram_power_w(sram_bytes) * timing.per_job_s;

    // Static power over the job's share of the batch time.
    let static_power =
        machine.accelerators as f64 * (params.control_power_w + params.dram_static_power_w);
    let static_j = static_power * timing.per_job_s;

    EnergyBreakdown {
        laser_j,
        eo_j,
        adc_j,
        programming_j,
        dram_j,
        glue_j,
        sram_j,
        static_j,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::timing::batch_time;
    use sophie_core::SophieConfig;

    fn setup(n: usize, batch: usize, accels: usize) -> (MachineConfig, WorkloadSummary, OpCounts) {
        let cfg = SophieConfig {
            tile_size: 64,
            local_iters: 10,
            global_iters: 50,
            tile_fraction: 0.74,
            ..SophieConfig::default()
        };
        let ops = sophie_core::analytic::analytic_op_counts(n, &cfg, 3).unwrap();
        let w = WorkloadSummary::from_ops(n, &cfg, &ops, batch);
        (MachineConfig::sophie_default(accels), w, ops)
    }

    fn energy(n: usize, batch: usize, accels: usize) -> EnergyBreakdown {
        let (m, w, ops) = setup(n, batch, accels);
        let p = CostParams::default();
        let t = batch_time(&m, &p, &w, 8).unwrap();
        job_energy(&m, &p, &OpcmCellSpec::default(), &w, &ops, &t, 8)
    }

    #[test]
    fn all_components_are_positive() {
        let e = energy(2000, 100, 1);
        assert!(e.laser_j > 0.0);
        assert!(e.eo_j > 0.0);
        assert!(e.adc_j > 0.0);
        assert!(e.programming_j > 0.0);
        assert!(e.dram_j > 0.0);
        assert!(e.glue_j > 0.0);
        assert!(e.static_j > 0.0);
        assert!(e.total_j().is_finite());
    }

    #[test]
    fn batching_amortizes_programming_energy() {
        let single = energy(2000, 1, 1);
        let batched = energy(2000, 100, 1);
        assert!(batched.programming_j < single.programming_j / 50.0);
    }

    #[test]
    fn nonresident_problems_pay_reprogramming() {
        let small = energy(2000, 100, 4); // resident on 4 accelerators
        let large = energy(16_384, 100, 1); // heavily non-resident
        assert!(large.programming_j > small.programming_j * 10.0);
    }

    #[test]
    fn ops_energy_is_zero_for_empty_counts() {
        let (m, _, _) = setup(2000, 1, 1);
        let e = ops_energy_j(
            &m,
            &CostParams::default(),
            &OpcmCellSpec::default(),
            &OpCounts::default(),
            8,
        );
        assert_eq!(e, 0.0);
    }

    #[test]
    fn ops_energy_matches_job_energy_dynamic_terms() {
        let (m, w, ops) = setup(4096, 10, 1);
        let p = CostParams::default();
        let cell = OpcmCellSpec::default();
        let t = batch_time(&m, &p, &w, 8).unwrap();
        let full = job_energy(&m, &p, &cell, &w, &ops, &t, 8);
        let dynamic = ops_energy_j(&m, &p, &cell, &ops, 8);
        let expected = full.laser_j + full.eo_j + full.adc_j + full.glue_j;
        assert!((dynamic - expected).abs() <= 1e-12 * expected.abs());
    }

    #[test]
    fn per_sync_deltas_attribute_the_whole_run_energy() {
        // Drive a real engine run through an event log and check that the
        // per-sync `ops_delta` energies sum to the energy of the run's
        // total counts — the linearity contract per-round attribution
        // rests on.
        use std::sync::Arc;

        use sophie_core::observe::{EventLog, SolveEvent};
        use sophie_core::{SolveJob, Solver, SophieConfig, SophieSolver};
        use sophie_graph::generate::{gnm, WeightDist};

        let g = Arc::new(gnm(64, 300, WeightDist::UniformInt { lo: -2, hi: 2 }, 9).unwrap());
        let cfg = SophieConfig {
            tile_size: 16,
            local_iters: 4,
            global_iters: 20,
            ..SophieConfig::default()
        };
        let solver = SophieSolver::from_graph(&g, cfg).unwrap();
        let mut log = EventLog::new();
        let out = solver.solve(&SolveJob::new(g, 3), &mut log).unwrap();

        let m = MachineConfig::sophie_default(1);
        let p = CostParams::default();
        let cell = OpcmCellSpec::default();
        let per_sync: f64 = log
            .events()
            .iter()
            .filter_map(|ev| match ev {
                SolveEvent::GlobalSync { ops_delta, .. } => {
                    Some(ops_energy_j(&m, &p, &cell, ops_delta, 8))
                }
                _ => None,
            })
            .sum();
        let total = ops_energy_j(&m, &p, &cell, &out.ops, 8);
        assert!(total > 0.0);
        assert!(
            (per_sync - total).abs() <= 1e-9 * total,
            "per-sync {per_sync} vs total {total}"
        );
    }

    #[test]
    fn total_is_sum_of_parts() {
        let e = energy(4096, 10, 1);
        let sum = e.laser_j
            + e.eo_j
            + e.adc_j
            + e.programming_j
            + e.dram_j
            + e.glue_j
            + e.sram_j
            + e.static_j;
        assert!((e.total_j() - sum).abs() < 1e-18);
    }
}
