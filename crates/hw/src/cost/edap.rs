//! Combined PPA evaluation and the EDAP metric (paper Fig. 9).

use sophie_core::OpCounts;

use crate::arch::MachineConfig;
use crate::cost::area::{machine_area, AreaBreakdown};
use crate::cost::energy::{job_energy, EnergyBreakdown};
use crate::cost::params::CostParams;
use crate::cost::timing::{batch_time, TimingBreakdown};
use crate::cost::workload::WorkloadSummary;
use crate::device::opcm::OpcmCellSpec;
use crate::error::Result;

/// Full power/performance/area result for one job on one machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PpaResult {
    /// Timing breakdown (per batch and per job).
    pub timing: TimingBreakdown,
    /// Energy breakdown per job.
    pub energy: EnergyBreakdown,
    /// Machine area breakdown.
    pub area: AreaBreakdown,
}

impl PpaResult {
    /// Energy·Delay·Area product per job (J · s · mm²), the metric the
    /// paper minimizes when choosing tile and batch size (Fig. 9).
    #[must_use]
    pub fn edap(&self) -> f64 {
        self.energy.total_j() * self.timing.per_job_s * self.area.total_mm2()
    }
}

/// Evaluates the full PPA of one job.
///
/// # Errors
///
/// Propagates machine-validation errors.
pub fn evaluate(
    machine: &MachineConfig,
    params: &CostParams,
    cell: &OpcmCellSpec,
    w: &WorkloadSummary,
    ops: &OpCounts,
    adc_cycles: u64,
) -> Result<PpaResult> {
    let timing = batch_time(machine, params, w, adc_cycles)?;
    let energy = job_energy(machine, params, cell, w, ops, &timing, adc_cycles);
    let area = machine_area(machine, params, cell, w.batch_jobs);
    Ok(PpaResult {
        timing,
        energy,
        area,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sophie_core::SophieConfig;

    fn ppa(n: usize, tile: usize, batch: usize) -> PpaResult {
        let cfg = SophieConfig {
            tile_size: tile,
            local_iters: 10,
            global_iters: 50,
            tile_fraction: 1.0,
            ..SophieConfig::default()
        };
        let ops = sophie_core::analytic::analytic_op_counts(n, &cfg, 5).unwrap();
        let w = WorkloadSummary::from_ops(n, &cfg, &ops, batch);
        let base = MachineConfig::sophie_default(1);
        let machine = MachineConfig {
            accelerator: base.accelerator.with_tile_size_same_cells(tile).unwrap(),
            ..base
        };
        evaluate(
            &machine,
            &CostParams::default(),
            &OpcmCellSpec::default(),
            &w,
            &ops,
            8,
        )
        .unwrap()
    }

    #[test]
    fn edap_is_positive_and_finite() {
        let r = ppa(4096, 64, 100);
        assert!(r.edap() > 0.0);
        assert!(r.edap().is_finite());
    }

    #[test]
    fn edap_varies_with_tile_size() {
        // The Fig. 9 sweep: different tile sizes must trade off programming
        // overhead, wave count and array area — EDAP cannot be flat.
        let e16 = ppa(4096, 16, 100).edap();
        let e64 = ppa(4096, 64, 100).edap();
        let e256 = ppa(4096, 256, 100).edap();
        assert!(e16 != e64 && e64 != e256);
    }

    #[test]
    fn moderate_batch_beats_tiny_batch_on_edap() {
        // Batch 1 pays full programming per job; batching amortizes it.
        let e1 = ppa(4096, 64, 1).edap();
        let e100 = ppa(4096, 64, 100).edap();
        assert!(e100 < e1, "batched {e100} vs single {e1}");
    }

    #[test]
    fn huge_batch_pays_sram_area() {
        let a100 = ppa(4096, 64, 100).area.sram_mm2;
        let a10000 = ppa(4096, 64, 10_000).area.sram_mm2;
        assert!(a10000 > 50.0 * a100);
    }
}
