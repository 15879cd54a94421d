//! Area model.
//!
//! Anchored to the paper's reported silicon: each OPCM cell occupies
//! 30 × 30 µm², an OPCM chiplet with 64 PEs of 64 × 128 cells comes to
//! 486 mm² (raw cells ≈ 472 mm², the remainder is converters/rings —
//! captured by a calibrated overhead factor), and the SRAM compiler yields
//! 11.5 mm² for 7.6 MB.

use crate::arch::MachineConfig;
use crate::cost::params::CostParams;
use crate::device::opcm::OpcmCellSpec;

/// Where the silicon of one machine goes (mm²).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AreaBreakdown {
    /// All OPCM chiplets (cells + photonic peripherals).
    pub opcm_mm2: f64,
    /// SRAM buffers across the machine.
    pub sram_mm2: f64,
    /// Controller logic.
    pub control_mm2: f64,
    /// Support chiplets (DRAM, laser) per accelerator.
    pub support_mm2: f64,
}

impl AreaBreakdown {
    /// Total machine area.
    #[must_use]
    pub fn total_mm2(&self) -> f64 {
        self.opcm_mm2 + self.sram_mm2 + self.control_mm2 + self.support_mm2
    }
}

/// Area of one OPCM array (`t × 2t` cells) in mm².
#[must_use]
pub fn array_area_mm2(cell: &OpcmCellSpec, t: usize) -> f64 {
    let pitch_mm = cell.cell_pitch_um * 1e-3;
    2.0 * (t as f64) * (t as f64) * pitch_mm * pitch_mm
}

/// Area of the whole machine for a given batch size (SRAM scales with the
/// per-job buffers it must hold).
#[must_use]
pub fn machine_area(
    machine: &MachineConfig,
    params: &CostParams,
    cell: &OpcmCellSpec,
    batch_jobs: usize,
) -> AreaBreakdown {
    let t = machine.tile_size();
    let arrays = machine.total_arrays();
    let opcm_mm2 = arrays as f64 * array_area_mm2(cell, t) * params.chiplet_area_overhead;
    let sram_bytes =
        (arrays * batch_jobs) as f64 * machine.accelerator.chiplet.pe.buffer_bytes_per_job() as f64;
    AreaBreakdown {
        opcm_mm2,
        sram_mm2: params.sram_area_mm2(sram_bytes),
        control_mm2: machine.accelerators as f64 * params.control_area_mm2,
        support_mm2: machine.accelerators as f64 * params.support_chiplets_area_mm2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chiplet_area_matches_paper_calibration() {
        // One chiplet: 64 PEs of 64×128 cells at 30 µm pitch → ≈486 mm².
        let cell = OpcmCellSpec::default();
        let chiplet =
            64.0 * array_area_mm2(&cell, 64) * CostParams::default().chiplet_area_overhead;
        assert!(
            (470.0..500.0).contains(&chiplet),
            "chiplet area {chiplet} mm² should be ≈486"
        );
    }

    #[test]
    fn sram_area_matches_paper_at_reference_batch() {
        // 256 PEs × batch 100 ⇒ ≈7.4 MB ⇒ ≈11 mm² (paper: 7.6 MB, 11.5 mm²).
        let m = MachineConfig::sophie_default(1);
        let a = machine_area(&m, &CostParams::default(), &OpcmCellSpec::default(), 100);
        assert!((9.0..13.0).contains(&a.sram_mm2), "sram {} mm²", a.sram_mm2);
    }

    #[test]
    fn area_scales_with_accelerators() {
        let p = CostParams::default();
        let c = OpcmCellSpec::default();
        let a1 = machine_area(&MachineConfig::sophie_default(1), &p, &c, 100);
        let a4 = machine_area(&MachineConfig::sophie_default(4), &p, &c, 100);
        assert!((a4.total_mm2() / a1.total_mm2() - 4.0).abs() < 0.1);
    }

    #[test]
    fn symmetric_mapping_saves_half_the_array_area() {
        // Storing both members of every symmetric pair would need one
        // array per logical tile (B²) instead of one per pair (B(B+1)/2):
        // the saving approaches 2× as B grows — the paper's headline.
        let cell = OpcmCellSpec::default();
        let b = 32.0_f64; // G22 at tile 64
        let pairs = b * (b + 1.0) / 2.0;
        let logical = b * b;
        let ratio = logical / pairs;
        assert!(ratio > 1.9, "area saving {ratio}×");
        let _ = array_area_mm2(&cell, 64); // same per-array area either way
    }

    #[test]
    fn total_is_sum_of_parts() {
        let m = MachineConfig::sophie_default(2);
        let a = machine_area(&m, &CostParams::default(), &OpcmCellSpec::default(), 10);
        let sum = a.opcm_mm2 + a.sram_mm2 + a.control_mm2 + a.support_mm2;
        assert!((a.total_mm2() - sum).abs() < 1e-12);
    }
}
