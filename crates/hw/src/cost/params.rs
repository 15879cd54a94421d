//! Cost-model constants (paper §IV-A).
//!
//! Every number here is taken from the paper's evaluation methodology or
//! the reference it cites; the field docs name the source. The models in
//! [`crate::cost`] combine these with operation counts and machine shape.

use crate::device::convert::{EoConverter, OeConverter};

/// All per-operation/per-component constants of the PPA models.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostParams {
    /// OPCM array programming latency — 400 ns for the reference
    /// 64 × 128-cell array \[19\]; larger arrays scale linearly in cell
    /// count (electrical switching is row-parallel, column-serial).
    pub program_time_s: f64,
    /// Electrical programming energy per GST cell: average of amorphize
    /// (5.55 nJ) and crystallize (860.71 nJ) \[19\].
    pub program_energy_per_cell_j: f64,
    /// E-O converter spec (1 pJ/bit \[12\]).
    pub eo: EoConverter,
    /// O-E converter spec (29 mW at 5 GS/s \[33\]).
    pub oe: OeConverter,
    /// Optical power required at each photodetector *at the reference
    /// tile size of 64* (sets laser power through the loss model; chosen
    /// so the paper's 469 mW/λ is reproduced at tile 64).
    pub detector_power_w: f64,
    /// Shot-noise scaling of the detector power with summation width:
    /// resolving an 8-bit result over a `t`-wide analog sum at a fixed
    /// noise floor needs `(t/64)^exp` more optical power. 2.0 models the
    /// shot-noise-limited case.
    pub detector_snr_exponent: f64,
    /// DRAM access energy (20 pJ/bit \[34\]).
    pub dram_energy_per_bit_j: f64,
    /// DRAM latency within one interposer (40 ns \[35\]).
    pub dram_latency_s: f64,
    /// DRAM latency across interposers (80 ns \[35\]).
    pub cross_dram_latency_s: f64,
    /// Aggregate CXL bandwidth (16 lanes, 64 GB/s).
    pub cxl_bandwidth_bps: f64,
    /// On-interposer electrical link bandwidth between chiplets.
    pub interposer_bandwidth_bps: f64,
    /// SRAM dynamic energy per accessed bit at the reference capacity
    /// (≈0.1 pJ/bit for a 7.6 MB compiled array at 22 nm); grows with the
    /// square root of capacity (wire-dominated, CACTI-like).
    pub sram_energy_per_bit_j_ref: f64,
    /// SRAM power at the reference capacity (540 mW at 7.6 MB).
    pub sram_power_w_ref: f64,
    /// SRAM area at the reference capacity (11.5 mm² at 7.6 MB).
    pub sram_area_mm2_ref: f64,
    /// Reference SRAM capacity in bytes (7.6 MB).
    pub sram_ref_bytes: f64,
    /// Controller logic power (26 mW, GF22FDX-scaled synthesis).
    pub control_power_w: f64,
    /// Controller logic area (11 536 µm²).
    pub control_area_mm2: f64,
    /// Glue ALU throughput on the controller (adds per cycle).
    pub glue_adds_per_cycle: f64,
    /// Energy per glue add (synthesized CMOS adder, ~1 pJ at 22 nm).
    pub glue_energy_per_add_j: f64,
    /// OPCM chiplet area calibration: the paper reports 486 mm² for
    /// 64 PEs of 64×128 cells; the ratio over raw cell area (≈472 mm²)
    /// gives this overhead factor.
    pub chiplet_area_overhead: f64,
    /// Fixed area of the controller + DRAM + laser chiplets per
    /// accelerator (mm²); dominated by the DRAM chiplet.
    pub support_chiplets_area_mm2: f64,
    /// DRAM chiplet background power (w).
    pub dram_static_power_w: f64,
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams {
            program_time_s: 400e-9,
            program_energy_per_cell_j: (5.55e-9 + 860.71e-9) / 2.0,
            eo: EoConverter::default(),
            oe: OeConverter::default(),
            detector_power_w: 600e-6,
            detector_snr_exponent: 2.0,
            dram_energy_per_bit_j: 20e-12,
            dram_latency_s: 40e-9,
            cross_dram_latency_s: 80e-9,
            cxl_bandwidth_bps: 64e9 * 8.0,
            // Wafer-scale photonic interposers (Passage [31]) provide
            // multi-Tb/s die-to-die bandwidth; 2 TB/s aggregate assumed.
            interposer_bandwidth_bps: 2e12 * 8.0,
            sram_energy_per_bit_j_ref: 0.1e-12,
            sram_power_w_ref: 0.540,
            sram_area_mm2_ref: 11.5,
            sram_ref_bytes: 7.6 * 1024.0 * 1024.0,
            control_power_w: 26e-3,
            control_area_mm2: 11_536.0 * 1e-6,
            // A 22 nm controller chiplet easily hosts a wide SIMD reduction
            // datapath; 2048 8-bit adds/cycle is a few mm² at 5 GHz.
            glue_adds_per_cycle: 2048.0,
            glue_energy_per_add_j: 1e-12,
            chiplet_area_overhead: 1.03,
            support_chiplets_area_mm2: 120.0,
            dram_static_power_w: 1.0,
        }
    }
}

impl CostParams {
    /// SRAM power for `bytes` of buffers (linear in capacity).
    #[must_use]
    pub fn sram_power_w(&self, bytes: f64) -> f64 {
        self.sram_power_w_ref * bytes / self.sram_ref_bytes
    }

    /// SRAM dynamic energy per accessed bit for `bytes` of capacity
    /// (√-scaling with size, wire-dominated).
    #[must_use]
    pub fn sram_energy_per_bit_j(&self, bytes: f64) -> f64 {
        self.sram_energy_per_bit_j_ref * (bytes / self.sram_ref_bytes).max(0.0).sqrt()
    }

    /// Detector power required for a `t`-wide analog sum at the configured
    /// SNR scaling (reference tile size 64).
    #[must_use]
    pub fn detector_power_for_tile_w(&self, t: usize) -> f64 {
        self.detector_power_w * (t as f64 / 64.0).powf(self.detector_snr_exponent)
    }

    /// Programming latency for an array of `2t²` cells (reference:
    /// 400 ns at `t = 64`, scaling linearly in cell count).
    #[must_use]
    pub fn program_time_for_tile_s(&self, t: usize) -> f64 {
        self.program_time_s * (2.0 * (t as f64) * (t as f64)) / 8192.0
    }

    /// SRAM area for `bytes` of buffers (linear in capacity).
    #[must_use]
    pub fn sram_area_mm2(&self, bytes: f64) -> f64 {
        self.sram_area_mm2_ref * bytes / self.sram_ref_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn programming_energy_matches_cited_average() {
        let p = CostParams::default();
        assert!((p.program_energy_per_cell_j * 1e9 - 433.13).abs() < 0.01);
    }

    #[test]
    fn paper_constants_present() {
        let p = CostParams::default();
        assert_eq!(p.program_time_s, 400e-9);
        assert_eq!(p.dram_energy_per_bit_j, 20e-12);
        assert_eq!(p.dram_latency_s, 40e-9);
        assert_eq!(p.cross_dram_latency_s, 80e-9);
        assert_eq!(p.control_power_w, 26e-3);
    }

    #[test]
    fn sram_scaling_is_linear_through_reference() {
        let p = CostParams::default();
        assert!((p.sram_power_w(p.sram_ref_bytes) - 0.540).abs() < 1e-12);
        assert!((p.sram_area_mm2(p.sram_ref_bytes / 2.0) - 5.75).abs() < 1e-9);
    }

    #[test]
    fn cxl_bandwidth_is_64_gbytes() {
        let p = CostParams::default();
        assert_eq!(p.cxl_bandwidth_bps, 512e9);
    }
}
