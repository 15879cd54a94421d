//! The 2.5D-integrated accelerator hierarchy (paper §III-B, Fig. 4/5).
//!
//! A SOPHIE *accelerator* is an interposer carrying a controller chiplet, a
//! DRAM chiplet, laser sources, and several OPCM chiplets; each OPCM
//! chiplet contains processing elements (PEs), and each PE is one
//! bidirectional OPCM array (a `T × 2T` cell crossbar storing one symmetric
//! tile pair) plus SRAM buffers and converters. Systems scale out by adding
//! accelerators connected over CXL.

use crate::error::{HwError, Result};

/// One processing element: a bidirectional OPCM array plus peripherals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeSpec {
    /// Tile edge length `T`; the array has `T × 2T` GST cells
    /// (positive and negative parts).
    pub tile_size: usize,
}

impl PeSpec {
    /// GST cells in the array (`2T²`: positive + negative sub-arrays).
    #[must_use]
    pub fn cells(&self) -> usize {
        2 * self.tile_size * self.tile_size
    }

    /// Coupling coefficients stored (`T²` — one tile, read both ways).
    #[must_use]
    pub fn coefficients(&self) -> usize {
        self.tile_size * self.tile_size
    }

    /// SRAM bytes needed per batched job: two spin copies (1 bit each),
    /// two offset vectors and two partial-sum vectors (8 bits each), plus
    /// input/output staging (1 bit each) — all of length `T`.
    #[must_use]
    pub fn buffer_bytes_per_job(&self) -> usize {
        let t = self.tile_size;
        // bits: 2·T (spins) + 2·8·T (offsets) + 2·8·T (partials) + 2·T (staging)
        (t * (2 + 16 + 16 + 2)) / 8
    }
}

/// One OPCM chiplet (paper: 64 PEs, 486 mm²).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChipletSpec {
    /// Processing elements per chiplet.
    pub pes: usize,
    /// PE configuration.
    pub pe: PeSpec,
}

impl ChipletSpec {
    /// Total GST cells on the chiplet.
    #[must_use]
    pub fn cells(&self) -> usize {
        self.pes * self.pe.cells()
    }
}

/// One accelerator: interposer + controller + DRAM + lasers + OPCM chiplets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AcceleratorSpec {
    /// OPCM chiplets on the interposer (paper: 4).
    pub opcm_chiplets: usize,
    /// Chiplet configuration.
    pub chiplet: ChipletSpec,
}

impl AcceleratorSpec {
    /// Physical OPCM arrays (= PEs) on this accelerator.
    #[must_use]
    pub fn arrays(&self) -> usize {
        self.opcm_chiplets * self.chiplet.pes
    }

    /// Coupling-coefficient capacity (each array holds one `T²` tile that
    /// serves a symmetric pair).
    #[must_use]
    pub fn coefficient_capacity(&self) -> usize {
        self.arrays() * self.chiplet.pe.coefficients()
    }

    /// Total GST cells.
    #[must_use]
    pub fn cells(&self) -> usize {
        self.opcm_chiplets * self.chiplet.cells()
    }

    /// Rebuilds the accelerator with tile size `t`, keeping the total GST
    /// cell budget constant — the Fig. 9 sweep's rule ("given the total
    /// number of OPCM cells, changing the size of each tile").
    ///
    /// # Errors
    ///
    /// Returns [`HwError::BadParameter`] if `t` is zero or too large for
    /// even one array within the cell budget.
    pub fn with_tile_size_same_cells(&self, t: usize) -> Result<AcceleratorSpec> {
        if t == 0 {
            return Err(HwError::BadParameter {
                name: "tile_size",
                message: "must be positive".into(),
            });
        }
        let total_cells = self.cells();
        let cells_per_array = 2 * t * t;
        let arrays = total_cells / cells_per_array;
        if arrays == 0 {
            return Err(HwError::BadParameter {
                name: "tile_size",
                message: format!("tile {t} exceeds the cell budget of {total_cells}"),
            });
        }
        let pes_per_chiplet = (arrays / self.opcm_chiplets).max(1);
        Ok(AcceleratorSpec {
            opcm_chiplets: self.opcm_chiplets,
            chiplet: ChipletSpec {
                pes: pes_per_chiplet,
                pe: PeSpec { tile_size: t },
            },
        })
    }
}

/// A full machine: one or more accelerators plus the system clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineConfig {
    /// Number of accelerators (multi-accelerator systems sync over CXL).
    pub accelerators: usize,
    /// Per-accelerator configuration.
    pub accelerator: AcceleratorSpec,
    /// Electronics clock in Hz (paper: 5 GHz).
    pub clock_hz: f64,
}

impl MachineConfig {
    /// The paper's baseline machine: `n` accelerators, each with 4 OPCM
    /// chiplets × 64 PEs of 64×64 tiles, clocked at 5 GHz.
    #[must_use]
    pub fn sophie_default(accelerators: usize) -> Self {
        MachineConfig {
            accelerators,
            accelerator: AcceleratorSpec {
                opcm_chiplets: 4,
                chiplet: ChipletSpec {
                    pes: 64,
                    pe: PeSpec { tile_size: 64 },
                },
            },
            clock_hz: 5e9,
        }
    }

    /// Validates the machine shape.
    ///
    /// # Errors
    ///
    /// Returns [`HwError::BadParameter`] for zero-sized components.
    pub fn validate(&self) -> Result<()> {
        for (name, v) in [
            ("accelerators", self.accelerators),
            ("opcm_chiplets", self.accelerator.opcm_chiplets),
            ("pes", self.accelerator.chiplet.pes),
            ("tile_size", self.accelerator.chiplet.pe.tile_size),
        ] {
            if v == 0 {
                return Err(HwError::BadParameter {
                    name,
                    message: "must be positive".into(),
                });
            }
        }
        if self.clock_hz <= 0.0 || self.clock_hz.is_nan() {
            return Err(HwError::BadParameter {
                name: "clock_hz",
                message: format!("must be positive, got {}", self.clock_hz),
            });
        }
        Ok(())
    }

    /// Total physical arrays across all accelerators.
    #[must_use]
    pub fn total_arrays(&self) -> usize {
        self.accelerators * self.accelerator.arrays()
    }

    /// Tile edge length.
    #[must_use]
    pub fn tile_size(&self) -> usize {
        self.accelerator.chiplet.pe.tile_size
    }

    /// Cycle time in seconds.
    #[must_use]
    pub fn cycle_s(&self) -> f64 {
        1.0 / self.clock_hz
    }

    /// Whether a problem needing `pairs` symmetric tile pairs is fully
    /// resident (no reprogramming between rounds).
    #[must_use]
    pub fn is_resident(&self, pairs: usize) -> bool {
        pairs <= self.total_arrays()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_machine_shape() {
        let m = MachineConfig::sophie_default(1);
        assert!(m.validate().is_ok());
        assert_eq!(m.total_arrays(), 256);
        assert_eq!(m.tile_size(), 64);
        assert_eq!(m.accelerator.coefficient_capacity(), 256 * 64 * 64);
        assert_eq!(m.accelerator.cells(), 256 * 2 * 64 * 64);
        assert!((m.cycle_s() - 0.2e-9).abs() < 1e-15);
    }

    #[test]
    fn four_accelerators_quadruple_arrays() {
        assert_eq!(MachineConfig::sophie_default(4).total_arrays(), 1024);
    }

    #[test]
    fn residency_check() {
        let m = MachineConfig::sophie_default(1);
        // G22 at tile 64: 32 blocks → 528 pairs > 256 arrays.
        assert!(!m.is_resident(528));
        assert!(m.is_resident(256));
        assert!(MachineConfig::sophie_default(4).is_resident(528));
    }

    #[test]
    fn tile_resize_preserves_cell_budget() {
        let a = MachineConfig::sophie_default(1).accelerator;
        let cells = a.cells();
        for t in [16, 32, 64, 128, 256] {
            let b = a.with_tile_size_same_cells(t).unwrap();
            assert!(b.cells() <= cells, "tile {t}");
            assert!(
                b.cells() * 2 > cells,
                "tile {t} wastes over half the budget"
            );
        }
    }

    #[test]
    fn tile_resize_rejects_extremes() {
        let a = MachineConfig::sophie_default(1).accelerator;
        assert!(a.with_tile_size_same_cells(0).is_err());
        assert!(a.with_tile_size_same_cells(100_000).is_err());
    }

    #[test]
    fn buffer_bytes_match_paper_sram_budget() {
        // 256 PEs × 100 jobs × per-job buffers ≈ the paper's 7.6 MB SRAM.
        let pe = PeSpec { tile_size: 64 };
        let total = 256 * 100 * pe.buffer_bytes_per_job();
        let mb = total as f64 / (1024.0 * 1024.0);
        assert!(
            (6.0..9.0).contains(&mb),
            "sram {mb} MB should be near 7.6 MB"
        );
    }

    #[test]
    fn validate_catches_zeroes() {
        let mut m = MachineConfig::sophie_default(1);
        m.accelerators = 0;
        assert!(m.validate().is_err());
        let mut m = MachineConfig::sophie_default(1);
        m.clock_hz = 0.0;
        assert!(m.validate().is_err());
    }
}
