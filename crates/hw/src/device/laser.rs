//! Laser source model.
//!
//! Each accelerator carries laser-source chiplets feeding the OPCM arrays
//! through the interposer (paper Fig. 4). The optical power requirement is
//! derived *backwards* from the photodetector: the detector needs a fixed
//! energy per sample, every photonic device on the path attenuates
//! (§IV-A), and the laser + detector quantum efficiency discounts the rest.

use crate::device::opcm::OpcmCellSpec;

/// A laser source provisioned for one accelerator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaserSource {
    /// Wavelengths multiplexed per array (one per tile row).
    pub wavelengths: usize,
    /// Optical output power per wavelength in watts.
    pub power_per_wavelength_w: f64,
    /// Electrical wall-plug efficiency of the laser diode (~0.25 for
    /// integrated DFB arrays).
    pub wall_plug_efficiency: f64,
}

impl LaserSource {
    /// Provisions a laser for arrays of `tile_size`, given the cell spec's
    /// loss chain and the required detector power.
    ///
    /// # Panics
    ///
    /// Panics if `detector_power_w` is not positive.
    #[must_use]
    pub fn provision(cell: &OpcmCellSpec, tile_size: usize, detector_power_w: f64) -> Self {
        assert!(
            detector_power_w > 0.0,
            "detector power must be positive, got {detector_power_w}"
        );
        LaserSource {
            wavelengths: tile_size,
            power_per_wavelength_w: cell.laser_power_per_wavelength_w(tile_size, detector_power_w),
            wall_plug_efficiency: 0.25,
        }
    }

    /// Total optical output power when all wavelengths are lit.
    #[must_use]
    pub fn optical_power_w(&self) -> f64 {
        self.power_per_wavelength_w * self.wavelengths as f64
    }

    /// Electrical power drawn from the wall for that optical output.
    #[must_use]
    pub fn electrical_power_w(&self) -> f64 {
        self.optical_power_w() / self.wall_plug_efficiency
    }

    /// Optical energy emitted over `cycles` at the given clock.
    #[must_use]
    pub fn energy_j(&self, cycles: f64, clock_hz: f64) -> f64 {
        self.optical_power_w() * cycles / clock_hz
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn provisioned_power_matches_paper_order_of_magnitude() {
        // The paper reports 469 mW per wavelength at tile 64.
        let laser = LaserSource::provision(&OpcmCellSpec::default(), 64, 600e-6);
        assert!(
            (0.2..1.2).contains(&laser.power_per_wavelength_w),
            "per-wavelength power {} W",
            laser.power_per_wavelength_w
        );
        assert_eq!(laser.wavelengths, 64);
    }

    #[test]
    fn electrical_exceeds_optical() {
        let laser = LaserSource::provision(&OpcmCellSpec::default(), 64, 600e-6);
        assert!(laser.electrical_power_w() > laser.optical_power_w());
    }

    #[test]
    fn bigger_arrays_need_more_power() {
        let cell = OpcmCellSpec::default();
        let small = LaserSource::provision(&cell, 16, 600e-6);
        let large = LaserSource::provision(&cell, 128, 600e-6);
        assert!(large.optical_power_w() > small.optical_power_w());
    }

    #[test]
    fn energy_scales_with_cycles() {
        let laser = LaserSource::provision(&OpcmCellSpec::default(), 64, 600e-6);
        let one = laser.energy_j(1.0, 5e9);
        let many = laser.energy_j(1000.0, 5e9);
        assert!((many / one - 1000.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "detector power")]
    fn rejects_nonpositive_detector_power() {
        let _ = LaserSource::provision(&OpcmCellSpec::default(), 64, 0.0);
    }
}
