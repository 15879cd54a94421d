//! Dual-precision analog-to-digital converter model (paper §III-C).
//!
//! SOPHIE's O-E converters contain a photodetector, a noise generator, and
//! a *dual-precision* ADC. During ordinary local iterations the ADC acts as
//! a 1-bit thresholding unit with an adjustable threshold (`θ_i`,
//! Eq. 7); during the last local iteration before a global synchronization
//! it switches to an 8-bit mode, spending more cycles, to capture the
//! multi-bit local partial sums the offset vectors need.

use crate::error::{HwError, Result};

/// Dual-precision ADC: 1-bit threshold mode and `bits`-wide uniform mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DualPrecisionAdc {
    bits: u32,
    /// Full-scale range `[-range, +range]` of the multi-bit mode.
    range: f32,
}

impl DualPrecisionAdc {
    /// Creates an ADC with `bits` of multi-bit resolution over
    /// `[-range, range]`.
    ///
    /// # Errors
    ///
    /// Returns [`HwError::BadParameter`] if `bits` is not in `2..=16` or
    /// `range` is not positive.
    pub fn new(bits: u32, range: f32) -> Result<Self> {
        if !(2..=16).contains(&bits) {
            return Err(HwError::BadParameter {
                name: "bits",
                message: format!("multi-bit mode must use 2..=16 bits, got {bits}"),
            });
        }
        if range <= 0.0 || range.is_nan() {
            return Err(HwError::BadParameter {
                name: "range",
                message: format!("full-scale range must be positive, got {range}"),
            });
        }
        Ok(DualPrecisionAdc { bits, range })
    }

    /// The paper's configuration: 8-bit mode.
    ///
    /// # Errors
    ///
    /// Returns [`HwError::BadParameter`] if `range` is not positive.
    pub fn sophie_default(range: f32) -> Result<Self> {
        Self::new(8, range)
    }

    /// Resolution of the multi-bit mode.
    #[must_use]
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Full-scale range of the multi-bit mode.
    #[must_use]
    pub fn range(&self) -> f32 {
        self.range
    }

    /// Quantization step of the multi-bit mode.
    #[must_use]
    pub fn step(&self) -> f32 {
        2.0 * self.range / ((1u32 << self.bits) - 1) as f32
    }

    /// 1-bit mode: compares the analog sample against a threshold.
    #[must_use]
    pub fn threshold(&self, sample: f32, theta: f32) -> bool {
        sample >= theta
    }

    /// Multi-bit mode: uniform mid-tread quantization with saturation.
    #[must_use]
    pub fn quantize(&self, sample: f32) -> f32 {
        let clamped = sample.clamp(-self.range, self.range);
        let step = self.step();
        (clamped / step).round() * step
    }

    /// Quantizes a whole sample vector in place.
    pub fn quantize_slice(&self, samples: &mut [f32]) {
        for s in samples {
            *s = self.quantize(*s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_silly_configurations() {
        assert!(DualPrecisionAdc::new(1, 1.0).is_err());
        assert!(DualPrecisionAdc::new(20, 1.0).is_err());
        assert!(DualPrecisionAdc::new(8, 0.0).is_err());
        assert!(DualPrecisionAdc::new(8, -1.0).is_err());
    }

    #[test]
    fn threshold_mode_is_a_comparator() {
        let adc = DualPrecisionAdc::sophie_default(10.0).unwrap();
        assert!(adc.threshold(5.0, 5.0));
        assert!(adc.threshold(5.1, 5.0));
        assert!(!adc.threshold(4.9, 5.0));
    }

    #[test]
    fn quantization_error_bounded_by_half_step() {
        let adc = DualPrecisionAdc::sophie_default(4.0).unwrap();
        for i in -40..=40 {
            let x = i as f32 / 10.0;
            let q = adc.quantize(x);
            assert!((q - x).abs() <= adc.step() / 2.0 + 1e-6, "{x} → {q}");
        }
    }

    #[test]
    fn saturates_outside_range() {
        let adc = DualPrecisionAdc::sophie_default(1.0).unwrap();
        assert!(adc.quantize(5.0) <= 1.0 + 1e-6);
        assert!(adc.quantize(-5.0) >= -1.0 - 1e-6);
    }

    #[test]
    fn zero_maps_to_zero() {
        let adc = DualPrecisionAdc::sophie_default(3.0).unwrap();
        assert_eq!(adc.quantize(0.0), 0.0);
    }

    #[test]
    fn eight_bit_mode_has_256_levels() {
        let adc = DualPrecisionAdc::sophie_default(1.0).unwrap();
        assert_eq!(adc.bits(), 8);
        assert!((adc.step() - 2.0 / 255.0).abs() < 1e-7);
    }

    #[test]
    fn quantize_slice_applies_elementwise() {
        let adc = DualPrecisionAdc::sophie_default(2.0).unwrap();
        let mut xs = [0.1_f32, -3.0, 1.999];
        adc.quantize_slice(&mut xs);
        assert!((xs[0] - adc.quantize(0.1)).abs() < 1e-9);
        assert!(xs[1] >= -2.0 - 1e-6);
    }
}
