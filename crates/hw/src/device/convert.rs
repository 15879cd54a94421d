//! Electro-optic and opto-electronic converter specifications.
//!
//! These are pure cost-model structs: the E-O converters are 1-bit (spins
//! are binary, §III-C) and their energies/powers come straight from the
//! paper's §IV-A constants. The functional behaviour (modulation =
//! multiplication) is already captured by the array model.

/// Electro-optic (modulator) converter: drives one array input from a spin
/// bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EoConverter {
    /// Energy per transmitted bit in joules (paper: 1 pJ/bit \[12\]).
    pub energy_per_bit_j: f64,
    /// Modulation precision in bits (spins are 1-bit).
    pub bits: u32,
}

impl Default for EoConverter {
    fn default() -> Self {
        EoConverter {
            energy_per_bit_j: 1e-12,
            bits: 1,
        }
    }
}

impl EoConverter {
    /// Energy to drive `n` input bits.
    #[must_use]
    pub fn energy_j(&self, bits: u64) -> f64 {
        self.energy_per_bit_j * bits as f64
    }
}

/// Opto-electronic converter: photodetector + noise generator + ADC.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OeConverter {
    /// ADC power at full sample rate in watts (paper: 29 mW at 5 GS/s \[33\]).
    pub adc_power_w: f64,
    /// Sample rate in samples/second (paper: 5 GS/s).
    pub sample_rate_hz: f64,
}

impl Default for OeConverter {
    fn default() -> Self {
        OeConverter {
            adc_power_w: 29e-3,
            sample_rate_hz: 5e9,
        }
    }
}

impl OeConverter {
    /// Energy per converted sample (power / rate).
    #[must_use]
    pub fn energy_per_sample_j(&self) -> f64 {
        self.adc_power_w / self.sample_rate_hz
    }

    /// Energy for `samples` 1-bit conversions.
    #[must_use]
    pub fn energy_1bit_j(&self, samples: u64) -> f64 {
        self.energy_per_sample_j() * samples as f64
    }

    /// Energy for `samples` multi-bit conversions taking `cycles` each
    /// (bit-serial SAR: energy scales with conversion cycles).
    #[must_use]
    pub fn energy_multibit_j(&self, samples: u64, cycles: u64) -> f64 {
        self.energy_per_sample_j() * (samples * cycles) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let eo = EoConverter::default();
        assert_eq!(eo.energy_per_bit_j, 1e-12);
        assert_eq!(eo.bits, 1);
        let oe = OeConverter::default();
        assert_eq!(oe.adc_power_w, 29e-3);
        assert_eq!(oe.sample_rate_hz, 5e9);
    }

    #[test]
    fn eo_energy_scales_linearly() {
        let eo = EoConverter::default();
        assert_eq!(eo.energy_j(1000), 1e-9);
    }

    #[test]
    fn oe_sample_energy_is_5_8_pj() {
        let oe = OeConverter::default();
        assert!((oe.energy_per_sample_j() - 5.8e-12).abs() < 1e-15);
    }

    #[test]
    fn multibit_costs_more_than_1bit() {
        let oe = OeConverter::default();
        assert!(oe.energy_multibit_j(100, 8) > oe.energy_1bit_j(100));
        assert_eq!(oe.energy_multibit_j(100, 8), oe.energy_1bit_j(800));
    }
}
