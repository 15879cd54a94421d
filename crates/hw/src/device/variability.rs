//! GST device variability and fault injection.
//!
//! Phase-change cells are not ideal multi-level memories: the amorphous
//! phase undergoes *resistance drift* (structural relaxation shifts the
//! programmed level over time, classically `∝ (t/t₀)^ν` with ν ≈ 0.01–0.1
//! for electrical PCM; optical transmittance drifts analogously but more
//! weakly), and endurance failures leave individual cells *stuck*. The
//! paper does not evaluate these effects; this module adds them so the
//! robustness of the algorithm can be tested — a prerequisite for trusting
//! the 400 ns reprogram-every-wave dataflow on real devices.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sophie_linalg::Tile;

use crate::error::{HwError, Result};

/// Variability/fault model applied to a programmed tile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariabilityModel {
    /// Drift exponent ν: each stored weight `w` decays in magnitude to
    /// `w · (t/t₀)^(−ν)` after normalized time `t/t₀` ≥ 1. Zero disables
    /// drift.
    pub drift_nu: f64,
    /// Normalized elapsed time since programming (`t/t₀` ≥ 1).
    pub drift_time: f64,
    /// Fraction of cells stuck at a random level in `[-max|w|, max|w|]`.
    pub stuck_fraction: f64,
    /// Per-cell programming variation: relative Gaussian σ applied once at
    /// program time (device-to-device mismatch).
    pub program_sigma: f64,
    /// Seed for the fault/variation draw.
    pub seed: u64,
}

impl Default for VariabilityModel {
    fn default() -> Self {
        VariabilityModel {
            drift_nu: 0.02,
            drift_time: 1.0,
            stuck_fraction: 0.0,
            program_sigma: 0.01,
            seed: 0,
        }
    }
}

impl VariabilityModel {
    /// A perfectly ideal device (no drift, no faults, no mismatch).
    #[must_use]
    pub fn ideal() -> Self {
        VariabilityModel {
            drift_nu: 0.0,
            drift_time: 1.0,
            stuck_fraction: 0.0,
            program_sigma: 0.0,
            seed: 0,
        }
    }

    /// Validates all fields, so invalid models are rejected up front
    /// instead of silently producing garbage tiles (or panicking deep in
    /// [`Self::drift_factor`]).
    ///
    /// # Errors
    ///
    /// Returns [`HwError::BadParameter`] naming the first offending field.
    pub fn validate(&self) -> Result<()> {
        if self.drift_nu < 0.0 || self.drift_nu.is_nan() {
            return Err(HwError::BadParameter {
                name: "drift_nu",
                message: format!("must be non-negative, got {}", self.drift_nu),
            });
        }
        if !(self.drift_time >= 1.0 && self.drift_time.is_finite()) {
            return Err(HwError::BadParameter {
                name: "drift_time",
                message: format!(
                    "is normalized to t0 and must be finite and >= 1, got {}",
                    self.drift_time
                ),
            });
        }
        if !(0.0..=1.0).contains(&self.stuck_fraction) || self.stuck_fraction.is_nan() {
            return Err(HwError::BadParameter {
                name: "stuck_fraction",
                message: format!("must be in [0, 1], got {}", self.stuck_fraction),
            });
        }
        if self.program_sigma < 0.0 || self.program_sigma.is_nan() {
            return Err(HwError::BadParameter {
                name: "program_sigma",
                message: format!("must be non-negative, got {}", self.program_sigma),
            });
        }
        Ok(())
    }

    /// Multiplicative drift factor at the configured time.
    ///
    /// # Panics
    ///
    /// Panics if `drift_time < 1` (drift is referenced to `t₀`).
    #[must_use]
    pub fn drift_factor(&self) -> f64 {
        assert!(
            self.drift_time >= 1.0,
            "drift time is normalized to t0 and must be >= 1"
        );
        self.drift_time.powf(-self.drift_nu)
    }

    /// Applies the model to a tile, returning the degraded tile the array
    /// would effectively hold. Deterministic in `(tile position seed)`.
    ///
    /// `cell_seed` distinguishes arrays (pass the pair index).
    ///
    /// # Panics
    ///
    /// Panics if the degraded coefficients cannot be reassembled into a
    /// tile (cannot happen for a well-formed input tile); use
    /// [`Self::try_degrade`] to receive the typed error instead.
    #[must_use]
    pub fn degrade(&self, tile: &Tile, cell_seed: u64) -> Tile {
        self.try_degrade(tile, cell_seed)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`Self::degrade`]: reassembly failures surface as
    /// [`HwError::UnitFailure`] naming the array (`cell_seed` is the unit
    /// id the backend passes) instead of a panic without context.
    ///
    /// # Errors
    ///
    /// Returns [`HwError::UnitFailure`] if the degraded coefficient vector
    /// does not form a square tile of the input's size.
    pub fn try_degrade(&self, tile: &Tile, cell_seed: u64) -> Result<Tile> {
        let mut rng =
            SmallRng::seed_from_u64(self.seed ^ cell_seed.wrapping_mul(0x9e3779b97f4a7c15));
        let data = tile.as_slice();
        let max_abs = data.iter().fold(0.0_f32, |m, &x| m.max(x.abs()));
        let drift = self.drift_factor() as f32;
        let degraded: Vec<f32> = data
            .iter()
            .map(|&w| {
                if self.stuck_fraction > 0.0 && rng.gen::<f64>() < self.stuck_fraction {
                    // Stuck cell: a random reachable level, sign included.
                    (rng.gen::<f32>() * 2.0 - 1.0) * max_abs
                } else {
                    let mismatch = if self.program_sigma > 0.0 {
                        // Three-uniform approximation of a Gaussian.
                        let r: f32 = rng.gen::<f32>() + rng.gen::<f32>() + rng.gen::<f32>() - 1.5;
                        1.0 + self.program_sigma as f32 * 2.0 * r
                    } else {
                        1.0
                    };
                    w * drift * mismatch
                }
            })
            .collect();
        Tile::from_vec(tile.size(), degraded).map_err(|e| HwError::UnitFailure {
            unit: cell_seed,
            op: "degrade",
            message: e.to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tile() -> Tile {
        Tile::from_vec(4, (0..16).map(|i| i as f32 / 8.0 - 1.0).collect()).unwrap()
    }

    #[test]
    fn ideal_model_is_identity() {
        let m = VariabilityModel::ideal();
        let t = tile();
        assert_eq!(m.degrade(&t, 0).as_slice(), t.as_slice());
    }

    #[test]
    fn drift_shrinks_magnitudes() {
        let m = VariabilityModel {
            drift_nu: 0.05,
            drift_time: 1000.0,
            stuck_fraction: 0.0,
            program_sigma: 0.0,
            seed: 0,
        };
        let t = tile();
        let d = m.degrade(&t, 0);
        for (orig, degr) in t.as_slice().iter().zip(d.as_slice()) {
            assert!(degr.abs() <= orig.abs() + 1e-7);
            if *orig != 0.0 {
                // (1000)^-0.05 ≈ 0.708
                assert!((degr / orig - 0.708_f32).abs() < 1e-2);
            }
        }
    }

    #[test]
    fn stuck_cells_deviate() {
        let m = VariabilityModel {
            stuck_fraction: 1.0,
            drift_nu: 0.0,
            program_sigma: 0.0,
            ..VariabilityModel::default()
        };
        let t = tile();
        let d = m.degrade(&t, 1);
        let changed = t
            .as_slice()
            .iter()
            .zip(d.as_slice())
            .filter(|(a, b)| (*a - *b).abs() > 1e-6)
            .count();
        assert!(changed > 10, "all-stuck tile should differ broadly");
    }

    #[test]
    fn degradation_is_deterministic_per_seed_and_array() {
        let m = VariabilityModel {
            stuck_fraction: 0.1,
            ..VariabilityModel::default()
        };
        let t = tile();
        assert_eq!(m.degrade(&t, 5).as_slice(), m.degrade(&t, 5).as_slice());
        assert_ne!(m.degrade(&t, 5).as_slice(), m.degrade(&t, 6).as_slice());
    }

    #[test]
    #[should_panic(expected = "drift time")]
    fn rejects_pre_t0_times() {
        let m = VariabilityModel {
            drift_time: 0.5,
            ..VariabilityModel::default()
        };
        let _ = m.drift_factor();
    }

    #[test]
    fn validate_accepts_defaults_and_rejects_garbage() {
        assert!(VariabilityModel::default().validate().is_ok());
        assert!(VariabilityModel::ideal().validate().is_ok());
        let cases = [
            VariabilityModel {
                drift_nu: f64::NAN,
                ..VariabilityModel::default()
            },
            VariabilityModel {
                drift_nu: -0.1,
                ..VariabilityModel::default()
            },
            VariabilityModel {
                drift_time: 0.5,
                ..VariabilityModel::default()
            },
            VariabilityModel {
                drift_time: f64::INFINITY,
                ..VariabilityModel::default()
            },
            VariabilityModel {
                stuck_fraction: 1.5,
                ..VariabilityModel::default()
            },
            VariabilityModel {
                stuck_fraction: -0.01,
                ..VariabilityModel::default()
            },
            VariabilityModel {
                program_sigma: f64::NAN,
                ..VariabilityModel::default()
            },
        ];
        for (i, m) in cases.iter().enumerate() {
            assert!(m.validate().is_err(), "case {i} should be rejected");
        }
    }

    #[test]
    fn mismatch_stays_small() {
        let m = VariabilityModel {
            drift_nu: 0.0,
            stuck_fraction: 0.0,
            program_sigma: 0.02,
            ..VariabilityModel::default()
        };
        let t = tile();
        let d = m.degrade(&t, 2);
        for (orig, degr) in t.as_slice().iter().zip(d.as_slice()) {
            assert!((degr - orig).abs() <= 0.1 * orig.abs().max(0.2));
        }
    }
}
