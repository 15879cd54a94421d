//! Configuration of the modified (tiled) PRIS algorithm.

use crate::error::{Result, SophieError};

/// Compute strategy of the exact floating-point backend: a relic with one
/// value.
///
/// The engine has one exact backend, [`crate::backend::IdealBackend`], so
/// this type and [`SophieConfig::compute`] select nothing. They stay only
/// while the standalone benchmark package still names
/// `ComputeMode::Dense`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum ComputeMode {
    /// Dense tile kernels ([`crate::backend::IdealBackend`]).
    #[default]
    Dense,
}

/// Parameters of SOPHIE's modified PRIS algorithm (paper Algorithm 1 and
/// the evaluation settings of §IV).
///
/// The defaults reproduce the paper's optimal operating point: tile size
/// 64, 10 local iterations per global iteration, 500 global iterations,
/// all tiles selected, stochastic spin update enabled.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SophieConfig {
    /// Edge length of a square matrix tile (one OPCM array holds one
    /// symmetric tile pair of this size).
    pub tile_size: usize,
    /// Local iterations executed on each selected pair per global
    /// iteration (the last one runs the ADC in 8-bit mode).
    pub local_iters: usize,
    /// Number of global iterations (local phases + global synchronization).
    pub global_iters: usize,
    /// Fraction of symmetric tile pairs selected in each global iteration
    /// (stochastic tile computation, §III-A2). `1.0` selects every pair.
    pub tile_fraction: f64,
    /// Noise level φ, relative to per-row signal scales (see
    /// [`sophie_pris::noise`]).
    pub phi: f64,
    /// Eigenvalue-dropout factor α ∈ [0, 1].
    pub alpha: f64,
    /// `true` → stochastic spin update (one column copy broadcast);
    /// `false` → majority vote over all fresh copies in the column.
    pub stochastic_spin_update: bool,
    /// No effect: the one [`ComputeMode`]. A relic, kept while the
    /// standalone benchmark package still sets it.
    pub compute: ComputeMode,
    /// No effect: the density-crossover threshold of the deleted sparse
    /// compute path. Still validated (finite and positive when set), and
    /// still a wire field, because the benchmark's K512 requests send it.
    pub sparse_crossover: Option<f64>,
}

impl Default for SophieConfig {
    fn default() -> Self {
        SophieConfig {
            tile_size: 64,
            local_iters: 10,
            global_iters: 500,
            tile_fraction: 1.0,
            phi: 0.1,
            alpha: 0.0,
            stochastic_spin_update: true,
            compute: ComputeMode::Dense,
            sparse_crossover: None,
        }
    }
}

impl SophieConfig {
    /// Validates all fields.
    ///
    /// # Errors
    ///
    /// Returns [`SophieError::BadConfig`] naming the first offending field.
    pub fn validate(&self) -> Result<()> {
        if self.tile_size == 0 {
            return Err(SophieError::BadConfig {
                field: "tile_size",
                message: "must be positive".into(),
            });
        }
        if self.local_iters == 0 {
            return Err(SophieError::BadConfig {
                field: "local_iters",
                message: "must be positive".into(),
            });
        }
        if !(self.tile_fraction > 0.0 && self.tile_fraction <= 1.0) {
            return Err(SophieError::BadConfig {
                field: "tile_fraction",
                message: format!("must be in (0, 1], got {}", self.tile_fraction),
            });
        }
        if self.phi < 0.0 || self.phi.is_nan() {
            return Err(SophieError::BadConfig {
                field: "phi",
                message: format!("must be non-negative, got {}", self.phi),
            });
        }
        if !(0.0..=1.0).contains(&self.alpha) || self.alpha.is_nan() {
            return Err(SophieError::BadConfig {
                field: "alpha",
                message: format!("must be in [0, 1], got {}", self.alpha),
            });
        }
        if let Some(theta) = self.sparse_crossover {
            if !(theta.is_finite() && theta > 0.0) {
                return Err(SophieError::BadConfig {
                    field: "sparse_crossover",
                    message: format!("must be finite and positive, got {theta}"),
                });
            }
        }
        Ok(())
    }

    /// Total local iterations executed across the whole run
    /// (`global_iters × local_iters`), the x-axis unit of Fig. 7/8.
    #[must_use]
    pub fn total_local_iters(&self) -> usize {
        self.global_iters * self.local_iters
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_papers_optimal_setting() {
        let c = SophieConfig::default();
        assert_eq!(c.tile_size, 64);
        assert_eq!(c.local_iters, 10);
        assert_eq!(c.global_iters, 500);
        assert_eq!(c.tile_fraction, 1.0);
        assert!(c.stochastic_spin_update);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn rejects_zero_tile_size() {
        let c = SophieConfig {
            tile_size: 0,
            ..SophieConfig::default()
        };
        assert!(matches!(
            c.validate(),
            Err(SophieError::BadConfig {
                field: "tile_size",
                ..
            })
        ));
    }

    #[test]
    fn rejects_bad_fraction() {
        for frac in [0.0, -0.5, 1.5, f64::NAN] {
            let c = SophieConfig {
                tile_fraction: frac,
                ..SophieConfig::default()
            };
            assert!(c.validate().is_err(), "fraction {frac} should be rejected");
        }
    }

    #[test]
    fn rejects_bad_phi_and_alpha() {
        let c = SophieConfig {
            phi: -0.1,
            ..SophieConfig::default()
        };
        assert!(c.validate().is_err());
        let c = SophieConfig {
            alpha: 1.5,
            ..SophieConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn rejects_zero_local_iters() {
        let c = SophieConfig {
            local_iters: 0,
            ..SophieConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn default_compute_is_dense_with_no_crossover() {
        let c = SophieConfig::default();
        assert_eq!(c.compute, ComputeMode::Dense);
        assert!(c.sparse_crossover.is_none());
    }

    #[test]
    fn rejects_bad_sparse_crossover() {
        for theta in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let c = SophieConfig {
                sparse_crossover: Some(theta),
                ..SophieConfig::default()
            };
            assert!(
                matches!(
                    c.validate(),
                    Err(SophieError::BadConfig {
                        field: "sparse_crossover",
                        ..
                    })
                ),
                "crossover {theta} should be rejected"
            );
        }
        let c = SophieConfig {
            sparse_crossover: Some(0.25),
            ..SophieConfig::default()
        };
        assert!(c.validate().is_ok());
    }

    #[test]
    fn total_local_iters_multiplies() {
        let c = SophieConfig {
            global_iters: 500,
            local_iters: 10,
            ..SophieConfig::default()
        };
        assert_eq!(c.total_local_iters(), 5000);
    }
}
