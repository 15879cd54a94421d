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
    /// The most MVM chain steps (symmetric tile pairs × `local_iters`) one
    /// round may queue.
    ///
    /// A round queues every local iteration of every selected pair before
    /// its one flush, and keeps each command and completion until the
    /// fold, so one round's memory grows as pairs × `local_iters`: about
    /// 1.1 KB a step (K512 at tile 8, 2,080 pairs, one round: peak RSS
    /// rose 3.0 MB at `L` = 1 and 148 MB at `L` = 63). The limit, counted
    /// over all `⌈n/t⌉(⌈n/t⌉+1)/2` pairs whatever the tile fraction, keeps
    /// a round near 150 MB. It still admits the paper's largest `L` = 50
    /// at tile 64 on a 4,096-node graph (2,080 pairs × 50 = 104,000
    /// steps).
    pub const MAX_ROUND_STEPS: usize = 1 << 17;

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

    /// Validates all fields, and that one round on an instance of `nodes`
    /// nodes queues at most [`Self::MAX_ROUND_STEPS`] chain steps. Every
    /// engine constructor checks this before it builds a tile.
    ///
    /// # Errors
    ///
    /// Returns [`SophieError::BadConfig`] naming the first offending field
    /// (`local_iters` for the round bound).
    pub fn validate_for(&self, nodes: usize) -> Result<()> {
        self.validate()?;
        let blocks = nodes.div_ceil(self.tile_size) as u128;
        let pairs = blocks.saturating_mul(blocks + 1) / 2;
        let steps = pairs.saturating_mul(self.local_iters as u128);
        if steps > Self::MAX_ROUND_STEPS as u128 {
            return Err(SophieError::BadConfig {
                field: "local_iters",
                message: format!(
                    "{} local iterations on each of the {pairs} tile pairs of a \
                     {nodes}-node instance at tile_size {} queue {steps} steps per \
                     round, above the limit {}",
                    self.local_iters,
                    self.tile_size,
                    Self::MAX_ROUND_STEPS
                ),
            });
        }
        Ok(())
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
    fn round_steps_are_bounded_by_pairs_times_local_iters() {
        // The paper's largest L at tile 64 on the daemon's node cap fits.
        let paper = SophieConfig {
            local_iters: 50,
            ..SophieConfig::default()
        };
        assert!(paper.validate_for(4096).is_ok());
        // 64 blocks: 2,080 pairs × 63 = 131,040 steps fit; × 64 do not.
        let at = |local_iters| SophieConfig {
            tile_size: 8,
            local_iters,
            ..SophieConfig::default()
        };
        assert!(at(63).validate_for(512).is_ok());
        assert!(matches!(
            at(64).validate_for(512),
            Err(SophieError::BadConfig {
                field: "local_iters",
                ..
            })
        ));
        let huge = SophieConfig {
            tile_size: 1,
            local_iters: usize::MAX,
            ..SophieConfig::default()
        };
        assert!(huge.validate_for(usize::MAX).is_err());
    }
}
