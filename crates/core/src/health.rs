//! Health monitoring and fault-recovery configuration.
//!
//! A fault-aware run (a [`crate::SophieSolver::solve_job`] with
//! [`EngineRun::health`](crate::EngineRun::health) set)
//! interleaves cheap calibration MVMs with the solve: every
//! [`HealthConfig::check_interval`] rounds the engine sends a known probe
//! vector through each pair's physical unit, compares the result against
//! the exact tile product, and flags the unit when the relative residual
//! exceeds [`HealthConfig::threshold`]. What happens next is the
//! [`RecoveryPolicy`]: reprogram the array and retry, remap the pair onto
//! a spare array, or quarantine it (graceful degradation). Every probe and
//! reprogram is tallied in [`sophie_solve::OpCounts`]
//! (`probe_mvms`, `recovery_reprograms`, …) so the `sophie-hw` cost models
//! charge recovered runs their honest energy/time overhead.

use crate::error::{Result, SophieError};

/// What the runtime does after a calibration probe flags a faulty unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryPolicy {
    /// Report `FaultDetected` events but never intervene — the
    /// measurement baseline for the robustness sweeps.
    DetectOnly,
    /// Reprogram the array in place (an OPCM write of the intended tile)
    /// and re-probe, up to `max_attempts` times. Clears drift, droop, and
    /// dropout; cannot clear stuck cells.
    Reprogram {
        /// Maximum reprogram attempts per detection (≥ 1).
        max_attempts: u32,
    },
    /// Reprogram up to `reprogram_attempts` times, then — if the unit is
    /// still faulty — remap the pair onto a fresh spare array (the only
    /// cure for stuck cells). At most `max_spares` remaps per run.
    Remap {
        /// Reprogram attempts before reaching for a spare (may be 0).
        reprogram_attempts: u32,
        /// Spare physical arrays available for the whole run (≥ 1).
        max_spares: usize,
    },
    /// Reprogram up to `reprogram_attempts` times, then quarantine the
    /// pair: zero its partial-sum contribution and stop scheduling it.
    /// The machine keeps solving at reduced precision instead of running
    /// spins through a faulty unit.
    Quarantine {
        /// Reprogram attempts before quarantining (may be 0).
        reprogram_attempts: u32,
    },
}

/// Configuration of the runtime health monitor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthConfig {
    /// Probe every pair after each `check_interval`-th round (≥ 1; 1
    /// probes after every global synchronization).
    pub check_interval: usize,
    /// Relative probe-residual threshold above which a unit is declared
    /// faulty. Healthy 6-bit OPCM units with default read noise sit below
    /// ~0.05, so the default 0.15 keeps false positives rare while
    /// catching droop, dropout, stuck cells, and accumulated drift.
    pub threshold: f64,
    /// What to do about a detected fault.
    pub policy: RecoveryPolicy,
    /// Seed of the deterministic per-pair probe vectors (independent of
    /// the job seed so probing never perturbs the solve's noise streams).
    pub probe_seed: u64,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            check_interval: 1,
            threshold: 0.15,
            policy: RecoveryPolicy::Reprogram { max_attempts: 3 },
            probe_seed: 0x5EA1_7B0B,
        }
    }
}

impl HealthConfig {
    /// Validates all fields.
    ///
    /// # Errors
    ///
    /// Returns [`SophieError::BadConfig`] naming the first offending field.
    pub fn validate(&self) -> Result<()> {
        if self.check_interval == 0 {
            return Err(SophieError::BadConfig {
                field: "check_interval",
                message: "must be positive".into(),
            });
        }
        if !(self.threshold > 0.0 && self.threshold.is_finite()) {
            return Err(SophieError::BadConfig {
                field: "threshold",
                message: format!("must be positive and finite, got {}", self.threshold),
            });
        }
        match self.policy {
            RecoveryPolicy::Reprogram { max_attempts: 0 } => Err(SophieError::BadConfig {
                field: "policy",
                message: "Reprogram.max_attempts must be positive".into(),
            }),
            RecoveryPolicy::Remap { max_spares: 0, .. } => Err(SophieError::BadConfig {
                field: "policy",
                message: "Remap.max_spares must be positive".into(),
            }),
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_validates() {
        assert!(HealthConfig::default().validate().is_ok());
    }

    #[test]
    fn rejects_zero_interval() {
        let c = HealthConfig {
            check_interval: 0,
            ..HealthConfig::default()
        };
        assert!(matches!(
            c.validate(),
            Err(SophieError::BadConfig {
                field: "check_interval",
                ..
            })
        ));
    }

    #[test]
    fn rejects_bad_threshold() {
        for bad in [0.0, -0.1, f64::NAN, f64::INFINITY] {
            let c = HealthConfig {
                threshold: bad,
                ..HealthConfig::default()
            };
            assert!(c.validate().is_err(), "threshold {bad} should be rejected");
        }
    }

    #[test]
    fn rejects_zero_attempt_budgets() {
        let c = HealthConfig {
            policy: RecoveryPolicy::Reprogram { max_attempts: 0 },
            ..HealthConfig::default()
        };
        assert!(c.validate().is_err());
        let c = HealthConfig {
            policy: RecoveryPolicy::Remap {
                reprogram_attempts: 1,
                max_spares: 0,
            },
            ..HealthConfig::default()
        };
        assert!(c.validate().is_err());
        // Zero reprogram attempts are fine when a spare or quarantine
        // backstop exists.
        let c = HealthConfig {
            policy: RecoveryPolicy::Quarantine {
                reprogram_attempts: 0,
            },
            ..HealthConfig::default()
        };
        assert!(c.validate().is_ok());
    }
}
