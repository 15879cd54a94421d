//! Deterministic transient-fault schedules for the OPCM backend.
//!
//! Program-time variability ([`crate::device::variability`]) perturbs a
//! tile once, when it is written; real accelerators additionally suffer
//! faults *during* a run — laser-power droop, accumulating transmittance
//! drift between reprograms, endurance failures leaving cells stuck,
//! ADC saturation bursts, and whole-chiplet dropout. [`FaultSchedule`]
//! models these as seeded stochastic events at `(round, wave)`
//! granularity: at the start of each round every unit draws its fault
//! events for that round from an RNG stream keyed purely by
//! `(schedule seed, round, unit id)` — never by thread identity or
//! execution order — so fault streams are bit-identical for every
//! `SOPHIE_THREADS` value (the same discipline as the engine's noise
//! streams).
//!
//! The [`crate::backend::OpcmUnit`] applies the drawn events inside its
//! MVMs and reports them through
//! [`sophie_core::backend::MvmUnit::take_fault_reports`], from which the
//! engine emits `SolveEvent::FaultInjected`.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::error::{HwError, Result};

/// One fault event drawn for a unit's round, activating at `wave`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultEvent {
    /// A burst of accumulated transmittance drift: the array's effective
    /// output gain decays by `factor` (structural relaxation between
    /// reprograms). Cleared by the next reprogram.
    DriftBurst {
        /// Wave (MVM ordinal within the round) at which the burst lands.
        wave: u32,
        /// Multiplicative gain factor in `(0, 1)`.
        factor: f32,
    },
    /// Laser-power droop scaling the whole tile's transmittance by
    /// `factor`. Cleared by the next reprogram (the power-control loop
    /// recalibrates during the write).
    LaserDroop {
        /// Activation wave.
        wave: u32,
        /// Multiplicative gain factor in `(0, 1)`.
        factor: f32,
    },
    /// Endurance failure: a fraction of the array's cells latch at random
    /// reachable levels. Persists across reprograms — only remapping to a
    /// spare array cures it.
    StuckCells {
        /// Activation wave.
        wave: u32,
        /// Seed from which the unit draws the stuck positions and levels.
        cells_seed: u64,
    },
    /// ADC saturation burst: 8-bit reads clamp at a fraction of full
    /// scale for the rest of the round. Transient (clears at the next
    /// round) and also cleared by a reprogram.
    AdcSaturation {
        /// Activation wave.
        wave: u32,
    },
    /// Whole-chiplet dropout: the unit's outputs read as zero until the
    /// chiplet is power-cycled by a reprogram.
    ChipletDropout {
        /// Activation wave.
        wave: u32,
    },
}

impl FaultEvent {
    /// Activation wave within the round.
    #[must_use]
    pub fn wave(&self) -> u32 {
        match *self {
            FaultEvent::DriftBurst { wave, .. }
            | FaultEvent::LaserDroop { wave, .. }
            | FaultEvent::StuckCells { wave, .. }
            | FaultEvent::AdcSaturation { wave }
            | FaultEvent::ChipletDropout { wave } => wave,
        }
    }

    /// Stable fault-class label (the `kind` field of
    /// `SolveEvent::FaultInjected`).
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            FaultEvent::DriftBurst { .. } => "drift_burst",
            FaultEvent::LaserDroop { .. } => "laser_droop",
            FaultEvent::StuckCells { .. } => "stuck_cells",
            FaultEvent::AdcSaturation { .. } => "adc_saturation",
            FaultEvent::ChipletDropout { .. } => "chiplet_dropout",
        }
    }
}

/// Seeded per-round transient-fault schedule.
///
/// Each rate is the per-round probability that the corresponding fault
/// class fires on one unit (independent draws per class). Severity knobs
/// control what a firing does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSchedule {
    /// Per-round probability of a [`FaultEvent::DriftBurst`].
    pub drift_rate: f64,
    /// Per-round probability of a [`FaultEvent::StuckCells`] onset.
    pub stuck_rate: f64,
    /// Per-round probability of a [`FaultEvent::LaserDroop`].
    pub droop_rate: f64,
    /// Per-round probability of an [`FaultEvent::AdcSaturation`] burst.
    pub adc_rate: f64,
    /// Per-round probability of a [`FaultEvent::ChipletDropout`].
    pub dropout_rate: f64,
    /// Gain decay per drift burst: the burst multiplies the unit's gain
    /// by `1 - drift_step` (in `[0, 1)`).
    pub drift_step: f64,
    /// Fractional transmittance lost to a droop event: gain is multiplied
    /// by `1 - droop_depth` (in `(0, 1]`).
    pub droop_depth: f64,
    /// Fraction of the array's cells latched by one stuck-cell onset
    /// (in `[0, 1]`).
    pub stuck_fraction: f64,
    /// Upper bound (exclusive) on drawn activation waves. Rounds with
    /// fewer MVMs simply never reach the later waves (those events are
    /// discarded undelivered at the next round's draw).
    pub waves_per_round: u32,
    /// Seed of the fault streams (independent of the job seed).
    pub seed: u64,
}

impl Default for FaultSchedule {
    fn default() -> Self {
        FaultSchedule::none()
    }
}

impl FaultSchedule {
    /// No faults ever (the default: existing behavior is unchanged).
    #[must_use]
    pub fn none() -> Self {
        FaultSchedule {
            drift_rate: 0.0,
            stuck_rate: 0.0,
            droop_rate: 0.0,
            adc_rate: 0.0,
            dropout_rate: 0.0,
            drift_step: 0.1,
            droop_depth: 0.6,
            stuck_fraction: 0.05,
            waves_per_round: 20,
            seed: 0,
        }
    }

    /// A mixed schedule whose per-round, per-unit total fault probability
    /// is `rate`, split across the classes with dropout dominant (the
    /// mix an aging photonic system sees: power/packaging failures beat
    /// endurance failures).
    #[must_use]
    pub fn uniform(rate: f64, seed: u64) -> Self {
        FaultSchedule {
            drift_rate: 0.15 * rate,
            stuck_rate: 0.10 * rate,
            droop_rate: 0.20 * rate,
            adc_rate: 0.05 * rate,
            dropout_rate: 0.50 * rate,
            seed,
            ..FaultSchedule::none()
        }
    }

    /// Whether any fault class can fire.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.drift_rate > 0.0
            || self.stuck_rate > 0.0
            || self.droop_rate > 0.0
            || self.adc_rate > 0.0
            || self.dropout_rate > 0.0
    }

    /// Validates all fields.
    ///
    /// # Errors
    ///
    /// Returns [`HwError::BadParameter`] naming the first offending field.
    pub fn validate(&self) -> Result<()> {
        for (name, v) in [
            ("drift_rate", self.drift_rate),
            ("stuck_rate", self.stuck_rate),
            ("droop_rate", self.droop_rate),
            ("adc_rate", self.adc_rate),
            ("dropout_rate", self.dropout_rate),
        ] {
            if !(0.0..=1.0).contains(&v) || v.is_nan() {
                return Err(HwError::BadParameter {
                    name,
                    message: format!("fault rate must be in [0, 1], got {v}"),
                });
            }
        }
        if !(0.0..1.0).contains(&self.drift_step) || self.drift_step.is_nan() {
            return Err(HwError::BadParameter {
                name: "drift_step",
                message: format!("must be in [0, 1), got {}", self.drift_step),
            });
        }
        if !(self.droop_depth > 0.0 && self.droop_depth <= 1.0) {
            return Err(HwError::BadParameter {
                name: "droop_depth",
                message: format!("must be in (0, 1], got {}", self.droop_depth),
            });
        }
        if !(0.0..=1.0).contains(&self.stuck_fraction) || self.stuck_fraction.is_nan() {
            return Err(HwError::BadParameter {
                name: "stuck_fraction",
                message: format!("must be in [0, 1], got {}", self.stuck_fraction),
            });
        }
        if self.waves_per_round == 0 {
            return Err(HwError::BadParameter {
                name: "waves_per_round",
                message: "must be positive".into(),
            });
        }
        Ok(())
    }

    /// Draws the fault events of unit `unit_id` for round `round`
    /// (1-based), sorted by activation wave.
    ///
    /// Deterministic in `(self.seed, round, unit_id)` only — repeated
    /// calls return identical events, and the result never depends on
    /// when or on which thread the draw happens.
    #[must_use]
    pub fn draw(&self, round: u64, unit_id: u64) -> Vec<FaultEvent> {
        if !self.is_active() {
            return Vec::new();
        }
        let mut rng = SmallRng::seed_from_u64(fault_stream_seed(self.seed, round, unit_id));
        let mut events = Vec::new();
        // Each class consumes a fixed number of RNG draws whether or not
        // it fires, so one class's rate never shifts another's stream.
        let wave_of = |rng: &mut SmallRng| rng.gen_range(0..self.waves_per_round);

        let (p, w) = (rng.gen::<f64>(), wave_of(&mut rng));
        if p < self.drift_rate {
            events.push(FaultEvent::DriftBurst {
                wave: w,
                factor: 1.0 - self.drift_step as f32,
            });
        }
        let (p, w, s) = (rng.gen::<f64>(), wave_of(&mut rng), rng.gen::<u64>());
        if p < self.stuck_rate {
            events.push(FaultEvent::StuckCells {
                wave: w,
                cells_seed: s,
            });
        }
        let (p, w) = (rng.gen::<f64>(), wave_of(&mut rng));
        if p < self.droop_rate {
            events.push(FaultEvent::LaserDroop {
                wave: w,
                factor: 1.0 - self.droop_depth as f32,
            });
        }
        let (p, w) = (rng.gen::<f64>(), wave_of(&mut rng));
        if p < self.adc_rate {
            events.push(FaultEvent::AdcSaturation { wave: w });
        }
        let (p, w) = (rng.gen::<f64>(), wave_of(&mut rng));
        if p < self.dropout_rate {
            events.push(FaultEvent::ChipletDropout { wave: w });
        }
        events.sort_by_key(FaultEvent::wave);
        events
    }
}

/// Stream seed for `(schedule seed, round, unit)` — chained SplitMix64
/// finalizers, mirroring the engine's noise-stream derivation.
fn fault_stream_seed(seed: u64, round: u64, unit_id: u64) -> u64 {
    fn mix(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    mix(mix(mix(seed.wrapping_add(0xD1B5_4A32_D192_ED03)) ^ round) ^ unit_id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_draws_nothing() {
        let s = FaultSchedule::none();
        assert!(!s.is_active());
        assert!(s.validate().is_ok());
        assert!(s.draw(1, 0).is_empty());
    }

    #[test]
    fn uniform_splits_the_total_rate() {
        let s = FaultSchedule::uniform(0.1, 7);
        let total = s.drift_rate + s.stuck_rate + s.droop_rate + s.adc_rate + s.dropout_rate;
        assert!((total - 0.1).abs() < 1e-12);
        assert!(s.dropout_rate > s.stuck_rate, "dropout should dominate");
        assert!(s.validate().is_ok());
    }

    #[test]
    fn draw_is_deterministic_and_stream_keyed() {
        let s = FaultSchedule::uniform(1.0, 42);
        assert_eq!(s.draw(3, 5), s.draw(3, 5));
        assert_ne!(s.draw(3, 5), s.draw(4, 5));
        assert_ne!(s.draw(3, 5), s.draw(3, 6));
    }

    #[test]
    fn saturated_rates_fire_every_class_sorted_by_wave() {
        let s = FaultSchedule::uniform(5.0, 1); // every class rate ≥ 0.25… dropout = 2.5 ⇒ certain
        let full = FaultSchedule {
            drift_rate: 1.0,
            stuck_rate: 1.0,
            droop_rate: 1.0,
            adc_rate: 1.0,
            dropout_rate: 1.0,
            ..s
        };
        let events = full.draw(1, 0);
        assert_eq!(events.len(), 5);
        for pair in events.windows(2) {
            assert!(pair[0].wave() <= pair[1].wave());
        }
    }

    #[test]
    fn fault_rate_scales_hit_frequency() {
        let lo = FaultSchedule::uniform(0.01, 9);
        let hi = FaultSchedule::uniform(0.5, 9);
        let count = |s: &FaultSchedule| -> usize { (1..500).map(|r| s.draw(r, 0).len()).sum() };
        assert!(count(&hi) > 5 * count(&lo));
    }

    #[test]
    fn validation_rejects_garbage() {
        let mut s = FaultSchedule::none();
        s.drift_rate = f64::NAN;
        assert!(s.validate().is_err());
        let mut s = FaultSchedule::none();
        s.dropout_rate = 1.5;
        assert!(s.validate().is_err());
        let mut s = FaultSchedule::none();
        s.stuck_fraction = -0.1;
        assert!(s.validate().is_err());
        let mut s = FaultSchedule::none();
        s.droop_depth = 0.0;
        assert!(s.validate().is_err());
        let mut s = FaultSchedule::none();
        s.waves_per_round = 0;
        assert!(s.validate().is_err());
    }

    #[test]
    fn kinds_are_stable_labels() {
        let e = FaultEvent::ChipletDropout { wave: 3 };
        assert_eq!(e.kind(), "chiplet_dropout");
        assert_eq!(e.wave(), 3);
    }
}
