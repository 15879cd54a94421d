//! Hardware-accurate MVM backend for the SOPHIE engine.
//!
//! [`OpcmBackend`] plugs the device models into
//! [`sophie_core::backend::MvmBackend`], so the *same* tiled algorithm that
//! runs on the exact floating-point substrate executes through:
//!
//! * GST cell quantization (64 levels by default) at programming time;
//! * multiplicative analog read noise at the photodetector;
//! * 8-bit ADC quantization on partial-sum reads;
//! * optional *transient runtime faults* from a seeded
//!   [`FaultSchedule`] — drift bursts, stuck cells, laser droop, ADC
//!   saturation, chiplet dropout — applied at (round, wave) granularity
//!   and reported through
//!   [`MvmUnit::take_fault_reports`] for the engine's fault-aware runtime.
//!
//! Comparing solution quality across the two backends is how we validate
//! that SOPHIE's algorithm tolerates its own hardware (tests at the bottom
//! and `tests/hw_vs_ideal.rs`).
//!
//! # Fault semantics
//!
//! Reprogramming an array ([`MvmUnit::program`], which recovery policies
//! invoke) clears gain faults (drift, droop), chiplet dropout, and ADC
//! saturation; *stuck cells persist* across reprograms — only remapping
//! the pair onto a spare physical array cures them. ADC saturation also
//! self-clears at the next round boundary.

use std::sync::atomic::{AtomicU64, Ordering};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sophie_core::backend::{FaultReport, MvmBackend, MvmUnit};
use sophie_linalg::Tile;

use crate::device::adc::DualPrecisionAdc;
use crate::device::opcm::{OpcmArray, OpcmCellSpec};
use crate::device::variability::VariabilityModel;
use crate::error::{HwError, Result};
use crate::fault::{FaultEvent, FaultSchedule};

/// Fraction of the ADC full-scale range reachable during a saturation
/// burst.
const ADC_SATURATION_FRACTION: f32 = 0.125;

/// Configuration of the hardware backend.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpcmBackendConfig {
    /// GST cell characteristics.
    pub cell: OpcmCellSpec,
    /// Relative standard deviation of multiplicative analog read noise
    /// (shot/thermal noise at the photodetector). The paper's noise
    /// generator *adds* noise up to the algorithmic φ; intrinsic device
    /// noise therefore only helps, as long as it stays below φ.
    pub read_noise: f32,
    /// Multi-bit ADC resolution (paper: 8).
    pub adc_bits: u32,
    /// GST variability and fault model applied at programming time.
    pub variability: VariabilityModel,
    /// Transient runtime faults fired during rounds
    /// ([`FaultSchedule::none`] by default: no faults ever).
    pub faults: FaultSchedule,
    /// Base seed for per-unit noise streams.
    pub seed: u64,
}

impl Default for OpcmBackendConfig {
    fn default() -> Self {
        OpcmBackendConfig {
            cell: OpcmCellSpec::default(),
            read_noise: 0.01,
            adc_bits: 8,
            variability: VariabilityModel::ideal(),
            faults: FaultSchedule::none(),
            seed: 0,
        }
    }
}

impl OpcmBackendConfig {
    /// Validates every sub-model, so invalid configurations surface as
    /// typed errors instead of garbage tiles deep in a run.
    ///
    /// # Errors
    ///
    /// Returns [`crate::HwError::BadParameter`] naming the first
    /// offending field.
    pub fn validate(&self) -> Result<()> {
        self.cell.validate()?;
        if self.read_noise < 0.0 || self.read_noise.is_nan() {
            return Err(crate::HwError::BadParameter {
                name: "read_noise",
                message: format!("must be non-negative, got {}", self.read_noise),
            });
        }
        if !(2..=16).contains(&self.adc_bits) {
            return Err(crate::HwError::BadParameter {
                name: "adc_bits",
                message: format!("multi-bit mode must use 2..=16 bits, got {}", self.adc_bits),
            });
        }
        self.variability.validate()?;
        self.faults.validate()?;
        Ok(())
    }
}

/// Factory producing one [`OpcmUnit`] per physical array.
#[derive(Debug)]
pub struct OpcmBackend {
    config: OpcmBackendConfig,
    counter: AtomicU64,
}

impl OpcmBackend {
    /// Creates a backend; unit noise streams derive from `config.seed`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid; use [`Self::try_new`] to
    /// handle the error instead.
    #[must_use]
    pub fn new(config: OpcmBackendConfig) -> Self {
        Self::try_new(config).unwrap_or_else(|e| panic!("invalid OpcmBackendConfig: {e}"))
    }

    /// Fallible constructor: validates the configuration first.
    ///
    /// # Errors
    ///
    /// Returns [`crate::HwError::BadParameter`] naming the first
    /// offending field.
    pub fn try_new(config: OpcmBackendConfig) -> Result<Self> {
        config.validate()?;
        Ok(OpcmBackend {
            config,
            counter: AtomicU64::new(0),
        })
    }

    /// The backend configuration.
    #[must_use]
    pub fn config(&self) -> &OpcmBackendConfig {
        &self.config
    }
}

impl Default for OpcmBackend {
    fn default() -> Self {
        OpcmBackend::new(OpcmBackendConfig::default())
    }
}

/// One cell latched by an endurance failure: `(row, col)` plus the level
/// it is stuck at, in weight space.
#[derive(Debug, Clone, Copy)]
struct StuckCell {
    r: usize,
    c: usize,
    w: f32,
}

/// One OPCM array plus its converters, as seen by the engine.
#[derive(Debug)]
pub struct OpcmUnit {
    array: OpcmArray,
    adc: Option<DualPrecisionAdc>,
    adc_bits: u32,
    read_noise: f32,
    variability: VariabilityModel,
    faults: FaultSchedule,
    unit_id: u64,
    rng: SmallRng,
    /// MVM ordinal within the current round (reset by `begin_round`).
    wave: u32,
    /// Faults drawn for this round, sorted by wave, not yet activated.
    pending: Vec<FaultEvent>,
    /// Activated faults awaiting `take_fault_reports`.
    reports: Vec<FaultReport>,
    /// Multiplicative output gain (drift bursts × laser droop); 1.0 when
    /// healthy. Reset by `program`.
    gain: f32,
    /// Chiplet dropout: all outputs read zero. Reset by `program`.
    dropped: bool,
    /// ADC saturation burst: 8-bit reads clamp near zero scale for the
    /// rest of the round. Reset by `begin_round` and `program`.
    adc_saturated: bool,
    /// Cells latched by endurance failures. Survive `program` — only a
    /// remap (a fresh unit from the backend) clears them.
    stuck: Vec<StuckCell>,
}

impl OpcmUnit {
    /// Access to the underlying array model (e.g. for inspecting stored
    /// weights in tests).
    #[must_use]
    pub fn array(&self) -> &OpcmArray {
        &self.array
    }

    /// Whether the unit is currently affected by any runtime fault
    /// (gain loss, dropout, ADC saturation, or stuck cells).
    #[must_use]
    pub fn is_faulted(&self) -> bool {
        self.gain != 1.0 || self.dropped || self.adc_saturated || !self.stuck.is_empty()
    }

    fn apply_read_noise(&mut self, y: &mut [f32]) {
        if self.read_noise > 0.0 {
            for v in y.iter_mut() {
                // Cheap Gaussian-ish noise: sum of three uniforms has the
                // right first two moments and is plenty for device noise.
                let g: f32 =
                    (self.rng.gen::<f32>() + self.rng.gen::<f32>() + self.rng.gen::<f32>() - 1.5)
                        * 2.0;
                *v *= 1.0 + self.read_noise * g;
            }
        }
    }

    /// Advances the wave counter and activates every pending fault whose
    /// wave has arrived, recording a report for each.
    fn advance_wave(&mut self) {
        let wave = self.wave;
        self.wave = self.wave.saturating_add(1);
        while self.pending.first().is_some_and(|f| f.wave() <= wave) {
            let event = self.pending.remove(0);
            match event {
                FaultEvent::DriftBurst { factor, .. } | FaultEvent::LaserDroop { factor, .. } => {
                    self.gain *= factor
                }
                FaultEvent::ChipletDropout { .. } => self.dropped = true,
                FaultEvent::AdcSaturation { .. } => self.adc_saturated = true,
                FaultEvent::StuckCells { cells_seed, .. } => self.latch_cells(cells_seed),
            }
            self.reports.push(FaultReport {
                kind: event.kind(),
                wave,
            });
        }
    }

    /// Latches `stuck_fraction` of the array's cells at random reachable
    /// levels, deterministically in `cells_seed`.
    fn latch_cells(&mut self, cells_seed: u64) {
        let t = self.array.tile_size();
        let count = ((self.faults.stuck_fraction * (t * t) as f64).ceil() as usize).min(t * t);
        let scale = self.array.scale();
        let mut rng = SmallRng::seed_from_u64(cells_seed);
        for _ in 0..count {
            self.stuck.push(StuckCell {
                r: rng.gen_range(0..t),
                c: rng.gen_range(0..t),
                w: (rng.gen::<f32>() * 2.0 - 1.0) * scale,
            });
        }
    }

    /// Replaces each stuck cell's stored contribution with its latched
    /// level: `y_r += (w_stuck − w_stored) · x_c` (forward orientation).
    fn apply_stuck(&self, x: &[f32], y: &mut [f32], transposed: bool) {
        for cell in &self.stuck {
            let delta = cell.w - self.array.stored_weight(cell.r, cell.c);
            if transposed {
                y[cell.c] += delta * x[cell.r];
            } else {
                y[cell.r] += delta * x[cell.c];
            }
        }
    }

    fn apply_output_faults(&mut self, x: &[f32], y: &mut [f32], transposed: bool) {
        if self.dropped {
            y.fill(0.0);
            return;
        }
        if !self.stuck.is_empty() {
            self.apply_stuck(x, y, transposed);
        }
        if self.gain != 1.0 {
            for v in y.iter_mut() {
                *v *= self.gain;
            }
        }
        self.apply_read_noise(y);
    }
}

impl MvmUnit for OpcmUnit {
    fn program(&mut self, tile: &Tile) {
        // `MvmUnit::program` is infallible by contract, so model failures
        // surface as panics — but through the crate's typed errors first,
        // so the message names the unit and the failing operation.
        let degraded = self
            .variability
            .try_degrade(tile, self.unit_id)
            .unwrap_or_else(|e| panic!("{e}"));
        self.array.program(&degraded);
        // Full-scale range: the largest possible |partial sum| is
        // max|w| · t (all inputs high on the strongest row).
        let t = tile.size() as f32;
        let max_abs = tile.as_slice().iter().fold(0.0_f32, |m, &x| m.max(x.abs()));
        let range = (max_abs * t).max(f32::MIN_POSITIVE);
        let adc = DualPrecisionAdc::new(self.adc_bits, range)
            .map_err(|e| HwError::UnitFailure {
                unit: self.unit_id,
                op: "program",
                message: e.to_string(),
            })
            .unwrap_or_else(|e| panic!("{e}"));
        self.adc = Some(adc);
        // A fresh write restores gain (power control recalibrates),
        // revives a dropped chiplet, and clears ADC saturation; stuck
        // cells are physical damage and persist.
        self.gain = 1.0;
        self.dropped = false;
        self.adc_saturated = false;
    }

    fn forward(&mut self, x: &[f32], y: &mut [f32]) {
        self.advance_wave();
        self.array.forward(x, y);
        self.apply_output_faults(x, y, false);
    }

    fn transposed(&mut self, x: &[f32], y: &mut [f32]) {
        self.advance_wave();
        self.array.transposed(x, y);
        self.apply_output_faults(x, y, true);
    }

    fn quantize_8bit(&mut self, y: &mut [f32]) {
        let adc = self.adc.as_ref().expect("unit used before programming");
        if self.adc_saturated {
            let clamp = adc.range() * ADC_SATURATION_FRACTION;
            for v in y.iter_mut() {
                *v = v.clamp(-clamp, clamp);
            }
        }
        adc.quantize_slice(y);
    }

    fn begin_round(&mut self, round: u64) {
        self.wave = 0;
        // Saturation bursts are transient: a new round resets the ADC.
        self.adc_saturated = false;
        // Undelivered events from earlier rounds are discarded; the new
        // round's events come purely from (seed, round, unit id).
        self.pending = self.faults.draw(round, self.unit_id);
    }

    fn take_fault_reports(&mut self) -> Vec<FaultReport> {
        std::mem::take(&mut self.reports)
    }
}

impl MvmBackend for OpcmBackend {
    type Unit = OpcmUnit;

    fn unit(&self, tile_size: usize) -> OpcmUnit {
        let id = self.counter.fetch_add(1, Ordering::Relaxed);
        OpcmUnit {
            array: OpcmArray::new(self.config.cell, tile_size)
                .map_err(|e| HwError::UnitFailure {
                    unit: id,
                    op: "allocate",
                    message: e.to_string(),
                })
                .unwrap_or_else(|e| panic!("{e}")),
            adc: None,
            adc_bits: self.config.adc_bits,
            read_noise: self.config.read_noise,
            variability: self.config.variability,
            faults: self.config.faults,
            unit_id: id,
            rng: SmallRng::seed_from_u64(self.config.seed ^ id.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
            wave: 0,
            pending: Vec::new(),
            reports: Vec::new(),
            gain: 1.0,
            dropped: false,
            adc_saturated: false,
            stuck: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tile() -> Tile {
        Tile::from_vec(4, (0..16).map(|i| i as f32 / 4.0 - 2.0).collect()).unwrap()
    }

    #[test]
    fn unit_approximates_exact_mvm() {
        let backend = OpcmBackend::new(OpcmBackendConfig {
            read_noise: 0.0,
            ..OpcmBackendConfig::default()
        });
        let mut unit = backend.unit(4);
        let tile = sample_tile();
        unit.program(&tile);
        let x = [1.0_f32, 0.0, 1.0, 1.0];
        let mut exact = [0.0_f32; 4];
        tile.mvm(&x, &mut exact);
        let mut dev = [0.0_f32; 4];
        unit.forward(&x, &mut dev);
        for (a, b) in dev.iter().zip(&exact) {
            assert!((a - b).abs() < 0.15, "{a} vs {b}");
        }
    }

    #[test]
    fn read_noise_perturbs_but_preserves_scale() {
        let backend = OpcmBackend::new(OpcmBackendConfig {
            read_noise: 0.05,
            ..OpcmBackendConfig::default()
        });
        let mut unit = backend.unit(4);
        unit.program(&sample_tile());
        let x = [1.0_f32; 4];
        let mut a = [0.0_f32; 4];
        let mut b = [0.0_f32; 4];
        unit.forward(&x, &mut a);
        unit.forward(&x, &mut b);
        assert_ne!(a, b, "noise should vary between reads");
        for (p, q) in a.iter().zip(&b) {
            assert!((p - q).abs() < 0.3 * (p.abs() + 1.0));
        }
    }

    #[test]
    fn quantize_8bit_bounds_error() {
        let backend = OpcmBackend::default();
        let mut unit = backend.unit(4);
        unit.program(&sample_tile());
        // Full scale = 2.0 · 4 = 8 ⇒ step ≈ 0.0627.
        let mut y = [1.234_f32, -5.0, 0.0, 7.9];
        let orig = y;
        unit.quantize_8bit(&mut y);
        for (q, o) in y.iter().zip(&orig) {
            assert!((q - o).abs() <= 0.04, "{o} → {q}");
        }
    }

    #[test]
    fn units_get_distinct_noise_streams() {
        let backend = OpcmBackend::new(OpcmBackendConfig {
            read_noise: 0.05,
            ..OpcmBackendConfig::default()
        });
        let mut u1 = backend.unit(4);
        let mut u2 = backend.unit(4);
        u1.program(&sample_tile());
        u2.program(&sample_tile());
        let x = [1.0_f32; 4];
        let mut a = [0.0_f32; 4];
        let mut b = [0.0_f32; 4];
        u1.forward(&x, &mut a);
        u2.forward(&x, &mut b);
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "before programming")]
    fn quantize_before_program_panics() {
        let backend = OpcmBackend::default();
        let mut unit = backend.unit(2);
        let mut y = [0.0_f32; 2];
        unit.quantize_8bit(&mut y);
    }
}
