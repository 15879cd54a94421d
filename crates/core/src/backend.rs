//! MVM execution backends.
//!
//! The functional simulator runs the same algorithm over different compute
//! substrates: an exact floating-point backend (algorithm studies, Fig. 6–8)
//! and a hardware-accurate OPCM device model in `sophie-hw` (cell
//! quantization, optical loss, ADC precision). Both implement [`MvmBackend`];
//! each physical OPCM array in the machine corresponds to one [`MvmUnit`].

use sophie_linalg::{KernelPlan, Tile};

/// One transient hardware fault that took effect on a unit during a round.
///
/// Fault-capable backends (the `sophie-hw` OPCM model) record these as
/// their MVMs execute; the engine drains them after each round via
/// [`MvmUnit::take_fault_reports`] and re-emits them as
/// `SolveEvent::FaultInjected`. The ideal backend never produces any.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultReport {
    /// Fault class (`"laser_droop"`, `"chiplet_dropout"`, `"stuck_cells"`,
    /// `"drift_burst"`, `"adc_saturation"`).
    pub kind: &'static str,
    /// Wave (MVM ordinal within the round, counting forward and transposed
    /// passes) at which the fault took effect; 0 is the round's first MVM.
    pub wave: u32,
}

/// One physical bidirectional matrix-vector unit (an OPCM array plus its
/// converters): stores a tile and multiplies by it or its transpose.
///
/// Units must be [`Send`]: the engine executes the selected tile pairs of a
/// round concurrently, moving each pair's unit borrow onto a worker thread.
/// A unit is only ever driven by one thread at a time (no `Sync` needed).
pub trait MvmUnit: Send {
    /// Programs the unit with the contents of `tile` (an OPCM write).
    fn program(&mut self, tile: &Tile);

    /// `y = T·x` — light sent row-wise, read column-wise (paper Eq. 9
    /// orientation for the stored tile).
    ///
    /// # Panics
    ///
    /// Implementations panic if the unit was never programmed or lengths
    /// mismatch the tile size.
    fn forward(&mut self, x: &[f32], y: &mut [f32]);

    /// `y = Tᵀ·x` — the same array read in the other optical direction
    /// (paper Eq. 8), which is what lets one array serve a symmetric tile
    /// pair.
    ///
    /// # Panics
    ///
    /// Same conditions as [`MvmUnit::forward`].
    fn transposed(&mut self, x: &[f32], y: &mut [f32]);

    /// Applies the unit's 8-bit read path to an analog result in place
    /// (dual-precision ADC, §III-C). The ideal backend leaves values
    /// untouched.
    fn quantize_8bit(&mut self, _y: &mut [f32]) {}

    /// Tells the unit a new round of local iterations is starting, so
    /// fault-capable backends can draw that round's transient-fault
    /// schedule deterministically from `(fault seed, round, unit id)`.
    /// Called once per round per *selected* pair before any of its MVMs;
    /// round indices are 1-based (setup programming happens "before
    /// round 1" and is never faulted). The default is a no-op.
    fn begin_round(&mut self, _round: u64) {}

    /// Drains the transient faults that took effect since the last drain,
    /// in the order they fired. The default (ideal hardware) returns an
    /// empty vector and allocates nothing.
    fn take_fault_reports(&mut self) -> Vec<FaultReport> {
        Vec::new()
    }
}

/// Factory for [`MvmUnit`]s: one machine/back-end configuration producing
/// one unit per physical array.
pub trait MvmBackend {
    /// The unit type manufactured by this backend.
    type Unit: MvmUnit;

    /// Creates an unprogrammed unit for tiles of edge length `tile_size`.
    fn unit(&self, tile_size: usize) -> Self::Unit;
}

/// Exact floating-point backend: units store the tile verbatim and multiply
/// in `f32` with no device effects, through the run's kernel plan
/// ([`KernelPlan::resolve`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct IdealBackend;

impl IdealBackend {
    /// Creates the ideal backend.
    #[must_use]
    pub fn new() -> Self {
        IdealBackend
    }
}

/// Unit produced by [`IdealBackend`].
#[derive(Debug, Clone)]
pub struct IdealUnit {
    tile_size: usize,
    tile: Option<Tile>,
    plan: KernelPlan,
}

impl IdealUnit {
    fn tile(&self) -> &Tile {
        self.tile.as_ref().expect("unit used before programming")
    }
}

impl MvmUnit for IdealUnit {
    fn program(&mut self, tile: &Tile) {
        assert_eq!(tile.size(), self.tile_size, "tile size mismatch");
        self.tile = Some(tile.clone());
    }

    fn forward(&mut self, x: &[f32], y: &mut [f32]) {
        self.plan.forward(self.tile(), x, y);
    }

    fn transposed(&mut self, x: &[f32], y: &mut [f32]) {
        self.plan.transposed(self.tile(), x, y);
    }
}

impl MvmBackend for IdealBackend {
    type Unit = IdealUnit;

    fn unit(&self, tile_size: usize) -> IdealUnit {
        IdealUnit {
            tile_size,
            tile: None,
            plan: KernelPlan::resolve(tile_size),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tile() -> Tile {
        Tile::from_vec(2, vec![1.0, 2.0, 3.0, 4.0]).unwrap()
    }

    #[test]
    fn ideal_unit_multiplies_exactly() {
        let backend = IdealBackend::new();
        let mut unit = backend.unit(2);
        unit.program(&sample_tile());
        let mut y = [0.0_f32; 2];
        unit.forward(&[1.0, 1.0], &mut y);
        assert_eq!(y, [3.0, 7.0]);
        unit.transposed(&[1.0, 1.0], &mut y);
        assert_eq!(y, [4.0, 6.0]);
    }

    #[test]
    fn forward_and_transposed_are_consistent() {
        let backend = IdealBackend::new();
        let mut unit = backend.unit(2);
        unit.program(&sample_tile());
        // (T x)·z == x·(Tᵀ z) for all x, z.
        let x = [1.0_f32, -2.0];
        let z = [0.5_f32, 3.0];
        let mut tx = [0.0_f32; 2];
        let mut ttz = [0.0_f32; 2];
        unit.forward(&x, &mut tx);
        unit.transposed(&z, &mut ttz);
        let lhs: f32 = tx.iter().zip(&z).map(|(a, b)| a * b).sum();
        let rhs: f32 = x.iter().zip(&ttz).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "before programming")]
    fn unprogrammed_unit_panics() {
        let backend = IdealBackend::new();
        let mut unit = backend.unit(2);
        let mut y = [0.0_f32; 2];
        unit.forward(&[1.0, 1.0], &mut y);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn wrong_tile_size_panics() {
        let backend = IdealBackend::new();
        let mut unit = backend.unit(4);
        unit.program(&sample_tile());
    }

    #[test]
    fn default_quantize_is_identity() {
        let backend = IdealBackend::new();
        let mut unit = backend.unit(2);
        unit.program(&sample_tile());
        let mut y = [1.25_f32, -2.5];
        unit.quantize_8bit(&mut y);
        assert_eq!(y, [1.25, -2.5]);
    }

    #[test]
    fn reprogramming_replaces_contents() {
        let backend = IdealBackend::new();
        let mut unit = backend.unit(2);
        unit.program(&sample_tile());
        unit.program(&Tile::from_vec(2, vec![0.0; 4]).unwrap());
        let mut y = [9.0_f32; 2];
        unit.forward(&[1.0, 1.0], &mut y);
        assert_eq!(y, [0.0, 0.0]);
    }
}
