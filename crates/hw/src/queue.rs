//! Device-runtime cost annotation: §IV-A time/energy for command records.
//!
//! The engine's device runtime lives in [`sophie_core::queue`] (re-exported
//! here so hardware-side callers need only this crate): typed commands over
//! buffer handles, executed by a [`CommandQueue`] whose completions each
//! carry an exact [`OpCounts`] cost record. This module binds those records
//! to the paper's cost constants — [`CommandCostModel`] turns any record
//! (a device completion's `cost`, a host record's delta, or a whole-run
//! aggregate) into nanoseconds of device occupancy and joules of energy.
//!
//! Both models are **linear in the counts**, so per-command annotations sum
//! exactly to the annotation of the run total: the attribution invariant the
//! `repro timeline` dump and the `tests/command_queue.rs` suite rest on.

pub use sophie_core::queue::{
    noise_rng, noise_stream_seed, vec_at, BufferHandle, BufferPool, CmdKey, Command, CommandKind,
    CommandQueue, Completion, ExecCtx, Lane, MvmDir, NullTimeline, Src, ThresholdSpec,
    TimelineSink,
};
use sophie_solve::OpCounts;

use crate::arch::MachineConfig;
use crate::cost::energy::ops_energy_j;
use crate::cost::params::CostParams;
use crate::device::opcm::OpcmCellSpec;
use crate::error::Result;

/// One command record's physical cost: device-occupancy time and energy.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostAnnotation {
    /// Device-occupancy time in nanoseconds: MVM read cycles (1 cycle per
    /// 1-bit read, `adc_cycles` per 8-bit read), array programming, and
    /// the controller's glue adds at its configured throughput.
    pub ns: f64,
    /// Energy in joules: the op-proportional dynamic terms (laser, E-O,
    /// ADC, glue) plus GST programming for every array write.
    pub j: f64,
}

/// Annotates [`OpCounts`] records with time and energy from the §IV-A
/// constants.
///
/// ```
/// use sophie_hw::queue::CommandCostModel;
/// use sophie_solve::OpCounts;
///
/// let model = CommandCostModel::sophie_default();
/// let mut ops = OpCounts::new();
/// ops.tiles_programmed = 1;
/// let cost = model.annotate(&ops);
/// assert!((cost.ns - 400.0).abs() < 1e-9); // 400 ns per 64x64 pair write
/// assert!(cost.j > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommandCostModel {
    machine: MachineConfig,
    params: CostParams,
    cell: OpcmCellSpec,
    adc_cycles: u64,
}

impl CommandCostModel {
    /// Builds a model after validating the machine shape and cell spec.
    ///
    /// `adc_cycles` is the multi-bit conversion latency in cycles
    /// (paper: 8).
    ///
    /// # Errors
    ///
    /// Returns [`crate::HwError::BadParameter`] for an invalid machine or
    /// cell, or a zero `adc_cycles`.
    pub fn new(
        machine: MachineConfig,
        params: CostParams,
        cell: OpcmCellSpec,
        adc_cycles: u64,
    ) -> Result<Self> {
        machine.validate()?;
        cell.validate()?;
        if adc_cycles == 0 {
            return Err(crate::HwError::BadParameter {
                name: "adc_cycles",
                message: "must be positive".into(),
            });
        }
        Ok(CommandCostModel {
            machine,
            params,
            cell,
            adc_cycles,
        })
    }

    /// The paper's baseline: one accelerator of 64×64 tiles at 5 GHz,
    /// default cost constants and cell, 8-cycle multi-bit conversion.
    #[must_use]
    pub fn sophie_default() -> Self {
        CommandCostModel::new(
            MachineConfig::sophie_default(1),
            CostParams::default(),
            OpcmCellSpec::default(),
            8,
        )
        .expect("default machine and cell are valid")
    }

    /// The machine shape the model charges against.
    #[must_use]
    pub fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    /// Energy of one record in joules.
    ///
    /// The op-proportional dynamic terms ([`ops_energy_j`]: laser, E-O
    /// modulation, ADC conversion, glue adds) plus GST programming energy
    /// for every `tiles_programmed` event — which covers both setup
    /// programming and recovery reprograms, since the engine counts
    /// `recovery_reprograms` as a memo subset of `tiles_programmed`.
    #[must_use]
    pub fn energy_j(&self, ops: &OpCounts) -> f64 {
        let t = self.machine.tile_size();
        let cells_per_array = (2 * t * t) as f64;
        ops_energy_j(
            &self.machine,
            &self.params,
            &self.cell,
            ops,
            self.adc_cycles,
        ) + ops.tiles_programmed as f64 * cells_per_array * self.params.program_energy_per_cell_j
    }

    /// Device-occupancy time of one record in seconds.
    ///
    /// MVM reads hold the array 1 cycle per 1-bit read and `adc_cycles`
    /// cycles per 8-bit read; each programming event takes the
    /// cell-count-scaled write latency; glue adds run on the controller
    /// at its configured adds-per-cycle throughput. Occupancy, not
    /// critical path: concurrent units overlap, so per-unit sums measure
    /// how long each array was busy.
    #[must_use]
    pub fn time_s(&self, ops: &OpCounts) -> f64 {
        let t = self.machine.tile_size();
        let cycle = self.machine.cycle_s();
        let mvm_cycles =
            ops.tile_mvms_1bit as f64 + ops.tile_mvms_8bit as f64 * self.adc_cycles as f64;
        mvm_cycles * cycle
            + ops.tiles_programmed as f64 * self.params.program_time_for_tile_s(t)
            + ops.glue_adds as f64 / self.params.glue_adds_per_cycle * cycle
    }

    /// Both annotations at once, time in nanoseconds (the timeline-dump
    /// representation).
    #[must_use]
    pub fn annotate(&self, ops: &OpCounts) -> CostAnnotation {
        CostAnnotation {
            ns: self.time_s(ops) * 1e9,
            j: self.energy_j(ops),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_ops() -> OpCounts {
        OpCounts {
            tile_mvms_1bit: 9,
            tile_mvms_8bit: 1,
            eo_input_bits: 640,
            adc_1bit_samples: 576,
            adc_8bit_samples: 64,
            noise_injections: 576,
            glue_adds: 4096,
            tiles_programmed: 2,
            recovery_reprograms: 1,
            ..OpCounts::default()
        }
    }

    #[test]
    fn annotations_are_linear_in_the_counts() {
        let m = CommandCostModel::sophie_default();
        let a = sample_ops();
        let b = OpCounts {
            tile_mvms_1bit: 3,
            glue_adds: 17,
            probe_mvms: 1,
            tile_mvms_8bit: 1,
            adc_8bit_samples: 64,
            ..OpCounts::default()
        };
        let whole = m.annotate(&a.combined(&b));
        let parts_ns = m.annotate(&a).ns + m.annotate(&b).ns;
        let parts_j = m.annotate(&a).j + m.annotate(&b).j;
        assert!((whole.ns - parts_ns).abs() <= 1e-9 * parts_ns.abs());
        assert!((whole.j - parts_j).abs() <= 1e-12 * parts_j.abs());
    }

    #[test]
    fn zero_counts_cost_nothing() {
        let m = CommandCostModel::sophie_default();
        assert_eq!(m.annotate(&OpCounts::default()), CostAnnotation::default());
    }

    #[test]
    fn programming_dominates_a_program_tile_record() {
        // One 64x64 pair write: 400 ns and 2t^2 x 433 nJ — orders of
        // magnitude above a single MVM read in both dimensions.
        let m = CommandCostModel::sophie_default();
        let mut program = OpCounts::new();
        program.tiles_programmed = 1;
        let mut mvm = OpCounts::new();
        mvm.tile_mvms_1bit = 1;
        let p = m.annotate(&program);
        let v = m.annotate(&mvm);
        assert!((p.ns - 400.0).abs() < 1e-9, "{}", p.ns);
        assert!(p.j > 1e3 * v.j);
        assert!(p.ns > 1e3 * v.ns);
    }

    #[test]
    fn eight_bit_reads_hold_the_array_longer() {
        let m = CommandCostModel::sophie_default();
        let mut one = OpCounts::new();
        one.tile_mvms_1bit = 1;
        let mut eight = OpCounts::new();
        eight.tile_mvms_8bit = 1;
        assert!((m.time_s(&eight) / m.time_s(&one) - 8.0).abs() < 1e-12);
    }

    #[test]
    fn invalid_shapes_are_rejected() {
        let mut machine = MachineConfig::sophie_default(1);
        machine.clock_hz = 0.0;
        assert!(
            CommandCostModel::new(machine, CostParams::default(), OpcmCellSpec::default(), 8)
                .is_err()
        );
        assert!(CommandCostModel::new(
            MachineConfig::sophie_default(1),
            CostParams::default(),
            OpcmCellSpec::default(),
            0
        )
        .is_err());
    }

    #[test]
    fn core_queue_types_are_reachable_through_this_module() {
        // The re-export is the hardware-side entry point to the runtime.
        let q = CommandQueue::new(1);
        assert_eq!(q.pending(), 0);
        let _ = CommandKind::Probe;
    }
}
