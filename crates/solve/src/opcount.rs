//! Operation counting.
//!
//! The paper derives all hardware numbers from a functional simulator that
//! "counts the total number of each type of operation" (§IV-A); those counts
//! feed the power/performance models in `sophie-hw`. [`OpCounts`] is that
//! interface: the engine increments it as it executes, and the cost models
//! multiply each field by per-operation energy/latency constants.
//!
//! Besides whole-run totals, the observer layer surfaces per-round *deltas*
//! (the `ops_delta` field of [`crate::SolveEvent::GlobalSync`]), so cost
//! models can attribute energy and traffic to individual synchronizations.

use crate::json::Json;

/// Counts of every operation class executed by one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpCounts {
    /// Tile-sized MVMs whose outputs were read in 1-bit (threshold) mode.
    pub tile_mvms_1bit: u64,
    /// Tile-sized MVMs whose outputs were additionally captured in 8-bit
    /// mode (the last local iteration of each global iteration).
    pub tile_mvms_8bit: u64,
    /// 1-bit E-O conversions feeding MVM inputs (spins are 1-bit).
    pub eo_input_bits: u64,
    /// 1-bit ADC output samples (thresholding reads).
    pub adc_1bit_samples: u64,
    /// 8-bit ADC output samples (partial-sum reads).
    pub adc_8bit_samples: u64,
    /// Analog noise injections (one per thresholding sample).
    pub noise_injections: u64,
    /// Scalar additions performed by the controller's glue logic
    /// (offset-vector recomputation and spin aggregation).
    pub glue_adds: u64,
    /// Bits of spin state broadcast during global synchronization.
    pub spin_broadcast_bits: u64,
    /// Bits of 8-bit partial sums shipped to the controller.
    pub partial_sum_bits: u64,
    /// Symmetric tile pairs executed (summed over all global iterations).
    pub pairs_executed: u64,
    /// Global synchronizations performed.
    pub global_syncs: u64,
    /// Physical OPCM arrays programmed at initialization (one per
    /// symmetric tile pair) *plus* every recovery reprogram.
    pub tiles_programmed: u64,
    /// Calibration MVMs issued by the health monitor. These are a memo
    /// subset of `tile_mvms_8bit` (each probe is also counted there, so
    /// the dynamic-energy model charges them automatically); this field
    /// isolates the detection overhead.
    pub probe_mvms: u64,
    /// Array programming events performed to recover from a runtime
    /// fault. A memo subset of `tiles_programmed`; the recovery cost
    /// helpers in `sophie-hw` (400 ns + per-cell programming energy per
    /// event) consume this field.
    pub recovery_reprograms: u64,
    /// Tile pairs remapped onto spare physical arrays after reprogramming
    /// failed to clear a fault.
    pub units_remapped: u64,
    /// Tile pairs quarantined (contributions zeroed) after recovery was
    /// exhausted under a graceful-degradation policy.
    pub pairs_quarantined: u64,
    /// Spins that flipped across a global synchronization, summed over the
    /// run (the input size of the delta-driven reuse model). Counted at
    /// sync granularity from the global state, so it is identical on
    /// every backend and at every thread count.
    pub sparse_spin_flips: u64,
    /// Local fields a delta-driven engine recomputes: fields adjacent to
    /// at least one flipped spin, per sync (plus one full pass at setup).
    pub sparse_field_updates: u64,
    /// Multiply-accumulates those field updates cost over the coupling
    /// matrix's nonzero structure: `Σ deg(j)` over flipped spins `j` per
    /// sync (plus `nnz(C)` at setup). The op-count a reuse-aware sparse
    /// SOPHIE ASIC would execute instead of dense tile MVMs.
    pub sparse_delta_macs: u64,
}

impl OpCounts {
    /// Starts from zero.
    #[must_use]
    pub fn new() -> Self {
        OpCounts::default()
    }

    /// The counter as one JSON object (field names match the struct) —
    /// the representation embedded in the `repro trace` event schema and
    /// the serve wire protocol.
    #[must_use]
    pub fn json(&self) -> Json {
        Json::obj([
            ("tile_mvms_1bit", self.tile_mvms_1bit.into()),
            ("tile_mvms_8bit", self.tile_mvms_8bit.into()),
            ("eo_input_bits", self.eo_input_bits.into()),
            ("adc_1bit_samples", self.adc_1bit_samples.into()),
            ("adc_8bit_samples", self.adc_8bit_samples.into()),
            ("noise_injections", self.noise_injections.into()),
            ("glue_adds", self.glue_adds.into()),
            ("spin_broadcast_bits", self.spin_broadcast_bits.into()),
            ("partial_sum_bits", self.partial_sum_bits.into()),
            ("pairs_executed", self.pairs_executed.into()),
            ("global_syncs", self.global_syncs.into()),
            ("tiles_programmed", self.tiles_programmed.into()),
            ("probe_mvms", self.probe_mvms.into()),
            ("recovery_reprograms", self.recovery_reprograms.into()),
            ("units_remapped", self.units_remapped.into()),
            ("pairs_quarantined", self.pairs_quarantined.into()),
            ("sparse_spin_flips", self.sparse_spin_flips.into()),
            ("sparse_field_updates", self.sparse_field_updates.into()),
            ("sparse_delta_macs", self.sparse_delta_macs.into()),
        ])
    }

    /// [`Self::json`] as text.
    #[must_use]
    pub fn to_json(&self) -> String {
        self.json().to_string()
    }

    /// Total tile MVMs of either precision.
    #[must_use]
    pub fn total_tile_mvms(&self) -> u64 {
        self.tile_mvms_1bit + self.tile_mvms_8bit
    }

    /// Total bits moved during synchronization (broadcasts + partial sums).
    #[must_use]
    pub fn sync_traffic_bits(&self) -> u64 {
        self.spin_broadcast_bits + self.partial_sum_bits
    }

    /// Elementwise sum with another counter (e.g. across batch jobs).
    #[must_use]
    pub fn combined(&self, other: &OpCounts) -> OpCounts {
        OpCounts {
            tile_mvms_1bit: self.tile_mvms_1bit + other.tile_mvms_1bit,
            tile_mvms_8bit: self.tile_mvms_8bit + other.tile_mvms_8bit,
            eo_input_bits: self.eo_input_bits + other.eo_input_bits,
            adc_1bit_samples: self.adc_1bit_samples + other.adc_1bit_samples,
            adc_8bit_samples: self.adc_8bit_samples + other.adc_8bit_samples,
            noise_injections: self.noise_injections + other.noise_injections,
            glue_adds: self.glue_adds + other.glue_adds,
            spin_broadcast_bits: self.spin_broadcast_bits + other.spin_broadcast_bits,
            partial_sum_bits: self.partial_sum_bits + other.partial_sum_bits,
            pairs_executed: self.pairs_executed + other.pairs_executed,
            global_syncs: self.global_syncs + other.global_syncs,
            tiles_programmed: self.tiles_programmed + other.tiles_programmed,
            probe_mvms: self.probe_mvms + other.probe_mvms,
            recovery_reprograms: self.recovery_reprograms + other.recovery_reprograms,
            units_remapped: self.units_remapped + other.units_remapped,
            pairs_quarantined: self.pairs_quarantined + other.pairs_quarantined,
            sparse_spin_flips: self.sparse_spin_flips + other.sparse_spin_flips,
            sparse_field_updates: self.sparse_field_updates + other.sparse_field_updates,
            sparse_delta_macs: self.sparse_delta_macs + other.sparse_delta_macs,
        }
    }

    /// Elementwise difference `self − other` (saturating at zero), used to
    /// derive the per-round deltas the observer layer reports.
    #[must_use]
    pub fn delta_since(&self, other: &OpCounts) -> OpCounts {
        OpCounts {
            tile_mvms_1bit: self.tile_mvms_1bit.saturating_sub(other.tile_mvms_1bit),
            tile_mvms_8bit: self.tile_mvms_8bit.saturating_sub(other.tile_mvms_8bit),
            eo_input_bits: self.eo_input_bits.saturating_sub(other.eo_input_bits),
            adc_1bit_samples: self.adc_1bit_samples.saturating_sub(other.adc_1bit_samples),
            adc_8bit_samples: self.adc_8bit_samples.saturating_sub(other.adc_8bit_samples),
            noise_injections: self.noise_injections.saturating_sub(other.noise_injections),
            glue_adds: self.glue_adds.saturating_sub(other.glue_adds),
            spin_broadcast_bits: self
                .spin_broadcast_bits
                .saturating_sub(other.spin_broadcast_bits),
            partial_sum_bits: self.partial_sum_bits.saturating_sub(other.partial_sum_bits),
            pairs_executed: self.pairs_executed.saturating_sub(other.pairs_executed),
            global_syncs: self.global_syncs.saturating_sub(other.global_syncs),
            tiles_programmed: self.tiles_programmed.saturating_sub(other.tiles_programmed),
            probe_mvms: self.probe_mvms.saturating_sub(other.probe_mvms),
            recovery_reprograms: self
                .recovery_reprograms
                .saturating_sub(other.recovery_reprograms),
            units_remapped: self.units_remapped.saturating_sub(other.units_remapped),
            pairs_quarantined: self
                .pairs_quarantined
                .saturating_sub(other.pairs_quarantined),
            sparse_spin_flips: self
                .sparse_spin_flips
                .saturating_sub(other.sparse_spin_flips),
            sparse_field_updates: self
                .sparse_field_updates
                .saturating_sub(other.sparse_field_updates),
            sparse_delta_macs: self
                .sparse_delta_macs
                .saturating_sub(other.sparse_delta_macs),
        }
    }
}

impl std::fmt::Display for OpCounts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "operation counts:")?;
        writeln!(f, "  tile MVMs (1-bit reads): {}", self.tile_mvms_1bit)?;
        writeln!(f, "  tile MVMs (8-bit reads): {}", self.tile_mvms_8bit)?;
        writeln!(f, "  E-O input bits:          {}", self.eo_input_bits)?;
        writeln!(
            f,
            "  ADC samples 1-bit/8-bit: {}/{}",
            self.adc_1bit_samples, self.adc_8bit_samples
        )?;
        writeln!(f, "  noise injections:        {}", self.noise_injections)?;
        writeln!(f, "  glue adds:               {}", self.glue_adds)?;
        writeln!(f, "  sync traffic bits:       {}", self.sync_traffic_bits())?;
        writeln!(f, "  pairs executed:          {}", self.pairs_executed)?;
        writeln!(f, "  global syncs:            {}", self.global_syncs)?;
        writeln!(f, "  tiles programmed:        {}", self.tiles_programmed)?;
        writeln!(
            f,
            "  health probes/reprograms/remaps/quarantines: {}/{}/{}/{}",
            self.probe_mvms, self.recovery_reprograms, self.units_remapped, self.pairs_quarantined
        )?;
        write!(
            f,
            "  reuse model flips/field updates/delta MACs: {}/{}/{}",
            self.sparse_spin_flips, self.sparse_field_updates, self.sparse_delta_macs
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_zeroed() {
        let c = OpCounts::new();
        assert_eq!(c.total_tile_mvms(), 0);
        assert_eq!(c.sync_traffic_bits(), 0);
    }

    #[test]
    fn combined_adds_fieldwise() {
        let a = OpCounts {
            tile_mvms_1bit: 3,
            spin_broadcast_bits: 10,
            ..OpCounts::default()
        };
        let b = OpCounts {
            tile_mvms_1bit: 4,
            partial_sum_bits: 5,
            ..OpCounts::default()
        };
        let c = a.combined(&b);
        assert_eq!(c.tile_mvms_1bit, 7);
        assert_eq!(c.sync_traffic_bits(), 15);
    }

    #[test]
    fn delta_inverts_combined() {
        let a = OpCounts {
            tile_mvms_1bit: 3,
            glue_adds: 7,
            global_syncs: 1,
            ..OpCounts::default()
        };
        let b = OpCounts {
            tile_mvms_1bit: 4,
            adc_8bit_samples: 9,
            ..OpCounts::default()
        };
        assert_eq!(a.combined(&b).delta_since(&a), b);
        assert_eq!(a.combined(&b).delta_since(&b), a);
    }

    #[test]
    fn display_lists_every_class() {
        let text = OpCounts::new().to_string();
        for needle in ["MVMs", "ADC", "glue", "sync", "programmed", "reuse"] {
            assert!(text.contains(needle), "missing {needle}");
        }
    }

    /// Exact bytes: counters above 2^53 print every digit.
    #[test]
    fn op_counts_json_bytes_are_pinned() {
        let ops = OpCounts {
            tile_mvms_1bit: (1 << 53) + 1,
            eo_input_bits: 7,
            sparse_delta_macs: u64::MAX,
            ..OpCounts::default()
        };
        assert_eq!(vec![ops.to_json()], [
            "{\"tile_mvms_1bit\":9007199254740993,\"tile_mvms_8bit\":0,\"eo_input_bits\":7,\"adc_1bit_samples\":0,\
            \"adc_8bit_samples\":0,\"noise_injections\":0,\"glue_adds\":0,\"spin_broadcast_bits\":0,\
            \"partial_sum_bits\":0,\"pairs_executed\":0,\"global_syncs\":0,\"tiles_programmed\":0,\
            \"probe_mvms\":0,\"recovery_reprograms\":0,\"units_remapped\":0,\"pairs_quarantined\":0,\
            \"sparse_spin_flips\":0,\"sparse_field_updates\":0,\"sparse_delta_macs\":18446744073709551615}",
        ]);
    }

    #[test]
    fn sparse_counters_flow_through_arithmetic_and_json() {
        let a = OpCounts {
            sparse_spin_flips: 5,
            sparse_field_updates: 9,
            sparse_delta_macs: 40,
            ..OpCounts::default()
        };
        let b = OpCounts {
            sparse_delta_macs: 2,
            ..OpCounts::default()
        };
        let c = a.combined(&b);
        assert_eq!(c.sparse_delta_macs, 42);
        assert_eq!(c.delta_since(&b), a);
        let json = a.to_json();
        for needle in [
            "\"sparse_spin_flips\":5",
            "\"sparse_field_updates\":9",
            "\"sparse_delta_macs\":40",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }
}
