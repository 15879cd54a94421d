//! Uniform run summary distilled from any solver's event stream.

use crate::json::Json;
use crate::opcount::OpCounts;

/// Solver-agnostic summary of one run, built by a
/// [`crate::TraceRecorder`] from the [`crate::SolveEvent`] stream.
///
/// The fields mirror what the paper's evaluation consumes: the best cut
/// and when it was found (Figs. 6–7), the first iteration meeting a
/// quality target (Fig. 8/10, Table II), the full cut/activity
/// trajectories, and the operation totals feeding the PPA models. The
/// meaning of one "iteration" is solver-specific — a global iteration for
/// the SOPHIE engine, a recurrent step for PRIS, a sweep for the
/// baselines — but the bookkeeping is identical.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SolveReport {
    /// Short solver identifier (`"sophie"`, `"pris"`, `"sa"`, …).
    pub solver: String,
    /// Problem dimension (graph order).
    pub dimension: usize,
    /// Iterations the run planned to execute.
    pub planned_iterations: usize,
    /// Job seed.
    pub seed: u64,
    /// Convergence target, if one was set.
    pub target: Option<f64>,
    /// Best cut observed at any synchronization/scoring point.
    pub best_cut: f64,
    /// Iteration at which the best cut was first observed.
    pub best_iteration: usize,
    /// Iterations actually executed.
    pub iterations_run: usize,
    /// First iteration whose state met the target, if ever (iteration 0 is
    /// the initial state).
    pub iterations_to_target: Option<usize>,
    /// Cut value at every scoring point; index 0 is the initial state.
    pub cut_trace: Vec<f64>,
    /// Spins changed between consecutive scored states (one entry per
    /// iteration after the initial state; empty for solvers that do not
    /// report activity).
    pub activity_trace: Vec<usize>,
    /// Whole-run operation totals (all-zero for solvers without an
    /// operation model).
    pub ops: OpCounts,
    /// Transient hardware faults injected during the run (zero for
    /// solvers without a fault model).
    pub faults_injected: usize,
    /// Faults flagged by the health monitor's calibration probes.
    pub faults_detected: usize,
    /// Units restored to health by reprogram/remap recovery.
    pub tiles_recovered: usize,
    /// Units on which recovery gave up (quarantined or left faulty).
    pub recoveries_exhausted: usize,
    /// Binary configuration attaining `best_cut` (graph order; `true` for
    /// spin +1). Empty for recorders fed only an event stream — events
    /// deliberately carry no bits — and populated out-of-band by solver
    /// adapters that have the winning state in hand. Excluded from
    /// [`Self::json`]: the wire payload stays summary-sized and
    /// byte-identical whether or not bits were attached.
    pub best_bits: Vec<bool>,
}

impl SolveReport {
    /// The report as one JSON object.
    ///
    /// This is the `report` payload of the serve wire protocol's `result`
    /// frames. The full cut/activity traces are summarized by their
    /// lengths rather than inlined — a trace can hold tens of thousands of
    /// points, and streaming consumers that want the trajectory subscribe
    /// to the event stream instead (`stream: true`).
    #[must_use]
    pub fn json(&self) -> Json {
        Json::obj([
            ("solver", self.solver.as_str().into()),
            ("dimension", self.dimension.into()),
            ("planned_iterations", self.planned_iterations.into()),
            ("seed", self.seed.into()),
            ("target", self.target.into()),
            ("best_cut", self.best_cut.into()),
            ("best_iteration", self.best_iteration.into()),
            ("iterations_run", self.iterations_run.into()),
            ("iterations_to_target", self.iterations_to_target.into()),
            ("cut_trace_len", self.cut_trace.len().into()),
            ("activity_trace_len", self.activity_trace.len().into()),
            ("faults_injected", self.faults_injected.into()),
            ("faults_detected", self.faults_detected.into()),
            ("tiles_recovered", self.tiles_recovered.into()),
            ("recoveries_exhausted", self.recoveries_exhausted.into()),
            ("ops", self.ops.json()),
        ])
    }

    /// [`Self::json`] as text (no trailing newline).
    #[must_use]
    pub fn to_json(&self) -> String {
        self.json().to_string()
    }

    /// Ratio of the best cut to a positive reference (best-known) cut.
    ///
    /// Quality ratios are only meaningful against a positive reference:
    /// for `best_known <= 0` (or NaN) this returns [`f64::NAN`] rather
    /// than a sign-flipped or infinite ratio.
    #[must_use]
    pub fn quality_vs(&self, best_known: f64) -> f64 {
        if best_known > 0.0 {
            self.best_cut / best_known
        } else {
            f64::NAN
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SolveReport {
        SolveReport {
            solver: "test".to_string(),
            best_cut: 95.0,
            ..SolveReport::default()
        }
    }

    /// Exact bytes for a report with every field set and for the
    /// defaults (absent optionals are `null`). `best_bits` never reaches
    /// the wire.
    #[test]
    fn report_json_bytes_are_pinned() {
        let full = SolveReport {
            solver: "sophie-opcm".to_string(),
            dimension: 800,
            planned_iterations: 100,
            seed: u64::MAX,
            target: Some(1e21),
            best_cut: 0.1 + 0.2,
            best_iteration: 37,
            iterations_run: 100,
            iterations_to_target: Some(12),
            cut_trace: vec![0.0, 50.0, 95.0],
            activity_trace: vec![3, 1],
            ops: OpCounts {
                tile_mvms_1bit: (1 << 53) + 1,
                sparse_delta_macs: u64::MAX,
                ..OpCounts::default()
            },
            faults_injected: 4,
            faults_detected: 3,
            tiles_recovered: 2,
            recoveries_exhausted: 1,
            best_bits: vec![true, false, true],
        };
        let got = vec![full.to_json(), sample().to_json()];
        assert_eq!(got, [
            "{\"solver\":\"sophie-opcm\",\"dimension\":800,\"planned_iterations\":100,\"seed\":18446744073709551615,\
            \"target\":1000000000000000000000,\"best_cut\":0.30000000000000004,\"best_iteration\":37,\
            \"iterations_run\":100,\"iterations_to_target\":12,\"cut_trace_len\":3,\"activity_trace_len\":2,\
            \"faults_injected\":4,\"faults_detected\":3,\"tiles_recovered\":2,\"recoveries_exhausted\":1,\
            \"ops\":{\"tile_mvms_1bit\":9007199254740993,\"tile_mvms_8bit\":0,\"eo_input_bits\":0,\
            \"adc_1bit_samples\":0,\"adc_8bit_samples\":0,\"noise_injections\":0,\"glue_adds\":0,\
            \"spin_broadcast_bits\":0,\"partial_sum_bits\":0,\"pairs_executed\":0,\"global_syncs\":0,\
            \"tiles_programmed\":0,\"probe_mvms\":0,\"recovery_reprograms\":0,\"units_remapped\":0,\
            \"pairs_quarantined\":0,\"sparse_spin_flips\":0,\"sparse_field_updates\":0,\"sparse_delta_macs\":18446744073709551615}}",
            "{\"solver\":\"test\",\"dimension\":0,\"planned_iterations\":0,\"seed\":0,\"target\":null,\
            \"best_cut\":95,\"best_iteration\":0,\"iterations_run\":0,\"iterations_to_target\":null,\
            \"cut_trace_len\":0,\"activity_trace_len\":0,\"faults_injected\":0,\"faults_detected\":0,\
            \"tiles_recovered\":0,\"recoveries_exhausted\":0,\"ops\":{\"tile_mvms_1bit\":0,\"tile_mvms_8bit\":0,\
            \"eo_input_bits\":0,\"adc_1bit_samples\":0,\"adc_8bit_samples\":0,\"noise_injections\":0,\
            \"glue_adds\":0,\"spin_broadcast_bits\":0,\"partial_sum_bits\":0,\"pairs_executed\":0,\
            \"global_syncs\":0,\"tiles_programmed\":0,\"probe_mvms\":0,\"recovery_reprograms\":0,\
            \"units_remapped\":0,\"pairs_quarantined\":0,\"sparse_spin_flips\":0,\"sparse_field_updates\":0,\
            \"sparse_delta_macs\":0}}",
        ]);
    }

    #[test]
    fn quality_ratio_against_positive_reference() {
        let r = sample();
        assert!((r.quality_vs(100.0) - 0.95).abs() < 1e-12);
    }

    #[test]
    fn quality_ratio_undefined_for_nonpositive_reference() {
        let r = sample();
        assert!(r.quality_vs(0.0).is_nan());
        assert!(r.quality_vs(-10.0).is_nan());
        assert!(r.quality_vs(f64::NAN).is_nan());
    }

    #[test]
    fn best_bits_never_reach_the_wire_payload() {
        let mut r = sample();
        r.best_bits = vec![true, false, true];
        let json = r.to_json();
        assert!(!json.contains("best_bits"));
        assert_eq!(json, sample().to_json());
    }
}
