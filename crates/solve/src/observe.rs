//! The solve-event vocabulary and provided observer sinks.
//!
//! A solver drives a [`SolveObserver`] by calling
//! [`SolveObserver::on_event`] with typed [`SolveEvent`]s as the run
//! progresses. The events mirror the paper's instrumentation needs: cut
//! and activity trajectories (Figs. 6–8), per-round operation deltas for
//! the PPA models (§IV-A), and time-to-target statistics (Fig. 8/10,
//! Table II).
//!
//! Three sinks are provided:
//!
//! * [`NullObserver`] — ignores everything (the default for unobserved
//!   runs; the compiler removes the calls);
//! * [`TraceRecorder`] — reconstructs the classic `cut_trace` /
//!   `activity_trace` vectors and distills a [`SolveReport`];
//! * [`EventWriter`] — streams every event as one JSON line (the
//!   `repro trace` dump format, schema documented in EXPERIMENTS.md).
//!
//! # Ordering guarantees
//!
//! See the crate-level docs: `RunStarted`, then per round
//! `RoundStarted → PairIterated* → FaultInjected* →
//! (FaultDetected [→ TileRecovered | RecoveryExhausted])* →
//! GlobalSync [→ TargetReached]`, then `RunFinished`. The fault and
//! recovery events only appear on fault-aware runs (drained/probed in
//! ascending pair order). Round 0 denotes the initial synchronized state: solvers
//! emit a `GlobalSync { round: 0, .. }` for it (activity 0, setup ops as
//! the delta) without a preceding `RoundStarted`. All events are emitted
//! from the thread driving the run in a deterministic order that does not
//! depend on worker-pool scheduling.

use std::io::Write;

use crate::json::Json;
use crate::opcount::OpCounts;
use crate::report::SolveReport;

/// One typed event in a solver's lifecycle.
#[derive(Debug, Clone, PartialEq)]
pub enum SolveEvent {
    /// The run is about to execute its first iteration.
    RunStarted {
        /// Short solver identifier (`"sophie"`, `"pris"`, `"sa"`, …).
        solver: &'static str,
        /// Problem dimension (graph order).
        dimension: usize,
        /// Iterations the run plans to execute (global iterations for the
        /// engine, recurrent steps / sweeps for the other solvers).
        planned_iterations: usize,
        /// Job seed.
        seed: u64,
        /// Convergence target, if one was set.
        target: Option<f64>,
    },
    /// A round (global iteration) is starting.
    RoundStarted {
        /// 1-based round index.
        round: usize,
        /// Tile pairs selected this round (0 for untiled solvers).
        pairs_selected: usize,
    },
    /// One tile pair finished its local iterations for a round. Emitted in
    /// ascending pair order regardless of worker scheduling; untiled
    /// solvers never emit it.
    PairIterated {
        /// 1-based round index.
        round: usize,
        /// Pair index in the solver's pair list.
        pair: usize,
        /// Local iterations executed against frozen offsets.
        local_iters: usize,
    },
    /// A global synchronization completed and the state was scored.
    /// `round` 0 is the initial state (activity 0, setup ops as the delta).
    GlobalSync {
        /// Round index; 0 denotes the initial state.
        round: usize,
        /// Cut value of the synchronized state.
        cut: f64,
        /// Spins changed relative to the previous synchronized state.
        activity: usize,
        /// Operations attributable to this round (zero for solvers without
        /// an operation model).
        ops_delta: OpCounts,
    },
    /// A transient hardware fault took effect on a tile pair's physical
    /// unit during the round's local iterations. Emitted by the engine
    /// after the round's `PairIterated` events (the reports are drained
    /// from the units in ascending pair order, so the stream stays
    /// deterministic under any thread count); solvers without a fault
    /// model never emit it.
    FaultInjected {
        /// 1-based round during which the fault fired.
        round: usize,
        /// Pair index of the affected unit.
        pair: usize,
        /// Fault class (`"laser_droop"`, `"chiplet_dropout"`,
        /// `"stuck_cells"`, `"drift_burst"`, `"adc_saturation"`).
        kind: &'static str,
        /// Wave (MVM) within the round at which the fault took effect.
        wave: u32,
    },
    /// A health-monitor calibration probe flagged a unit as faulty.
    FaultDetected {
        /// Round whose post-sync probe detected the fault.
        round: usize,
        /// Pair index of the faulty unit.
        pair: usize,
        /// Relative probe residual that tripped the threshold.
        residual: f64,
    },
    /// A faulty unit was restored to health, with the recovery's cost.
    TileRecovered {
        /// Round whose probe-and-recover pass fixed the unit.
        round: usize,
        /// Pair index of the recovered unit.
        pair: usize,
        /// Recovery attempts consumed (reprograms, plus one if remapped).
        attempts: u32,
        /// Whether recovery required remapping onto a spare array.
        remapped: bool,
        /// Operations spent on this recovery (probes + reprograms); feed
        /// to the `sophie-hw` cost models for the energy/time overhead.
        cost: OpCounts,
    },
    /// Recovery gave up on a unit (attempt budget and spares exhausted).
    RecoveryExhausted {
        /// Round whose recovery pass gave up.
        round: usize,
        /// Pair index of the unrecoverable unit.
        pair: usize,
        /// Recovery attempts consumed before giving up.
        attempts: u32,
        /// Whether the pair was quarantined (graceful degradation) rather
        /// than left running through the faulty unit.
        quarantined: bool,
    },
    /// The target cut was reached for the first time (at most once per
    /// run, immediately after the crossing `GlobalSync`).
    TargetReached {
        /// Round whose synchronized state first met the target.
        round: usize,
        /// Cut value at the crossing.
        cut: f64,
    },
    /// The run completed.
    RunFinished {
        /// Best cut observed at any synchronization point.
        best_cut: f64,
        /// Round at which the best cut was first observed.
        best_round: usize,
        /// Rounds actually executed.
        rounds_run: usize,
        /// Whole-run operation totals.
        ops: OpCounts,
    },
}

impl SolveEvent {
    /// The event as one JSON object in the `repro trace` schema: an
    /// `event` tag naming the variant, then its fields in declaration
    /// order.
    #[must_use]
    pub fn json(&self) -> Json {
        match *self {
            SolveEvent::RunStarted {
                solver,
                dimension,
                planned_iterations,
                seed,
                target,
            } => Json::obj([
                ("event", "run_started".into()),
                ("solver", solver.into()),
                ("dimension", dimension.into()),
                ("planned_iterations", planned_iterations.into()),
                ("seed", seed.into()),
                ("target", target.into()),
            ]),
            SolveEvent::RoundStarted {
                round,
                pairs_selected,
            } => Json::obj([
                ("event", "round_started".into()),
                ("round", round.into()),
                ("pairs_selected", pairs_selected.into()),
            ]),
            SolveEvent::PairIterated {
                round,
                pair,
                local_iters,
            } => Json::obj([
                ("event", "pair_iterated".into()),
                ("round", round.into()),
                ("pair", pair.into()),
                ("local_iters", local_iters.into()),
            ]),
            SolveEvent::GlobalSync {
                round,
                cut,
                activity,
                ref ops_delta,
            } => Json::obj([
                ("event", "global_sync".into()),
                ("round", round.into()),
                ("cut", cut.into()),
                ("activity", activity.into()),
                ("ops_delta", ops_delta.json()),
            ]),
            SolveEvent::FaultInjected {
                round,
                pair,
                kind,
                wave,
            } => Json::obj([
                ("event", "fault_injected".into()),
                ("round", round.into()),
                ("pair", pair.into()),
                ("kind", kind.into()),
                ("wave", wave.into()),
            ]),
            SolveEvent::FaultDetected {
                round,
                pair,
                residual,
            } => Json::obj([
                ("event", "fault_detected".into()),
                ("round", round.into()),
                ("pair", pair.into()),
                ("residual", residual.into()),
            ]),
            SolveEvent::TileRecovered {
                round,
                pair,
                attempts,
                remapped,
                ref cost,
            } => Json::obj([
                ("event", "tile_recovered".into()),
                ("round", round.into()),
                ("pair", pair.into()),
                ("attempts", attempts.into()),
                ("remapped", remapped.into()),
                ("cost", cost.json()),
            ]),
            SolveEvent::RecoveryExhausted {
                round,
                pair,
                attempts,
                quarantined,
            } => Json::obj([
                ("event", "recovery_exhausted".into()),
                ("round", round.into()),
                ("pair", pair.into()),
                ("attempts", attempts.into()),
                ("quarantined", quarantined.into()),
            ]),
            SolveEvent::TargetReached { round, cut } => Json::obj([
                ("event", "target_reached".into()),
                ("round", round.into()),
                ("cut", cut.into()),
            ]),
            SolveEvent::RunFinished {
                best_cut,
                best_round,
                rounds_run,
                ref ops,
            } => Json::obj([
                ("event", "run_finished".into()),
                ("best_cut", best_cut.into()),
                ("best_round", best_round.into()),
                ("rounds_run", rounds_run.into()),
                ("ops", ops.json()),
            ]),
        }
    }

    /// [`Self::json`] as text (no trailing newline): one `repro trace`
    /// line.
    #[must_use]
    pub fn to_json(&self) -> String {
        self.json().to_string()
    }
}

/// Receiver of [`SolveEvent`]s.
///
/// Implementations must be cheap relative to a solver iteration — solvers
/// call [`SolveObserver::on_event`] on their hot path (though never from
/// worker threads).
pub trait SolveObserver {
    /// Handles one event.
    fn on_event(&mut self, event: &SolveEvent);
}

/// Observer that discards every event.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl SolveObserver for NullObserver {
    fn on_event(&mut self, _event: &SolveEvent) {}
}

/// Forwards every event to two observers, in order.
///
/// The [`Solver`](crate::Solver) trait impls use this to feed the caller's
/// observer and a private [`TraceRecorder`] (which distills the returned
/// [`SolveReport`]) from one emission, guaranteeing the stream a caller
/// sees and the report it receives describe the same run.
pub struct Tee<'a, 'b> {
    first: &'a mut dyn SolveObserver,
    second: &'b mut dyn SolveObserver,
}

impl std::fmt::Debug for Tee<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tee").finish_non_exhaustive()
    }
}

impl<'a, 'b> Tee<'a, 'b> {
    /// Pairs two observers; `first` sees each event before `second`.
    pub fn new(first: &'a mut dyn SolveObserver, second: &'b mut dyn SolveObserver) -> Self {
        Tee { first, second }
    }
}

impl SolveObserver for Tee<'_, '_> {
    fn on_event(&mut self, event: &SolveEvent) {
        self.first.on_event(event);
        self.second.on_event(event);
    }
}

/// Adapts any closure into a [`SolveObserver`].
///
/// This is the building block for ad-hoc sinks that do not deserve a named
/// type: the serve layer wraps each event into a wire frame and pushes it
/// to a socket writer, tests trip [`CancelToken`](crate::CancelToken)s at
/// a chosen round, and so on.
///
/// ```
/// use sophie_solve::{FnObserver, SolveEvent, SolveObserver};
///
/// let mut seen = 0usize;
/// {
///     let mut obs = FnObserver::new(|_e: &SolveEvent| seen += 1);
///     obs.on_event(&SolveEvent::TargetReached { round: 1, cut: 2.0 });
/// }
/// assert_eq!(seen, 1);
/// ```
pub struct FnObserver<F: FnMut(&SolveEvent)> {
    callback: F,
}

impl<F: FnMut(&SolveEvent)> FnObserver<F> {
    /// Wraps `callback`; it is invoked once per event.
    pub fn new(callback: F) -> Self {
        FnObserver { callback }
    }
}

impl<F: FnMut(&SolveEvent)> std::fmt::Debug for FnObserver<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FnObserver").finish_non_exhaustive()
    }
}

impl<F: FnMut(&SolveEvent)> SolveObserver for FnObserver<F> {
    fn on_event(&mut self, event: &SolveEvent) {
        (self.callback)(event);
    }
}

/// Records every event verbatim (for tests and offline analysis).
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    events: Vec<SolveEvent>,
}

impl EventLog {
    /// Creates an empty log.
    #[must_use]
    pub fn new() -> Self {
        EventLog::default()
    }

    /// The recorded events, in emission order.
    #[must_use]
    pub fn events(&self) -> &[SolveEvent] {
        &self.events
    }

    /// Consumes the log, returning the events.
    #[must_use]
    pub fn into_events(self) -> Vec<SolveEvent> {
        self.events
    }
}

impl SolveObserver for EventLog {
    fn on_event(&mut self, event: &SolveEvent) {
        self.events.push(event.clone());
    }
}

/// Reconstructs trace vectors and a [`SolveReport`] from the event stream.
///
/// This is the one place run traces are kept: every `Solver` adapter
/// returns the report its recorder distills, with `cut_trace` collecting
/// the `cut` of every `GlobalSync` (round 0 first) and `activity_trace`
/// the `activity` of every `GlobalSync` with `round ≥ 1`.
#[derive(Debug, Clone, Default)]
pub struct TraceRecorder {
    report: SolveReport,
    ops_accumulated: OpCounts,
    finished: bool,
}

impl TraceRecorder {
    /// Creates an empty recorder.
    #[must_use]
    pub fn new() -> Self {
        TraceRecorder::default()
    }

    /// Cut value at every synchronization observed so far.
    #[must_use]
    pub fn cut_trace(&self) -> &[f64] {
        &self.report.cut_trace
    }

    /// Activity at every synchronization after the initial state.
    #[must_use]
    pub fn activity_trace(&self) -> &[usize] {
        &self.report.activity_trace
    }

    /// The distilled report (clones the traces).
    #[must_use]
    pub fn report(&self) -> SolveReport {
        self.report.clone()
    }

    /// Consumes the recorder, returning the report.
    #[must_use]
    pub fn into_report(self) -> SolveReport {
        self.report
    }
}

impl SolveObserver for TraceRecorder {
    fn on_event(&mut self, event: &SolveEvent) {
        match *event {
            SolveEvent::RunStarted {
                solver,
                dimension,
                planned_iterations,
                seed,
                target,
            } => {
                self.report.solver = solver.to_string();
                self.report.dimension = dimension;
                self.report.planned_iterations = planned_iterations;
                self.report.seed = seed;
                self.report.target = target;
            }
            SolveEvent::GlobalSync {
                round,
                cut,
                activity,
                ref ops_delta,
            } => {
                self.report.cut_trace.push(cut);
                if round > 0 {
                    self.report.activity_trace.push(activity);
                }
                self.ops_accumulated = self.ops_accumulated.combined(ops_delta);
                if !self.finished {
                    self.report.ops = self.ops_accumulated;
                }
            }
            SolveEvent::TargetReached { round, .. } => {
                if self.report.iterations_to_target.is_none() {
                    self.report.iterations_to_target = Some(round);
                }
            }
            SolveEvent::RunFinished {
                best_cut,
                best_round,
                rounds_run,
                ref ops,
            } => {
                self.report.best_cut = best_cut;
                self.report.best_iteration = best_round;
                self.report.iterations_run = rounds_run;
                self.report.ops = *ops;
                self.finished = true;
            }
            SolveEvent::FaultInjected { .. } => self.report.faults_injected += 1,
            SolveEvent::FaultDetected { .. } => self.report.faults_detected += 1,
            SolveEvent::TileRecovered { .. } => self.report.tiles_recovered += 1,
            SolveEvent::RecoveryExhausted { .. } => self.report.recoveries_exhausted += 1,
            SolveEvent::RoundStarted { .. } | SolveEvent::PairIterated { .. } => {}
        }
    }
}

/// Streams every event as one JSON line into a [`Write`] sink.
///
/// I/O errors are latched: the first failure stops further writing and is
/// surfaced by [`EventWriter::finish`].
#[derive(Debug)]
pub struct EventWriter<W: Write> {
    sink: W,
    events_written: u64,
    error: Option<std::io::Error>,
}

impl<W: Write> EventWriter<W> {
    /// Wraps a sink.
    pub fn new(sink: W) -> Self {
        EventWriter {
            sink,
            events_written: 0,
            error: None,
        }
    }

    /// Events successfully written so far.
    #[must_use]
    pub fn events_written(&self) -> u64 {
        self.events_written
    }

    /// Flushes and returns the sink, or the first I/O error encountered.
    ///
    /// # Errors
    ///
    /// Returns the latched write error, or the flush error.
    pub fn finish(mut self) -> std::io::Result<W> {
        if let Some(e) = self.error {
            return Err(e);
        }
        self.sink.flush()?;
        Ok(self.sink)
    }
}

impl<W: Write> SolveObserver for EventWriter<W> {
    fn on_event(&mut self, event: &SolveEvent) {
        if self.error.is_some() {
            return;
        }
        let line = event.to_json();
        match writeln!(self.sink, "{line}") {
            Ok(()) => self.events_written += 1,
            Err(e) => self.error = Some(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_stream() -> Vec<SolveEvent> {
        vec![
            SolveEvent::RunStarted {
                solver: "test",
                dimension: 4,
                planned_iterations: 2,
                seed: 7,
                target: Some(3.0),
            },
            SolveEvent::GlobalSync {
                round: 0,
                cut: 1.0,
                activity: 0,
                ops_delta: OpCounts {
                    tiles_programmed: 3,
                    ..OpCounts::default()
                },
            },
            SolveEvent::RoundStarted {
                round: 1,
                pairs_selected: 3,
            },
            SolveEvent::PairIterated {
                round: 1,
                pair: 0,
                local_iters: 5,
            },
            SolveEvent::GlobalSync {
                round: 1,
                cut: 4.0,
                activity: 2,
                ops_delta: OpCounts {
                    glue_adds: 10,
                    ..OpCounts::default()
                },
            },
            SolveEvent::TargetReached { round: 1, cut: 4.0 },
            SolveEvent::RunFinished {
                best_cut: 4.0,
                best_round: 1,
                rounds_run: 1,
                ops: OpCounts {
                    tiles_programmed: 3,
                    glue_adds: 10,
                    ..OpCounts::default()
                },
            },
        ]
    }

    #[test]
    fn trace_recorder_rebuilds_traces_and_report() {
        let mut rec = TraceRecorder::new();
        for e in sample_stream() {
            rec.on_event(&e);
        }
        assert_eq!(rec.cut_trace(), &[1.0, 4.0]);
        assert_eq!(rec.activity_trace(), &[2]);
        let report = rec.into_report();
        assert_eq!(report.solver, "test");
        assert_eq!(report.best_cut, 4.0);
        assert_eq!(report.iterations_to_target, Some(1));
        assert_eq!(report.iterations_run, 1);
        assert_eq!(report.ops.tiles_programmed, 3);
        assert_eq!(report.ops.glue_adds, 10);
    }

    #[test]
    fn event_log_records_everything_in_order() {
        let mut log = EventLog::new();
        for e in sample_stream() {
            log.on_event(&e);
        }
        assert_eq!(log.events().len(), 7);
        assert_eq!(log.events()[0], sample_stream()[0]);
    }

    #[test]
    fn event_writer_emits_one_json_line_per_event() {
        let mut w = EventWriter::new(Vec::new());
        for e in sample_stream() {
            w.on_event(&e);
        }
        assert_eq!(w.events_written(), 7);
        let buf = w.finish().unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 7);
        assert!(lines[0].starts_with("{\"event\":\"run_started\""));
        assert!(lines[0].contains("\"target\":3"));
        assert!(lines[6].contains("\"tiles_programmed\":3"));
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
            // Balanced braces — a cheap structural sanity check without a
            // JSON parser in the dependency tree.
            let open = line.matches('{').count();
            let close = line.matches('}').count();
            assert_eq!(open, close, "unbalanced braces in {line}");
        }
    }

    #[test]
    fn json_null_target() {
        let e = SolveEvent::RunStarted {
            solver: "x",
            dimension: 1,
            planned_iterations: 0,
            seed: 0,
            target: None,
        };
        assert!(e.to_json().contains("\"target\":null"));
    }

    /// Exact bytes of every event variant: seeds above 2^53, `-0`,
    /// shortest round-trip decimals and an absent target.
    #[test]
    fn event_json_bytes_are_pinned() {
        let ops = OpCounts {
            tile_mvms_1bit: (1 << 53) + 1,
            sparse_delta_macs: u64::MAX,
            ..OpCounts::default()
        };
        let events = [
            SolveEvent::RunStarted {
                solver: "sophie",
                dimension: 800,
                planned_iterations: 100,
                seed: u64::MAX,
                target: None,
            },
            SolveEvent::RunStarted {
                solver: "sa",
                dimension: 3,
                planned_iterations: 0,
                seed: 0,
                target: Some(2.5),
            },
            SolveEvent::RoundStarted {
                round: 1,
                pairs_selected: 528,
            },
            SolveEvent::PairIterated {
                round: 1,
                pair: 17,
                local_iters: 10,
            },
            SolveEvent::GlobalSync {
                round: 0,
                cut: -0.0,
                activity: 0,
                ops_delta: ops,
            },
            SolveEvent::FaultInjected {
                round: 2,
                pair: 3,
                kind: "laser_droop",
                wave: u32::MAX,
            },
            SolveEvent::FaultDetected {
                round: 2,
                pair: 3,
                residual: 1e-7,
            },
            SolveEvent::TileRecovered {
                round: 2,
                pair: 3,
                attempts: 2,
                remapped: true,
                cost: ops,
            },
            SolveEvent::RecoveryExhausted {
                round: 4,
                pair: 5,
                attempts: 3,
                quarantined: false,
            },
            SolveEvent::TargetReached {
                round: 9,
                cut: 0.1 + 0.2,
            },
            SolveEvent::RunFinished {
                best_cut: 1e21,
                best_round: 9,
                rounds_run: 100,
                ops: OpCounts::default(),
            },
        ];
        let got: Vec<String> = events.iter().map(SolveEvent::to_json).collect();
        assert_eq!(got, [
            "{\"event\":\"run_started\",\"solver\":\"sophie\",\"dimension\":800,\"planned_iterations\":100,\
            \"seed\":18446744073709551615,\"target\":null}",
            "{\"event\":\"run_started\",\"solver\":\"sa\",\"dimension\":3,\"planned_iterations\":0,\
            \"seed\":0,\"target\":2.5}",
            "{\"event\":\"round_started\",\"round\":1,\"pairs_selected\":528}",
            "{\"event\":\"pair_iterated\",\"round\":1,\"pair\":17,\"local_iters\":10}",
            "{\"event\":\"global_sync\",\"round\":0,\"cut\":-0,\"activity\":0,\"ops_delta\":{\"tile_mvms_1bit\":9007199254740993,\
            \"tile_mvms_8bit\":0,\"eo_input_bits\":0,\"adc_1bit_samples\":0,\"adc_8bit_samples\":0,\
            \"noise_injections\":0,\"glue_adds\":0,\"spin_broadcast_bits\":0,\"partial_sum_bits\":0,\
            \"pairs_executed\":0,\"global_syncs\":0,\"tiles_programmed\":0,\"probe_mvms\":0,\
            \"recovery_reprograms\":0,\"units_remapped\":0,\"pairs_quarantined\":0,\"sparse_spin_flips\":0,\
            \"sparse_field_updates\":0,\"sparse_delta_macs\":18446744073709551615}}",
            "{\"event\":\"fault_injected\",\"round\":2,\"pair\":3,\"kind\":\"laser_droop\",\"wave\":4294967295}",
            "{\"event\":\"fault_detected\",\"round\":2,\"pair\":3,\"residual\":0.0000001}",
            "{\"event\":\"tile_recovered\",\"round\":2,\"pair\":3,\"attempts\":2,\"remapped\":true,\
            \"cost\":{\"tile_mvms_1bit\":9007199254740993,\"tile_mvms_8bit\":0,\"eo_input_bits\":0,\
            \"adc_1bit_samples\":0,\"adc_8bit_samples\":0,\"noise_injections\":0,\"glue_adds\":0,\
            \"spin_broadcast_bits\":0,\"partial_sum_bits\":0,\"pairs_executed\":0,\"global_syncs\":0,\
            \"tiles_programmed\":0,\"probe_mvms\":0,\"recovery_reprograms\":0,\"units_remapped\":0,\
            \"pairs_quarantined\":0,\"sparse_spin_flips\":0,\"sparse_field_updates\":0,\"sparse_delta_macs\":18446744073709551615}}",
            "{\"event\":\"recovery_exhausted\",\"round\":4,\"pair\":5,\"attempts\":3,\"quarantined\":false}",
            "{\"event\":\"target_reached\",\"round\":9,\"cut\":0.30000000000000004}",
            "{\"event\":\"run_finished\",\"best_cut\":1000000000000000000000,\"best_round\":9,\
            \"rounds_run\":100,\"ops\":{\"tile_mvms_1bit\":0,\"tile_mvms_8bit\":0,\"eo_input_bits\":0,\
            \"adc_1bit_samples\":0,\"adc_8bit_samples\":0,\"noise_injections\":0,\"glue_adds\":0,\
            \"spin_broadcast_bits\":0,\"partial_sum_bits\":0,\"pairs_executed\":0,\"global_syncs\":0,\
            \"tiles_programmed\":0,\"probe_mvms\":0,\"recovery_reprograms\":0,\"units_remapped\":0,\
            \"pairs_quarantined\":0,\"sparse_spin_flips\":0,\"sparse_field_updates\":0,\"sparse_delta_macs\":0}}",
        ]);
    }

    #[test]
    fn null_observer_is_a_no_op() {
        let mut obs = NullObserver;
        for e in sample_stream() {
            obs.on_event(&e);
        }
    }
}
