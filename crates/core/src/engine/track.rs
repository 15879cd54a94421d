//! Stage 4 — best/target bookkeeping and event emission.
//!
//! Scores every synchronized state, maintains the best configuration and
//! time-to-target via the shared [`SolutionTracker`], derives per-round
//! [`OpCounts`] deltas, and emits the corresponding
//! [`SolveEvent::GlobalSync`] / [`SolveEvent::TargetReached`] /
//! [`SolveEvent::RunFinished`] events. All emission happens on the thread
//! driving the run, never on the worker pool.

use sophie_solve::{OpCounts, SolutionTracker, SolveEvent, SolveObserver};

/// Tracks one run's quality trajectory and reports it as events.
#[derive(Debug)]
pub(super) struct RunTracker {
    tracker: SolutionTracker,
    /// Run-total op counts at the last emitted sync (the delta baseline).
    ops_at_last_sync: OpCounts,
}

impl RunTracker {
    /// Scores the initial synchronized state (round 0) and emits its
    /// `GlobalSync` — whose `ops_delta` is the whole setup cost — plus a
    /// `TargetReached` if the starting state already meets the target.
    pub fn start(
        target: Option<f64>,
        bits: &[bool],
        cut: f64,
        ops_total: OpCounts,
        observer: &mut dyn SolveObserver,
    ) -> Self {
        let tracker = SolutionTracker::start(target, bits, cut);
        observer.on_event(&SolveEvent::GlobalSync {
            round: 0,
            cut,
            activity: 0,
            ops_delta: ops_total,
        });
        if tracker.hit_at_start() {
            observer.on_event(&SolveEvent::TargetReached { round: 0, cut });
        }
        RunTracker {
            tracker,
            ops_at_last_sync: ops_total,
        }
    }

    /// Scores the state after round `round` (1-based) and emits its
    /// `GlobalSync` (and `TargetReached` on the first crossing).
    pub fn observe(
        &mut self,
        round: usize,
        bits: &[bool],
        cut: f64,
        ops_total: OpCounts,
        observer: &mut dyn SolveObserver,
    ) {
        let obs = self.tracker.observe(round, bits, cut);
        let delta = ops_total.delta_since(&self.ops_at_last_sync);
        self.ops_at_last_sync = ops_total;
        observer.on_event(&SolveEvent::GlobalSync {
            round,
            cut,
            activity: obs.flips,
            ops_delta: delta,
        });
        if obs.reached_target {
            observer.on_event(&SolveEvent::TargetReached { round, cut });
        }
    }

    /// Emits `RunFinished` and hands back the best bits (the one output
    /// the event stream does not carry).
    pub fn finish(
        self,
        rounds_run: usize,
        ops: OpCounts,
        observer: &mut dyn SolveObserver,
    ) -> Vec<bool> {
        observer.on_event(&SolveEvent::RunFinished {
            best_cut: self.tracker.best_cut(),
            best_round: self.tracker.best_iteration(),
            rounds_run,
            ops,
        });
        let (_, best_bits, _) = self.tracker.into_parts();
        best_bits
    }
}
