//! Convergence and best-solution tracking shared by all solvers.
//!
//! The paper's figures report two derived quantities: the best cut found
//! within an iteration budget (Fig. 6, 7) and the first iteration at which a
//! run reaches a quality target such as 95 % of the best-known cut
//! (Fig. 8, 10, and the `T_x` columns of Table II). The crate-private
//! `CutTracker` records both in a single pass; [`SolutionTracker`] layers
//! best-state capture and per-observation activity on top — the one
//! implementation behind both the SOPHIE engine's per-sync tracking and
//! the PRIS runner's per-step tracking. Cut and activity traces are kept
//! only by [`crate::TraceRecorder`], from the event stream.

/// Streaming tracker for cut-value observations over iterations.
#[derive(Debug, Clone)]
pub(crate) struct CutTracker {
    target: Option<f64>,
    best_cut: f64,
    best_iteration: usize,
    first_hit: Option<usize>,
}

impl CutTracker {
    /// Starts a tracker; `target` is the cut value that counts as
    /// "converged" (e.g. 95 % of best-known), or `None` to only track the
    /// best.
    #[must_use]
    pub fn new(target: Option<f64>) -> Self {
        CutTracker {
            target,
            best_cut: f64::NEG_INFINITY,
            best_iteration: 0,
            first_hit: None,
        }
    }

    /// Records the cut value observed at `iteration`.
    pub fn observe(&mut self, iteration: usize, cut: f64) {
        if cut > self.best_cut {
            self.best_cut = cut;
            self.best_iteration = iteration;
        }
        if self.first_hit.is_none() {
            if let Some(t) = self.target {
                if cut >= t {
                    self.first_hit = Some(iteration);
                }
            }
        }
    }

    /// Best cut observed so far (`-inf` before any observation).
    #[must_use]
    pub fn best_cut(&self) -> f64 {
        self.best_cut
    }

    /// Iteration at which the best cut was first observed.
    #[must_use]
    pub fn best_iteration(&self) -> usize {
        self.best_iteration
    }

    /// First iteration meeting the target, if it was ever met.
    #[must_use]
    pub fn first_hit(&self) -> Option<usize> {
        self.first_hit
    }
}

/// What one [`SolutionTracker::observe`] call found — the raw material for
/// a [`crate::SolveEvent::GlobalSync`] / [`crate::SolveEvent::TargetReached`]
/// emission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Observation {
    /// Spins that changed relative to the previously observed state.
    pub flips: usize,
    /// Whether this observation strictly improved the best cut.
    pub improved: bool,
    /// Whether this observation is the *first* to meet the target.
    pub reached_target: bool,
}

/// Best-state and activity bookkeeping over binary states.
///
/// Wraps a `CutTracker` and additionally keeps the best binary
/// configuration seen (updated only on strict improvement, matching the
/// historical engine/runner semantics) and the last observed state, from
/// which each observation's activity (Hamming distance to the previous
/// state) is derived.
#[derive(Debug, Clone)]
pub struct SolutionTracker {
    tracker: CutTracker,
    best_bits: Vec<bool>,
    bits: Vec<bool>,
}

impl SolutionTracker {
    /// Starts tracking from the initial state `bits` with value `cut`
    /// (iteration 0). Returns the tracker and whether the initial state
    /// already meets the target.
    #[must_use]
    pub fn start(target: Option<f64>, bits: &[bool], cut: f64) -> Self {
        let mut tracker = CutTracker::new(target);
        tracker.observe(0, cut);
        SolutionTracker {
            tracker,
            best_bits: bits.to_vec(),
            bits: bits.to_vec(),
        }
    }

    /// Records the state after `iteration` (1-based) and returns what
    /// changed.
    ///
    /// # Panics
    ///
    /// Panics if `bits` has a different length than the initial state.
    pub fn observe(&mut self, iteration: usize, bits: &[bool], cut: f64) -> Observation {
        assert_eq!(bits.len(), self.bits.len(), "state length changed mid-run");
        let flips = self.bits.iter().zip(bits).filter(|(a, b)| a != b).count();
        let had_hit = self.tracker.first_hit().is_some();
        let improved = cut > self.tracker.best_cut();
        self.tracker.observe(iteration, cut);
        if improved {
            self.best_bits.copy_from_slice(bits);
        }
        self.bits.copy_from_slice(bits);
        Observation {
            flips,
            improved,
            reached_target: !had_hit && self.tracker.first_hit().is_some(),
        }
    }

    /// Whether the initial state (iteration 0) already met the target.
    #[must_use]
    pub fn hit_at_start(&self) -> bool {
        self.tracker.first_hit() == Some(0)
    }

    /// Best cut observed so far.
    #[must_use]
    pub fn best_cut(&self) -> f64 {
        self.tracker.best_cut()
    }

    /// Binary configuration attaining the best cut.
    #[must_use]
    pub fn best_bits(&self) -> &[bool] {
        &self.best_bits
    }

    /// Iteration at which the best cut was first observed.
    #[must_use]
    pub fn best_iteration(&self) -> usize {
        self.tracker.best_iteration()
    }

    /// First iteration meeting the target, if it was ever met.
    #[must_use]
    pub fn first_hit(&self) -> Option<usize> {
        self.tracker.first_hit()
    }

    /// Consumes the tracker, returning `(best_cut, best_bits, first_hit)` —
    /// the fields outcome structs are built from.
    #[must_use]
    pub fn into_parts(self) -> (f64, Vec<bool>, Option<usize>) {
        (
            self.tracker.best_cut(),
            self.best_bits,
            self.tracker.first_hit(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracks_best_and_its_iteration() {
        let mut t = CutTracker::new(None);
        t.observe(0, 5.0);
        t.observe(1, 9.0);
        t.observe(2, 7.0);
        assert_eq!(t.best_cut(), 9.0);
        assert_eq!(t.best_iteration(), 1);
        assert_eq!(t.first_hit(), None);
    }

    #[test]
    fn first_hit_is_the_first_crossing() {
        let mut t = CutTracker::new(Some(8.0));
        t.observe(0, 5.0);
        t.observe(1, 8.0);
        t.observe(2, 12.0);
        assert_eq!(t.first_hit(), Some(1));
    }

    #[test]
    fn target_never_met_stays_none() {
        let mut t = CutTracker::new(Some(100.0));
        for i in 0..10 {
            t.observe(i, i as f64);
        }
        assert_eq!(t.first_hit(), None);
        assert_eq!(t.best_cut(), 9.0);
    }

    #[test]
    fn ties_do_not_move_best_iteration() {
        let mut t = CutTracker::new(None);
        t.observe(3, 4.0);
        t.observe(5, 4.0);
        assert_eq!(t.best_iteration(), 3);
    }

    #[test]
    fn empty_tracker_reports_neg_infinity() {
        let t = CutTracker::new(Some(1.0));
        assert_eq!(t.best_cut(), f64::NEG_INFINITY);
    }

    #[test]
    fn solution_tracker_keeps_best_bits_on_strict_improvement() {
        let mut t = SolutionTracker::start(None, &[false, false], 1.0);
        let o = t.observe(1, &[true, false], 3.0);
        assert!(o.improved);
        assert_eq!(o.flips, 1);
        // A tie must not move the best bits (strict improvement only).
        let o = t.observe(2, &[true, true], 3.0);
        assert!(!o.improved);
        assert_eq!(o.flips, 1);
        assert_eq!(t.best_bits(), &[true, false]);
        assert_eq!(t.best_cut(), 3.0);
        assert_eq!(t.best_iteration(), 1);
    }

    #[test]
    fn solution_tracker_observations_report_flips_and_one_target_crossing() {
        let mut t = SolutionTracker::start(Some(4.0), &[false; 3], 0.0);
        assert!(!t.hit_at_start());
        let o = t.observe(1, &[true, false, true], 2.0);
        assert!(!o.reached_target);
        assert_eq!(o.flips, 2);
        let o = t.observe(2, &[true, true, true], 5.0);
        assert!(o.reached_target);
        assert_eq!(o.flips, 1);
        let o = t.observe(3, &[true, true, false], 6.0);
        assert!(!o.reached_target, "target reported only once");
        assert_eq!(o.flips, 1);
        assert_eq!(t.first_hit(), Some(2));
        let (best, bits, hit) = t.into_parts();
        assert_eq!(best, 6.0);
        assert_eq!(bits, vec![true, true, false]);
        assert_eq!(hit, Some(2));
    }

    #[test]
    fn solution_tracker_target_met_at_start() {
        let t = SolutionTracker::start(Some(1.0), &[true], 2.0);
        assert!(t.hit_at_start());
        assert_eq!(t.first_hit(), Some(0));
    }

    #[test]
    #[should_panic(expected = "state length")]
    fn solution_tracker_rejects_length_change() {
        let mut t = SolutionTracker::start(None, &[true], 1.0);
        let _ = t.observe(1, &[true, false], 1.0);
    }
}
