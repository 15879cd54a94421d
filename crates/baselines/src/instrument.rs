//! Shared event-emission plumbing for the baseline solvers.
//!
//! Every baseline loop streams [`sophie_solve::SolveEvent`]s at its
//! natural iteration granularity (sweeps, integration steps, exchange
//! rounds, or perturbation rounds). The events never touch a solver's RNG
//! path, so the plain functions (which attach a
//! [`NullObserver`](sophie_solve::NullObserver)) and the `Solver` adapters
//! produce bit-identical outcomes.

use sophie_solve::{OpCounts, SolveEvent, SolveObserver};

/// Hamming distance between two spin assignments.
pub(crate) fn spin_flips(a: &[i8], b: &[i8]) -> usize {
    a.iter().zip(b).filter(|(x, y)| x != y).count()
}

/// Tracks the target crossing and best round for event emission, alongside
/// (not replacing) a baseline's own best bookkeeping.
///
/// `TargetReached` fires when the solver's best-so-far first meets the
/// target, checked at each round boundary — for solvers that capture the
/// best mid-round (e.g. per-flip in SA), this is the round in which the
/// crossing happened, not an after-the-fact resync.
pub(crate) struct BaselineEvents {
    target: Option<f64>,
    hit: bool,
}

impl BaselineEvents {
    /// Emits `RunStarted` and the round-0 `GlobalSync` for the initial
    /// state (plus `TargetReached` if it already meets the target).
    pub fn start(
        solver: &'static str,
        dimension: usize,
        planned_iterations: usize,
        seed: u64,
        target: Option<f64>,
        initial_cut: f64,
        observer: &mut dyn SolveObserver,
    ) -> Self {
        observer.on_event(&SolveEvent::RunStarted {
            solver,
            dimension,
            planned_iterations,
            seed,
            target,
        });
        observer.on_event(&SolveEvent::GlobalSync {
            round: 0,
            cut: initial_cut,
            activity: 0,
            ops_delta: OpCounts::default(),
        });
        let mut ev = BaselineEvents { target, hit: false };
        ev.check_target(0, initial_cut, observer);
        ev
    }

    /// Emits the `GlobalSync` for one finished round and the
    /// `TargetReached` if `best_cut` crossed the target this round.
    pub fn round(
        &mut self,
        round: usize,
        cut: f64,
        activity: usize,
        best_cut: f64,
        observer: &mut dyn SolveObserver,
    ) {
        observer.on_event(&SolveEvent::GlobalSync {
            round,
            cut,
            activity,
            ops_delta: OpCounts::default(),
        });
        self.check_target(round, best_cut, observer);
    }

    /// Emits `RunFinished`.
    pub fn finish(
        self,
        best_cut: f64,
        best_round: usize,
        rounds_run: usize,
        observer: &mut dyn SolveObserver,
    ) {
        observer.on_event(&SolveEvent::RunFinished {
            best_cut,
            best_round,
            rounds_run,
            ops: OpCounts::default(),
        });
    }

    fn check_target(&mut self, round: usize, best_cut: f64, observer: &mut dyn SolveObserver) {
        if self.hit {
            return;
        }
        if let Some(t) = self.target {
            if best_cut >= t {
                self.hit = true;
                observer.on_event(&SolveEvent::TargetReached {
                    round,
                    cut: best_cut,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use sophie_graph::cut::spins_to_binary;
    use sophie_graph::generate::{gnm, WeightDist};
    use sophie_solve::{NullObserver, SolveJob, SolveReport, Solver};

    use crate::{BlsSolver, PtSolver, SaSolver, SbSolver};

    /// Every observed baseline must (a) leave the plain outcome
    /// bit-identical and (b) produce a well-formed report: one cut per
    /// round plus the initial state, one activity per round, and a
    /// consistent best.
    fn check_report(report: &SolveReport, solver: &str, rounds: usize, best_cut: f64) {
        assert_eq!(report.solver, solver);
        assert_eq!(report.iterations_run, rounds);
        assert_eq!(report.cut_trace.len(), rounds + 1);
        assert_eq!(report.activity_trace.len(), rounds);
        assert_eq!(report.best_cut, best_cut);
        assert!(
            report.iterations_to_target.is_some(),
            "{solver}: easy target must be reached"
        );
    }

    #[test]
    fn observed_variants_match_plain_and_emit_reports() {
        let g = Arc::new(gnm(40, 160, WeightDist::Unit, 5).unwrap());
        // The configs' seed is 0, so a job with seed 0 replays the plain run.
        let job = SolveJob::new(Arc::clone(&g), 0).with_target(Some(1.0));
        let solve = |solver: &dyn Solver| solver.solve(&job, &mut NullObserver).unwrap();

        let sa_cfg = crate::sa::SaConfig {
            sweeps: 30,
            ..Default::default()
        };
        let plain = crate::sa::anneal(&g, &sa_cfg);
        let report = solve(&SaSolver::new(sa_cfg).unwrap());
        assert_eq!(report.best_bits, spins_to_binary(&plain.best_spins));
        check_report(&report, "sa", 30, plain.best_cut);

        let sb_cfg = crate::sb::SbConfig {
            steps: 40,
            ..Default::default()
        };
        let plain = crate::sb::bifurcate(&g, &sb_cfg);
        let report = solve(&SbSolver::new(sb_cfg).unwrap());
        assert_eq!(report.best_bits, spins_to_binary(&plain.best_spins));
        check_report(&report, "sb", 40, plain.best_cut);

        let pt_cfg = crate::tempering::PtConfig {
            exchanges: 10,
            ..Default::default()
        };
        let plain = crate::tempering::temper(&g, &pt_cfg);
        let report = solve(&PtSolver::new(pt_cfg).unwrap());
        assert_eq!(report.best_bits, spins_to_binary(&plain.best_spins));
        check_report(&report, "pt", 10, plain.best_cut);

        let bls_cfg = crate::local_search::BlsConfig {
            rounds: 8,
            ..Default::default()
        };
        let plain = crate::local_search::search(&g, &bls_cfg);
        let report = solve(&BlsSolver::new(bls_cfg).unwrap());
        assert_eq!(report.best_bits, spins_to_binary(&plain.best_spins));
        check_report(&report, "bls", 8, plain.best_cut);
    }
}
