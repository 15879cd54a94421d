//! [`Solver`] trait impls for the four software baselines.
//!
//! Each adapter wraps one baseline config and runs the corresponding
//! `*_controlled` loop — the one behind the plain [`crate::sa::anneal`],
//! [`crate::sb::bifurcate`], [`crate::tempering::temper`] and
//! [`crate::local_search::search`] — through a [`TraceRecorder`], so
//! `Solver::solve` returns the [`SolveReport`] distilled from the event
//! stream its observer receives. Construction validates the config (the
//! conditions the plain functions `assert!`) and returns a typed
//! [`SolveError::BadConfig`] instead of panicking. Per [`Solver`]
//! contract, the job's seed overrides the config seed and the job budget
//! caps the baseline's iteration knob (sweeps / steps / exchanges /
//! rounds); for SA a capped sweep count also recomputes the geometric
//! cooling exponent, exactly as configuring that smaller `sweeps` would.

use sophie_graph::cut::spins_to_binary;
use sophie_solve::{
    Capabilities, SolveError, SolveJob, SolveObserver, SolveReport, Solver, Tee, TraceRecorder,
};

use crate::local_search::{search_controlled, BlsConfig};
use crate::sa::{anneal_controlled, SaConfig};
use crate::sb::{bifurcate_controlled, SbConfig};
use crate::tempering::{temper_controlled, PtConfig, MAX_REPLICAS};

fn bad_config(solver: &str, message: &str) -> SolveError {
    SolveError::BadConfig {
        solver: solver.to_string(),
        message: message.to_string(),
    }
}

fn bad_budget(solver: &str, knob: &str) -> SolveError {
    SolveError::BadJob {
        solver: solver.to_string(),
        message: format!("budget caps {knob} to 0; this solver needs at least one"),
    }
}

/// Registry-constructible simulated-annealing solver.
#[derive(Debug, Clone)]
pub struct SaSolver {
    config: SaConfig,
}

impl SaSolver {
    /// Wraps the config, validating the conditions [`crate::sa::anneal`]
    /// would panic on.
    ///
    /// # Errors
    ///
    /// [`SolveError::BadConfig`] for zero sweeps or non-positive /
    /// mis-ordered temperatures.
    pub fn new(config: SaConfig) -> Result<Self, SolveError> {
        if config.sweeps == 0 {
            return Err(bad_config("sa", "sweeps must be positive"));
        }
        if !(config.t_initial >= config.t_final && config.t_final > 0.0) {
            return Err(bad_config(
                "sa",
                "temperatures must satisfy t_initial >= t_final > 0",
            ));
        }
        Ok(SaSolver { config })
    }

    /// The wrapped configuration.
    #[must_use]
    pub fn config(&self) -> &SaConfig {
        &self.config
    }
}

impl Solver for SaSolver {
    fn name(&self) -> &'static str {
        "sa"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities::default()
    }

    fn solve(
        &self,
        job: &SolveJob,
        observer: &mut dyn SolveObserver,
    ) -> Result<SolveReport, SolveError> {
        let sweeps = job.budget.cap(self.config.sweeps);
        if sweeps == 0 {
            return Err(bad_budget("sa", "sweeps"));
        }
        let config = SaConfig {
            sweeps,
            seed: job.seed,
            ..self.config
        };
        let control = job.control();
        let mut recorder = TraceRecorder::new();
        let out = {
            let mut tee = Tee::new(&mut recorder, observer);
            anneal_controlled(&job.graph, &config, job.target, &control, &mut tee)
        };
        let mut report = recorder.into_report();
        // Events carry no bits; attach the winning state out-of-band.
        report.best_bits = spins_to_binary(&out.best_spins);
        Ok(report)
    }
}

/// Registry-constructible simulated-bifurcation solver.
#[derive(Debug, Clone)]
pub struct SbSolver {
    config: SbConfig,
}

impl SbSolver {
    /// Wraps the config, validating the conditions
    /// [`crate::sb::bifurcate`] would panic on.
    ///
    /// # Errors
    ///
    /// [`SolveError::BadConfig`] for zero steps or non-positive `dt`.
    pub fn new(config: SbConfig) -> Result<Self, SolveError> {
        if config.steps == 0 {
            return Err(bad_config("sb", "steps must be positive"));
        }
        if config.dt <= 0.0 {
            return Err(bad_config("sb", "dt must be positive"));
        }
        Ok(SbSolver { config })
    }

    /// The wrapped configuration.
    #[must_use]
    pub fn config(&self) -> &SbConfig {
        &self.config
    }
}

impl Solver for SbSolver {
    fn name(&self) -> &'static str {
        "sb"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities::default()
    }

    fn solve(
        &self,
        job: &SolveJob,
        observer: &mut dyn SolveObserver,
    ) -> Result<SolveReport, SolveError> {
        let steps = job.budget.cap(self.config.steps);
        if steps == 0 {
            return Err(bad_budget("sb", "steps"));
        }
        let config = SbConfig {
            steps,
            seed: job.seed,
            ..self.config
        };
        let control = job.control();
        let mut recorder = TraceRecorder::new();
        let out = {
            let mut tee = Tee::new(&mut recorder, observer);
            bifurcate_controlled(&job.graph, &config, job.target, &control, &mut tee)
        };
        let mut report = recorder.into_report();
        report.best_bits = spins_to_binary(&out.best_spins);
        Ok(report)
    }
}

/// Registry-constructible parallel-tempering solver.
#[derive(Debug, Clone)]
pub struct PtSolver {
    config: PtConfig,
}

impl PtSolver {
    /// Wraps the config, validating the conditions [`crate::tempering::temper`]
    /// would panic on.
    ///
    /// # Errors
    ///
    /// [`SolveError::BadConfig`] for fewer than two or more than
    /// [`MAX_REPLICAS`] replicas, or non-positive / mis-ordered
    /// temperatures.
    pub fn new(config: PtConfig) -> Result<Self, SolveError> {
        if config.replicas < 2 {
            return Err(bad_config("pt", "need at least 2 replicas"));
        }
        if config.replicas > MAX_REPLICAS {
            return Err(bad_config(
                "pt",
                &format!("at most {MAX_REPLICAS} replicas, got {}", config.replicas),
            ));
        }
        if !(config.t_min > 0.0 && config.t_min <= config.t_max) {
            return Err(bad_config(
                "pt",
                "temperatures must satisfy 0 < t_min <= t_max",
            ));
        }
        Ok(PtSolver { config })
    }

    /// The wrapped configuration.
    #[must_use]
    pub fn config(&self) -> &PtConfig {
        &self.config
    }
}

impl Solver for PtSolver {
    fn name(&self) -> &'static str {
        "pt"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities::default()
    }

    fn solve(
        &self,
        job: &SolveJob,
        observer: &mut dyn SolveObserver,
    ) -> Result<SolveReport, SolveError> {
        let config = PtConfig {
            exchanges: job.budget.cap(self.config.exchanges),
            seed: job.seed,
            ..self.config
        };
        let control = job.control();
        let mut recorder = TraceRecorder::new();
        let out = {
            let mut tee = Tee::new(&mut recorder, observer);
            temper_controlled(&job.graph, &config, job.target, &control, &mut tee)
        };
        let mut report = recorder.into_report();
        report.best_bits = spins_to_binary(&out.best_spins);
        Ok(report)
    }
}

/// Registry-constructible breakout-local-search solver.
#[derive(Debug, Clone)]
pub struct BlsSolver {
    config: BlsConfig,
}

impl BlsSolver {
    /// Wraps the config, validating the conditions
    /// [`crate::local_search::search`] would panic on.
    ///
    /// # Errors
    ///
    /// [`SolveError::BadConfig`] for zero rounds.
    pub fn new(config: BlsConfig) -> Result<Self, SolveError> {
        if config.rounds == 0 {
            return Err(bad_config("bls", "rounds must be positive"));
        }
        Ok(BlsSolver { config })
    }

    /// The wrapped configuration.
    #[must_use]
    pub fn config(&self) -> &BlsConfig {
        &self.config
    }
}

impl Solver for BlsSolver {
    fn name(&self) -> &'static str {
        "bls"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities::default()
    }

    fn solve(
        &self,
        job: &SolveJob,
        observer: &mut dyn SolveObserver,
    ) -> Result<SolveReport, SolveError> {
        let rounds = job.budget.cap(self.config.rounds);
        if rounds == 0 {
            return Err(bad_budget("bls", "rounds"));
        }
        let config = BlsConfig {
            rounds,
            seed: job.seed,
            ..self.config
        };
        let control = job.control();
        let mut recorder = TraceRecorder::new();
        let out = {
            let mut tee = Tee::new(&mut recorder, observer);
            search_controlled(&job.graph, &config, job.target, &control, &mut tee)
        };
        let mut report = recorder.into_report();
        report.best_bits = spins_to_binary(&out.best_spins);
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use sophie_graph::generate::{gnm, WeightDist};
    use sophie_graph::Graph;
    use sophie_solve::{EventLog, JobBudget};

    use super::*;

    fn graph() -> Arc<Graph> {
        Arc::new(gnm(40, 160, WeightDist::PlusMinusOne, 7).unwrap())
    }

    #[test]
    fn budget_caps_the_iteration_knob_and_recools() {
        let g = graph();
        let solver = SaSolver::new(SaConfig {
            sweeps: 100,
            ..SaConfig::default()
        })
        .unwrap();
        let budget = JobBudget {
            max_iterations: Some(12),
            time_limit: None,
        };
        let mut log = EventLog::new();
        let report = solver
            .solve(
                &SolveJob::new(Arc::clone(&g), 1).with_budget(budget),
                &mut log,
            )
            .unwrap();
        assert_eq!(report.iterations_run, 12);
        assert_eq!(report.cut_trace.len(), 13);

        // Capping is equivalent to configuring the smaller sweep count
        // directly (the cooling schedule recomputes from it).
        let mut direct = EventLog::new();
        SaSolver::new(SaConfig {
            sweeps: 12,
            ..SaConfig::default()
        })
        .unwrap()
        .solve(&SolveJob::new(Arc::clone(&g), 1), &mut direct)
        .unwrap();
        assert_eq!(log.events(), direct.events());
    }

    #[test]
    fn invalid_configs_are_rejected_at_wrap_time() {
        assert!(SaSolver::new(SaConfig {
            t_initial: 0.1,
            t_final: 1.0,
            ..SaConfig::default()
        })
        .is_err());
        assert!(SbSolver::new(SbConfig {
            dt: 0.0,
            ..SbConfig::default()
        })
        .is_err());
        for replicas in [1, MAX_REPLICAS + 1, 1_000_000_000] {
            assert!(matches!(
                PtSolver::new(PtConfig {
                    replicas,
                    ..PtConfig::default()
                }),
                Err(SolveError::BadConfig { .. })
            ));
        }
        assert!(PtSolver::new(PtConfig {
            replicas: MAX_REPLICAS,
            ..PtConfig::default()
        })
        .is_ok());
        assert!(BlsSolver::new(BlsConfig {
            rounds: 0,
            ..BlsConfig::default()
        })
        .is_err());
    }
}
