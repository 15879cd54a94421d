//! [`Solver`] trait impl for the PRIS reference sampler.

use std::sync::Arc;

use sophie_linalg::Matrix;
use sophie_solve::{
    Capabilities, SolveError, SolveJob, SolveObserver, SolveReport, Solver, Tee, TraceRecorder,
};

use crate::dropout::TransformCache;
use crate::runner::{run_controlled, RunConfig};
use crate::sampler::PrisModel;

/// Typed config for registry-constructed PRIS solvers: the preprocessing
/// strength plus the per-run sampler parameters (seed and target come from
/// each [`SolveJob`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrisJobConfig {
    /// Eigenvalue-dropout factor α.
    pub alpha: f64,
    /// Recurrent iterations per job.
    pub iterations: usize,
    /// Noise level φ.
    pub phi: f64,
}

impl Default for PrisJobConfig {
    fn default() -> Self {
        let run = RunConfig::default();
        PrisJobConfig {
            alpha: 0.0,
            iterations: run.iterations,
            phi: run.phi,
        }
    }
}

/// Registry-constructible PRIS solver: wraps a [`PrisJobConfig`] and
/// builds each job's sampler model from the dropout transform in a shared
/// [`TransformCache`], so jobs on a graph the cache holds skip the
/// eigendecomposition.
#[derive(Debug)]
pub struct PrisSolver {
    config: PrisJobConfig,
    transforms: Arc<TransformCache>,
}

impl PrisSolver {
    /// Wraps the config; transforms come from (and go to) `transforms`.
    #[must_use]
    pub fn new(config: PrisJobConfig, transforms: Arc<TransformCache>) -> Self {
        PrisSolver { config, transforms }
    }

    /// The wrapped configuration.
    #[must_use]
    pub fn config(&self) -> &PrisJobConfig {
        &self.config
    }
}

fn failed(e: crate::error::PrisError) -> SolveError {
    SolveError::Failed {
        solver: "pris".to_string(),
        message: e.to_string(),
    }
}

impl Solver for PrisSolver {
    fn name(&self) -> &'static str {
        "pris"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities::default()
    }

    fn solve(
        &self,
        job: &SolveJob,
        observer: &mut dyn SolveObserver,
    ) -> Result<SolveReport, SolveError> {
        let c = self
            .transforms
            .transform(&job.graph, self.config.alpha)
            .map_err(failed)?;
        let model = PrisModel::new(Matrix::clone(&c)).map_err(failed)?;
        let run = RunConfig {
            iterations: job.budget.cap(self.config.iterations),
            phi: self.config.phi,
            seed: job.seed,
            target_cut: job.target,
        };
        let control = job.control();
        let mut recorder = TraceRecorder::new();
        let outcome = {
            let mut tee = Tee::new(&mut recorder, observer);
            run_controlled(&model, &job.graph, &run, &control, &mut tee).map_err(failed)?
        };
        let mut report = recorder.into_report();
        // Events carry no bits; attach the winning state out-of-band so
        // problem decoders can map the report back to their domain.
        report.best_bits = outcome.best_bits;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sophie_graph::generate::{gnm, WeightDist};
    use sophie_solve::NullObserver;

    #[test]
    fn transform_cache_serves_the_second_job_on_a_graph() {
        let g = Arc::new(gnm(20, 60, WeightDist::Unit, 1).unwrap());
        let transforms = Arc::new(TransformCache::default());
        let config = PrisJobConfig {
            iterations: 5,
            ..PrisJobConfig::default()
        };
        let solver = PrisSolver::new(config, Arc::clone(&transforms));
        let job = SolveJob::new(g, 1);
        let first = solver.solve(&job, &mut NullObserver).unwrap();
        let second = solver.solve(&job, &mut NullObserver).unwrap();
        assert_eq!(first, second);
        let stats = transforms.stats();
        assert_eq!((stats.entries, stats.hits, stats.misses), (1, 1, 1));
    }
}
