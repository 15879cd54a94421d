//! [`Solver`] trait impls for the SOPHIE engine on the ideal backend.
//!
//! Two shapes are provided:
//!
//! * [`SophieSolver`] itself implements [`Solver`] — the engine is bound
//!   to one preprocessed transformation matrix, so jobs must match its
//!   dimension. This is the shape experiment harnesses use: they cache
//!   the expensive eigendecomposition per instance and hand the prebuilt
//!   engine to the scheduler.
//! * [`SophieIsing`] wraps a [`SophieConfig`] and a shared
//!   [`TransformCache`], and tiles an engine for each job's graph. This is
//!   the shape the `SolverRegistry` constructs, where no graph is known
//!   at build time.
//!
//! Both run on the exact floating-point [`IdealBackend`]; the OPCM device
//! model variant lives in `sophie-hw` (same engine, different backend).

use std::sync::Arc;

use sophie_pris::TransformCache;
use sophie_solve::{Capabilities, SolveError, SolveJob, SolveObserver, SolveReport, Solver};

use crate::backend::IdealBackend;
use crate::config::{ComputeMode, SophieConfig};
use crate::engine::{EngineRun, SophieSolver};
use crate::queue::NullTimeline;
use crate::sparse::SparseBackend;

impl Solver for SophieSolver {
    fn name(&self) -> &'static str {
        "sophie"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            tiled: true,
            op_model: true,
            fault_model: false,
        }
    }

    fn solve(
        &self,
        job: &SolveJob,
        observer: &mut dyn SolveObserver,
    ) -> Result<SolveReport, SolveError> {
        // Dispatch on the configured compute mode; dense and sparse
        // backends are bit-identical in every output (see `crate::sparse`),
        // so this choice affects wall-clock only.
        let run = EngineRun::default();
        match self.config().compute {
            ComputeMode::Dense => {
                self.solve_job(&IdealBackend::new(), job, &run, observer, &mut NullTimeline)
            }
            ComputeMode::Sparse | ComputeMode::Auto => self.solve_job(
                &SparseBackend::from_config(self.config()),
                job,
                &run,
                observer,
                &mut NullTimeline,
            ),
        }
    }
}

/// Registry-constructible SOPHIE solver: a [`SophieConfig`] plus the
/// [`TransformCache`] it shares with the other adapters of its registry.
///
/// Each job tiles a fresh engine from its graph's transformation matrix;
/// the eigenvalue-dropout preprocessing behind that matrix runs only when
/// the cache does not hold the graph at the configured `α`.
#[derive(Debug)]
pub struct SophieIsing {
    config: SophieConfig,
    transforms: Arc<TransformCache>,
}

impl SophieIsing {
    /// Validates `config` and wraps it; transforms come from (and go to)
    /// `transforms`.
    ///
    /// # Errors
    ///
    /// [`SolveError::BadConfig`] for an invalid configuration.
    pub fn new(config: SophieConfig, transforms: Arc<TransformCache>) -> Result<Self, SolveError> {
        config.validate().map_err(|e| SolveError::BadConfig {
            solver: "sophie".to_string(),
            message: e.to_string(),
        })?;
        Ok(SophieIsing { config, transforms })
    }

    /// The wrapped configuration.
    #[must_use]
    pub fn config(&self) -> &SophieConfig {
        &self.config
    }
}

impl Solver for SophieIsing {
    fn name(&self) -> &'static str {
        "sophie"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            tiled: true,
            op_model: true,
            fault_model: false,
        }
    }

    fn solve(
        &self,
        job: &SolveJob,
        observer: &mut dyn SolveObserver,
    ) -> Result<SolveReport, SolveError> {
        SophieSolver::from_cache(&self.transforms, &job.graph, self.config.clone())
            .map_err(|e| SolveError::Failed {
                solver: "sophie".to_string(),
                message: e.to_string(),
            })?
            .solve(job, observer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sophie_graph::generate::{complete, WeightDist};
    use sophie_graph::Graph;
    use sophie_solve::{JobBudget, NullObserver, TraceRecorder};

    fn test_config() -> SophieConfig {
        SophieConfig {
            tile_size: 8,
            global_iters: 20,
            ..SophieConfig::default()
        }
    }

    fn test_graph() -> Arc<Graph> {
        Arc::new(complete(24, WeightDist::Unit, 3).unwrap())
    }

    #[test]
    fn job_budget_caps_global_iters() {
        let g = test_graph();
        let engine = SophieSolver::from_graph(&g, test_config()).unwrap();
        let job = SolveJob::new(g, 1).with_budget(JobBudget {
            max_iterations: Some(5),
            time_limit: None,
        });
        let report = engine.solve(&job, &mut NullObserver).unwrap();
        assert_eq!(report.planned_iterations, 5);
        assert_eq!(report.iterations_run, 5);
        assert_eq!(report.cut_trace.len(), 6);
    }

    #[test]
    fn dimension_mismatch_is_a_bad_job() {
        let g = test_graph();
        let engine = SophieSolver::from_graph(&g, test_config()).unwrap();
        let wrong = Arc::new(complete(12, WeightDist::Unit, 0).unwrap());
        let err = engine.solve(&SolveJob::new(wrong, 0), &mut NullObserver);
        assert!(matches!(err, Err(SolveError::BadJob { .. })));
    }

    #[test]
    fn transform_cache_serves_the_lazy_adapter_like_a_prebuilt_engine() {
        let g = test_graph();
        let engine = SophieSolver::from_graph(&g, test_config()).unwrap();
        let transforms = Arc::new(TransformCache::default());
        let lazy = SophieIsing::new(test_config(), Arc::clone(&transforms)).unwrap();

        let job = SolveJob::new(Arc::clone(&g), 7);
        let mut direct = TraceRecorder::new();
        let a = engine.solve(&job, &mut direct).unwrap();
        let b = lazy.solve(&job, &mut NullObserver).unwrap();
        assert_eq!(a, b);

        // A second job on an equal graph reuses the preprocessing.
        let again = lazy
            .solve(&SolveJob::new(test_graph(), 7), &mut NullObserver)
            .unwrap();
        assert_eq!(a, again);
        let stats = transforms.stats();
        assert_eq!((stats.entries, stats.hits, stats.misses), (1, 1, 1));

        // A different graph preprocesses, deterministically.
        let other = Arc::new(complete(16, WeightDist::Unit, 1).unwrap());
        let r1 = lazy
            .solve(&SolveJob::new(Arc::clone(&other), 3), &mut NullObserver)
            .unwrap();
        let r2 = lazy
            .solve(&SolveJob::new(other, 3), &mut NullObserver)
            .unwrap();
        assert_eq!(r1, r2);
        assert_eq!(transforms.stats().misses, 2);
    }

    #[test]
    fn invalid_config_is_rejected_at_wrap_time() {
        let bad = SophieConfig {
            tile_fraction: 0.0,
            ..SophieConfig::default()
        };
        assert!(matches!(
            SophieIsing::new(bad, Arc::default()),
            Err(SolveError::BadConfig { .. })
        ));
    }
}
