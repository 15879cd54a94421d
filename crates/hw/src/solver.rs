//! [`Solver`] trait impl for SOPHIE running on the OPCM device models.
//!
//! [`SophieOpcm`] is the hardware-backed sibling of
//! `sophie_core::SophieIsing`: the same tiled engine, but every MVM runs
//! through the OPCM crossbar model (quantization + read noise + ADC),
//! optionally with a seeded [`FaultSchedule`](crate::FaultSchedule) and
//! the fault-aware runtime. Each job constructs a *fresh*
//! [`OpcmBackend`], so unit noise streams and fault ids derive only from
//! the backend config and the job — runs are deterministic and safe to
//! execute concurrently from the batch scheduler.

use std::sync::Arc;

use sophie_core::queue::NullTimeline;
use sophie_core::{EngineRun, HealthConfig, SophieConfig, SophieSolver, TransformCache};
use sophie_graph::Graph;
use sophie_solve::{Capabilities, SolveError, SolveJob, SolveObserver, SolveReport, Solver};

use crate::backend::{OpcmBackend, OpcmBackendConfig};

fn bad_config(message: impl ToString) -> SolveError {
    SolveError::BadConfig {
        solver: "sophie-opcm".to_string(),
        message: message.to_string(),
    }
}

/// Where a [`SophieOpcm`] gets its engines.
#[derive(Debug)]
enum Engines {
    /// One pre-built engine for every job.
    Pinned(Arc<SophieSolver>),
    /// A fresh engine per job, tiled from the shared cache's transform.
    Cached(Arc<TransformCache>),
}

/// Registry-constructible SOPHIE-on-OPCM solver: a [`SophieConfig`] plus
/// an [`OpcmBackendConfig`], with an optional [`HealthConfig`] switching
/// on the probe/recover fault-aware runtime.
///
/// [`SophieOpcm::new`] tiles an engine per job from the transformation
/// matrix in a [`TransformCache`] shared with the other engine adapters,
/// so the preprocessing runs once per graph and `α`;
/// [`SophieOpcm::from_engine`] pins a pre-built engine instead so many
/// adapters (e.g. one per fault seed) can share one engine.
#[derive(Debug)]
pub struct SophieOpcm {
    sophie: SophieConfig,
    backend: OpcmBackendConfig,
    health: Option<HealthConfig>,
    engines: Engines,
}

impl SophieOpcm {
    /// Wraps the configs; transforms come from (and go to) `transforms`.
    ///
    /// # Errors
    ///
    /// [`SolveError::BadConfig`] if either config fails validation.
    pub fn new(
        sophie: SophieConfig,
        backend: OpcmBackendConfig,
        transforms: Arc<TransformCache>,
    ) -> Result<Self, SolveError> {
        sophie.validate().map_err(bad_config)?;
        backend.validate().map_err(bad_config)?;
        Ok(SophieOpcm {
            sophie,
            backend,
            health: None,
            engines: Engines::Cached(transforms),
        })
    }

    /// Pins a pre-built engine: jobs must use a graph of the engine's
    /// dimension. This is how sweeps that vary only the backend (fault
    /// seeds, ADC resolution) share one transform.
    ///
    /// # Errors
    ///
    /// [`SolveError::BadConfig`] if the backend config fails validation.
    pub fn from_engine(
        engine: Arc<SophieSolver>,
        backend: OpcmBackendConfig,
    ) -> Result<Self, SolveError> {
        backend.validate().map_err(bad_config)?;
        Ok(SophieOpcm {
            sophie: engine.config().clone(),
            backend,
            health: None,
            engines: Engines::Pinned(engine),
        })
    }

    /// Enables the fault-aware runtime (probe-based detection plus the
    /// configured recovery policy) for every job.
    ///
    /// # Errors
    ///
    /// [`SolveError::BadConfig`] if `health` fails validation.
    pub fn with_health(mut self, health: HealthConfig) -> Result<Self, SolveError> {
        health.validate().map_err(bad_config)?;
        self.health = Some(health);
        Ok(self)
    }

    fn engine_for(&self, graph: &Arc<Graph>) -> Result<Arc<SophieSolver>, SolveError> {
        match &self.engines {
            Engines::Pinned(engine) => Ok(Arc::clone(engine)),
            Engines::Cached(transforms) => {
                SophieSolver::from_cache(transforms, graph, self.sophie.clone())
                    .map(Arc::new)
                    .map_err(|e| SolveError::Failed {
                        solver: "sophie-opcm".to_string(),
                        message: e.to_string(),
                    })
            }
        }
    }
}

impl Solver for SophieOpcm {
    fn name(&self) -> &'static str {
        "sophie-opcm"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            tiled: true,
            op_model: true,
            fault_model: true,
        }
    }

    fn solve(
        &self,
        job: &SolveJob,
        observer: &mut dyn SolveObserver,
    ) -> Result<SolveReport, SolveError> {
        let engine = self.engine_for(&job.graph)?;
        // Fresh backend per job: unit ids (and hence noise/fault streams)
        // restart from zero for every job, and concurrent jobs never share
        // mutable state.
        let backend = OpcmBackend::try_new(self.backend).map_err(bad_config)?;
        let run = EngineRun {
            health: self.health.as_ref(),
            ..EngineRun::default()
        };
        engine.solve_job(&backend, job, &run, observer, &mut NullTimeline)
    }
}

#[cfg(test)]
mod tests {
    use sophie_graph::generate::{complete, WeightDist};
    use sophie_solve::EventLog;

    use super::*;

    fn small_config() -> SophieConfig {
        SophieConfig {
            tile_size: 8,
            global_iters: 30,
            phi: 0.1,
            ..SophieConfig::default()
        }
    }

    #[test]
    fn transform_cache_serves_cached_engines_like_a_pinned_one() {
        let g = Arc::new(complete(16, WeightDist::Unit, 1).unwrap());
        let cfg = SophieConfig {
            tile_size: 8,
            global_iters: 10,
            ..small_config()
        };
        let engine = Arc::new(SophieSolver::from_graph(&g, cfg.clone()).unwrap());
        let hw = OpcmBackendConfig::default();
        let transforms = Arc::new(TransformCache::default());

        let pinned = SophieOpcm::from_engine(Arc::clone(&engine), hw).unwrap();
        let cached = SophieOpcm::new(cfg, hw, Arc::clone(&transforms)).unwrap();

        let job = SolveJob::new(Arc::clone(&g), 2);
        let mut a = EventLog::new();
        let mut b = EventLog::new();
        let mut c = EventLog::new();
        pinned.solve(&job, &mut a).unwrap();
        cached.solve(&job, &mut b).unwrap();
        cached.solve(&job, &mut c).unwrap();
        assert_eq!(a.events(), b.events());
        assert_eq!(b.events(), c.events());
        assert!(Arc::ptr_eq(&pinned.engine_for(&g).unwrap(), &engine));
        // The second cached job reused the first one's preprocessing.
        let stats = transforms.stats();
        assert_eq!((stats.entries, stats.hits, stats.misses), (1, 1, 1));
    }

    #[test]
    fn invalid_backend_config_is_rejected_at_wrap_time() {
        let bad = OpcmBackendConfig {
            adc_bits: 1,
            ..OpcmBackendConfig::default()
        };
        assert!(SophieOpcm::new(small_config(), bad, Arc::default()).is_err());
    }
}
