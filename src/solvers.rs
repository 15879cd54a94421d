//! The default solver registry: every solver in the workspace, by name.
//!
//! The registry *type* lives in [`sophie_solve`] so any crate can define
//! [`Solver`](sophie_solve::Solver) impls, but only this facade crate
//! depends on all of them — so this is where the canonical population
//! lives. Seven configurations are registered:
//!
//! | name          | config type                           | solver |
//! |---------------|---------------------------------------|--------|
//! | `sophie`      | [`SophieConfig`]                      | tiled engine, exact floating-point backend |
//! | `sophie-opcm` | ([`SophieConfig`], [`OpcmBackendConfig`]) | tiled engine on the OPCM device models |
//! | `pris`        | [`PrisJobConfig`]                     | unmodified photonic recurrent Ising sampler |
//! | `sa`          | [`SaConfig`]                          | simulated annealing |
//! | `sb`          | [`SbConfig`]                          | simulated bifurcation (bSB/dSB) |
//! | `pt`          | [`PtConfig`]                          | parallel tempering |
//! | `bls`         | [`BlsConfig`]                         | breakout local search |
//!
//! ```
//! use sophie::solvers::default_registry;
//! use sophie::solve::{run_seeds, SolveJob};
//! use sophie::graph::generate::{complete, WeightDist};
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let reg = default_registry();
//! assert_eq!(reg.len(), 7);
//! let solver = reg.build_default("sa")?;
//! let graph = Arc::new(complete(16, WeightDist::Unit, 0)?);
//! let batch = run_seeds(&solver, &graph, 4, Some(60.0))?;
//! assert_eq!(batch.reports.len(), 4);
//! # Ok(())
//! # }
//! ```

use std::sync::Arc;

use sophie_baselines::{
    BlsConfig, BlsSolver, PtConfig, PtSolver, SaConfig, SaSolver, SbConfig, SbSolver,
};
use sophie_core::{SophieConfig, SophieIsing};
use sophie_hw::{OpcmBackendConfig, SophieOpcm};
use sophie_pris::{PrisJobConfig, PrisSolver, TransformCache};
use sophie_solve::SolverRegistry;

/// Builds a registry with every solver in the workspace registered.
///
/// `sophie`, `sophie-opcm` and `pris` share one [`TransformCache`] that
/// lives as long as the registry: every solver built from it reuses the
/// eigenvalue-dropout preprocessing of a graph (and `α`) any of them has
/// seen, as a daemon serving one registry does across requests.
#[must_use]
pub fn default_registry() -> SolverRegistry {
    registry_sharing(Arc::default())
}

fn registry_sharing(transforms: Arc<TransformCache>) -> SolverRegistry {
    let mut reg = SolverRegistry::new();
    let shared = Arc::clone(&transforms);
    reg.register(
        "sophie",
        "SOPHIE tiled recurrent Ising engine on the exact floating-point backend",
        move |c: &SophieConfig| SophieIsing::new(c.clone(), Arc::clone(&shared)),
    );
    let shared = Arc::clone(&transforms);
    reg.register(
        "sophie-opcm",
        "SOPHIE tiled engine on the OPCM device models (quantization, read noise, ADC, faults)",
        move |c: &(SophieConfig, OpcmBackendConfig)| {
            SophieOpcm::new(c.0.clone(), c.1, Arc::clone(&shared))
        },
    );
    reg.register(
        "pris",
        "unmodified photonic recurrent Ising sampler (software baseline)",
        move |c: &PrisJobConfig| Ok(PrisSolver::new(*c, Arc::clone(&transforms))),
    );
    reg.register(
        "sa",
        "simulated annealing (Metropolis, geometric cooling)",
        |c: &SaConfig| SaSolver::new(*c),
    );
    reg.register(
        "sb",
        "simulated bifurcation (ballistic or discrete oscillator dynamics)",
        |c: &SbConfig| SbSolver::new(*c),
    );
    reg.register(
        "pt",
        "parallel tempering (replica exchange over a geometric temperature ladder)",
        |c: &PtConfig| PtSolver::new(*c),
    );
    reg.register(
        "bls",
        "breakout local search (steepest-ascent descent plus multi-flip perturbations)",
        |c: &BlsConfig| BlsSolver::new(*c),
    );
    reg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registers_all_seven_solvers() {
        let reg = default_registry();
        assert_eq!(
            reg.names(),
            vec!["bls", "pris", "pt", "sa", "sb", "sophie", "sophie-opcm"]
        );
        for name in reg.names() {
            let solver = reg.build_default(name).unwrap();
            // The engine-backed adapters report "sophie" from both the
            // ideal and OPCM configurations; everything else echoes its
            // registry name.
            if name == "sophie-opcm" {
                assert_eq!(solver.name(), "sophie-opcm");
            } else {
                assert_eq!(solver.name(), name);
            }
            assert!(reg.summary(name).is_some());
        }
    }

    #[test]
    fn typed_build_accepts_each_config() {
        let reg = default_registry();
        assert!(reg.build("sophie", &SophieConfig::default()).is_ok());
        assert!(reg
            .build(
                "sophie-opcm",
                &(SophieConfig::default(), OpcmBackendConfig::default())
            )
            .is_ok());
        assert!(reg.build("pris", &PrisJobConfig::default()).is_ok());
        assert!(reg.build("sa", &SaConfig::default()).is_ok());
        assert!(reg.build("sb", &SbConfig::default()).is_ok());
        assert!(reg.build("pt", &PtConfig::default()).is_ok());
        assert!(reg.build("bls", &BlsConfig::default()).is_ok());
        // And the wrong type is a typed error, not a panic.
        assert!(reg.build("sa", &SbConfig::default()).is_err());
    }

    #[test]
    fn transform_cache_is_shared_by_the_engine_adapters() {
        use sophie_graph::generate::{complete, WeightDist};
        use sophie_solve::{NullObserver, SolveJob};

        let transforms = Arc::new(TransformCache::default());
        let reg = registry_sharing(Arc::clone(&transforms));
        let sophie = SophieConfig {
            tile_size: 8,
            global_iters: 5,
            alpha: 0.25,
            ..SophieConfig::default()
        };
        let solvers = [
            reg.build("sophie", &sophie).unwrap(),
            reg.build("sophie-opcm", &(sophie, OpcmBackendConfig::default()))
                .unwrap(),
            reg.build(
                "pris",
                &PrisJobConfig {
                    alpha: 0.25,
                    iterations: 5,
                    ..PrisJobConfig::default()
                },
            )
            .unwrap(),
        ];
        for solver in &solvers {
            let graph = Arc::new(complete(20, WeightDist::PlusMinusOne, 4).unwrap());
            solver
                .solve(&SolveJob::new(graph, 1), &mut NullObserver)
                .unwrap();
        }
        let stats = transforms.stats();
        assert_eq!((stats.entries, stats.hits, stats.misses), (1, 2, 1));
    }

    #[test]
    fn capability_flags_distinguish_the_engines() {
        let reg = default_registry();
        let sophie = reg.build_default("sophie").unwrap();
        assert!(sophie.capabilities().tiled && sophie.capabilities().op_model);
        assert!(!sophie.capabilities().fault_model);
        let opcm = reg.build_default("sophie-opcm").unwrap();
        assert!(opcm.capabilities().fault_model);
        let sa = reg.build_default("sa").unwrap();
        assert_eq!(sa.capabilities(), Default::default());
    }
}
