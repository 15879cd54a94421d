//! SOPHIE: a scalable recurrent Ising machine using optically addressed
//! phase change memory — a full Rust reproduction of the MICRO 2024 paper.
//!
//! This meta-crate re-exports the whole workspace so applications can
//! depend on a single crate:
//!
//! * [`graph`] — workloads: weighted graphs, Rudy-style generators, GSET
//!   I/O, max-cut evaluation ([`sophie_graph`]);
//! * [`linalg`] — the numerical substrate: symmetric eigensolvers, tiling,
//!   matrix products ([`sophie_linalg`]);
//! * [`solve`] — the solver-agnostic instrumentation layer: solve events,
//!   observers, reports, and convergence trackers ([`sophie_solve`]);
//! * [`pris`] — the original photonic recurrent Ising sampler
//!   ([`sophie_pris`]);
//! * [`core`] — SOPHIE's modified algorithm: symmetric local updates,
//!   stochastic global iteration, static scheduling ([`sophie_core`]);
//! * [`hw`] — OPCM device models, the 2.5D accelerator hierarchy, and the
//!   power/performance/area models ([`sophie_hw`]);
//! * [`baselines`] — simulated annealing/bifurcation, local search, and
//!   published competitor numbers ([`sophie_baselines`]);
//! * [`problems`] — the problem-compiler front end: QUBO, MAX-CUT,
//!   coloring/Potts, and LDPC lowered to Ising jobs and decoded back to
//!   domain metrics ([`sophie_problems`]).
//!
//! Every solver implements [`solve::Solver`]; [`solvers::default_registry`]
//! constructs any of the seven configurations by name, and
//! [`solve::run_batch`] runs heterogeneous job batches over the shared
//! worker pool.
//!
//! # Quickstart
//!
//! ```
//! use std::sync::Arc;
//!
//! use sophie::core::{SophieConfig, SophieSolver};
//! use sophie::graph::generate::{complete, WeightDist};
//! use sophie::solve::{NullObserver, SolveJob, Solver};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let graph = Arc::new(complete(32, WeightDist::Unit, 7)?);
//! let config = SophieConfig { tile_size: 8, global_iters: 80, ..SophieConfig::default() };
//! let solver = SophieSolver::from_graph(&graph, config)?;
//! let report = solver.solve(&SolveJob::new(graph, 1), &mut NullObserver)?;
//! println!("best cut: {}", report.best_cut);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod solvers;

pub use sophie_baselines as baselines;
pub use sophie_core as core;
pub use sophie_graph as graph;
pub use sophie_hw as hw;
pub use sophie_linalg as linalg;
pub use sophie_pris as pris;
pub use sophie_problems as problems;
pub use sophie_solve as solve;

pub use solvers::default_registry;
