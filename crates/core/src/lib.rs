//! SOPHIE's core contribution: the tiled, communication-avoiding
//! modification of the PRIS recurrent Ising algorithm.
//!
//! The paper (MICRO 2024) scales a recurrent Ising machine past its
//! hardware capacity with three coupled ideas, all implemented here:
//!
//! * **Symmetric local update** (§III-A1) — tile the transformation matrix,
//!   map each symmetric tile pair onto one bidirectional MVM unit, and run
//!   many recurrent iterations *inside* a pair against frozen offset
//!   vectors, eliminating most global synchronization;
//! * **Stochastic global iteration** (§III-A2) — execute only a random
//!   fraction of the pairs each global iteration and broadcast a single
//!   stochastically chosen spin copy per block column;
//! * **Offline static scheduling** (§III-D) — pre-generate every random
//!   decision ([`Schedule`]) so hardware control reduces to state machines.
//!
//! The engine ([`SophieSolver`]) is generic over [`backend::MvmBackend`]:
//! the same algorithm runs on an exact floating-point substrate or on the
//! OPCM device model from `sophie-hw`. Every run tallies [`OpCounts`], the
//! interface to the power/performance/area models, and
//! [`analytic::analytic_op_counts`] replays those counts schedule-only for
//! problems too large to simulate functionally (K32768).
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//!
//! use sophie_core::observe::NullObserver;
//! use sophie_core::{SolveJob, Solver, SophieConfig, SophieSolver};
//! use sophie_graph::generate::{complete, WeightDist};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let graph = Arc::new(complete(24, WeightDist::Unit, 0)?);
//! let config = SophieConfig { tile_size: 8, global_iters: 60, ..SophieConfig::default() };
//! let solver = SophieSolver::from_graph(&graph, config)?;
//! let report = solver.solve(&SolveJob::new(graph, 1), &mut NullObserver)?;
//! // K24 with unit weights has optimum 12·12 = 144.
//! assert!(report.best_cut >= 120.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analytic;
pub mod backend;
mod config;
mod engine;
mod error;
mod gaussian;
mod health;
pub mod queue;
pub mod schedule;
mod solver;

pub use config::{ComputeMode, SophieConfig};
pub use engine::{EngineRun, SophieSolver};
pub use error::{Result, SophieError};
pub use gaussian::GaussianSource;
pub use health::{HealthConfig, RecoveryPolicy};
pub use schedule::{Round, Schedule};
pub use solver::SophieIsing;
pub use sophie_linalg::{KernelPlan, KernelVariant};
pub use sophie_pris::TransformCache;

// The instrumentation and solver-abstraction layers live in `sophie-solve`
// so solvers that cannot depend on this crate (e.g. `sophie-pris`) share
// them; re-exported here so engine users need only one import path.
pub use sophie_solve::observe;
pub use sophie_solve::{OpCounts, SolveJob, SolveReport, Solver};
