//! Reference implementation of the photonic recurrent Ising sampler (PRIS).
//!
//! PRIS (Roques-Carmes et al., *Nature Communications* 2020 — reference
//! \[15\] of the SOPHIE paper) finds low-energy states of an Ising model by
//! iterating a noisy thresholded matrix-vector recurrence. SOPHIE's core
//! contribution is a tiled, communication-avoiding modification of this
//! algorithm, so the unmodified version implemented here serves both as the
//! mathematical foundation (`sophie-core` reuses the preprocessing and
//! trackers) and as the software baseline in Table II.
//!
//! Pipeline:
//!
//! 1. [`dropout`] — eigenvalue dropout `C = U·Sq_α(D)·Uᵀ` (Eq. 2–4), and
//!    the [`TransformCache`] that solvers share across jobs;
//! 2. [`sampler`] — the recurrence `X = C·S + η`, `S' = [X ≥ θ]` (Eq. 5–7);
//! 3. [`runner`] — end-to-end max-cut runs with best-cut and
//!    time-to-target tracking (`sophie_solve::SolutionTracker`).
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//!
//! use sophie_graph::generate::{complete, WeightDist};
//! use sophie_pris::{PrisJobConfig, PrisSolver};
//! use sophie_solve::{NullObserver, SolveJob, Solver};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let g = Arc::new(complete(8, WeightDist::Unit, 0)?);
//! let config = PrisJobConfig { alpha: 0.0, iterations: 200, phi: 0.3 };
//! let solver = PrisSolver::new(config, Arc::default());
//! let report = solver.solve(&SolveJob::new(g, 1), &mut NullObserver)?;
//! assert!(report.best_cut >= 12.0); // optimum for K8 is 16
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod dropout;
mod error;
pub mod noise;
pub mod runner;
pub mod sampler;
mod solver;
pub mod tuning;

pub use dropout::{CacheStats, DeltaVariant, Preprocessor, TransformCache};
pub use error::{PrisError, Result};
pub use runner::{RunConfig, RunOutcome};
pub use sampler::PrisModel;
pub use solver::{PrisJobConfig, PrisSolver};
pub use tuning::{TuningEntry, TuningTable};
