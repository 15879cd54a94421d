//! Baseline Ising/max-cut solvers and published comparison numbers.
//!
//! SOPHIE's evaluation (Tables II & III) compares against software and
//! hardware competitors. This crate provides:
//!
//! * [`sa`] — simulated annealing (Metropolis, geometric cooling);
//! * [`sb`] — ballistic and discrete simulated bifurcation, the algorithm
//!   behind the multi-FPGA machine of Table III;
//! * [`tempering`] — parallel tempering (replica exchange);
//! * [`local_search`] — breakout-style local search (the BLS row);
//! * [`best_known`] — the reference pipeline computing best-known-quality
//!   cuts for regenerated instances;
//! * [`mod@reference`] — the published numbers of INPRIS/PRIS/CIM/BRIM/BLS/
//!   D-Wave/SB/mBRIM as typed constants with provenance.
//!
//! Every solver has one plain function ([`sa::anneal`],
//! [`sb::bifurcate`], [`tempering::temper`], [`local_search::search`])
//! returning its typed outcome, and a [`sophie_solve::Solver`] adapter
//! ([`SaSolver`], [`SbSolver`], [`PtSolver`], [`BlsSolver`]) that streams
//! `sophie_solve::SolveEvent`s to a `SolveObserver` — so these baselines
//! and the SOPHIE engine are compared through one instrumentation
//! vocabulary and run through the shared registry and batch scheduler.
//!
//! # Example
//!
//! ```
//! use sophie_baselines::sb::{bifurcate, SbConfig};
//! use sophie_graph::generate::{complete, WeightDist};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let g = complete(8, WeightDist::Unit, 0)?;
//! let out = bifurcate(&g, &SbConfig::default());
//! assert!(out.best_cut >= 14.0); // optimum of K8 is 16
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod best_known;
mod instrument;
pub mod local_search;
pub mod reference;
pub mod sa;
pub mod sb;
mod solver;
pub mod tempering;

pub use best_known::{best_known_cut, Effort};
pub use local_search::{BlsConfig, BlsOutcome};
pub use sa::{SaConfig, SaOutcome};
pub use sb::{SbConfig, SbOutcome, SbVariant};
pub use solver::{BlsSolver, PtSolver, SaSolver, SbSolver};
pub use tempering::{PtConfig, PtOutcome};
