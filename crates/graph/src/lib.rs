//! Graph substrate for the SOPHIE Ising machine.
//!
//! Everything SOPHIE's evaluation needs around workloads lives here:
//!
//! * [`Graph`] / [`GraphBuilder`] — simple weighted undirected graphs with
//!   CSR adjacency;
//! * [`generate`] — Rudy-style random generators and [`generate::presets`]
//!   regenerating the paper's Table I benchmark shapes (G1, G22, K100, …);
//! * [`io`] — GSET text-format parsing/writing so real GSET files can be
//!   dropped in;
//! * [`cut`] — max-cut evaluation, flip gains, and spin encodings;
//! * [`coupling`] — the max-cut → Ising reduction (`K = -A`) and the
//!   eigenvalue-dropout diagonal `Δ`;
//! * [`GraphStats`] — the per-instance summary behind Table I.
//!
//! # Example
//!
//! ```
//! use sophie_graph::{generate, cut, WeightDist};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let g = generate::complete(16, WeightDist::PlusMinusOne, 42)?;
//! let spins = vec![1i8; 16];
//! // The all-equal configuration cuts nothing.
//! assert_eq!(cut::cut_value(&g, &spins), 0.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod coupling;
pub mod cut;
mod error;
pub mod generate;
mod graph;
pub mod io;
mod stats;

pub use error::{GraphError, Result};
pub use generate::WeightDist;
pub use graph::{Edge, Graph, GraphBuilder};
pub use stats::GraphStats;
