//! Dense linear-algebra substrate for the SOPHIE Ising machine.
//!
//! The SOPHIE paper (MICRO 2024) preprocesses every Ising coupling matrix
//! with an *eigenvalue dropout* step (`C = U Sq_α(D) Uᵀ`) and then executes
//! the recurrent algorithm over fixed-size matrix tiles mapped onto OPCM
//! arrays. This crate provides exactly those building blocks, implemented
//! from scratch:
//!
//! * [`Matrix`] — dense row-major `f64` matrices with (row-parallel)
//!   products and symmetry utilities;
//! * [`eigen`] — a Householder + implicit-QL symmetric eigensolver, plus an
//!   independent Jacobi solver for cross-validation;
//! * [`tile`] — the tiling model ([`tile::TileGrid`], zero-padded
//!   [`tile::Tile`]s in `f32`, and symmetric tile-pair enumeration that
//!   underpins the paper's ≈2× OPCM area saving);
//! * [`sparse`] — CSR weight storage ([`sparse::SparseCsr`]) whose kernels
//!   are bit-identical to the dense tile kernels, the substrate of the
//!   engine's delta-driven sparse compute strategy;
//! * [`kernel`] — the tile-MVM kernel component stack: a scalar reference
//!   kernel, an `axpy` sweep and a cache-blocked register-blocking
//!   variant, and the [`KernelPlan`] dispatch layer everything above this
//!   crate calls through, whose plan is a fixed rule of the tile size —
//!   every variant bit-identical to the reference;
//! * [`vector`] / [`par`] — slice kernels and the persistent-worker-pool
//!   parallel helpers shared by the simulators.
//!
//! # Example
//!
//! ```
//! use sophie_linalg::{Matrix, eigen::symmetric_eigen};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Decompose a small coupling matrix and rebuild it from its spectrum.
//! let k = Matrix::from_rows(&[&[0.0, 1.0, 0.0], &[1.0, 0.0, 1.0], &[0.0, 1.0, 0.0]])?;
//! let eig = symmetric_eigen(&k)?;
//! assert!(eig.reconstruct().max_abs_diff(&k) < 1e-10);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
// Unsafe is denied crate-wide and re-allowed only inside `par`, which needs
// two narrow idioms for its persistent worker pool (closure lifetime
// erasure and disjoint-region pointer sharing); every block there carries a
// SAFETY comment. All other modules remain unsafe-free.
#![deny(unsafe_code)]

pub mod eigen;
mod error;
pub mod kernel;
mod matrix;
pub mod par;
pub mod sparse;
pub mod tile;
pub mod vector;

pub use error::{LinalgError, Result};
pub use kernel::{KernelPlan, KernelVariant};
pub use matrix::Matrix;
pub use sparse::SparseCsr;
pub use tile::{Tile, TileGrid, TileIndex, TilePair, TiledMatrix};
