//! Symmetric eigendecomposition.
//!
//! The production pipeline is Householder tridiagonalization
//! (`tridiagonal`) followed by implicit-shift QL iteration (`ql`) — the
//! same O(n³) direct method dense LAPACK uses (`dsyev` family), implemented
//! from scratch because SOPHIE's eigenvalue-dropout preprocessing (paper
//! §II-C) needs the full spectrum of coupling matrices up to a few thousand
//! nodes. A cyclic [`jacobi_eigen`] solver provides an independent implementation
//! for cross-validation.

mod jacobi;
mod ql;
mod tridiagonal;

pub use jacobi::{jacobi_eigen, JacobiEigen};

use crate::error::{LinalgError, Result};
use crate::Matrix;

/// Full eigendecomposition `A = U D Uᵀ` of a real symmetric matrix.
///
/// Produced by [`symmetric_eigen`]. Eigenvalues are sorted ascending and the
/// columns of [`SymmetricEigen::vectors`] are the matching orthonormal
/// eigenvectors.
#[derive(Debug, Clone)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SymmetricEigen {
    /// Eigenvalues in ascending order.
    pub values: Vec<f64>,
    /// Orthogonal matrix whose column `k` is the eigenvector for `values[k]`.
    pub vectors: Matrix,
}

impl SymmetricEigen {
    /// Dimension of the decomposed matrix.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.values.len()
    }

    /// Rebuilds the original matrix `U D Uᵀ` (mainly for testing).
    #[must_use]
    pub fn reconstruct(&self) -> Matrix {
        self.apply_fn(|x| x)
    }

    /// Builds `U f(D) Uᵀ` for an arbitrary spectral function `f`.
    ///
    /// When `f` is non-negative over the spectrum the construction uses the
    /// factored form of [`SymmetricEigen::compose_nonnegative`], halving the
    /// cost; otherwise it falls back to two general products.
    #[must_use]
    pub fn apply_fn<F: Fn(f64) -> f64>(&self, f: F) -> Matrix {
        let n = self.dim();
        let fv: Vec<f64> = self.values.iter().map(|&x| f(x)).collect();
        if fv.iter().all(|&x| x >= 0.0) {
            self.compose_nonnegative(&fv)
        } else {
            let mut ud = Matrix::zeros(n, n);
            for r in 0..n {
                let urow = self.vectors.row(r);
                let drow = ud.row_mut(r);
                for c in 0..n {
                    drow[c] = urow[c] * fv[c];
                }
            }
            ud.matmul(&self.vectors.transposed())
                .expect("shapes are square by construction")
        }
    }

    /// Builds `U diag(f) Uᵀ` from spectrum values `f` (entry `k` pairs
    /// with `values[k]`) as `B Bᵀ`, `B = U diag(√f)`.
    ///
    /// # Panics
    ///
    /// Panics if `f.len() != self.dim()`. Every `f` must be non-negative.
    #[must_use]
    pub fn compose_nonnegative(&self, f: &[f64]) -> Matrix {
        let n = self.dim();
        assert_eq!(f.len(), n, "compose_nonnegative: one value per eigenvalue");
        debug_assert!(f.iter().all(|&x| x >= 0.0), "negative spectrum value");
        let roots: Vec<f64> = f.iter().map(|x| x.sqrt()).collect();
        Matrix::gram_with(n, n, |r, k| self.vectors[(r, k)] * roots[k])
    }
}

/// Computes the full eigendecomposition of a symmetric matrix.
///
/// # Errors
///
/// * [`LinalgError::Empty`] / [`LinalgError::NotSquare`] for malformed input.
/// * [`LinalgError::NotSymmetric`] if asymmetry exceeds `1e-9 · (1 + max|a|)`.
/// * [`LinalgError::ConvergenceFailure`] if QL iteration stalls
///   (practically unreachable).
///
/// ```
/// use sophie_linalg::{Matrix, eigen::symmetric_eigen};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]])?;
/// let eig = symmetric_eigen(&a)?;
/// assert!((eig.values[0] + 1.0).abs() < 1e-12);
/// assert!((eig.values[1] - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn symmetric_eigen(a: &Matrix) -> Result<SymmetricEigen> {
    if a.rows() == 0 {
        return Err(LinalgError::Empty);
    }
    if !a.is_square() {
        return Err(LinalgError::NotSquare {
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    let asym = a.max_asymmetry();
    if asym > 1e-9 * (1.0 + a.max_abs()) {
        return Err(LinalgError::NotSymmetric {
            max_asymmetry: asym,
        });
    }

    let n = a.rows();
    let mut z = a.as_slice().to_vec();
    let (mut d, mut e) = tridiagonal::tridiagonalize(&mut z, n);

    // QL rotates rows of Qᵀ, kept as column strips.
    let mut zt = ql::Strips::from_rows(&z, n);
    drop(z);
    ql::ql_implicit(&mut d, &mut e, &mut zt)?;

    // Sort eigenvalues ascending and emit eigenvectors as columns.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| d[i].total_cmp(&d[j]));
    let values: Vec<f64> = order.iter().map(|&i| d[i]).collect();
    let vectors = Matrix::from_fn(n, n, |r, c| zt.get(order[c], r));
    Ok(SymmetricEigen { values, vectors })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudorandom_symmetric(n: usize, seed: u64) -> Matrix {
        // Small deterministic LCG so the test needs no RNG dependency here.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64) - 0.5
        };
        let raw = Matrix::from_fn(n, n, |_, _| next());
        Matrix::from_fn(n, n, |r, c| raw[(r, c)] + raw[(c, r)])
    }

    #[test]
    fn rejects_asymmetric_input() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[0.0, 1.0]]).unwrap();
        assert!(matches!(
            symmetric_eigen(&a),
            Err(LinalgError::NotSymmetric { .. })
        ));
    }

    #[test]
    fn reconstruct_roundtrips() {
        let a = pseudorandom_symmetric(31, 7);
        let e = symmetric_eigen(&a).unwrap();
        assert!(e.reconstruct().max_abs_diff(&a) < 1e-9);
    }

    #[test]
    fn eigenvectors_orthonormal() {
        let a = pseudorandom_symmetric(20, 3);
        let e = symmetric_eigen(&a).unwrap();
        let vtv = e.vectors.transposed().matmul(&e.vectors).unwrap();
        assert!(vtv.max_abs_diff(&Matrix::identity(20)) < 1e-10);
    }

    #[test]
    fn values_sorted_and_match_trace() {
        let a = pseudorandom_symmetric(25, 11);
        let e = symmetric_eigen(&a).unwrap();
        for w in e.values.windows(2) {
            assert!(w[0] <= w[1]);
        }
        let trace: f64 = (0..25).map(|i| a[(i, i)]).sum();
        let sum: f64 = e.values.iter().sum();
        assert!((trace - sum).abs() < 1e-8);
    }

    #[test]
    fn agrees_with_jacobi_solver() {
        let a = pseudorandom_symmetric(16, 42);
        let ql = symmetric_eigen(&a).unwrap();
        let jac = jacobi_eigen(&a).unwrap();
        for (x, y) in ql.values.iter().zip(&jac.values) {
            assert!((x - y).abs() < 1e-8, "eigenvalue mismatch: {x} vs {y}");
        }
    }

    #[test]
    fn apply_fn_identity_equals_reconstruct() {
        let a = pseudorandom_symmetric(12, 5);
        let e = symmetric_eigen(&a).unwrap();
        assert!(e.apply_fn(|x| x).max_abs_diff(&e.reconstruct()) < 1e-12);
    }

    #[test]
    fn apply_fn_square_matches_matrix_square() {
        let a = pseudorandom_symmetric(14, 9);
        let e = symmetric_eigen(&a).unwrap();
        let a2 = a.matmul(&a).unwrap();
        // x² ≥ 0 so this exercises the factored (gram) path.
        assert!(e.apply_fn(|x| x * x).max_abs_diff(&a2) < 1e-8);
    }

    #[test]
    fn apply_fn_negative_branch_matches_general_path() {
        let a = pseudorandom_symmetric(10, 13);
        let e = symmetric_eigen(&a).unwrap();
        // f(x) = x keeps negatives, exercising the two-product fallback;
        // compare against reconstruct (which routes through the same fn) and
        // the original matrix.
        assert!(e.apply_fn(|x| x).max_abs_diff(&a) < 1e-9);
    }

    #[test]
    fn one_by_one() {
        let a = Matrix::from_rows(&[&[7.5]]).unwrap();
        let e = symmetric_eigen(&a).unwrap();
        assert_eq!(e.values, vec![7.5]);
        assert!((e.vectors[(0, 0)].abs() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn repeated_eigenvalues_are_handled() {
        let a = Matrix::identity(8);
        let e = symmetric_eigen(&a).unwrap();
        for &v in &e.values {
            assert!((v - 1.0).abs() < 1e-12);
        }
        let vtv = e.vectors.transposed().matmul(&e.vectors).unwrap();
        assert!(vtv.max_abs_diff(&Matrix::identity(8)) < 1e-10);
    }
}
