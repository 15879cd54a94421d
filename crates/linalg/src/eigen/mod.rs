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

use std::collections::HashMap;

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
    /// with `values[k]`) as `B Bᵀ`, `B = U diag(√f)`: entry `(r, c)` is
    /// the sum from `−0.0` of `B[r][k]·B[c][k]` in ascending `k`.
    ///
    /// A column with `f_k = 0` (every eigenvalue that dropout discards)
    /// adds only `±0` terms, which change no sum but the sign of one that
    /// is exactly zero, so the product runs over the other columns and
    /// then gives each zero entry the sign of the full sum.
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
        // A zero root's terms are ±0 only while its column is finite.
        let mut skip: Vec<bool> = roots.iter().map(|&x| x == 0.0).collect();
        if skip.contains(&true) {
            for r in 0..n {
                for (s, x) in skip.iter_mut().zip(self.vectors.row(r)) {
                    *s &= x.is_finite();
                }
            }
        }
        let (zero, kept): (Vec<usize>, Vec<usize>) = (0..n).partition(|&k| skip[k]);
        let mut c = Matrix::gram_with(n, kept.len(), |r, t| {
            self.vectors[(r, kept[t])] * roots[kept[t]]
        });
        if !zero.is_empty() {
            restore_zero_signs(&mut c, &self.vectors, &zero);
        }
        c
    }
}

/// Gives each zero entry of `c = B Bᵀ`, summed without the columns
/// `zero` of `B` (whose entries are `±0`), the sign the full sum would
/// have given it.
///
/// In round-to-nearest a sum from `−0.0` ends at `−0.0` only if every
/// term is `−0.0`: any `+0.0` term or exact cancellation yields `+0.0`.
/// So only a `−0.0` entry can change, and it stays `−0.0` exactly when
/// every skipped term `B[r][k]·B[c][k]` is `−0.0`, that is when rows `r`
/// and `c` of `u` differ in sign in every column of `zero`. Rows are
/// grouped by that sign pattern, so the check costs `O(1)` per entry
/// however many entries are zero.
fn restore_zero_signs(c: &mut Matrix, u: &Matrix, zero: &[usize]) {
    if !c.as_slice().iter().any(|x| x.to_bits() == NEG_ZERO) {
        return;
    }
    let n = c.rows();
    let words = zero.len().div_ceil(64);
    let mut signs = vec![0_u64; n * words];
    for (r, pattern) in signs.chunks_exact_mut(words).enumerate() {
        let row = u.row(r);
        for (t, &k) in zero.iter().enumerate() {
            if row[k].is_sign_negative() {
                pattern[t / 64] |= 1 << (t % 64);
            }
        }
    }
    let mut classes: HashMap<&[u64], usize> = HashMap::new();
    let class: Vec<usize> = signs
        .chunks_exact(words)
        .map(|pattern| {
            let next = classes.len();
            *classes.entry(pattern).or_insert(next)
        })
        .collect();
    // The class of each row's opposite pattern, if any row has it.
    let tail = zero.len() % 64;
    let mut flipped = vec![0_u64; words];
    for (r, pattern) in signs.chunks_exact(words).enumerate() {
        for (f, &x) in flipped.iter_mut().zip(pattern) {
            *f = !x;
        }
        if tail != 0 {
            flipped[words - 1] &= (1 << tail) - 1;
        }
        let opposite = classes.get(flipped.as_slice()).copied();
        for (x, &cls) in c.row_mut(r).iter_mut().zip(&class) {
            if x.to_bits() == NEG_ZERO && opposite != Some(cls) {
                *x = 0.0;
            }
        }
    }
}

/// The bits of `−0.0`.
const NEG_ZERO: u64 = 1 << 63;

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
    let vectors = Matrix::from_vec(n, n, zt.columns(&order))?;
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

    /// `B Bᵀ` over every column, zero roots included: the sum that
    /// [`SymmetricEigen::compose_nonnegative`] must reproduce bit for bit.
    fn compose_all_columns(e: &SymmetricEigen, f: &[f64]) -> Matrix {
        let roots: Vec<f64> = f.iter().map(|x| x.sqrt()).collect();
        Matrix::gram_with(e.dim(), e.dim(), |r, k| e.vectors[(r, k)] * roots[k])
    }

    fn assert_composes_like_all_columns(e: &SymmetricEigen, f: &[f64], what: &str) {
        let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let got = e.compose_nonnegative(f);
        let want = compose_all_columns(e, f);
        assert_eq!(bits(&got), bits(&want), "{what}");
    }

    /// Exact `±0` vector entries of both signs, in `n × n` vectors whose
    /// rows share and mirror sign patterns, so zero entries of `C` come
    /// out `+0.0` and `−0.0` both.
    fn signed_zero_vectors(n: usize, seed: u64) -> Matrix {
        let mut state = seed;
        Matrix::from_fn(n, n, |r, k| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let sign = if (r / 2 + k) % 3 == 0 { -1.0 } else { 1.0 };
            match (state >> 60, r % 2) {
                (0..=9, _) => sign * 0.0,
                (_, 1) => -sign * 0.0,
                _ => ((state >> 11) as f64 / (1_u64 << 53) as f64 - 0.5) * sign,
            }
        })
    }

    /// Skipping the zero-root columns keeps every bit of the full sum:
    /// on a decomposition whose `C` has exact zeros (two components), on
    /// vectors full of signed zeros, with no root zero, every root zero,
    /// `−0.0` roots, and a non-finite entry in a zero-root column.
    #[test]
    fn compose_over_kept_columns_matches_the_full_sum_bitwise() {
        // Two components: C is zero between them.
        let n = 24;
        let raw = pseudorandom_symmetric(n, 21);
        let a = Matrix::from_fn(n, n, |r, c| {
            if (r < n / 2) == (c < n / 2) {
                raw[(r, c)]
            } else {
                0.0
            }
        });
        let e = symmetric_eigen(&a).unwrap();
        let dropout: Vec<f64> = e
            .values
            .iter()
            .map(|&x| if x > 0.0 { x } else { 0.0 })
            .collect();
        assert_composes_like_all_columns(&e, &dropout, "two components");
        assert!(e
            .compose_nonnegative(&dropout)
            .as_slice()
            .iter()
            .any(|x| x.to_bits() == 0));

        for (n, seed) in [(7, 1), (33, 2), (70, 3)] {
            let e = SymmetricEigen {
                values: vec![0.0; n],
                vectors: signed_zero_vectors(n, seed),
            };
            let half: Vec<f64> = (0..n).map(|k| if k % 2 == 0 { 0.0 } else { 1.5 }).collect();
            assert_composes_like_all_columns(&e, &half, "half the roots zero");
            let some: Vec<f64> = (0..n)
                .map(|k| if k % 5 == 1 { 0.0 } else { 0.25 })
                .collect();
            assert_composes_like_all_columns(&e, &some, "a fifth of the roots zero");
            assert_composes_like_all_columns(&e, &vec![2.0; n], "no root zero");
            assert_composes_like_all_columns(&e, &vec![0.0; n], "every root zero");
            let negative: Vec<f64> = (0..n)
                .map(|k| if k % 3 == 0 { -0.0 } else { 0.0 })
                .collect();
            assert_composes_like_all_columns(&e, &negative, "−0.0 roots");
        }

        // A zero root times an infinite entry is NaN, not ±0: that column
        // must stay in the sum.
        let mut vectors = signed_zero_vectors(9, 4);
        vectors[(3, 2)] = f64::INFINITY;
        let e = SymmetricEigen {
            values: vec![0.0; 9],
            vectors,
        };
        let f: Vec<f64> = (0..9).map(|k| if k % 2 == 0 { 0.0 } else { 1.0 }).collect();
        assert_composes_like_all_columns(&e, &f, "non-finite zero-root column");
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
