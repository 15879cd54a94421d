//! Dense row-major `f64` matrices.
//!
//! This is the working representation for coupling matrices `K`, the
//! transformation matrix `C` produced by eigenvalue dropout, and the
//! orthogonal factors of the symmetric eigendecomposition. Sizes in SOPHIE's
//! functional simulation stay below a few thousand, so a flat `Vec<f64>` with
//! straightforward kernels (plus row-chunk parallelism for the O(n³) ones)
//! is the right tool.

use crate::error::{LinalgError, Result};
use crate::par;

/// Output tile edge of [`Matrix::gram`]: `GRAM_TILE²` accumulators fit the
/// vector registers of the baseline x86-64 and aarch64 targets.
const GRAM_TILE: usize = 4;

/// A dense row-major matrix of `f64`.
///
/// ```
/// use sophie_linalg::Matrix;
///
/// let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
/// assert_eq!(m[(1, 0)], 3.0);
/// assert_eq!(m.matvec(&[1.0, 1.0]), vec![3.0, 7.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix by evaluating `f(row, col)` at every position.
    #[must_use]
    pub fn from_fn<F: FnMut(usize, usize) -> f64>(rows: usize, cols: usize, mut f: F) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Builds a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] for an empty row list and
    /// [`LinalgError::DimensionMismatch`] if rows have differing lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self> {
        let first = rows.first().ok_or(LinalgError::Empty)?;
        let cols = first.len();
        if cols == 0 {
            return Err(LinalgError::Empty);
        }
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (r, row) in rows.iter().enumerate() {
            if row.len() != cols {
                return Err(LinalgError::DimensionMismatch {
                    expected: (rows.len(), cols),
                    found: (r, row.len()),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Builds a matrix from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::DimensionMismatch {
                expected: (rows, cols),
                found: (data.len(), 1),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// True if the matrix is square.
    #[must_use]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    #[must_use]
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row index {r} out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row index {r} out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a new vector.
    ///
    /// # Panics
    ///
    /// Panics if `c >= self.cols()`.
    #[must_use]
    pub fn col(&self, c: usize) -> Vec<f64> {
        assert!(c < self.cols, "column index {c} out of bounds");
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Views the whole matrix as a flat row-major slice.
    #[must_use]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Consumes the matrix and returns the flat row-major buffer.
    #[must_use]
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Returns the transpose as a new matrix.
    #[must_use]
    pub fn transposed(&self) -> Self {
        Matrix::from_fn(self.cols, self.rows, |r, c| self[(c, r)])
    }

    /// Matrix-vector product `A x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    #[must_use]
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "matvec: length mismatch");
        let mut y = vec![0.0; self.rows];
        for (r, yr) in y.iter_mut().enumerate() {
            *yr = crate::vector::dot(self.row(r), x);
        }
        y
    }

    /// Transposed matrix-vector product `Aᵀ x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.rows()`.
    #[must_use]
    pub fn matvec_transposed(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.rows, "matvec_transposed: length mismatch");
        let mut y = vec![0.0; self.cols];
        for (r, &xr) in x.iter().enumerate() {
            crate::vector::axpy(xr, self.row(r), &mut y);
        }
        y
    }

    /// Matrix product `A B`, parallelized over output rows.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(LinalgError::DimensionMismatch {
                expected: (self.cols, rhs.cols),
                found: (rhs.rows, rhs.cols),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        let n = rhs.cols;
        let workers = par::worker_count(self.rows);
        par::for_each_row_chunk_mut(&mut out.data, n, workers, |row0, chunk| {
            for (local_r, out_row) in chunk.chunks_mut(n).enumerate() {
                let r = row0 + local_r;
                // ikj ordering: stream rhs rows through the output row.
                for (k, &a_rk) in self.row(r).iter().enumerate() {
                    if a_rk != 0.0 {
                        let rhs_row = rhs.row(k);
                        for (o, &b) in out_row.iter_mut().zip(rhs_row) {
                            *o += a_rk * b;
                        }
                    }
                }
            }
        });
        Ok(out)
    }

    /// Symmetric rank-k style product `B Bᵀ` where `B = self`, exploiting
    /// symmetry of the result and parallelizing over rows.
    ///
    /// Used to reconstruct `C = U f(D) Uᵀ = (U √f)(U √f)ᵀ` when the spectral
    /// function `f` is non-negative, which halves the flop count compared to
    /// two general products.
    ///
    /// Entry `(r, c)` is `vector::dot(B[r], B[c])` bit for bit: one chain
    /// from `-0.0` over ascending `k`. `B` is first copied into k-major
    /// panels of four rows, so each 4×4 output tile of the upper triangle
    /// keeps its chains in registers while it streams two panels; row
    /// panels are pool tasks.
    #[must_use]
    pub fn gram(&self) -> Matrix {
        Matrix::gram_with(self.rows, self.cols, |r, k| self.data[r * self.cols + k])
    }

    /// [`Matrix::gram`] of the `n × inner` matrix `B[r][k] = entry(r, k)`,
    /// read straight into the packed panels so `B` itself is never stored.
    pub(crate) fn gram_with(n: usize, inner: usize, entry: impl Fn(usize, usize) -> f64) -> Matrix {
        let panels = n.div_ceil(GRAM_TILE);
        let panel_len = inner * GRAM_TILE;
        // packed[p][k][r] = B[p·GRAM_TILE + r][k]; padding rows stay zero.
        let mut packed = vec![0.0; panels * panel_len];
        for r in 0..n {
            let panel = &mut packed[(r / GRAM_TILE) * panel_len..];
            for k in 0..inner {
                panel[k * GRAM_TILE + r % GRAM_TILE] = entry(r, k);
            }
        }
        // Rows padded to whole panels so every task owns one panel's rows.
        let mut data = vec![0.0; panels * GRAM_TILE * n];
        if n > 0 {
            par::for_each_row_chunk_mut(&mut data, GRAM_TILE * n, panels, |p, out| {
                let a = &packed[p * panel_len..(p + 1) * panel_len];
                for q in p..panels {
                    let b = &packed[q * panel_len..(q + 1) * panel_len];
                    let mut acc = [[-0.0_f64; GRAM_TILE]; GRAM_TILE];
                    for (ak, bk) in a.chunks_exact(GRAM_TILE).zip(b.chunks_exact(GRAM_TILE)) {
                        for (acc_r, &x) in acc.iter_mut().zip(ak) {
                            for (s, &y) in acc_r.iter_mut().zip(bk) {
                                *s += x * y;
                            }
                        }
                    }
                    let c0 = q * GRAM_TILE;
                    let width = GRAM_TILE.min(n - c0);
                    for (out_row, acc_r) in out.chunks_mut(n).zip(&acc) {
                        out_row[c0..c0 + width].copy_from_slice(&acc_r[..width]);
                    }
                }
            });
        }
        data.truncate(n * n);
        let mut out = Matrix {
            rows: n,
            cols: n,
            data,
        };
        // Mirror the upper triangle into the lower triangle.
        for r in 1..n {
            for c in 0..r {
                out[(r, c)] = out[(c, r)];
            }
        }
        out
    }

    /// Largest absolute difference `max |a_ij - a_ji|` over all pairs.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    #[must_use]
    pub fn max_asymmetry(&self) -> f64 {
        assert!(self.is_square(), "max_asymmetry requires a square matrix");
        let mut m = 0.0_f64;
        for r in 0..self.rows {
            for c in (r + 1)..self.cols {
                m = m.max((self[(r, c)] - self[(c, r)]).abs());
            }
        }
        m
    }

    /// True if the matrix is square and symmetric within `tol`.
    #[must_use]
    pub fn is_symmetric(&self, tol: f64) -> bool {
        self.is_square() && self.max_asymmetry() <= tol
    }

    /// Frobenius norm.
    #[must_use]
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Largest absolute entry.
    #[must_use]
    pub fn max_abs(&self) -> f64 {
        crate::vector::max_abs(&self.data)
    }

    /// Largest absolute elementwise difference to `other`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    #[must_use]
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "max_abs_diff: shape mismatch"
        );
        crate::vector::max_abs_diff(&self.data, &other.data)
    }

    /// Scales every entry in place.
    pub fn scale(&mut self, alpha: f64) {
        crate::vector::scale(&mut self.data, alpha);
    }

    /// Sum of each row, i.e. `A · 1`. This is the thresholds' building block
    /// (`θ_i = ½ Σ_j C_ij` in PRIS).
    #[must_use]
    pub fn row_sums(&self) -> Vec<f64> {
        (0..self.rows)
            .map(|r| crate::vector::sum(self.row(r)))
            .collect()
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &mut self.data[r * self.cols + c]
    }
}

impl std::fmt::Display for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Matrix {}x{}:", self.rows, self.cols)?;
        let show_rows = self.rows.min(8);
        for r in 0..show_rows {
            let show_cols = self.cols.min(8);
            for c in 0..show_cols {
                write!(f, "{:>10.4} ", self[(r, c)])?;
            }
            if self.cols > show_cols {
                write!(f, "...")?;
            }
            writeln!(f)?;
        }
        if self.rows > show_rows {
            writeln!(f, "...")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap()
    }

    #[test]
    fn construction_and_indexing() {
        let m = sample();
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m[(0, 2)], 3.0);
        assert_eq!(m[(1, 1)], 5.0);
    }

    #[test]
    fn from_rows_rejects_ragged_input() {
        let err = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]).unwrap_err();
        assert!(matches!(err, LinalgError::DimensionMismatch { .. }));
    }

    #[test]
    fn from_rows_rejects_empty() {
        assert!(matches!(Matrix::from_rows(&[]), Err(LinalgError::Empty)));
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(Matrix::from_vec(2, 2, vec![0.0; 3]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![0.0; 4]).is_ok());
    }

    #[test]
    fn identity_matvec_is_identity_map() {
        let i = Matrix::identity(4);
        let x = vec![1.0, -2.0, 3.5, 0.0];
        assert_eq!(i.matvec(&x), x);
    }

    #[test]
    fn matvec_matches_manual() {
        let m = sample();
        assert_eq!(m.matvec(&[1.0, 0.0, -1.0]), vec![-2.0, -2.0]);
    }

    #[test]
    fn matvec_transposed_matches_explicit_transpose() {
        let m = sample();
        let x = vec![2.0, -1.0];
        assert_eq!(m.matvec_transposed(&x), m.transposed().matvec(&x));
    }

    #[test]
    fn matmul_matches_known_product() {
        let a = sample();
        let b = a.transposed();
        let p = a.matmul(&b).unwrap();
        // [1 2 3; 4 5 6] * its transpose
        assert_eq!(p[(0, 0)], 14.0);
        assert_eq!(p[(0, 1)], 32.0);
        assert_eq!(p[(1, 1)], 77.0);
        assert!(p.is_symmetric(0.0));
    }

    #[test]
    fn matmul_dimension_mismatch_errors() {
        let a = sample();
        assert!(a.matmul(&sample()).is_err());
    }

    #[test]
    fn gram_equals_matmul_with_transpose() {
        let a = Matrix::from_fn(17, 9, |r, c| ((r * 31 + c * 7) % 13) as f64 - 6.0);
        // gram expects square rows-of-B usage; build square-ish case.
        let g = a.gram();
        let expect = a.matmul(&a.transposed()).unwrap();
        assert!(g.max_abs_diff(&expect) < 1e-9);
    }

    #[test]
    fn transpose_is_involution() {
        let m = sample();
        assert_eq!(m.transposed().transposed(), m);
    }

    #[test]
    fn symmetry_checks() {
        let s = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 3.0]]).unwrap();
        assert!(s.is_symmetric(0.0));
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.5, 3.0]]).unwrap();
        assert!(!a.is_symmetric(0.1));
        assert!((a.max_asymmetry() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn row_sums_match_matvec_of_ones() {
        let m = sample();
        assert_eq!(m.row_sums(), m.matvec(&[1.0, 1.0, 1.0]));
    }

    #[test]
    fn frobenius_norm_of_identity() {
        assert!((Matrix::identity(9).frobenius_norm() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!format!("{}", sample()).is_empty());
    }

    #[test]
    fn scale_doubles_entries() {
        let mut m = sample();
        m.scale(2.0);
        assert_eq!(m[(1, 2)], 12.0);
    }

    #[test]
    fn col_extracts_column() {
        let m = sample();
        assert_eq!(m.col(1), vec![2.0, 5.0]);
    }

    #[test]
    fn matmul_large_parallel_path_is_correct() {
        // Big enough to split across several worker threads.
        let a = Matrix::from_fn(97, 53, |r, c| ((r + 2 * c) % 7) as f64 - 3.0);
        let b = Matrix::from_fn(53, 61, |r, c| ((3 * r + c) % 5) as f64 - 2.0);
        let p = a.matmul(&b).unwrap();
        // Spot-check a few entries against a naive implementation.
        for &(r, c) in &[(0, 0), (96, 60), (50, 13), (7, 44)] {
            let mut want = 0.0;
            for k in 0..53 {
                want += a[(r, k)] * b[(k, c)];
            }
            assert!((p[(r, c)] - want).abs() < 1e-9, "mismatch at ({r},{c})");
        }
    }
}
