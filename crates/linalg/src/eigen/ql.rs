//! Implicit-shift QL iteration on a symmetric tridiagonal matrix.
//!
//! This is the `tql2`/`tqli` routine, split in two. The `d`/`e`
//! recurrence never reads the accumulated transformation, so it runs
//! alone and records each Givens rotation `(i, c, s)` into a buffer of at
//! most [`ROTATION_BATCH`] entries. Each full buffer is then replayed on
//! the transposed eigenvector matrix ([`Strips`]), one fixed-width column
//! strip per pool task: a column of `zt` only ever mixes with itself, so a
//! strip can take a whole batch of rotations while it sits in cache, and
//! strips are independent. Every element still sees the same rotations in
//! the same order, so the result is bit-identical for any thread count.
//! Each strip task runs the replay's AVX2 build where the host has it
//! (`crate::isa`), which is bit-identical to the baseline build.

use crate::error::{LinalgError, Result};
use crate::{isa, par};

/// Maximum QL iterations per eigenvalue before reporting failure.
const MAX_ITERS: usize = 64;

/// Rotations recorded before a replay. Bounds the buffer at
/// 24 B × this count whatever `n` is.
const ROTATION_BATCH: usize = 1 << 14;

/// Widest column strip of `zt`. A strip of `n` rows stays in a core's L2
/// cache up to `n` of a few thousand.
const STRIP: usize = 64;

/// `sign(a, b)`: magnitude of `a`, sign of `b` (Fortran SIGN intrinsic).
fn sign(a: f64, b: f64) -> f64 {
    if b >= 0.0 {
        a.abs()
    } else {
        -a.abs()
    }
}

/// The transposed eigenvector matrix `zt` (row `k` converges to
/// eigenvector `k`), stored as column strips: strip `s` holds columns
/// `s·width..(s+1)·width` of every row, row-major and contiguous. Columns
/// past `n` in the last strip are zero padding.
pub(crate) struct Strips {
    n: usize,
    width: usize,
    data: Vec<f64>,
}

impl Strips {
    /// Lays out the row-major `n × n` matrix `zt`, `n ≥ 1`. Strips are as
    /// even as [`STRIP`] allows, so small `n` is one strip.
    pub(crate) fn from_rows(zt: &[f64], n: usize) -> Self {
        debug_assert!(n >= 1 && zt.len() == n * n);
        let width = n.div_ceil(n.div_ceil(STRIP));
        let strips = n.div_ceil(width);
        let mut data = vec![0.0; strips * n * width];
        for (k, row) in zt.chunks_exact(n).enumerate() {
            for (s, part) in row.chunks(width).enumerate() {
                let at = s * n * width + k * width;
                data[at..at + part.len()].copy_from_slice(part);
            }
        }
        Strips { n, width, data }
    }

    /// Element `(k, j)` of `zt`.
    pub(crate) fn get(&self, k: usize, j: usize) -> f64 {
        self.data[(j / self.width) * self.n * self.width + k * self.width + j % self.width]
    }

    /// Applies `rotations` in order to every strip, strips in parallel.
    fn replay(&mut self, rotations: &[(usize, f64, f64)]) {
        if rotations.is_empty() {
            return;
        }
        let (n, w) = (self.n, self.width);
        let strips = self.data.len() / (n * w);
        par::for_each_row_chunk_mut(&mut self.data, n * w, strips, |_, strip| {
            isa::run(
                #[inline(always)]
                || rotate_strip(strip, w, rotations),
            );
        });
    }
}

/// Applies `rotations` in order to one strip of rows `width` wide.
#[inline(always)]
fn rotate_strip(strip: &mut [f64], width: usize, rotations: &[(usize, f64, f64)]) {
    for &(i, c, s) in rotations {
        let (row_i, row_i1) = strip[i * width..(i + 2) * width].split_at_mut(width);
        for (zi, zi1) in row_i.iter_mut().zip(row_i1.iter_mut()) {
            let f = *zi1;
            *zi1 = s * *zi + c * f;
            *zi = c * *zi - s * f;
        }
    }
}

/// Diagonalizes the tridiagonal matrix `(d, e)` in place and accumulates the
/// rotations into `zt`.
///
/// On success `d` holds the (unsorted) eigenvalues. `e` is destroyed.
///
/// # Errors
///
/// Returns [`LinalgError::ConvergenceFailure`] if any eigenvalue fails to
/// converge within [`MAX_ITERS`] iterations (practically unreachable for
/// well-scaled input).
pub(crate) fn ql_implicit(d: &mut [f64], e: &mut [f64], zt: &mut Strips) -> Result<()> {
    let n = zt.n;
    debug_assert_eq!(d.len(), n);
    debug_assert_eq!(e.len(), n);
    if n <= 1 {
        return Ok(());
    }

    // Shift the subdiagonal so e[i] couples d[i] and d[i+1].
    for i in 1..n {
        e[i - 1] = e[i];
    }
    e[n - 1] = 0.0;

    let mut rotations = Vec::with_capacity(ROTATION_BATCH.min(n * n));
    for l in 0..n {
        let mut iter = 0usize;
        loop {
            // Look for a single small subdiagonal element to split the matrix.
            let mut m = l;
            while m + 1 < n {
                let dd = d[m].abs() + d[m + 1].abs();
                if e[m].abs() <= f64::EPSILON * dd {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            iter += 1;
            if iter > MAX_ITERS {
                return Err(LinalgError::ConvergenceFailure {
                    index: l,
                    iterations: iter,
                });
            }
            // Form the implicit Wilkinson-like shift.
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = g.hypot(1.0);
            g = d[m] - d[l] + e[l] / (g + sign(r, g));
            let mut s = 1.0;
            let mut c = 1.0;
            let mut p = 0.0;
            let mut underflow = false;
            let mut i = m - 1;
            // A sequence of plane rotations to restore tridiagonal form.
            loop {
                let f = s * e[i];
                let b = c * e[i];
                r = f.hypot(g);
                e[i + 1] = r;
                if r == 0.0 {
                    // Recover from underflow by deflating.
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    underflow = true;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                // Rotates eigenvector rows i and i+1 of zt, replayed later.
                rotations.push((i, c, s));
                if rotations.len() == ROTATION_BATCH {
                    zt.replay(&rotations);
                    rotations.clear();
                }
                if i == l {
                    break;
                }
                i -= 1;
            }
            if underflow && i > l {
                continue;
            }
            if !underflow {
                d[l] -= p;
                e[l] = g;
                e[m] = 0.0;
            }
        }
    }
    zt.replay(&rotations);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matrix;

    /// Diagonalizes a tridiagonal `(d, e)` and checks `T v = λ v` per pair.
    fn check(diag: &[f64], sub: &[f64]) {
        let n = diag.len();
        let mut d = diag.to_vec();
        // Convention: e[i] couples d[i-1] and d[i], e[0] unused.
        let mut e = vec![0.0; n];
        e[1..n].copy_from_slice(&sub[..n - 1]);
        let mut zt = Strips::from_rows(Matrix::identity(n).as_slice(), n);
        ql_implicit(&mut d, &mut e, &mut zt).unwrap();

        let t = {
            let mut t = Matrix::zeros(n, n);
            for i in 0..n {
                t[(i, i)] = diag[i];
                if i > 0 {
                    t[(i, i - 1)] = sub[i - 1];
                    t[(i - 1, i)] = sub[i - 1];
                }
            }
            t
        };
        for (k, &lambda) in d.iter().enumerate() {
            let v: Vec<f64> = (0..n).map(|j| zt.get(k, j)).collect();
            let tv = t.matvec(&v);
            for j in 0..n {
                assert!(
                    (tv[j] - lambda * v[j]).abs() < 1e-8,
                    "eigenpair {k} residual too large"
                );
            }
        }
        // Eigenvalue sum equals trace.
        let trace: f64 = diag.iter().sum();
        let sum: f64 = d.iter().sum();
        assert!((trace - sum).abs() < 1e-8);
    }

    /// The AVX2 build of the strip replay matches its baseline build bit
    /// for bit on a strip whose width is not a multiple of the vector
    /// width. Skipped on hosts without AVX2.
    #[test]
    fn avx2_replay_matches_the_baseline_build_bitwise() {
        let (rows, width) = (23, 37);
        let mut state = 0x5EED_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 11) as f64 / (1_u64 << 53) as f64
        };
        let strip: Vec<f64> = (0..rows * width).map(|_| next() * 2.0 - 1.0).collect();
        let rotations: Vec<(usize, f64, f64)> = (0..500)
            .map(|_| {
                let angle = next() * std::f64::consts::TAU;
                (
                    (next() * (rows - 1) as f64) as usize,
                    angle.cos(),
                    angle.sin(),
                )
            })
            .collect();
        let mut base = strip.clone();
        rotate_strip(&mut base, width, &rotations);
        let mut wide = strip;
        if isa::run_avx2(
            #[inline(always)]
            || rotate_strip(&mut wide, width, &rotations),
        )
        .is_none()
        {
            eprintln!("host has no AVX2; skipping");
            return;
        }
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&wide), bits(&base));
    }

    #[test]
    fn diagonal_matrix_is_fixed_point() {
        check(&[3.0, 1.0, -2.0, 7.0], &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn small_coupled_chain() {
        check(&[2.0, 2.0, 2.0], &[1.0, 1.0]);
    }

    #[test]
    fn known_two_by_two() {
        // [[0,1],[1,0]] has eigenvalues ±1.
        let mut d = vec![0.0, 0.0];
        let mut e = vec![0.0, 1.0];
        let mut zt = Strips::from_rows(Matrix::identity(2).as_slice(), 2);
        ql_implicit(&mut d, &mut e, &mut zt).unwrap();
        let mut vals = d.clone();
        vals.sort_by(f64::total_cmp);
        assert!((vals[0] + 1.0).abs() < 1e-12);
        assert!((vals[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn laplacian_chain_eigenvalues_match_closed_form() {
        // Path-graph Laplacian-like tridiagonal [2, -1] has eigenvalues
        // 2 - 2 cos(kπ/(n+1)) for the [-1,2,-1] Toeplitz with Dirichlet ends.
        let n = 12;
        let diag = vec![2.0; n];
        let sub = vec![-1.0; n - 1];
        let mut d = diag.clone();
        let mut e = vec![0.0; n];
        e[1..].copy_from_slice(&sub);
        let mut zt = Strips::from_rows(Matrix::identity(n).as_slice(), n);
        ql_implicit(&mut d, &mut e, &mut zt).unwrap();
        d.sort_by(f64::total_cmp);
        for (k, &lam) in d.iter().enumerate() {
            let expect = 2.0 - 2.0 * (std::f64::consts::PI * (k + 1) as f64 / (n + 1) as f64).cos();
            assert!((lam - expect).abs() < 1e-10, "λ_{k}");
        }
    }

    #[test]
    fn single_element_is_noop() {
        let mut d = vec![42.0];
        let mut e = vec![0.0];
        let mut zt = Strips::from_rows(&[1.0], 1);
        ql_implicit(&mut d, &mut e, &mut zt).unwrap();
        assert_eq!(d, vec![42.0]);
    }

    #[test]
    fn eigenvectors_stay_orthonormal() {
        check(
            &[1.0, -1.0, 0.5, 2.5, -3.0, 0.0],
            &[0.7, 0.2, 0.9, 0.1, 0.4],
        );
    }
}
