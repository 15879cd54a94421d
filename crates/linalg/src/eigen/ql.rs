//! Implicit-shift QL iteration on a symmetric tridiagonal matrix.
//!
//! This is the `tql2`/`tqli` routine, split in two. The `d`/`e`
//! recurrence never reads the accumulated transformation, so it runs
//! alone and records each Givens rotation `(i, c, s)` into a buffer of at
//! most [`ROTATION_BATCH`] entries. Each full buffer is then replayed on
//! the transposed eigenvector matrix ([`Strips`]), one fixed-width column
//! strip per pool task: a column of `zt` only ever mixes with itself, so a
//! strip can take a whole batch of rotations while it sits in cache, and
//! strips are independent.
//!
//! A QL sweep records its rotations with descending indices, so the
//! replay applies each run of four rotations `i, i−1, i−2, i−3` in one
//! pass over the strip, loading and storing the five rows it touches once
//! and keeping the rows in between in registers; other rotations go one by
//! one. Every element still sees the same rotations' operations in the
//! same order, so the result is bit-identical for any thread count. Each
//! strip task runs the replay's AVX2 build where the host has it
//! (`crate::isa`), which is bit-identical to the baseline build; the unit
//! tests compare both builds with the plain one-rotation-at-a-time loop.
//! The eigenvectors leave the strips by [`Strips::columns`], which walks
//! each strip.

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
    #[cfg(test)]
    pub(crate) fn get(&self, k: usize, j: usize) -> f64 {
        self.data[(j / self.width) * self.n * self.width + k * self.width + j % self.width]
    }

    /// The row-major `n × n` matrix whose column `c` is row `order[c]` of
    /// `zt`, written row by row while walking each strip.
    pub(crate) fn columns(&self, order: &[usize]) -> Vec<f64> {
        let (n, w) = (self.n, self.width);
        debug_assert_eq!(order.len(), n);
        let mut out = vec![0.0; n * n];
        for (strip, rows) in self.data.chunks_exact(n * w).zip(out.chunks_mut(w * n)) {
            for (jj, out_row) in rows.chunks_exact_mut(n).enumerate() {
                for (x, &k) in out_row.iter_mut().zip(order) {
                    *x = strip[k * w + jj];
                }
            }
        }
        out
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

/// Applies `rotations` in order to one strip of rows `width` wide. A run
/// of four rotations `i, i−1, i−2, i−3`, the order in which one QL sweep
/// records them, goes through the strip in one pass.
#[inline(always)]
fn rotate_strip(strip: &mut [f64], width: usize, rotations: &[(usize, f64, f64)]) {
    let mut rest = rotations;
    while let [(i, c, s), tail @ ..] = rest {
        let i = *i;
        if let [(i1, c1, s1), (i2, c2, s2), (i3, c3, s3), ..] = tail {
            if i >= 3 && *i1 == i - 1 && *i2 == i - 2 && *i3 == i - 3 {
                let rows = &mut strip[(i - 3) * width..(i + 2) * width];
                rotate_run(rows, width, [(*c, *s), (*c1, *s1), (*c2, *s2), (*c3, *s3)]);
                rest = &tail[3..];
                continue;
            }
        }
        let (row_i, row_i1) = strip[i * width..(i + 2) * width].split_at_mut(width);
        for (zi, zi1) in row_i.iter_mut().zip(row_i1.iter_mut()) {
            let f = *zi1;
            *zi1 = *s * *zi + *c * f;
            *zi = *c * *zi - *s * f;
        }
        rest = tail;
    }
}

/// Rotations `i, i−1, i−2, i−3` (cosine and sine each) on the five rows
/// `i−3..=i+1` held in `rows`: each column is loaded and stored once, and
/// the rows in between stay in registers. Each element sees the four
/// rotations' operations in the order the rotations would apply them one
/// by one.
#[inline(always)]
fn rotate_run(rows: &mut [f64], width: usize, run: [(f64, f64); 4]) {
    let [(ca, sa), (cb, sb), (cc, sc), (cd, sd)] = run;
    let (r0, rest) = rows.split_at_mut(width);
    let (r1, rest) = rest.split_at_mut(width);
    let (r2, rest) = rest.split_at_mut(width);
    let (r3, r4) = rest.split_at_mut(width);
    let columns = r0.iter_mut().zip(r1.iter_mut()).zip(r2.iter_mut());
    for (((z0, z1), z2), (z3, z4)) in columns.zip(r3.iter_mut().zip(r4.iter_mut())) {
        let (mut x0, mut x1, mut x2, mut x3) = (*z0, *z1, *z2, *z3);
        let f = *z4;
        *z4 = sa * x3 + ca * f;
        x3 = ca * x3 - sa * f;
        let f = x3;
        *z3 = sb * x2 + cb * f;
        x2 = cb * x2 - sb * f;
        let f = x2;
        *z2 = sc * x1 + cc * f;
        x1 = cc * x1 - sc * f;
        let f = x1;
        *z1 = sd * x0 + cd * f;
        x0 = cd * x0 - sd * f;
        *z0 = x0;
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
///
/// Kept out of line: inlined into `symmetric_eigen`, the recurrence loop
/// measured about 7 % slower at n = 2000.
#[inline(never)]
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

    /// The plain replay that [`rotate_strip`] restructures: one rotation
    /// at a time, two rows each.
    fn rotate_strip_reference(strip: &mut [f64], width: usize, rotations: &[(usize, f64, f64)]) {
        for &(i, c, s) in rotations {
            for j in 0..width {
                let f = strip[(i + 1) * width + j];
                strip[(i + 1) * width + j] = s * strip[i * width + j] + c * f;
                strip[i * width + j] = c * strip[i * width + j] - s * f;
            }
        }
    }

    fn lcg(state: &mut u64) -> f64 {
        *state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (*state >> 11) as f64 / (1_u64 << 53) as f64
    }

    /// Rotations in descending runs of 1 to 9 (runs of four and their
    /// remainders), runs that reach row 0, a run broken mid-way by a jump,
    /// and ascending or repeated indices.
    fn rotation_runs(rows: usize, state: &mut u64) -> Vec<(usize, f64, f64)> {
        let mut out = Vec::new();
        let mut push = |i: usize, state: &mut u64| {
            let angle = lcg(state) * std::f64::consts::TAU;
            out.push((i, angle.cos(), angle.sin()));
        };
        for len in 1..=9 {
            let top = (lcg(state) * (rows - 1) as f64) as usize;
            for q in 0..len.min(top + 1) {
                push(top - q, state);
            }
        }
        for i in (0..4.min(rows - 1)).rev() {
            push(i, state);
        }
        for i in [7, 6, 5, 9, 8, 7, 6, 5, 2, 3, 4, 4, 4] {
            push(i.min(rows - 2), state);
        }
        for _ in 0..200 {
            push((lcg(state) * (rows - 1) as f64) as usize, state);
        }
        out
    }

    /// [`rotate_strip`] matches the plain replay bit for bit, in its
    /// baseline build and (where the host has AVX2) its AVX2 build, at
    /// strip widths that are not multiples of the vector width.
    #[test]
    fn replay_matches_the_plain_loop_bitwise() {
        let mut state = 0x5EED_u64;
        for (rows, width) in [(23, 37), (12, 5), (30, 64), (6, 1), (11, 3)] {
            let strip: Vec<f64> = (0..rows * width)
                .map(|_| lcg(&mut state) * 2.0 - 1.0)
                .collect();
            let rotations = rotation_runs(rows, &mut state);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let mut want = strip.clone();
            rotate_strip_reference(&mut want, width, &rotations);
            let mut base = strip.clone();
            rotate_strip(&mut base, width, &rotations);
            assert_eq!(bits(&base), bits(&want), "baseline build, width {width}");
            let mut wide = strip;
            if isa::run_avx2(
                #[inline(always)]
                || rotate_strip(&mut wide, width, &rotations),
            )
            .is_some()
            {
                assert_eq!(bits(&wide), bits(&want), "AVX2 build, width {width}");
            }
        }
    }

    /// Emitting walks the strips but places every element where the
    /// per-element lookup does.
    #[test]
    fn columns_match_the_per_element_lookup() {
        let mut state = 7_u64;
        for n in [1, 5, 64, 65, 130] {
            let zt: Vec<f64> = (0..n * n).map(|_| lcg(&mut state)).collect();
            let strips = Strips::from_rows(&zt, n);
            let order: Vec<usize> = (0..n).map(|c| (c * 7 + 3) % n).collect();
            let order = if n % 7 == 0 {
                (0..n).rev().collect()
            } else {
                order
            };
            let want: Vec<f64> = (0..n * n)
                .map(|x| strips.get(order[x % n], x / n))
                .collect();
            assert_eq!(strips.columns(&order), want, "n = {n}");
        }
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
