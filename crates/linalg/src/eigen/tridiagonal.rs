//! Householder reduction of a real symmetric matrix to tridiagonal form.
//!
//! This is the classic `tred2` routine (EISPACK / Numerical Recipes
//! lineage): a sequence of Householder reflections zeroes out everything
//! below the first subdiagonal while the product of the reflections is
//! accumulated so the caller can recover eigenvectors of the original
//! matrix.
//!
//! The loops are reorganized for cache friendliness and the worker pool,
//! and every output element keeps the one summation order of the serial
//! routine, so results do not depend on the thread count:
//!
//! * the `A·w` product over the shrinking symmetric submatrix computes each
//!   row's dot chain side by side with [`CHAINS`] − 1 others, so the chains
//!   overlap instead of waiting on each other;
//! * the accumulation phase works on `Qᵀ`: a column of `Q` only ever mixes
//!   with itself, so each row of `Qᵀ` takes every reflector in turn and the
//!   whole phase is one pool job.
//!
//! The two per-reflector passes (`A·w` and the rank-2 update) run serially.
//! Each streams the whole remaining triangle once per reflector and is
//! bound by memory bandwidth; on a two-core x86-64 host, splitting them
//! across both cores measured no faster at n = 800 and n = 2000 (G22) and
//! up to twice as slow when the host was busy. The accumulation phase runs
//! inline below [`MIN_PAR_WORK`] element updates (n ≈ 185), where waking
//! the pool costs more than the phase.
//!
//! The rank-2 update and each accumulation row block run their AVX2
//! build where the host has it (`crate::isa`), bit-identical to the
//! baseline build. `A·w` measured no faster under AVX2 and stays as
//! built.

use crate::{isa, par};

/// Element updates below which the accumulation phase runs inline.
const MIN_PAR_WORK: usize = 1 << 21;

/// Rows of `Qᵀ` per pool task in the accumulation phase.
const BLOCK: usize = 32;

/// Dot chains computed side by side.
const CHAINS: usize = 8;

/// Reduces the symmetric matrix stored row-major in `z` (size `n × n`) to
/// tridiagonal form.
///
/// On return, `z` holds the *transpose* of the accumulated orthogonal
/// transformation `Q` (`A = Q T Qᵀ`), and the returned `(d, e)` hold the
/// diagonal and subdiagonal of `T` (`e[0]` is unused and set to zero,
/// `e[i]` couples `d[i-1]` and `d[i]`).
///
/// The caller guarantees `z.len() == n * n` and symmetry of the input; this
/// is enforced by [`crate::eigen::symmetric_eigen`].
pub(crate) fn tridiagonalize(z: &mut [f64], n: usize) -> (Vec<f64>, Vec<f64>) {
    debug_assert_eq!(z.len(), n * n);
    let mut d = vec![0.0; n];
    let mut e = vec![0.0; n];
    if n == 0 {
        return (d, e);
    }
    if n == 1 {
        d[0] = z[0];
        z[0] = 1.0;
        return (d, e);
    }

    let mut g_vec = vec![0.0; n];

    for i in (1..n).rev() {
        let l = i - 1;
        let mut h = 0.0;
        if l > 0 {
            let mut scale = 0.0;
            for k in 0..=l {
                scale += z[i * n + k].abs();
            }
            if scale == 0.0 {
                e[i] = z[i * n + l];
            } else {
                for k in 0..=l {
                    z[i * n + k] /= scale;
                    h += z[i * n + k] * z[i * n + k];
                }
                let mut f = z[i * n + l];
                let g = if f >= 0.0 { -h.sqrt() } else { h.sqrt() };
                e[i] = scale * g;
                h -= f * g;
                z[i * n + l] = f - g;

                // ---- g_vec = A · w over the (l+1)×(l+1) symmetric
                // submatrix stored in the lower triangle. ----
                {
                    let (lower, wrow) = z.split_at(i * n);
                    lower_symmetric_matvec(lower, n, &wrow[..=l], &mut g_vec[..=l]);
                }

                f = 0.0;
                for j in 0..=l {
                    z[j * n + i] = z[i * n + j] / h;
                    e[j] = g_vec[j] / h;
                    f += e[j] * z[i * n + j];
                }
                let hh = f / (h + h);
                // New e holds g_j = e_j − hh·w_j (finalize before the
                // rank-2 update so rows become independent).
                for j in 0..=l {
                    e[j] -= hh * z[i * n + j];
                }
                let (lower, wrow) = z.split_at_mut(i * n);
                let (w, ev) = (&wrow[..=l], &e[..=l]);
                isa::run(
                    #[inline(always)]
                    || rank2_update(lower, n, w, ev),
                );
            }
        } else {
            e[i] = z[i * n + l];
        }
        d[i] = h;
    }

    // Accumulate the transformation. Step i (for h_i = d[i] ≠ 0) applies
    // the reflector with w = z[i][0..i] and v = z[0..i][i] = w/h to every
    // column j < i of Q: g_j = Σ_k w_k·Q[k][j] over ascending k (skipping
    // zero w_k), then Q[k][j] -= v_k·g_j (skipping zero v_k). Column j of Q
    // starts as e_j at step j, so it never reads another column: the pass
    // runs on rows of Qᵀ, each row taking its steps in order. The steps
    // overwrite the reflectors in z, so they are copied out first, step
    // i's w then v at offset i·(i−1).
    let mut reflectors = Vec::with_capacity(n * (n - 1));
    for i in 1..n {
        reflectors.extend_from_slice(&z[i * n..i * n + i]);
        reflectors.extend((0..i).map(|k| z[k * n + i]));
    }
    // d[0] is never written above, so step 0 is always skipped.
    let steps: Vec<bool> = d.iter().map(|&h| h != 0.0).collect();
    e[0] = 0.0;
    for i in 0..n {
        d[i] = z[i * n + i];
    }
    z.fill(0.0);
    for j in 0..n {
        z[j * n + j] = 1.0;
    }
    let blocks = if n * n * n / 3 < MIN_PAR_WORK {
        1
    } else {
        n.div_ceil(BLOCK)
    };
    par::for_each_row_chunk_mut(z, n, blocks, |row0, chunk| {
        isa::run(
            #[inline(always)]
            || accumulate(chunk, n, row0, &reflectors, &steps),
        );
    });
    (d, e)
}

/// Rank-2 update of the lower triangle held in `lower` (row stride `n`):
/// `A[j][k] -= w_j·e_k + g_j·w_k` for `k ≤ j < w.len()`, with `g = ev`.
#[inline(always)]
fn rank2_update(lower: &mut [f64], n: usize, w: &[f64], ev: &[f64]) {
    for (j, row) in lower.chunks_mut(n).enumerate() {
        let fj = w[j];
        let gj = ev[j];
        for (k, a) in row[..=j].iter_mut().enumerate() {
            *a -= fj * ev[k] + gj * w[k];
        }
    }
}

/// The accumulation phase on the rows `row0..` of `Qᵀ` held in `chunk`:
/// groups of [`CHAINS`] rows side by side, a short last group row by row.
#[inline(always)]
fn accumulate(chunk: &mut [f64], n: usize, row0: usize, reflectors: &[f64], steps: &[bool]) {
    for (g, group) in chunk.chunks_mut(CHAINS * n).enumerate() {
        let j0 = row0 + g * CHAINS;
        if group.len() == CHAINS * n {
            apply_reflectors::<CHAINS>(group, n, j0, reflectors, steps);
        } else {
            for (r, row) in group.chunks_mut(n).enumerate() {
                apply_reflectors::<1>(row, n, j0 + r, reflectors, steps);
            }
        }
    }
}

/// Applies every reflector step `i > j0` to the `R` rows `j0..j0+R` of
/// `Qᵀ` held in `rows`. Row `j` joins at step `j + 1`, so steps that reach
/// only part of the group go row by row.
#[inline(always)]
fn apply_reflectors<const R: usize>(
    rows: &mut [f64],
    n: usize,
    j0: usize,
    reflectors: &[f64],
    steps: &[bool],
) {
    for i in (j0 + 1)..n {
        if !steps[i] {
            continue;
        }
        let off = i * (i - 1);
        let w = &reflectors[off..off + i];
        let v = &reflectors[off + i..off + 2 * i];
        let active = i - j0;
        if active >= R {
            reflect::<R>(rows, n, w, v);
        } else {
            for row in rows.chunks_mut(n).take(active) {
                reflect::<1>(row, n, w, v);
            }
        }
    }
}

/// One reflector step on `R` rows of `Qᵀ`: `g = Σ_k w_k·y_k` from `+0.0`
/// in ascending `k` (zero `w_k` skipped), then `y_k -= v_k·g` (zero `v_k`
/// skipped), for `k < w.len()`. The `R` dot chains run side by side.
#[inline(always)]
fn reflect<const R: usize>(rows: &mut [f64], n: usize, w: &[f64], v: &[f64]) {
    let i = w.len();
    let mut g = [0.0; R];
    {
        let ys: [&[f64]; R] = std::array::from_fn(|r| &rows[r * n..r * n + i]);
        for (k, &wk) in w.iter().enumerate() {
            if wk != 0.0 {
                for (gr, y) in g.iter_mut().zip(&ys) {
                    *gr += wk * y[k];
                }
            }
        }
    }
    for (row, &gr) in rows.chunks_mut(n).zip(&g) {
        for (a, &vk) in row[..i].iter_mut().zip(v) {
            if vk != 0.0 {
                *a -= vk * gr;
            }
        }
    }
}

/// `g = A·w` for the symmetric `m × m` matrix (`m = w.len()`) held in the
/// lower triangle of the row-major `lower` (row stride `n`).
///
/// Entry `j` is `0.0 + acc_j`, where `acc_j = A[j][j]·w_j + Σ_{t<j}
/// A[j][t]·w_t` in ascending `t`, followed by the mirrored terms
/// `A[k][j]·w_k` in ascending `k > j`: the order of a serial row sweep
/// that adds each row's mirrored column contributions as it goes.
fn lower_symmetric_matvec(lower: &[f64], n: usize, w: &[f64], g: &mut [f64]) {
    for (c, out) in g.chunks_mut(CHAINS).enumerate() {
        let j0 = c * CHAINS;
        if out.len() == CHAINS {
            row_dots::<CHAINS>(lower, n, w, j0, out);
        } else {
            for (r, o) in out.chunks_mut(1).enumerate() {
                row_dots::<1>(lower, n, w, j0 + r, o);
            }
        }
    }
    for (k, &wk) in w.iter().enumerate().skip(1) {
        for (gj, &a) in g.iter_mut().zip(&lower[k * n..k * n + k]) {
            *gj += a * wk;
        }
    }
}

/// Writes `0.0 + acc_j` for the `R` rows `j = j0..j0+R` into `out` (see
/// [`lower_symmetric_matvec`]), the chains side by side over their shared
/// prefix `t < j0`.
fn row_dots<const R: usize>(lower: &[f64], n: usize, w: &[f64], j0: usize, out: &mut [f64]) {
    let mut acc: [f64; R] = std::array::from_fn(|r| lower[(j0 + r) * (n + 1)] * w[j0 + r]);
    let rows: [&[f64]; R] = std::array::from_fn(|r| &lower[(j0 + r) * n..(j0 + r) * n + j0 + r]);
    for (t, &wt) in w[..j0].iter().enumerate() {
        for (a, row) in acc.iter_mut().zip(&rows) {
            *a += row[t] * wt;
        }
    }
    for ((a, row), o) in acc.iter_mut().zip(&rows).zip(out) {
        for (&x, &wt) in row[j0..].iter().zip(&w[j0..]) {
            *a += x * wt;
        }
        *o = 0.0 + *a;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matrix;

    /// Rebuilds `Q T Qᵀ` from the tridiagonalization output (`qt = Qᵀ`).
    fn reconstruct(qt: &[f64], d: &[f64], e: &[f64], n: usize) -> Matrix {
        let qm = Matrix::from_vec(n, n, qt.to_vec()).unwrap().transposed();
        let mut t = Matrix::zeros(n, n);
        for i in 0..n {
            t[(i, i)] = d[i];
            if i > 0 {
                t[(i, i - 1)] = e[i];
                t[(i - 1, i)] = e[i];
            }
        }
        qm.matmul(&t).unwrap().matmul(&qm.transposed()).unwrap()
    }

    fn check_roundtrip(a: &Matrix) {
        let n = a.rows();
        let mut z = a.as_slice().to_vec();
        let (d, e) = tridiagonalize(&mut z, n);
        let back = reconstruct(&z, &d, &e, n);
        assert!(
            back.max_abs_diff(a) < 1e-9 * (1.0 + a.max_abs()),
            "reconstruction error {:e}",
            back.max_abs_diff(a)
        );
        // Q must be orthogonal.
        let qm = Matrix::from_vec(n, n, z).unwrap();
        let qtq = qm.transposed().matmul(&qm).unwrap();
        assert!(qtq.max_abs_diff(&Matrix::identity(n)) < 1e-10);
    }

    /// The serial row sweep whose summation order `lower_symmetric_matvec`
    /// keeps: row `k` adds its dot chain to `g[k]` and its mirrored terms
    /// to `g[j]`, `j < k`.
    fn serial_matvec(lower: &[f64], n: usize, w: &[f64]) -> Vec<f64> {
        let mut g = vec![0.0; w.len()];
        for (k, &wk) in w.iter().enumerate() {
            let mut acc = lower[k * n + k] * wk;
            for j in 0..k {
                acc += lower[k * n + j] * w[j];
                g[j] += lower[k * n + j] * wk;
            }
            g[k] += acc;
        }
        g
    }

    #[test]
    fn symmetric_matvec_keeps_the_serial_sweep_order() {
        let (n, m) = (45, 41);
        let lower: Vec<f64> = (0..n * n)
            .map(|x| ((x * 37 % 101) as f64 - 50.0) / 7.0)
            .collect();
        let w: Vec<f64> = (0..m)
            .map(|x| ((x * 53 % 29) as f64 - 14.0) / 3.0)
            .collect();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut g = vec![f64::NAN; m];
        lower_symmetric_matvec(&lower, n, &w, &mut g);
        assert_eq!(bits(&g), bits(&serial_matvec(&lower, n, &w)));
    }

    /// Pseudo-random values in [-2, 2), about one in eight exactly zero so
    /// the skip branches run.
    fn random_values(len: usize, seed: u64) -> Vec<f64> {
        let mut state = seed | 1;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                if state >> 61 == 0 {
                    0.0
                } else {
                    (state >> 11) as f64 / (1_u64 << 53) as f64 * 4.0 - 2.0
                }
            })
            .collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The AVX2 build of the rank-2 update and of the accumulation phase
    /// matches their baseline build bit for bit, at lengths that are not
    /// multiples of the vector width. Skipped on hosts without AVX2.
    #[test]
    fn avx2_builds_match_the_baseline_builds_bitwise() {
        let (n, m) = (45, 41);
        let w = random_values(m, 1);
        let ev = random_values(m, 2);
        let lower = random_values(n * m, 3);
        let mut base = lower.clone();
        rank2_update(&mut base, n, &w, &ev);
        let mut wide = lower;
        if isa::run_avx2(
            #[inline(always)]
            || rank2_update(&mut wide, n, &w, &ev),
        )
        .is_none()
        {
            eprintln!("host has no AVX2; skipping");
            return;
        }
        assert_eq!(bits(&wide), bits(&base), "rank-2 update");

        let (n, rows, row0) = (37, 21, 3);
        let reflectors = random_values(n * (n - 1), 4);
        let steps: Vec<bool> = random_values(n, 5).iter().map(|&x| x != 0.0).collect();
        let qt = random_values(rows * n, 6);
        let mut base = qt.clone();
        accumulate(&mut base, n, row0, &reflectors, &steps);
        let mut wide = qt;
        isa::run_avx2(
            #[inline(always)]
            || accumulate(&mut wide, n, row0, &reflectors, &steps),
        );
        assert_eq!(bits(&wide), bits(&base), "accumulation");
    }

    #[test]
    fn roundtrip_small_dense() {
        let a = Matrix::from_rows(&[
            &[4.0, 1.0, -2.0, 2.0],
            &[1.0, 2.0, 0.0, 1.0],
            &[-2.0, 0.0, 3.0, -2.0],
            &[2.0, 1.0, -2.0, -1.0],
        ])
        .unwrap();
        check_roundtrip(&a);
    }

    #[test]
    fn roundtrip_pseudorandom_symmetric() {
        let n = 24;
        let raw = Matrix::from_fn(n, n, |r, c| (((r * 37 + c * 17) % 29) as f64) / 7.0 - 2.0);
        let a = Matrix::from_fn(n, n, |r, c| 0.5 * (raw[(r, c)] + raw[(c, r)]));
        check_roundtrip(&a);
    }

    #[test]
    fn roundtrip_large_enough_for_parallel_chunks() {
        let n = 150;
        let raw = Matrix::from_fn(n, n, |r, c| (((r * 13 + c * 41) % 53) as f64) / 9.0 - 2.5);
        let a = Matrix::from_fn(n, n, |r, c| 0.5 * (raw[(r, c)] + raw[(c, r)]));
        check_roundtrip(&a);
    }

    #[test]
    fn handles_one_by_one() {
        let mut z = vec![5.0];
        let (d, e) = tridiagonalize(&mut z, 1);
        assert_eq!(d, vec![5.0]);
        assert_eq!(e, vec![0.0]);
        assert_eq!(z, vec![1.0]);
    }

    #[test]
    fn handles_two_by_two() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]).unwrap();
        check_roundtrip(&a);
    }

    #[test]
    fn already_tridiagonal_input_stays_faithful() {
        let mut a = Matrix::zeros(6, 6);
        for i in 0..6 {
            a[(i, i)] = i as f64 + 1.0;
            if i > 0 {
                a[(i, i - 1)] = 0.5;
                a[(i - 1, i)] = 0.5;
            }
        }
        check_roundtrip(&a);
    }

    #[test]
    fn zero_matrix_roundtrips() {
        check_roundtrip(&Matrix::zeros(5, 5));
    }
}
