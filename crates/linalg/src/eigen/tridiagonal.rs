//! Householder reduction of a real symmetric matrix to tridiagonal form.
//!
//! This is the classic `tred2` routine (EISPACK / Numerical Recipes
//! lineage): a sequence of Householder reflections zeroes out everything
//! below the first subdiagonal while the product of the reflections is
//! accumulated so the caller can recover eigenvectors of the original
//! matrix.
//!
//! The loops are reorganized for cache friendliness, vector width and the
//! worker pool, and every output element keeps the one sequence of
//! operations of the serial routine, so results do not depend on the
//! thread count or the instruction set:
//!
//! * the `A·w` product over the shrinking symmetric submatrix computes each
//!   row's dot chain side by side with [`CHAINS`] − 1 others, so the chains
//!   overlap instead of waiting on each other;
//! * each reflector's rank-2 update is deferred to the next reflector's
//!   `A·w` pass, which applies it to each block of rows just before it
//!   reads them, so the triangle is streamed once per reflector instead of
//!   twice (the row the next reflector is taken from is updated first);
//! * the accumulation phase works on `Qᵀ`: a column of `Q` only ever mixes
//!   with itself, so each row of `Qᵀ` takes every reflector in turn and the
//!   whole phase is one pool job. Groups of [`LANES`] rows go through it
//!   interleaved in a buffer (`buf[k·LANES + r]`), so each step's dot
//!   chains and updates are contiguous [`LANES`]-wide loops; steps that
//!   reach only part of a group run lane by lane.
//!
//! The fused per-reflector pass runs serially. It streams the whole
//! remaining triangle once per reflector and is bound by memory
//! bandwidth; on a two-core x86-64 host, splitting `A·w` and the rank-2
//! update across both cores measured no faster at n = 800 and n = 2000
//! (G22) and up to twice as slow when the host was busy. The
//! accumulation phase runs inline below [`MIN_PAR_WORK`] element updates
//! (n ≈ 185), where waking the pool costs more than the phase.
//!
//! The fused pass and each accumulation row block run their AVX2 build
//! where the host has it (`crate::isa`), bit-identical to the baseline
//! build. The unit tests compare the fused pass with the rank-2 update
//! followed by the serial matvec sweep, and the accumulation with its
//! plain row-by-row loop, bit for bit, in both builds.

use crate::{isa, par};

/// Element updates below which the accumulation phase runs inline.
const MIN_PAR_WORK: usize = 1 << 21;

/// Rows of `Qᵀ` per pool task in the accumulation phase.
const BLOCK: usize = 32;

/// Dot chains computed side by side in `A·w`.
const CHAINS: usize = 8;

/// Rows of `Qᵀ` that take each accumulation step together, interleaved.
const LANES: usize = 8;

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

    // Whether step i + 1 left its rank-2 update of rows 0..=i pending. Its
    // reflector is row i + 1 and its `g` is `e[..=i]`; the update is applied
    // to row i before step i reads it, and to every other row in the pass
    // that computes step i's `A·w`, so the triangle is streamed once per
    // step. Each element still takes step i + 1's update before step i
    // reads it, as in the serial routine.
    let mut pending = false;
    for i in (1..n).rev() {
        let l = i - 1;
        let (lower, rest) = z.split_at_mut(i * n);
        let (row, next) = rest.split_at_mut(n);
        let prev = pending.then(|| (&next[..=i], &e[..=i]));
        if let Some((w, ev)) = prev {
            rank2_update(&mut row[..=i], n, i, w, ev);
        }
        let mut h = 0.0;
        let scale = if l > 0 {
            row[..=l].iter().fold(0.0, |s, x| s + x.abs())
        } else {
            0.0
        };
        if scale == 0.0 {
            let sub = row[l];
            if let Some((w, ev)) = prev {
                isa::run(
                    #[inline(always)]
                    || rank2_update(lower, n, 0, w, ev),
                );
            }
            e[i] = sub;
            pending = false;
        } else {
            for x in &mut row[..=l] {
                *x /= scale;
                h += *x * *x;
            }
            let mut f = row[l];
            let g = if f >= 0.0 { -h.sqrt() } else { h.sqrt() };
            h -= f * g;
            row[l] = f - g;

            // g_vec = A·w over the (l+1)×(l+1) symmetric submatrix held in
            // the lower triangle, taking step i + 1's update on the way.
            let (w, g_out) = (&row[..=l], &mut g_vec[..=l]);
            isa::run(
                #[inline(always)]
                || update_and_matvec(lower, n, prev, w, g_out),
            );
            e[i] = scale * g;

            f = 0.0;
            for j in 0..=l {
                lower[j * n + i] = row[j] / h;
                e[j] = g_vec[j] / h;
                f += e[j] * row[j];
            }
            let hh = f / (h + h);
            // New e holds g_j = e_j − hh·w_j (finalize before the
            // rank-2 update so rows become independent).
            for j in 0..=l {
                e[j] -= hh * row[j];
            }
            pending = true;
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

/// Rank-2 update of the rows `j0..` of the lower triangle held in
/// `lower` (row stride `n`): `A[j][k] -= w_j·e_k + g_j·w_k` for `k ≤ j`,
/// with `g = ev`.
#[inline(always)]
fn rank2_update(lower: &mut [f64], n: usize, j0: usize, w: &[f64], ev: &[f64]) {
    for (j, row) in lower.chunks_mut(n).enumerate() {
        let j = j0 + j;
        let fj = w[j];
        let gj = ev[j];
        for (k, a) in row[..=j].iter_mut().enumerate() {
            *a -= fj * ev[k] + gj * w[k];
        }
    }
}

/// The accumulation phase on the rows `row0..` of `Qᵀ` held in `chunk`.
/// Each group of [`LANES`] rows is copied once into a buffer that holds
/// them interleaved (`buf[k·LANES + r]` is column `k` of the group's row
/// `r`), so every step that reaches the whole group reads and writes
/// whole lanes of consecutive memory. Row `j` joins at step `j + 1`, so
/// the steps before `j0 + LANES` run lane by lane (lanes are independent,
/// so each still takes its steps in order). A short group, or one that no
/// step reaches whole, goes row by row in place.
#[inline(always)]
fn accumulate(chunk: &mut [f64], n: usize, row0: usize, reflectors: &[f64], steps: &[bool]) {
    let mut buf = vec![0.0; LANES * n];
    for (g, group) in chunk.chunks_mut(LANES * n).enumerate() {
        let j0 = row0 + g * LANES;
        if group.len() < LANES * n || j0 + LANES >= n {
            for (r, row) in group.chunks_mut(n).enumerate() {
                apply_steps(row, 1, j0 + r + 1..n, reflectors, steps);
            }
            continue;
        }
        for (r, row) in group.chunks_exact(n).enumerate() {
            for (lane, &x) in buf.chunks_exact_mut(LANES).zip(row) {
                lane[r] = x;
            }
        }
        for r in 0..LANES {
            apply_steps(
                &mut buf[r..],
                LANES,
                j0 + r + 1..j0 + LANES,
                reflectors,
                steps,
            );
        }
        for i in j0 + LANES..n {
            if steps[i] {
                let (w, v) = reflector(reflectors, i);
                reflect_lanes(&mut buf[..i * LANES], w, v);
            }
        }
        for (r, row) in group.chunks_exact_mut(n).enumerate() {
            for (x, lane) in row.iter_mut().zip(buf.chunks_exact(LANES)) {
                *x = lane[r];
            }
        }
    }
}

/// Step `i`'s `(w, v)`, as copied out by [`tridiagonalize`].
#[inline(always)]
fn reflector(reflectors: &[f64], i: usize) -> (&[f64], &[f64]) {
    let off = i * (i - 1);
    reflectors[off..off + 2 * i].split_at(i)
}

/// The steps `range` (those taken) on the one row of `Qᵀ` whose column `k`
/// is `y[k·stride]`.
#[inline(always)]
fn apply_steps(
    y: &mut [f64],
    stride: usize,
    range: std::ops::Range<usize>,
    reflectors: &[f64],
    steps: &[bool],
) {
    for i in range {
        if steps[i] {
            let (w, v) = reflector(reflectors, i);
            reflect_lane(y, stride, w, v);
        }
    }
}

/// One reflector step on all [`LANES`] interleaved rows: per lane,
/// `g = Σ_k w_k·y_k` from `+0.0` in ascending `k` (zero `w_k` skipped),
/// then `y_k -= v_k·g` (zero `v_k` skipped), for `k < w.len()`.
#[inline(always)]
fn reflect_lanes(ys: &mut [f64], w: &[f64], v: &[f64]) {
    let (ys, _) = ys.as_chunks_mut::<LANES>();
    let mut g = [0.0; LANES];
    for (&wk, y) in w.iter().zip(ys.iter()) {
        if wk != 0.0 {
            for (gr, &yr) in g.iter_mut().zip(y) {
                *gr += wk * yr;
            }
        }
    }
    for (&vk, y) in v.iter().zip(ys.iter_mut()) {
        if vk != 0.0 {
            for (yr, &gr) in y.iter_mut().zip(&g) {
                *yr -= vk * gr;
            }
        }
    }
}

/// The same step on the one row whose column `k` is `y[k·stride]`.
#[inline(always)]
fn reflect_lane(y: &mut [f64], stride: usize, w: &[f64], v: &[f64]) {
    let mut g = 0.0;
    for (k, &wk) in w.iter().enumerate() {
        if wk != 0.0 {
            g += wk * y[k * stride];
        }
    }
    for (k, &vk) in v.iter().enumerate() {
        if vk != 0.0 {
            y[k * stride] -= vk * g;
        }
    }
}

/// `g = A·w` for the symmetric `m × m` matrix (`m = w.len()`) held in the
/// lower triangle of the row-major `lower` (row stride `n`), after the
/// rank-2 update `prev` (`(w, g)` of [`rank2_update`]), if any, of those
/// rows.
///
/// Entry `j` is `0.0 + acc_j`, where `acc_j = A[j][j]·w_j + Σ_{t<j}
/// A[j][t]·w_t` in ascending `t`, followed by the mirrored terms
/// `A[k][j]·w_k` in ascending `k > j`: the order of a serial row sweep
/// that adds each row's mirrored column contributions as it goes. The
/// sweep goes [`CHAINS`] rows at a time: it updates them, computes their
/// dot chains side by side, and adds their mirrored terms, so each row
/// is read from memory once.
#[inline(always)]
fn update_and_matvec(
    lower: &mut [f64],
    n: usize,
    prev: Option<(&[f64], &[f64])>,
    w: &[f64],
    g: &mut [f64],
) {
    let m = w.len();
    for j0 in (0..m).step_by(CHAINS) {
        let rows = CHAINS.min(m - j0);
        if let Some((pw, pev)) = prev {
            rank2_update(&mut lower[j0 * n..(j0 + rows) * n], n, j0, pw, pev);
        }
        let out = &mut g[j0..j0 + rows];
        if rows == CHAINS {
            row_dots::<CHAINS>(lower, n, w, j0, out);
        } else {
            for (r, o) in out.chunks_mut(1).enumerate() {
                row_dots::<1>(lower, n, w, j0 + r, o);
            }
        }
        for k in j0.max(1)..j0 + rows {
            let wk = w[k];
            for (gj, &a) in g[..k].iter_mut().zip(&lower[k * n..k * n + k]) {
                *gj += a * wk;
            }
        }
    }
}

/// Writes `0.0 + acc_j` for the `R` rows `j = j0..j0+R` into `out` (see
/// [`update_and_matvec`]), the chains side by side over their shared
/// prefix `t < j0`.
#[inline(always)]
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

    /// The serial row sweep whose summation order `update_and_matvec`
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

    /// The fused pass gives the bits of the rank-2 update over every row
    /// followed by the serial sweep, in its baseline and (where the host
    /// has AVX2) its AVX2 build, with and without a pending update and at
    /// sizes that are not multiples of [`CHAINS`].
    #[test]
    fn fused_update_and_matvec_match_the_separate_passes_bitwise() {
        for (n, m) in [(45, 41), (20, 16), (9, 1), (30, 29)] {
            let lower = random_values(n * m, 7 + m as u64);
            let w = random_values(m, 8);
            let pw = random_values(m + 1, 9);
            let pev = random_values(m + 1, 10);
            for prev in [None, Some((&pw[..], &pev[..]))] {
                let mut want_a = lower.clone();
                if let Some((pw, pev)) = prev {
                    rank2_update(&mut want_a, n, 0, pw, pev);
                }
                let want_g = serial_matvec(&want_a, n, &w);
                let mut a = lower.clone();
                let mut g = vec![f64::NAN; m];
                update_and_matvec(&mut a, n, prev, &w, &mut g);
                assert_eq!(bits(&a), bits(&want_a), "baseline A, m = {m}");
                assert_eq!(bits(&g), bits(&want_g), "baseline g, m = {m}");
                let mut a = lower.clone();
                let mut g = vec![f64::NAN; m];
                if isa::run_avx2(
                    #[inline(always)]
                    || update_and_matvec(&mut a, n, prev, &w, &mut g),
                )
                .is_some()
                {
                    assert_eq!(bits(&a), bits(&want_a), "AVX2 A, m = {m}");
                    assert_eq!(bits(&g), bits(&want_g), "AVX2 g, m = {m}");
                }
            }
        }
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

    /// The plain accumulation loop that [`accumulate`] restructures: each
    /// row `j` of `Qᵀ` in turn takes every step `i > j`, one dot chain and
    /// one update at a time.
    fn accumulate_reference(
        chunk: &mut [f64],
        n: usize,
        row0: usize,
        reflectors: &[f64],
        steps: &[bool],
    ) {
        for (r, y) in chunk.chunks_mut(n).enumerate() {
            for i in (row0 + r + 1)..n {
                if !steps[i] {
                    continue;
                }
                let off = i * (i - 1);
                let (w, v) = (&reflectors[off..off + i], &reflectors[off + i..off + 2 * i]);
                let mut g = 0.0;
                for k in 0..i {
                    if w[k] != 0.0 {
                        g += w[k] * y[k];
                    }
                }
                for k in 0..i {
                    if v[k] != 0.0 {
                        y[k] -= v[k] * g;
                    }
                }
            }
        }
    }

    /// [`accumulate`] matches the plain loop bit for bit, in its baseline
    /// build and (where the host has AVX2) its AVX2 build: with zero `w_k`
    /// and `v_k` and skipped steps, partial steps, a whole group that no
    /// step reaches whole, and last groups of 1 to 7 rows.
    #[test]
    fn accumulation_matches_the_plain_loop_bitwise() {
        let mut seed = 10;
        for (n, rows, row0) in [
            (37, 21, 3),
            (40, 16, 0),
            (29, 29, 0),
            (16, 16, 0),
            (12, 7, 5),
            (9, 1, 8),
        ] {
            seed += 3;
            let reflectors = random_values(n * (n - 1), seed);
            let steps: Vec<bool> = random_values(n, seed + 1)
                .iter()
                .map(|&x| x != 0.0)
                .collect();
            let qt = random_values(rows * n, seed + 2);
            let mut want = qt.clone();
            accumulate_reference(&mut want, n, row0, &reflectors, &steps);
            let mut base = qt.clone();
            accumulate(&mut base, n, row0, &reflectors, &steps);
            assert_eq!(
                bits(&base),
                bits(&want),
                "baseline build, n = {n}, row0 = {row0}"
            );
            let mut wide = qt;
            if isa::run_avx2(
                #[inline(always)]
                || accumulate(&mut wide, n, row0, &reflectors, &steps),
            )
            .is_some()
            {
                assert_eq!(
                    bits(&wide),
                    bits(&want),
                    "AVX2 build, n = {n}, row0 = {row0}"
                );
            }
        }
    }

    /// The AVX2 build of the rank-2 update matches its baseline build bit
    /// for bit, at lengths that are not multiples of the vector width.
    /// Skipped on hosts without AVX2.
    #[test]
    fn avx2_rank2_update_matches_the_baseline_build_bitwise() {
        let (n, m) = (45, 41);
        let w = random_values(m, 1);
        let ev = random_values(m, 2);
        let lower = random_values(n * m, 3);
        let mut base = lower.clone();
        rank2_update(&mut base, n, 0, &w, &ev);
        let mut wide = lower;
        if isa::run_avx2(
            #[inline(always)]
            || rank2_update(&mut wide, n, 0, &w, &ev),
        )
        .is_none()
        {
            eprintln!("host has no AVX2; skipping");
            return;
        }
        assert_eq!(bits(&wide), bits(&base), "rank-2 update");
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
