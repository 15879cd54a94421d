//! Small dense-vector helpers shared by the solvers and simulators.
//!
//! These are free functions over slices rather than a vector newtype: the
//! callers in `sophie-core` and `sophie-hw` own their buffers (SRAM models,
//! spin copies) and only need the arithmetic.

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
///
/// ```
/// assert_eq!(sophie_linalg::vector::dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
/// ```
#[must_use]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    // One ascending chain from -0.0 (what `Iterator::sum` starts from);
    // `Matrix::gram` reproduces this chain exactly.
    a.iter().zip(b).fold(-0.0, |acc, (x, y)| acc + x * y)
}

/// Lane count for the unrolled `f32` reduction kernels below. Eight `f32`
/// lanes fill one AVX2 register (or two NEON registers), which is what the
/// autovectorizer targets on the platforms we care about.
const LANES: usize = 8;

/// Dot product in `f32`, used on the tiled fast path.
///
/// A single-accumulator reduction cannot be autovectorized under strict
/// float semantics (the additions form a sequential dependency chain), so
/// this kernel keeps `LANES` (8) independent partial sums over
/// `chunks_exact` blocks and tree-reduces them at the end. The summation
/// order differs from the naive loop but is fixed, so results stay
/// bit-reproducible run to run.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[must_use]
pub fn dot_f32(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot_f32: length mismatch");
    let split = a.len() - (a.len() % LANES);
    let (a_main, a_tail) = a.split_at(split);
    let (b_main, b_tail) = b.split_at(split);
    let mut acc = [0.0_f32; LANES];
    for (ca, cb) in a_main.chunks_exact(LANES).zip(b_main.chunks_exact(LANES)) {
        for (l, s) in acc.iter_mut().enumerate() {
            *s += ca[l] * cb[l];
        }
    }
    let mut tail = 0.0_f32;
    for (x, y) in a_tail.iter().zip(b_tail) {
        tail += x * y;
    }
    ((acc[0] + acc[4]) + (acc[1] + acc[5])) + ((acc[2] + acc[6]) + (acc[3] + acc[7])) + tail
}

/// Sum of all entries in `f32`, with the same lane-split reduction (and
/// therefore the same fixed summation order) as [`dot_f32`].
#[must_use]
pub fn sum_f32(a: &[f32]) -> f32 {
    let split = a.len() - (a.len() % LANES);
    let (main, rest) = a.split_at(split);
    let mut acc = [0.0_f32; LANES];
    for chunk in main.chunks_exact(LANES) {
        for (l, s) in acc.iter_mut().enumerate() {
            *s += chunk[l];
        }
    }
    let mut tail = 0.0_f32;
    for &x in rest {
        tail += x;
    }
    ((acc[0] + acc[4]) + (acc[1] + acc[5])) + ((acc[2] + acc[6]) + (acc[3] + acc[7])) + tail
}

/// `y += alpha * x` in `f32` (BLAS `saxpy`). Elementwise with no
/// cross-iteration dependency, so the plain loop vectorizes as-is; the
/// single definition lives in [`crate::kernel::scalar::seq_axpy`].
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn axpy_f32(alpha: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpy_f32: length mismatch");
    crate::kernel::scalar::seq_axpy(alpha, x, y);
}

/// `y += alpha * x` (the BLAS `axpy` kernel).
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Euclidean norm.
///
/// ```
/// assert_eq!(sophie_linalg::vector::norm2(&[3.0, 4.0]), 5.0);
/// ```
#[must_use]
pub fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Largest absolute entry; `0.0` for an empty slice.
#[must_use]
pub fn max_abs(a: &[f64]) -> f64 {
    a.iter().fold(0.0_f64, |m, &x| m.max(x.abs()))
}

/// Sum of all entries.
#[must_use]
pub fn sum(a: &[f64]) -> f64 {
    a.iter().sum()
}

/// Largest absolute difference between two equal-length slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[must_use]
pub fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "max_abs_diff: length mismatch");
    a.iter()
        .zip(b)
        .fold(0.0_f64, |m, (x, y)| m.max((x - y).abs()))
}

/// Scales every entry in place.
pub fn scale(a: &mut [f64], alpha: f64) {
    for x in a {
        *x *= alpha;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_of_orthogonal_vectors_is_zero() {
        assert_eq!(dot(&[1.0, 0.0], &[0.0, 5.0]), 0.0);
    }

    #[test]
    fn dot_empty_is_zero() {
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch_panics() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0, 1.0];
        axpy(2.0, &[1.0, 2.0, 3.0], &mut y);
        assert_eq!(y, vec![3.0, 5.0, 7.0]);
    }

    #[test]
    fn norm2_matches_pythagoras() {
        assert!((norm2(&[1.0, 2.0, 2.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn max_abs_handles_negatives_and_empty() {
        assert_eq!(max_abs(&[-7.0, 3.0]), 7.0);
        assert_eq!(max_abs(&[]), 0.0);
    }

    #[test]
    fn max_abs_diff_is_symmetric() {
        let a = [1.0, 5.0, -2.0];
        let b = [0.5, 7.0, -2.0];
        assert_eq!(max_abs_diff(&a, &b), max_abs_diff(&b, &a));
        assert_eq!(max_abs_diff(&a, &b), 2.0);
    }

    #[test]
    fn scale_by_zero_clears() {
        let mut a = vec![3.0, -4.0];
        scale(&mut a, 0.0);
        assert_eq!(a, vec![0.0, 0.0]);
    }

    #[test]
    fn sum_adds_entries() {
        assert_eq!(sum(&[1.0, 2.0, 3.5]), 6.5);
    }

    #[test]
    fn dot_f32_matches_f64_reference_across_split_boundaries() {
        // Exercise lengths around the 8-lane split: empty, sub-lane, exact
        // multiples, and ragged tails.
        for n in [0usize, 1, 3, 7, 8, 9, 15, 16, 17, 64, 100] {
            let a: Vec<f32> = (0..n).map(|i| (i as f32) * 0.25 - 3.0).collect();
            let b: Vec<f32> = (0..n).map(|i| 1.5 - (i as f32) * 0.125).collect();
            let want: f64 = a
                .iter()
                .zip(&b)
                .map(|(&x, &y)| f64::from(x) * f64::from(y))
                .sum();
            assert!((f64::from(dot_f32(&a, &b)) - want).abs() < 1e-3, "n = {n}");
        }
    }

    #[test]
    fn sum_f32_matches_f64_reference_across_split_boundaries() {
        for n in [0usize, 1, 5, 8, 13, 16, 31, 200] {
            let a: Vec<f32> = (0..n).map(|i| ((i % 11) as f32) - 5.0).collect();
            let want: f64 = a.iter().map(|&x| f64::from(x)).sum();
            assert!((f64::from(sum_f32(&a)) - want).abs() < 1e-4, "n = {n}");
        }
    }

    #[test]
    fn axpy_f32_accumulates() {
        let mut y = vec![1.0_f32; 11];
        let x: Vec<f32> = (0..11).map(|i| i as f32).collect();
        axpy_f32(0.5, &x, &mut y);
        for (i, &v) in y.iter().enumerate() {
            assert_eq!(v, 1.0 + 0.5 * i as f32);
        }
    }

    #[test]
    fn dot_f32_matches_f64_for_small_inputs() {
        let a = [0.5_f32, 1.5, -2.0];
        let b = [2.0_f32, 4.0, 1.0];
        let want = dot(
            &a.iter().map(|&x| f64::from(x)).collect::<Vec<_>>(),
            &b.iter().map(|&x| f64::from(x)).collect::<Vec<_>>(),
        );
        assert!((f64::from(dot_f32(&a, &b)) - want).abs() < 1e-6);
    }
}
