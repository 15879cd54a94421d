//! Scalar reference kernels and the deduped sequential helpers.
//!
//! This file is the single home of the plain sequential inner loops that
//! `vector.rs` and `tile.rs` used to duplicate. Everything here
//! accumulates in ascending index order from `+0.0` — the canonical order
//! the whole kernel stack is bit-identical to.

/// `y[i] += alpha * x[i]` — the sequential axpy every kernel and the
/// public [`crate::vector::axpy_f32`] delegate to.
#[inline(always)]
pub fn seq_axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Sequential dot product `Σ_i x[i]·y[i]`, ascending `i`, from `+0.0`.
///
/// This is *not* the lane-reduced [`crate::vector::dot_f32`]: that one
/// trades the canonical order for speed and serves thresholds/row-sums;
/// this one is the bitwise reference the MVM kernels are held to.
#[inline]
#[must_use]
pub fn seq_dot(x: &[f32], y: &[f32]) -> f32 {
    let mut acc = 0.0_f32;
    for (xi, yi) in x.iter().zip(y) {
        acc += xi * yi;
    }
    acc
}

/// The scalar reference MVM: for each live output, a unit-stride
/// sequential row dot over the output-major operand; padded outputs are
/// zeroed. Every other variant in the stack must match this bitwise.
pub fn scalar_sweep(
    mat_om: &[f32],
    t: usize,
    k_used: usize,
    out_used: usize,
    x: &[f32],
    y: &mut [f32],
) {
    for (o, yo) in y.iter_mut().take(out_used).enumerate() {
        *yo = seq_dot(&mat_om[o * t..o * t + k_used], &x[..k_used]);
    }
    y[out_used..].fill(0.0);
}

/// The pre-refactor `Tile::mvm` shape: a k-major sweep of axpy calls
/// skipping exact-zero inputs. Zero terms are bitwise invisible to a
/// `+0.0`-seeded ascending sum, so the skip cannot change any output
/// bit — only wall-clock on sparse inputs.
#[inline(always)]
pub fn axpy_sweep(
    mat_km: &[f32],
    t: usize,
    k_used: usize,
    out_used: usize,
    x: &[f32],
    y: &mut [f32],
) {
    y.fill(0.0);
    for (k, &xk) in x.iter().take(k_used).enumerate() {
        if xk != 0.0 {
            seq_axpy(xk, &mat_km[k * t..k * t + out_used], &mut y[..out_used]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn small_f32() -> impl Strategy<Value = f32> {
        (-16i32..=16).prop_map(|v| if v % 4 == 0 { 0.0 } else { v as f32 / 2.0 })
    }

    proptest! {
        /// The deduped helpers agree bitwise with their literal
        /// sequential definitions.
        #[test]
        fn helpers_match_literal_sequential_loops(
            x in (1usize..40).prop_flat_map(|n| proptest::collection::vec(small_f32(), n)),
            alpha in small_f32(),
            seed in 0u64..u64::MAX,
        ) {
            let n = x.len();
            let y0: Vec<f32> = (0..n).map(|i| ((seed >> (i % 48)) & 7) as f32 - 3.0).collect();

            // seq_axpy
            let mut got = y0.clone();
            seq_axpy(alpha, &x, &mut got);
            let want: Vec<f32> = y0.iter().zip(&x).map(|(yi, xi)| yi + alpha * xi).collect();
            prop_assert_eq!(
                got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );

            // seq_dot
            let mut acc = 0.0_f32;
            for i in 0..n { acc += x[i] * y0[i]; }
            prop_assert_eq!(seq_dot(&x, &y0).to_bits(), acc.to_bits());
        }

        /// The axpy sweep's zero-skip is bitwise invisible next to the
        /// scalar reference on a transpose-consistent operand pair.
        #[test]
        fn axpy_sweep_matches_scalar_sweep(
            t in 1usize..24,
            seed in 0u64..u64::MAX,
        ) {
            let mut state = seed | 1;
            let mut next = move || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((state >> 40) as f32) / ((1u64 << 22) as f32) - 2.0
            };
            let mat_om: Vec<f32> = (0..t * t)
                .map(|i| if i % 5 == 0 { 0.0 } else { next() })
                .collect();
            let mut mat_km = vec![0.0_f32; t * t];
            for r in 0..t {
                for c in 0..t {
                    mat_km[c * t + r] = mat_om[r * t + c];
                }
            }
            let x: Vec<f32> = (0..t).map(|i| if i % 3 == 0 { 0.0 } else { next() }).collect();
            let used = t - (seed as usize % t).min(t - 1);
            let mut want = vec![f32::NAN; t];
            scalar_sweep(&mat_om, t, used, used, &x, &mut want);
            let mut got = vec![f32::NAN; t];
            axpy_sweep(&mat_km, t, used, used, &x, &mut got);
            prop_assert_eq!(
                got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }
    }
}
