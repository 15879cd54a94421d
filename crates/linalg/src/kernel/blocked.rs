//! The cache-blocked register-blocking kernel.
//!
//! The speed here comes entirely from instruction-level parallelism
//! *across outputs*: a block of `L` outputs is held in registers and the
//! k-loop feeds all `L` chains per iteration (one broadcast `x[k]`, `L`
//! unit-stride loads, `L` independent mul-then-add chains). Each chain is
//! still one output's sequential ascending-k sum from `+0.0`, so every
//! `(L, U)` shape is bit-identical to the scalar reference — LLVM can
//! vectorize the lane loop (f32x4 in the baseline build, f32x8 in the
//! AVX2 build that `crate::isa` dispatches to) precisely because the
//! lanes are independent, and it cannot reassociate within a chain (no
//! `-ffast-math` in Rust) or contract to FMA (never implicit). Outputs
//! past the last full block of `L` run in blocks of 8 lanes, so a tile
//! size that is not a multiple of 32 leaves at most 7 strided scalar
//! chains.
//!
//! `U` unrolls the k-loop of the *same* chains — more in-flight adds per
//! lane without extra accumulators (extra accumulators per output would
//! reassociate the sum and change bits; deliberately not offered).

/// Output lanes of the blocks that run the outputs past the last full
/// block of `L`.
const TAIL_LANES: usize = 8;

/// Register-blocked k-major sweep: `y[o] = Σ_k mat_km[k·t + o]·x[k]` for
/// `o < out_used`, zero above. `L` = output lanes per block, `U` = k-loop
/// unroll. Outputs past the last full block of `L` run in blocks of
/// `TAIL_LANES` (8), and the few left after those as strided scalar chains.
#[inline(always)]
pub fn sweep<const L: usize, const U: usize>(
    mat_km: &[f32],
    t: usize,
    k_used: usize,
    out_used: usize,
    x: &[f32],
    y: &mut [f32],
) {
    let mut o = 0;
    while o + L <= out_used {
        lanes::<L, U>(mat_km, t, k_used, o, x, &mut y[o..o + L]);
        o += L;
    }
    while o + TAIL_LANES <= out_used {
        lanes::<TAIL_LANES, U>(mat_km, t, k_used, o, x, &mut y[o..o + TAIL_LANES]);
        o += TAIL_LANES;
    }
    // Remaining outputs: strided scalar chains, same ascending-k order.
    for (out, yo) in y.iter_mut().enumerate().take(out_used).skip(o) {
        let mut acc = 0.0_f32;
        for (k, &xk) in x.iter().take(k_used).enumerate() {
            acc += xk * mat_km[k * t + out];
        }
        *yo = acc;
    }
    y[out_used..].fill(0.0);
}

/// One block of `L` outputs starting at output `o`, written to `out`.
#[inline(always)]
fn lanes<const L: usize, const U: usize>(
    mat_km: &[f32],
    t: usize,
    k_used: usize,
    o: usize,
    x: &[f32],
    out: &mut [f32],
) {
    let mut acc = [0.0_f32; L];
    let mut k = 0;
    while k + U <= k_used {
        for u in 0..U {
            let xk = x[k + u];
            let row = &mat_km[(k + u) * t + o..(k + u) * t + o + L];
            for l in 0..L {
                acc[l] += xk * row[l];
            }
        }
        k += U;
    }
    while k < k_used {
        let xk = x[k];
        let row = &mat_km[k * t + o..k * t + o + L];
        for l in 0..L {
            acc[l] += xk * row[l];
        }
        k += 1;
    }
    out.copy_from_slice(&acc);
}
