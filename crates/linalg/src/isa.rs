//! Instruction-set dispatch for the crate's vectorized hot loops.
//!
//! The baseline x86-64 target has SSE2 only, so LLVM vectorizes
//! element-wise loops two `f64` or four `f32` lanes wide. [`run`] calls a
//! closure through a wrapper compiled under `#[target_feature(enable =
//! "avx2")]` when the host has AVX2, so the same loop bodies, inlined
//! there, run twice as wide; other hosts run the baseline build. AVX2
//! support is detected once per process (the standard library caches
//! `is_x86_feature_detected!`). No configuration, build flag or
//! environment variable selects the path.
//!
//! The dispatched loops:
//!
//! * the eigensolver's accumulation phase (`eigen::tridiagonal`), whose
//!   interleaved 8-row reflector steps become two 4-lane vectors per `k`;
//! * its rank-2 update, fused with the next reflector's `A·w` product
//!   (`eigen::tridiagonal`);
//! * its QL strip replay (`eigen::ql`), single rotations and fused runs
//!   of four;
//! * the `axpy` and `b32u2` tile kernels (`kernel`).
//!
//! The Householder `A·w` product alone measured no faster under AVX2; it
//! is dispatched only as part of that fused pass. An AVX-512 tier for the
//! dispatched eigensolver loops measured no change in a trial build and
//! was left out.
//!
//! Target features do not carry into closures or into functions that are
//! not inlined, so callers dispatch inside each pool task (a `Qᵀ` row
//! block, a QL strip, a reduction pass) or kernel call, pass an
//! `#[inline(always)]` closure, and mark the loop bodies
//! `#[inline(always)]`. A closure without the attribute is called from
//! both branches of [`run`] and is left out of line, in the baseline
//! build.
//!
//! # Bit identity
//!
//! The dispatched loops compute every element as its own chain of IEEE
//! `+`, `−`, `×`, `÷` and `√`, each correctly rounded whatever the vector
//! width; vectorizing only changes how many elements one instruction
//! computes, never which operations an element sees or their order. Rust
//! never contracts a multiply and an add into a fused multiply-add, and
//! the `fma` feature is deliberately not enabled, so every result is
//! bit-identical to the baseline build.
//!
//! This module and [`crate::par`] are the only ones in the crate allowed
//! to use `unsafe`: calling a `#[target_feature]` function is unsafe
//! because it is undefined on a host without the feature.

#![allow(unsafe_code)]

/// Runs `f` under AVX2 where the host has it, else as built.
pub(crate) fn run<R>(f: impl FnOnce() -> R) -> R {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the host supports AVX2, checked just above.
        return unsafe { avx2(f) };
    }
    f()
}

/// Runs `f` under AVX2, or returns `None` on a host without it. Lets a
/// test compare the AVX2 build of a loop with its baseline build.
#[cfg(test)]
pub(crate) fn run_avx2<R>(f: impl FnOnce() -> R) -> Option<R> {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the host supports AVX2, checked just above.
        return Some(unsafe { avx2(f) });
    }
    let _ = f;
    None
}

/// Calls `f` from code compiled for AVX2; LLVM inlines `f` (called once)
/// and the loop bodies it inlines, so they are compiled for AVX2 too.
///
/// # Safety
///
/// The host must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn avx2<R>(f: impl FnOnce() -> R) -> R {
    f()
}
