//! The tile-MVM kernel component stack.
//!
//! Modeled on kubecl's matmul component layering, the hottest loops of the
//! codebase are decomposed into small interchangeable micro-kernels behind
//! one dispatch type:
//!
//! * [`scalar`] — the canonical scalar reference kernel plus the deduped
//!   sequential helpers (`seq_axpy`, `seq_dot`) that `vector` and `tile`
//!   delegate to;
//! * [`blocked`] — the cache-blocked, explicitly unrolled
//!   register-blocking sweep (`L` output lanes × `U`-way k-unroll);
//! * [`KernelPlan`] — the dispatch layer: everything above `sophie-linalg`
//!   (the engine's queue executor, the ideal backend) calls tile
//!   kernels only through a plan. [`KernelPlan::for_size`] is a fixed
//!   rule of the tile size ([`B32U2_MAX_TILE`]); nothing here times
//!   itself, and `SOPHIE_KERNEL` pins a variant for determinism tests.
//!
//! # Bit-identity contract
//!
//! Every variant accumulates each output element as a *sequential sum of
//! its terms in ascending index order starting from `+0.0`*, exactly like
//! the scalar reference. Vectorization happens only **across** outputs
//! (each of the `L` register lanes owns one output's chain), never within
//! one output's chain, and Rust never contracts `mul`+`add` into a fused
//! multiply-add — so every variant and every block shape is bit-identical
//! to [`KernelVariant::Scalar`]. Terms that are exact zeros (zero weight
//! or zero input) are bitwise invisible to such a sum (the accumulator can
//! never become `-0.0`), which is why the zero-input-skipping
//! [`KernelVariant::Axpy`] agrees with the no-skip variants bit for bit.
//! Kernel choice is therefore a pure wall-clock choice: solver outcomes
//! and event streams are byte-identical under every plan. The same
//! argument covers the AVX2 builds of `axpy` and `b32u2`, which run where
//! the host has AVX2 (`crate::isa`): wider lanes, the same chains.

pub mod blocked;
pub mod scalar;

use crate::isa;
use crate::tile::Tile;

/// One MVM micro-kernel implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelVariant {
    /// Sequential per-output row dot over the output-major mirror — the
    /// canonical reference every other variant must match bitwise.
    Scalar,
    /// k-major column sweep of unit-stride `seq_axpy` calls, skipping
    /// zero inputs (the pre-refactor `Tile::mvm` shape).
    Axpy,
    /// Register-blocked: 32 output lanes, 2-way k-unroll.
    B32U2,
}

impl KernelVariant {
    /// Every variant, in canonical order.
    pub const ALL: [KernelVariant; 3] = [
        KernelVariant::Scalar,
        KernelVariant::Axpy,
        KernelVariant::B32U2,
    ];

    /// Canonical lowercase name (`"scalar"`, `"axpy"`, `"b32u2"`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            KernelVariant::Scalar => "scalar",
            KernelVariant::Axpy => "axpy",
            KernelVariant::B32U2 => "b32u2",
        }
    }

    /// Parses a canonical name back into a variant.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        KernelVariant::ALL.into_iter().find(|v| v.name() == name)
    }
}

/// Largest tile edge length whose plan is [`KernelVariant::B32U2`];
/// larger tiles run [`KernelVariant::Axpy`].
///
/// The engine's tile inputs are thresholded spins, `1.0` or `0.0`, so
/// `axpy` skips about half of its k-steps, while `b32u2` pays for every
/// k-step and wins on register blocking at small tiles. Timed with
/// `repro tune`'s harness on 1,024 distinct random 0/1 inputs per size,
/// the variants taking turns (x86-64, 2 vCPUs, 6 processes per size),
/// `b32u2` over `axpy` took 0.78–1.06× the time at 128, 0.74–1.08× at
/// 160, 0.83–1.10× at 192, 1.01–1.16× at 224 and 1.04–1.24× at 256, so
/// the rule switches right after 128. These timings predate `b32u2`'s
/// 8-lane tail blocks and the AVX2 builds (`crate::isa`). Both directions
/// run the same sweep over mirrored k-major buffers, so one rule serves
/// both.
pub const B32U2_MAX_TILE: usize = 128;

/// The kernel selection for one tile size: the variant that runs both
/// directions. This is the only type through which engine and backend
/// code reach the tile kernels (CI grep-gates direct `Tile::mvm` calls).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KernelPlan {
    /// Variant executing `y = T·x` and `y = Tᵀ·x`.
    pub variant: KernelVariant,
}

/// A direction resolved to the generic sweep layout: both directions are
/// `y[o] = Σ_k mat[k·t + o] · x[k]` over a k-major buffer, with the
/// output-major mirror available for unit-stride row dots.
struct Sweep<'a> {
    /// k-major operand (`data_t` forward, `data` transposed).
    km: &'a [f32],
    /// Output-major mirror (`data` forward, `data_t` transposed).
    om: &'a [f32],
    t: usize,
    /// Trimmed k extent (zero-padded fringe excluded; bit-invisible).
    k_used: usize,
    /// Trimmed output extent (padded outputs are exactly `+0.0`).
    out_used: usize,
}

impl<'a> Sweep<'a> {
    fn forward(tile: &'a Tile) -> Self {
        Sweep {
            km: tile.data_t_slice(),
            om: tile.as_slice(),
            t: tile.size(),
            k_used: tile.cols_used(),
            out_used: tile.rows_used(),
        }
    }

    fn transposed(tile: &'a Tile) -> Self {
        Sweep {
            km: tile.as_slice(),
            om: tile.data_t_slice(),
            t: tile.size(),
            k_used: tile.rows_used(),
            out_used: tile.cols_used(),
        }
    }
}

/// Runs one variant over a resolved sweep. `axpy` and `b32u2` run their
/// AVX2 build where the host has it (`crate::isa`), which is
/// bit-identical to the baseline build; the scalar reference runs as
/// built.
fn run_sweep(variant: KernelVariant, s: &Sweep<'_>, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), s.t, "kernel: input length mismatch");
    assert_eq!(y.len(), s.t, "kernel: output length mismatch");
    let (km, t, k_used, out_used) = (s.km, s.t, s.k_used, s.out_used);
    match variant {
        KernelVariant::Scalar => scalar::scalar_sweep(s.om, t, k_used, out_used, x, y),
        KernelVariant::Axpy => isa::run(
            #[inline(always)]
            || scalar::axpy_sweep(km, t, k_used, out_used, x, y),
        ),
        KernelVariant::B32U2 => isa::run(
            #[inline(always)]
            || blocked::sweep::<32, 2>(km, t, k_used, out_used, x, y),
        ),
    }
}

impl KernelPlan {
    /// The all-scalar reference plan.
    #[must_use]
    pub fn scalar() -> Self {
        KernelPlan::pinned(KernelVariant::Scalar)
    }

    /// One fixed variant for both directions.
    #[must_use]
    pub fn pinned(variant: KernelVariant) -> Self {
        KernelPlan { variant }
    }

    /// The plan for tiles of edge length `t`: [`KernelVariant::B32U2`]
    /// up to [`B32U2_MAX_TILE`], [`KernelVariant::Axpy`] above. A pure
    /// function of `t`, the same on every host and in every process.
    #[must_use]
    pub fn for_size(t: usize) -> Self {
        KernelPlan::pinned(if t <= B32U2_MAX_TILE {
            KernelVariant::B32U2
        } else {
            KernelVariant::Axpy
        })
    }

    /// The plan a run uses for tiles of edge length `t`: a variant named
    /// by the `SOPHIE_KERNEL` environment variable, else [`Self::for_size`]
    /// (`"auto"`, unset, and unknown names alike). Read once when a run
    /// or unit starts, so determinism tests can flip kernels between runs
    /// without rebuilding anything.
    #[must_use]
    pub fn resolve(t: usize) -> Self {
        std::env::var("SOPHIE_KERNEL")
            .ok()
            .and_then(|name| KernelVariant::parse(name.trim()))
            .map_or_else(|| Self::for_size(t), Self::pinned)
    }

    /// `y = T·x` through the plan's variant.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn forward(&self, tile: &Tile, x: &[f32], y: &mut [f32]) {
        run_sweep(self.variant, &Sweep::forward(tile), x, y);
    }

    /// `y = Tᵀ·x` through the plan's variant.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn transposed(&self, tile: &Tile, x: &[f32], y: &mut [f32]) {
        run_sweep(self.variant, &Sweep::transposed(tile), x, y);
    }

    /// Human-readable plan description, per direction as the benchmark
    /// notes and `repro tune` record it, e.g. `"fwd=b32u2 trn=b32u2"`.
    #[must_use]
    pub fn describe(&self) -> String {
        let name = self.variant.name();
        format!("fwd={name} trn={name}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Deterministic LCG stream for cheap large-size property inputs.
    fn lcg_fill(seed: u64, out: &mut [f32], zero_every: usize) {
        let mut state = seed | 1;
        for (i, v) in out.iter_mut().enumerate() {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            *v = if zero_every > 0 && i % zero_every == 0 {
                0.0
            } else {
                ((state >> 40) as f32) / ((1u64 << 24) as f32) - 0.5
            };
        }
    }

    /// Builds a trimmed tile: `used × used` live block inside a `t × t`
    /// zero-padded tile, mirroring `Tile::from_matrix` fringe handling.
    fn trimmed_tile(t: usize, used: usize, seed: u64) -> Tile {
        let mut live = vec![0.0_f32; used * used];
        lcg_fill(seed, &mut live, 7);
        let mut data = vec![0.0_f32; t * t];
        for r in 0..used {
            data[r * t..r * t + used].copy_from_slice(&live[r * used..(r + 1) * used]);
        }
        let mut tile = Tile::from_vec(t, data).unwrap();
        tile.set_used(used, used);
        tile
    }

    fn reference(tile: &Tile, x: &[f32], forward: bool) -> Vec<f32> {
        let t = tile.size();
        let mut y = vec![0.0_f32; t];
        for (o, yo) in y.iter_mut().enumerate() {
            let mut acc = 0.0_f32;
            for (k, &xk) in x.iter().enumerate().take(t) {
                let w = if forward {
                    tile.as_slice()[o * t + k]
                } else {
                    tile.as_slice()[k * t + o]
                };
                acc += w * xk;
            }
            *yo = acc;
        }
        y
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Acceptance sweep: every variant × tile size ∈ {7, 48, 64, 72, 120,
    /// 256, 500} × direction is bit-identical to the scalar reference,
    /// with and without fringe trims. 48, 72 and 120 leave `b32u2` a tail
    /// past its last block of 32 that runs in 8-lane blocks.
    #[test]
    fn every_variant_matches_reference_bitwise_at_acceptance_sizes() {
        for &t in &[7usize, 48, 64, 72, 120, 256, 500] {
            for &used in &[t, t - t / 3] {
                let tile = trimmed_tile(t, used, 0xBEEF ^ t as u64);
                let mut x = vec![0.0_f32; t];
                lcg_fill(t as u64 + 1, &mut x[..used], 3);
                for forward in [true, false] {
                    let want = reference(&tile, &x, forward);
                    for v in KernelVariant::ALL {
                        let plan = KernelPlan::pinned(v);
                        let mut y = vec![f32::NAN; t];
                        if forward {
                            plan.forward(&tile, &x, &mut y);
                        } else {
                            plan.transposed(&tile, &x, &mut y);
                        }
                        assert_eq!(
                            bits(&y),
                            bits(&want),
                            "t={t} used={used} forward={forward} variant={}",
                            v.name()
                        );
                    }
                }
            }
        }
    }

    /// The AVX2 builds of `axpy` and `b32u2` match their baseline builds
    /// bit for bit at tile sizes that are not multiples of 4, with and
    /// without trims, on 0/1 spins and on arbitrary inputs. Skipped on
    /// hosts without AVX2.
    #[test]
    fn avx2_builds_match_the_baseline_builds_bitwise() {
        for t in [45_usize, 75] {
            let mut km = vec![0.0_f32; t * t];
            lcg_fill(t as u64, &mut km, 7);
            let mut x = vec![0.0_f32; t];
            lcg_fill(t as u64 + 1, &mut x, 3);
            let spins: Vec<f32> = x.iter().map(|&v| f32::from(u8::from(v > 0.0))).collect();
            for input in [&x, &spins] {
                for used in [t, t - t / 3] {
                    let mut base = vec![f32::NAN; t];
                    let mut wide = vec![f32::NAN; t];
                    blocked::sweep::<32, 2>(&km, t, used, used, input, &mut base);
                    let ran = isa::run_avx2(
                        #[inline(always)]
                        || blocked::sweep::<32, 2>(&km, t, used, used, input, &mut wide),
                    );
                    if ran.is_none() {
                        eprintln!("host has no AVX2; skipping");
                        return;
                    }
                    assert_eq!(bits(&wide), bits(&base), "b32u2 t={t} used={used}");
                    scalar::axpy_sweep(&km, t, used, used, input, &mut base);
                    isa::run_avx2(
                        #[inline(always)]
                        || scalar::axpy_sweep(&km, t, used, used, input, &mut wide),
                    );
                    assert_eq!(bits(&wide), bits(&base), "axpy t={t} used={used}");
                }
            }
        }
    }

    #[test]
    fn names_round_trip() {
        for v in KernelVariant::ALL {
            assert_eq!(KernelVariant::parse(v.name()), Some(v));
        }
        assert_eq!(KernelVariant::parse("fancy"), None);
    }

    #[test]
    fn describe_is_readable() {
        assert_eq!(KernelPlan::scalar().describe(), "fwd=scalar trn=scalar");
    }

    /// The plan is a fixed rule of the tile size: `b32u2` at the engine's
    /// default tile, `axpy` at 500, one variant for both directions.
    #[test]
    fn plan_is_a_fixed_rule_of_the_tile_size() {
        assert_eq!(
            KernelPlan::for_size(64),
            KernelPlan::pinned(KernelVariant::B32U2)
        );
        assert_eq!(
            KernelPlan::for_size(500),
            KernelPlan::pinned(KernelVariant::Axpy)
        );
        assert_eq!(KernelPlan::for_size(64).describe(), "fwd=b32u2 trn=b32u2");
        assert_eq!(KernelPlan::for_size(500).describe(), "fwd=axpy trn=axpy");
        assert_eq!(
            KernelPlan::for_size(B32U2_MAX_TILE).variant,
            KernelVariant::B32U2
        );
        assert_eq!(
            KernelPlan::for_size(B32U2_MAX_TILE + 1).variant,
            KernelVariant::Axpy
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Property form of the acceptance sweep: random seeds, random
        /// trims, all variants, both directions, bitwise against the
        /// scalar reference. Inputs are LCG-generated from the seed so
        /// size-500 cases stay cheap to shrink.
        #[test]
        fn variants_bitwise_match_scalar_reference(
            seed in 0u64..u64::MAX,
            size_idx in 0usize..4,
            trim in 0usize..5,
            forward in proptest::bool::ANY,
        ) {
            let t = [7usize, 64, 256, 500][size_idx];
            let used = (t - trim.min(t - 1)).max(1);
            let tile = trimmed_tile(t, used, seed);
            let mut x = vec![0.0_f32; t];
            lcg_fill(seed ^ 0xA5A5, &mut x[..used], 3);
            let want = reference(&tile, &x, forward);
            for v in KernelVariant::ALL {
                let plan = KernelPlan::pinned(v);
                let mut y = vec![f32::NAN; t];
                if forward {
                    plan.forward(&tile, &x, &mut y);
                } else {
                    plan.transposed(&tile, &x, &mut y);
                }
                prop_assert_eq!(bits(&y), bits(&want), "variant {}", v.name());
            }
        }
    }
}
