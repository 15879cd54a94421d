//! `repro tune` — host kernel timing record.
//!
//! Times every kernel variant in both directions at the acceptance tile
//! sizes, on 1,024 distinct random 0/1 input vectors — the engine's tile
//! inputs are thresholded spins, `1.0` or `0.0` — with the candidates
//! taking turns pass by pass. It prints the timing table and
//! upserts a `kernel_tune` block into `BENCH_sophie.json` (schema in
//! EXPERIMENTS.md § "Kernel tuning"). Every other block of the document
//! is preserved byte-for-byte, mirroring how `bench-summary` regeneration
//! carries blocks it did not reproduce.
//!
//! The library does not time itself: each size's plan is the fixed rule
//! [`KernelPlan::for_size`], and the table is what that rule was chosen
//! from. `--check` mode additionally gates on the speedup claim: the
//! plan's forward kernel at 64² must beat the scalar reference by at
//! least [`CHECK_MIN_SPEEDUP`]×.

use std::io;
use std::path::Path;
use std::time::Instant;

use sophie_hw::arch::MachineConfig;
use sophie_hw::cost::timing::device_mvm_ns;
use sophie_linalg::kernel::B32U2_MAX_TILE;
use sophie_linalg::{KernelPlan, KernelVariant, Tile};
use sophie_serve::Json;

/// Tile edge lengths `repro tune` measures: the engine's default tile,
/// a mid-size tile, and the non-multiple-of-lane acceptance size.
pub const TUNE_SIZES: [usize; 3] = [64, 256, 500];

/// Minimum scalar→plan forward speedup at 64² that `--check` accepts.
pub const CHECK_MIN_SPEEDUP: f64 = 1.3;

/// Distinct random 0/1 input vectors each candidate runs per pass, so no
/// branch predictor learns one input's zero pattern.
const TUNE_INPUTS: usize = 1024;

/// Timing passes per candidate; each candidate's median pass counts.
const PASSES: usize = 5;

/// Per-variant, per-direction timing of one tile size.
#[derive(Debug, Clone)]
pub struct TuneReport {
    /// Tile edge length measured.
    pub tile_size: usize,
    /// `(variant, forward ns, transposed ns)` per variant, in
    /// [`KernelVariant::ALL`] order.
    pub table: Vec<(KernelVariant, f64, f64)>,
    /// The size's plan, [`KernelPlan::for_size`].
    pub plan: KernelPlan,
}

impl TuneReport {
    /// Nanoseconds measured for `variant` in the given direction.
    #[must_use]
    pub fn ns_for(&self, variant: KernelVariant, forward: bool) -> f64 {
        self.table
            .iter()
            .find(|(v, _, _)| *v == variant)
            .map_or(f64::NAN, |&(_, f, t)| if forward { f } else { t })
    }
}

/// Times every variant in both directions on tiles of edge length `t`.
fn measure(t: usize) -> TuneReport {
    let tile = bench_tile(t);
    let inputs = spin_inputs(t, TUNE_INPUTS);
    let mut y = vec![0.0_f32; t];
    // Enough sweeps over the input set that one timed pass does about
    // 2^22 multiply-adds, whatever the tile size.
    let sweeps = ((1usize << 22) / (t * t * TUNE_INPUTS).max(1)).max(1);

    // Candidate 2·v is variant v forward, 2·v + 1 the same transposed.
    let ns = time_round_robin(2 * KernelVariant::ALL.len(), |c| {
        let plan = KernelPlan::pinned(KernelVariant::ALL[c / 2]);
        let start = Instant::now();
        for _ in 0..sweeps {
            for x in inputs.chunks_exact(t) {
                let x = std::hint::black_box(x);
                if c % 2 == 0 {
                    plan.forward(&tile, x, &mut y);
                } else {
                    plan.transposed(&tile, x, &mut y);
                }
                std::hint::black_box(&mut y);
            }
        }
        start.elapsed().as_nanos() as f64 / (sweeps * TUNE_INPUTS) as f64
    });
    TuneReport {
        tile_size: t,
        table: KernelVariant::ALL
            .iter()
            .zip(ns.chunks_exact(2))
            .map(|(&v, fwd_trn)| (v, fwd_trn[0], fwd_trn[1]))
            .collect(),
        plan: KernelPlan::for_size(t),
    }
}

/// Median per-call time of `candidates` kernels, `pass(c)` timing one
/// pass of candidate `c` and returning its ns per call: one untimed
/// warm-up pass each, then [`PASSES`] passes round robin over the
/// candidates, so an interference episode on a noisy host slows every
/// candidate alike rather than the one that happened to be running.
fn time_round_robin(candidates: usize, mut pass: impl FnMut(usize) -> f64) -> Vec<f64> {
    for c in 0..candidates {
        pass(c);
    }
    let mut passes = vec![Vec::with_capacity(PASSES); candidates];
    for _ in 0..PASSES {
        for (c, times) in passes.iter_mut().enumerate() {
            times.push(pass(c));
        }
    }
    passes
        .into_iter()
        .map(|mut times| {
            times.sort_by(f64::total_cmp);
            times[PASSES / 2]
        })
        .collect()
}

/// Deterministic LCG-filled benchmark tile, dense with a sprinkling of
/// exact zeros, like an eigenvalue-dropout transform's tiles.
fn bench_tile(t: usize) -> Tile {
    let mut state = 0x5EED_0000_u64 | t as u64;
    let data: Vec<f32> = (0..t * t)
        .map(|i| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            if i % 17 == 0 {
                0.0
            } else {
                ((state >> 40) as f32) / ((1u64 << 23) as f32) - 1.0
            }
        })
        .collect();
    Tile::from_vec(t, data).expect("bench tile dimensions are consistent")
}

/// `count` random 0/1 spin vectors of length `t`, back to back, each
/// entry `1.0` with probability one half (SplitMix64 bits).
fn spin_inputs(t: usize, count: usize) -> Vec<f32> {
    let mut state = 0x0001_5EED_u64 ^ t as u64;
    (0..t * count)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            if (z ^ (z >> 31)) >> 63 == 1 {
                1.0
            } else {
                0.0
            }
        })
        .collect()
}

/// One timing run across [`TUNE_SIZES`], plus the 64² headline numbers.
#[derive(Debug)]
pub struct TuneOutcome {
    /// Full per-size measurement reports, in [`TUNE_SIZES`] order.
    pub reports: Vec<TuneReport>,
    /// Scalar reference forward time at 64² (ns).
    pub scalar_forward_64_ns: f64,
    /// The 64² plan's forward time (ns).
    pub tuned_forward_64_ns: f64,
    /// `scalar_forward_64_ns / tuned_forward_64_ns`.
    pub forward_64_speedup: f64,
}

/// Times every kernel variant at each of [`TUNE_SIZES`].
#[must_use]
pub fn run_tune() -> TuneOutcome {
    let reports: Vec<TuneReport> = TUNE_SIZES.iter().map(|&t| measure(t)).collect();
    let r64 = &reports[0];
    let scalar = r64.ns_for(KernelVariant::Scalar, true);
    let tuned = r64.ns_for(r64.plan.variant, true);
    TuneOutcome {
        scalar_forward_64_ns: scalar,
        tuned_forward_64_ns: tuned,
        forward_64_speedup: scalar / tuned,
        reports,
    }
}

/// The `kernel_tune` block as a JSON value.
#[must_use]
pub fn kernel_tune_block(outcome: &TuneOutcome) -> Json {
    let ns = |x: f64| Json::rounded(x, 1);
    let plans = outcome
        .reports
        .iter()
        .map(|r| {
            Json::obj([
                ("tile", r.tile_size.into()),
                ("forward", r.plan.variant.name().into()),
                ("transposed", r.plan.variant.name().into()),
            ])
        })
        .collect();
    let table_64 = outcome.reports[0]
        .table
        .iter()
        .map(|&(v, f_ns, t_ns)| {
            Json::obj([
                ("variant", v.name().into()),
                ("forward_ns", ns(f_ns)),
                ("transposed_ns", ns(t_ns)),
            ])
        })
        .collect();
    let machine = MachineConfig::sophie_default(1);
    Json::obj([
        ("schema", "sophie-kernel-tune-v2".into()),
        ("plans", plans),
        ("table_64", table_64),
        ("scalar_forward_64_ns", ns(outcome.scalar_forward_64_ns)),
        ("tuned_forward_64_ns", ns(outcome.tuned_forward_64_ns)),
        (
            "forward_64_speedup",
            Json::rounded(outcome.forward_64_speedup, 3),
        ),
        (
            "device_mvm_8bit_ns",
            Json::rounded(device_mvm_ns(&machine, 8, true), 3),
        ),
        (
            "note",
            format!(
                "host-side simulation kernels timed on {TUNE_INPUTS} distinct random 0/1 \
                 inputs; all variants are bit-identical. plans is the fixed rule \
                 KernelPlan::for_size (b32u2 up to tile {B32U2_MAX_TILE}, axpy above, one \
                 variant for both directions), not a pick from this table; scalar \
                 is the baseline. device_mvm_8bit_ns is the modeled OPCM tile MVM latency \
                 for context."
            )
            .into(),
        ),
    ])
}

/// Upserts the `kernel_tune` block into the summary document at `path`
/// ([`crate::micro::upsert_block`]).
///
/// # Errors
///
/// Propagates the I/O error if `path` cannot be written.
pub fn write_kernel_tune(path: &Path, outcome: &TuneOutcome) -> io::Result<()> {
    crate::micro::upsert_block(path, "kernel_tune", kernel_tune_block(outcome))
}

/// Prints the timing table for humans (stderr, like the other repro
/// progress output).
pub fn print_report(outcome: &TuneOutcome) {
    for r in &outcome.reports {
        eprintln!("  tile {:>3}: plan {}", r.tile_size, r.plan.describe());
        for &(v, f_ns, t_ns) in &r.table {
            eprintln!(
                "    {:<7} forward {f_ns:>10.1} ns  transposed {t_ns:>10.1} ns",
                v.name()
            );
        }
    }
    eprintln!(
        "  forward 64²: scalar {:.1} ns → plan {:.1} ns ({:.2}×)",
        outcome.scalar_forward_64_ns, outcome.tuned_forward_64_ns, outcome.forward_64_speedup
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_produces_full_table_and_the_fixed_plan() {
        let report = measure(16);
        assert_eq!(report.tile_size, 16);
        let variants: Vec<KernelVariant> = report.table.iter().map(|row| row.0).collect();
        assert_eq!(variants, KernelVariant::ALL.to_vec());
        for &(_, f_ns, t_ns) in &report.table {
            assert!(f_ns > 0.0 && f_ns.is_finite());
            assert!(t_ns > 0.0 && t_ns.is_finite());
        }
        assert_eq!(report.plan, KernelPlan::for_size(16));
    }

    #[test]
    fn timing_passes_go_round_robin_over_candidates() {
        let mut calls = Vec::new();
        let ns = time_round_robin(3, |c| {
            calls.push(c);
            (10 * c + calls.len()) as f64
        });
        // One warm-up pass each, then PASSES rounds of c0 c1 c2.
        let want: Vec<usize> = (0..=PASSES).flat_map(|_| 0..3).collect();
        assert_eq!(calls, want);
        // Candidate c's timed passes return 10c + 3p + c + 4 for p in
        // 0..PASSES, whose median is at p = PASSES / 2.
        let median = |c: usize| (11 * c + 3 * (PASSES / 2) + 4) as f64;
        assert_eq!(ns, vec![median(0), median(1), median(2)]);
    }

    #[test]
    fn inputs_are_distinct_spin_vectors() {
        let t = 64;
        let inputs = spin_inputs(t, TUNE_INPUTS);
        assert_eq!(inputs.len(), t * TUNE_INPUTS);
        assert!(inputs.iter().all(|&x| x == 0.0 || x == 1.0));
        let ones = inputs.iter().filter(|&&x| x == 1.0).count();
        assert!((ones as f64 / inputs.len() as f64 - 0.5).abs() < 0.02);
        let distinct: std::collections::HashSet<Vec<u32>> = inputs
            .chunks_exact(t)
            .map(|x| x.iter().map(|v| v.to_bits()).collect())
            .collect();
        assert_eq!(distinct.len(), TUNE_INPUTS);
    }

    #[test]
    fn block_has_headline_fields_and_upsert_preserves_others() {
        // A fabricated outcome keeps the test off the wall clock.
        let outcome = TuneOutcome {
            reports: vec![TuneReport {
                tile_size: 64,
                table: KernelVariant::ALL
                    .iter()
                    .map(|&v| (v, 100.0, 100.0))
                    .collect(),
                plan: KernelPlan::for_size(64),
            }],
            scalar_forward_64_ns: 1000.0,
            tuned_forward_64_ns: 400.0,
            forward_64_speedup: 2.5,
        };
        let block = kernel_tune_block(&outcome);
        let Json::Obj(entries) = &block else {
            panic!("block must be an object")
        };
        for key in [
            "schema",
            "plans",
            "table_64",
            "scalar_forward_64_ns",
            "tuned_forward_64_ns",
            "forward_64_speedup",
            "device_mvm_8bit_ns",
        ] {
            assert!(entries.iter().any(|(k, _)| k == key), "missing {key}");
        }
        assert_eq!(
            block.get("plans").unwrap().to_string(),
            r#"[{"tile":64,"forward":"b32u2","transposed":"b32u2"}]"#
        );

        let dir = std::env::temp_dir().join(format!("sophie-tune-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_sophie.json");
        std::fs::write(
            &path,
            "{\n  \"schema\": \"sophie-bench-v1\",\n  \"sparse_speedup\": {\"speedup\": 3.0}\n}\n",
        )
        .unwrap();
        write_kernel_tune(&path, &outcome).unwrap();
        // Upsert twice: the second write replaces the block in place.
        write_kernel_tune(&path, &outcome).unwrap();
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let Json::Obj(top) = doc else { panic!() };
        assert!(top.iter().any(|(k, _)| k == "sparse_speedup"));
        assert_eq!(top.iter().filter(|(k, _)| k == "kernel_tune").count(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
