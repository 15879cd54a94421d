//! `repro tune` — host kernel autotuning record.
//!
//! Runs the `sophie-linalg` kernel autotuner ([`sophie_linalg::kernel::tune`])
//! at the acceptance tile sizes, prints the timing table, and upserts a
//! `kernel_tune` block into `BENCH_sophie.json` (schema in EXPERIMENTS.md
//! § "Kernel tuning"). Every other block of the document is preserved
//! byte-for-byte, mirroring how `bench-summary` regeneration carries
//! blocks it did not reproduce.
//!
//! `--check` mode additionally gates on the tentpole speedup claim: the
//! tuned forward kernel at 64² must beat the scalar reference by at least
//! [`CHECK_MIN_SPEEDUP`]×.

use std::io;
use std::path::Path;

use sophie_hw::arch::MachineConfig;
use sophie_hw::cost::timing::device_mvm_ns;
use sophie_linalg::kernel::tune::{measure, TuneReport};
use sophie_linalg::KernelVariant;
use sophie_serve::Json;

/// Tile edge lengths `repro tune` measures: the engine's default tile,
/// a mid-size tile, and the non-multiple-of-lane acceptance size.
pub const TUNE_SIZES: [usize; 3] = [64, 256, 500];

/// Minimum scalar→tuned forward speedup at 64² that `--check` accepts.
pub const CHECK_MIN_SPEEDUP: f64 = 1.3;

/// One tuning run across [`TUNE_SIZES`], plus the 64² headline numbers.
#[derive(Debug)]
pub struct TuneOutcome {
    /// Full per-size measurement reports, in [`TUNE_SIZES`] order.
    pub reports: Vec<TuneReport>,
    /// Scalar reference forward time at 64² (ns).
    pub scalar_forward_64_ns: f64,
    /// Tuned-plan forward time at 64² (ns).
    pub tuned_forward_64_ns: f64,
    /// `scalar_forward_64_ns / tuned_forward_64_ns`.
    pub forward_64_speedup: f64,
}

/// Measures every kernel variant at each of [`TUNE_SIZES`].
#[must_use]
pub fn run_tune() -> TuneOutcome {
    let reports: Vec<TuneReport> = TUNE_SIZES.iter().map(|&t| measure(t)).collect();
    let r64 = &reports[0];
    let scalar = r64.ns_for(KernelVariant::Scalar, true);
    let tuned = r64.ns_for(r64.plan.forward, true);
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
                ("forward", r.plan.forward.name().into()),
                ("transposed", r.plan.transposed.name().into()),
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
            "host-side simulation kernels; all variants are bit-identical, tuning picks \
             wall-clock only, per direction between axpy and b32u2 (scalar is the \
             baseline). device_mvm_8bit_ns is the modeled OPCM tile MVM latency for \
             context."
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

/// Prints the tuning table for humans (stderr, like the other repro
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
        "  forward 64²: scalar {:.1} ns → tuned {:.1} ns ({:.2}×)",
        outcome.scalar_forward_64_ns, outcome.tuned_forward_64_ns, outcome.forward_64_speedup
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_has_headline_fields_and_upsert_preserves_others() {
        // A fabricated outcome keeps the test off the wall clock.
        let mut report = measure(8);
        report.tile_size = 64;
        let outcome = TuneOutcome {
            reports: vec![report],
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
