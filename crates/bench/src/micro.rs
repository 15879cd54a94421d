//! Shared microbenchmark suites.
//!
//! The criterion bench targets (`benches/mvm.rs`, `benches/engine.rs`) and
//! the `repro bench-summary` command run the same suites: each suite is a
//! plain `fn(&mut Criterion)` so `cargo bench` executes it under the
//! harness while `bench-summary` drives it in-process (quick mode) and
//! serializes the collected medians into `BENCH_sophie.json`.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;

use criterion::{black_box, BenchResult, BenchmarkId, Criterion};
use sophie::problems::QuboProblem;
use sophie_baselines::local_search::search;
use sophie_baselines::sa::anneal;
use sophie_baselines::tempering::temper;
use sophie_baselines::{BlsConfig, PtConfig, SaConfig};
use sophie_core::backend::{IdealBackend, MvmBackend, MvmUnit};
use sophie_core::observe::NullObserver;
use sophie_core::{Schedule, SolveJob, Solver, SophieConfig, SophieSolver};
use sophie_graph::coupling::coupling_matrix;
use sophie_graph::generate::{gnm, presets, WeightDist};
use sophie_hw::{OpcmBackend, OpcmBackendConfig};
use sophie_linalg::eigen::symmetric_eigen;
use sophie_linalg::{Matrix, Tile, TileGrid};
use sophie_solve::Json;

fn tile_of(size: usize) -> Tile {
    Tile::from_vec(
        size,
        (0..size * size)
            .map(|i| ((i * 37 + 11) % 23) as f32 / 11.0 - 1.0)
            .collect(),
    )
    .unwrap()
}

fn engine_config(giters: usize) -> SophieConfig {
    SophieConfig {
        tile_size: 64,
        local_iters: 10,
        global_iters: giters,
        tile_fraction: 0.74,
        phi: 0.05,
        alpha: 0.0,
        stochastic_spin_update: true,
        ..SophieConfig::default()
    }
}

/// Tile-level MVM kernels: forward and bidirectional (transposed) reads.
pub fn tile_mvm(c: &mut Criterion) {
    let mut group = c.benchmark_group("tile_mvm");
    for &size in &[16usize, 64, 128] {
        let tile = tile_of(size);
        let x: Vec<f32> = (0..size).map(|i| (i % 2) as f32).collect();
        let mut y = vec![0.0_f32; size];
        group.bench_with_input(BenchmarkId::new("forward", size), &size, |b, _| {
            b.iter(|| tile.mvm(black_box(&x), &mut y));
        });
        group.bench_with_input(BenchmarkId::new("transposed", size), &size, |b, _| {
            b.iter(|| tile.mvm_transposed(black_box(&x), &mut y));
        });
    }
    group.finish();
}

/// The same 64×64 MVM through the ideal backend and the OPCM device model.
pub fn backend_mvm(c: &mut Criterion) {
    let mut group = c.benchmark_group("backend_mvm_64");
    let tile = tile_of(64);
    let x: Vec<f32> = (0..64).map(|i| (i % 2) as f32).collect();
    let mut y = vec![0.0_f32; 64];

    let ideal = IdealBackend::new();
    let mut ideal_unit = ideal.unit(64);
    ideal_unit.program(&tile);
    group.bench_function("ideal", |b| {
        b.iter(|| ideal_unit.forward(black_box(&x), &mut y));
    });

    let opcm = OpcmBackend::new(OpcmBackendConfig::default());
    let mut opcm_unit = opcm.unit(64);
    opcm_unit.program(&tile);
    group.bench_function("opcm_device", |b| {
        b.iter(|| opcm_unit.forward(black_box(&x), &mut y));
    });
    group.finish();
}

/// Dense f64 matrix-vector products (preprocessing path).
pub fn dense_matvec(c: &mut Criterion) {
    let mut group = c.benchmark_group("dense_matvec");
    for &n in &[256usize, 1024] {
        let m = Matrix::from_fn(n, n, |r, cc| ((r * 3 + cc * 7) % 17) as f64 / 8.0 - 1.0);
        let x: Vec<f64> = (0..n).map(|i| (i % 3) as f64 - 1.0).collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| m.matvec(black_box(&x)));
        });
    }
    group.finish();
}

/// Full engine jobs on random G(n, m) instances.
pub fn engine_job(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_job");
    group.sample_size(10);
    for &n in &[256usize, 512] {
        let g = Arc::new(gnm(n, 5 * n, WeightDist::Unit, 5).unwrap());
        let solver = SophieSolver::from_graph(&g, engine_config(10)).unwrap();
        let job = SolveJob::new(g, 1);
        group.bench_with_input(BenchmarkId::new("10_global_iters", n), &n, |b, _| {
            b.iter(|| solver.solve(black_box(&job), &mut NullObserver).unwrap());
        });
    }
    group.finish();
}

/// Static schedule generation at machine scale.
pub fn schedule_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("schedule_generate");
    for &n in &[2048usize, 8192] {
        let grid = TileGrid::new(n, 64).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| Schedule::generate(black_box(&grid), 10, 0.74, true, 1));
        });
    }
    group.finish();
}

/// The closed-form op-count replay used for K32768-scale studies.
pub fn analytic_counts(c: &mut Criterion) {
    let mut group = c.benchmark_group("analytic_op_counts");
    group.sample_size(10);
    for &n in &[8192usize, 16_384] {
        let cfg = engine_config(10);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| sophie_core::analytic::analytic_op_counts(black_box(n), &cfg, 1).unwrap());
        });
    }
    group.finish();
}

/// The eigenvalue-dropout preprocessing every new instance pays before
/// its first spin flips (paper §II-C), on the two instances the benchmark
/// workloads preprocess: K512 (`serve-sophie-k512`) and the G1-shaped
/// n = 800 graph (`sim-g1`). Each stage is timed on its own: the
/// eigendecomposition, `C = B Bᵀ` over the α = 0 dropout spectrum, and
/// tiling `C` into a solver.
pub fn preprocess(c: &mut Criterion) {
    let mut group = c.benchmark_group("preprocess");
    group.sample_size(5);
    let instances = [
        ("K512", presets::k_graph(512, 1).unwrap()),
        ("G1", presets::g1_like(1).unwrap()),
    ];
    for (label, g) in instances {
        let k = coupling_matrix(&g);
        group.bench_with_input(BenchmarkId::new("symmetric_eigen", label), &k, |b, k| {
            b.iter(|| symmetric_eigen(black_box(k)).unwrap());
        });
        let eig = symmetric_eigen(&k).unwrap();
        // α = 0: 2·Re(√λ), every negative eigenvalue dropped.
        let f: Vec<f64> = eig
            .values
            .iter()
            .map(|&x| if x > 0.0 { 2.0 * x.sqrt() } else { 0.0 })
            .collect();
        group.bench_with_input(
            BenchmarkId::new("compose_nonnegative", label),
            &f,
            |b, f| {
                b.iter(|| eig.compose_nonnegative(black_box(f)));
            },
        );
        let transform = eig.compose_nonnegative(&f);
        group.bench_with_input(
            BenchmarkId::new("from_transform", label),
            &transform,
            |b, t| {
                b.iter(|| {
                    SophieSolver::from_transform(black_box(t), SophieConfig::default()).unwrap()
                });
            },
        );
    }
    group.finish();
}

/// The SA, PT and BLS baselines, one job each, on the three graph kinds
/// the `serve-small` mix solves with SA: the named K60 (±1 weights), a
/// lowered random QUBO (n = 64, density 0.25: sixteenth weights and an
/// ancilla) and a GSET-style unit G(64, 256). SA runs the served 60
/// sweeps, PT and BLS their defaults.
pub fn baselines(c: &mut Criterion) {
    let mut group = c.benchmark_group("baselines");
    group.sample_size(10);
    let qubo = QuboProblem::random(64, 0.25, 1)
        .compile()
        .expect("a random QUBO lowers");
    let instances = [
        ("K60", Arc::new(presets::k_graph(60, 1).unwrap())),
        ("QUBO-64", Arc::clone(qubo.graph())),
        (
            "GSET-64",
            Arc::new(gnm(64, 256, WeightDist::Unit, 1).unwrap()),
        ),
    ];
    let sa = SaConfig {
        sweeps: 60,
        ..SaConfig::default()
    };
    for (label, g) in &instances {
        group.bench_with_input(BenchmarkId::new("sa", label), g, |b, g| {
            b.iter(|| anneal(black_box(g), &sa));
        });
        group.bench_with_input(BenchmarkId::new("pt", label), g, |b, g| {
            b.iter(|| temper(black_box(g), &PtConfig::default()));
        });
        group.bench_with_input(BenchmarkId::new("bls", label), g, |b, g| {
            b.iter(|| search(black_box(g), &BlsConfig::default()));
        });
    }
    group.finish();
}

/// Runs every suite of the `mvm` and `engine` bench targets, the `eigen`
/// target's `preprocess` suite and the `solvers` target's `baselines`
/// suite, into `c`.
pub fn all_suites(c: &mut Criterion) {
    tile_mvm(c);
    backend_mvm(c);
    dense_matvec(c);
    engine_job(c);
    schedule_generation(c);
    analytic_counts(c);
    preprocess(c);
    baselines(c);
}

/// Serializes bench results as the `BENCH_sophie.json` document tracked
/// across PRs: the run's provenance, the block derived from the
/// tile-kernel suite, and one record per kernel,
/// in the summary's house layout (see `render_json`).
#[must_use]
pub fn summary_json(results: &[BenchResult]) -> String {
    let ns = |x: f64| Json::rounded(x, 1);
    let median = |id: &str| results.iter().find(|r| r.id == id).map(|r| r.median_ns);
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut doc = vec![
        ("schema", "sophie-bench-v1".into()),
        (
            "mode",
            if criterion::quick_mode() {
                "quick"
            } else {
                "full"
            }
            .into(),
        ),
        ("host_cores", cores.into()),
    ];
    // Forward/transposed tile kernels used to be asymmetric (the forward
    // column sweep strided across rows); the 'before' medians are the
    // last record produced by the strided kernel, kept here so the fix
    // stays visible next to the live numbers.
    if let (Some(fwd), Some(trn)) = (
        median("tile_mvm/forward/64"),
        median("tile_mvm/transposed/64"),
    ) {
        doc.push((
            "tile_kernel_asymmetry_fix",
            Json::obj([
                ("before_forward_64_ns", 1374.2.into()),
                ("before_transposed_64_ns", 481.8.into()),
                ("after_forward_64_ns", ns(fwd)),
                ("after_transposed_64_ns", ns(trn)),
                (
                    "note",
                    "both directions now run unit-stride axpy sweeps over direction-major mirrors"
                        .into(),
                ),
            ]),
        ));
    }
    let records = results
        .iter()
        .map(|r| {
            Json::obj([
                ("id", r.id.as_str().into()),
                ("median_ns", ns(r.median_ns)),
                ("samples", r.samples.into()),
                ("iters_per_sample", r.iters_per_sample.into()),
            ])
        })
        .collect();
    doc.push(("results", records));
    let mut out = String::new();
    render_json(&Json::obj(doc), 0, &mut out);
    out.push('\n');
    out
}

/// Merges top-level blocks of a previous summary document into a fresh
/// one.
///
/// Any top-level key present in `old` but absent from `fresh` — the
/// `kernel_tune` and `problems` blocks other `repro` commands upsert, or a
/// block a future suite writes that this build does not know about — is
/// carried over, so a partial regeneration never silently drops sections
/// it did not reproduce. A block no command writes any more is therefore
/// carried forever: retiring one means deleting it from the committed
/// document too. Keys in `fresh` always win. If either document fails to
/// parse as a JSON object, or nothing needs preserving, `fresh` is
/// returned unchanged (byte-identical).
#[must_use]
pub fn merge_preserving_blocks(fresh: &str, old: &str) -> String {
    let (Ok(Json::Obj(mut merged)), Ok(Json::Obj(previous))) =
        (Json::parse(fresh), Json::parse(old))
    else {
        return fresh.to_string();
    };
    let mut preserved = 0usize;
    for (key, value) in previous {
        if !merged.iter().any(|(k, _)| *k == key) {
            merged.push((key, value));
            preserved += 1;
        }
    }
    if preserved == 0 {
        return fresh.to_string();
    }
    let mut out = String::new();
    render_json(&Json::Obj(merged), 0, &mut out);
    out.push('\n');
    out
}

/// Upserts one top-level `block` under `key` into the summary document
/// at `path`, in place if the key exists, else appended. Every other
/// block is preserved unchanged (same contract as
/// [`merge_preserving_blocks`]); a missing or unparseable document is
/// replaced by a minimal one holding only the block.
///
/// # Errors
///
/// Propagates the I/O error if `path` cannot be written.
pub fn upsert_block(path: &Path, key: &str, block: Json) -> std::io::Result<()> {
    let mut entries = match std::fs::read_to_string(path).map(|old| Json::parse(&old)) {
        Ok(Ok(Json::Obj(entries))) => entries,
        _ => vec![("schema".to_string(), "sophie-bench-v1".into())],
    };
    match entries.iter_mut().find(|(k, _)| k == key) {
        Some((_, slot)) => *slot = block,
        None => entries.push((key.to_string(), block)),
    }
    let mut out = String::new();
    render_json(&Json::Obj(entries), 0, &mut out);
    out.push('\n');
    std::fs::write(path, out)
}

/// Pretty-printer matching the summary's house style: top-level and
/// depth-1 objects span lines, arrays put one element per line, and
/// everything deeper renders inline with a space after each `:` and `,`.
/// Only the layout lives here: every scalar and key is rendered by
/// [`Json`]'s `Display`. Shared with [`crate::tune`] and
/// [`crate::problems`], which upsert their blocks into the same document.
pub(crate) fn render_json(v: &Json, depth: usize, out: &mut String) {
    let key = |k: &str| Json::from(k);
    match v {
        Json::Obj(entries) if depth < 2 => {
            let pad = "  ".repeat(depth + 1);
            out.push_str("{\n");
            for (i, (k, val)) in entries.iter().enumerate() {
                let _ = write!(out, "{pad}{}: ", key(k));
                render_json(val, depth + 1, out);
                out.push_str(if i + 1 == entries.len() { "\n" } else { ",\n" });
            }
            let _ = write!(out, "{}}}", "  ".repeat(depth));
        }
        Json::Obj(entries) => {
            out.push('{');
            for (i, (k, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{}: ", key(k));
                render_json(val, depth + 1, out);
            }
            out.push('}');
        }
        Json::Arr(items) => {
            let pad = "  ".repeat(depth + 1);
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                out.push_str(&pad);
                render_json(item, depth + 1, out);
                out.push_str(if i + 1 == items.len() { "\n" } else { ",\n" });
            }
            let _ = write!(out, "{}]", "  ".repeat(depth));
        }
        scalar => {
            let _ = write!(out, "{scalar}");
        }
    }
}

/// Runs all suites in quick mode and writes `BENCH_sophie.json` at `path`.
///
/// Unless the caller already configured `SOPHIE_BENCH_QUICK`, quick mode is
/// forced so the whole sweep finishes in seconds. Serving is measured by
/// the standalone benchmark package (`benchmark/`), not here. Blocks of
/// the previous document that this run does not write are carried forward
/// by [`merge_preserving_blocks`].
///
/// # Errors
///
/// Propagates the I/O error if `path` cannot be written.
pub fn write_bench_summary(path: &Path) -> std::io::Result<()> {
    if std::env::var("SOPHIE_BENCH_QUICK").is_err() {
        std::env::set_var("SOPHIE_BENCH_QUICK", "1");
    }
    let mut c = Criterion::default();
    all_suites(&mut c);
    let fresh = summary_json(c.results());
    let merged = match std::fs::read_to_string(path) {
        Ok(old) => merge_preserving_blocks(&fresh, &old),
        Err(_) => fresh,
    };
    std::fs::write(path, merged)
}

#[cfg(test)]
mod tests {
    use super::*;

    const FRESH: &str = r#"{
  "schema": "sophie-bench-v1",
  "mode": "quick",
  "results": [
    {"id": "tile_mvm/forward/64", "median_ns": 500.0, "samples": 7, "iters_per_sample": 100}
  ]
}
"#;

    #[test]
    fn merge_carries_blocks_the_fresh_document_lacks() {
        let old = r#"{
  "schema": "sophie-bench-v1",
  "serving": {"mode": "closed", "requests": 16, "throughput_rps": 1079.5},
  "results": [
    {"id": "tile_mvm/forward/64", "median_ns": 1374.2, "samples": 7, "iters_per_sample": 100}
  ]
}"#;
        let merged = merge_preserving_blocks(FRESH, old);
        let doc = Json::parse(&merged).expect("merged output is valid JSON");
        // Fresh keys win: the stale results array must not leak through.
        let results = doc.get("results").unwrap().as_arr().unwrap();
        assert_eq!(results.len(), 1);
        assert_eq!(
            results[0].get("median_ns").unwrap().as_f64(),
            Some(500.0),
            "fresh median must replace the stale one"
        );
        // The block the fresh run did not regenerate is preserved.
        let serving = doc.get("serving").expect("serving block carried over");
        assert_eq!(serving.get("requests").unwrap().as_u64(), Some(16));
        assert_eq!(
            serving.get("throughput_rps").unwrap().as_f64(),
            Some(1079.5)
        );
    }

    #[test]
    fn merge_is_identity_when_nothing_needs_preserving() {
        let old = r#"{"schema": "sophie-bench-v1", "results": []}"#;
        assert_eq!(merge_preserving_blocks(FRESH, old), FRESH);
    }

    #[test]
    fn merge_falls_back_to_fresh_on_unparseable_history() {
        assert_eq!(merge_preserving_blocks(FRESH, "not json"), FRESH);
        assert_eq!(merge_preserving_blocks(FRESH, ""), FRESH);
    }

    #[test]
    fn summary_json_emits_the_tile_kernel_asymmetry_fix_block() {
        let results = vec![
            BenchResult {
                id: "tile_mvm/forward/64".to_string(),
                median_ns: 500.0,
                samples: 7,
                iters_per_sample: 100,
            },
            BenchResult {
                id: "tile_mvm/transposed/64".to_string(),
                median_ns: 450.0,
                samples: 7,
                iters_per_sample: 100,
            },
        ];
        let text = summary_json(&results);
        let doc = Json::parse(&text).expect("summary is valid JSON");
        let block = doc.get("tile_kernel_asymmetry_fix").expect("block present");
        assert_eq!(
            block.get("after_forward_64_ns").unwrap().as_f64(),
            Some(500.0)
        );
        assert_eq!(
            block.get("before_forward_64_ns").unwrap().as_f64(),
            Some(1374.2)
        );
        // The house layout: depth-1 blocks span lines, records are inline.
        assert!(text.starts_with("{\n  \"schema\": \"sophie-bench-v1\",\n"));
        assert!(text.contains("  \"tile_kernel_asymmetry_fix\": {\n    \"before_forward_64_ns\": "));
        assert!(text.ends_with(
            "  \"results\": [\n    {\"id\": \"tile_mvm/forward/64\", \
             \"median_ns\": 500, \"samples\": 7, \"iters_per_sample\": 100},\n    \
             {\"id\": \"tile_mvm/transposed/64\", \"median_ns\": 450, \
             \"samples\": 7, \"iters_per_sample\": 100}\n  ]\n}\n"
        ));
    }
}
