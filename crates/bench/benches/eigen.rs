//! Microbenchmarks of the symmetric eigensolver and the eigenvalue-dropout
//! preprocessing (the host-side step of every SOPHIE job).
//!
//! Besides small sparse couplings, the suites cover the two sizes the
//! benchmark workloads actually preprocess, the dense K512 coupling
//! (`serve-sophie-k512`) and the G1-shaped n = 800 one (`sim-g1`), in
//! [`sophie_bench::micro::preprocess`], which `repro bench-summary` runs
//! too. The `g22` group adds the largest named instance, G22 (n = 2000),
//! where the O(n³) passes no longer fit a core's caches.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sophie_bench::micro;
use sophie_graph::coupling::{coupling_matrix, delta_diagonal};
use sophie_graph::generate::{gnm, presets, WeightDist};
use sophie_linalg::eigen::{jacobi_eigen, symmetric_eigen};
use sophie_linalg::Matrix;
use sophie_pris::{DeltaVariant, Preprocessor};
use std::hint::black_box;

fn bench_eigensolvers(c: &mut Criterion) {
    let mut group = c.benchmark_group("symmetric_eigen");
    group.sample_size(10);
    for &n in &[64usize, 128, 256] {
        let g = gnm(n, 4 * n, WeightDist::Unit, 7).unwrap();
        let k = coupling_matrix(&g);
        group.bench_with_input(BenchmarkId::new("householder_ql", n), &n, |b, _| {
            b.iter(|| symmetric_eigen(black_box(&k)).unwrap());
        });
        if n <= 128 {
            group.bench_with_input(BenchmarkId::new("jacobi", n), &n, |b, _| {
                b.iter(|| jacobi_eigen(black_box(&k)).unwrap());
            });
        }
    }
    group.finish();
}

fn bench_dropout_transform(c: &mut Criterion) {
    let mut group = c.benchmark_group("dropout_transform");
    group.sample_size(10);
    for n in [128usize, 512] {
        let g = gnm(n, 4 * n, WeightDist::Unit, 3).unwrap();
        let k = coupling_matrix(&g);
        let pre = Preprocessor::new(&k, delta_diagonal(&g), DeltaVariant::Gershgorin).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(n), &pre, |b, pre| {
            b.iter(|| pre.transform(black_box(0.0)).unwrap());
        });
    }
    group.finish();
}

/// `B Bᵀ` alone, on the `B = U·diag(√f)` shapes `transform` feeds it.
fn bench_gram(c: &mut Criterion) {
    let mut group = c.benchmark_group("gram");
    group.sample_size(10);
    for &n in &[512usize, 800] {
        let b_mat = Matrix::from_fn(n, n, |r, c| (((r * 37 + c * 17) % 29) as f64) / 7.0 - 2.0);
        group.bench_with_input(BenchmarkId::from_parameter(n), &b_mat, |b, m| {
            b.iter(|| black_box(m).gram());
        });
    }
    group.finish();
}

/// Eigendecomposition and transform at G22 scale; a call takes seconds,
/// so the group takes the fewest samples the harness allows.
fn bench_g22(c: &mut Criterion) {
    let mut group = c.benchmark_group("g22");
    group.sample_size(3);
    let g = presets::g22_like(1).unwrap();
    let k = coupling_matrix(&g);
    group.bench_with_input(
        BenchmarkId::new("symmetric_eigen", "G22_2000"),
        &k,
        |b, k| {
            b.iter(|| symmetric_eigen(black_box(k)).unwrap());
        },
    );
    let pre = Preprocessor::new(&k, delta_diagonal(&g), DeltaVariant::Gershgorin).unwrap();
    group.bench_with_input(
        BenchmarkId::new("dropout_transform", "G22_2000"),
        &pre,
        |b, pre| {
            b.iter(|| pre.transform(black_box(0.0)).unwrap());
        },
    );
    group.finish();
}

criterion_group!(
    benches,
    bench_eigensolvers,
    micro::preprocess,
    bench_dropout_transform,
    bench_gram,
    bench_g22
);
criterion_main!(benches);
