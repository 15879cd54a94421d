//! Microbenchmarks comparing solver iteration costs: SOPHIE's engine vs
//! PRIS, simulated annealing, simulated bifurcation, and local search;
//! plus [`sophie_bench::micro::baselines`], the served-size SA, PT and BLS
//! jobs that `repro bench-summary` runs too.

use std::hint::black_box;
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use sophie_baselines::local_search::{search, BlsConfig};
use sophie_baselines::sa::{anneal, SaConfig};
use sophie_baselines::sb::{bifurcate, SbConfig, SbVariant};
use sophie_bench::micro;
use sophie_graph::generate::{gnm, WeightDist};
use sophie_pris::{PrisJobConfig, PrisSolver};
use sophie_solve::{NullObserver, SolveJob, Solver};

fn bench_solvers(c: &mut Criterion) {
    let g = Arc::new(gnm(256, 1280, WeightDist::Unit, 9).unwrap());
    let mut group = c.benchmark_group("solver_256_nodes");
    group.sample_size(10);

    group.bench_function("sa_50_sweeps", |b| {
        b.iter(|| {
            anneal(
                black_box(&g),
                &SaConfig {
                    sweeps: 50,
                    ..SaConfig::default()
                },
            )
        });
    });
    group.bench_function("dsb_200_steps", |b| {
        b.iter(|| {
            bifurcate(
                black_box(&g),
                &SbConfig {
                    steps: 200,
                    variant: SbVariant::Discrete,
                    ..SbConfig::default()
                },
            )
        });
    });
    group.bench_function("bls_5_rounds", |b| {
        b.iter(|| {
            search(
                black_box(&g),
                &BlsConfig {
                    rounds: 5,
                    ..BlsConfig::default()
                },
            )
        });
    });
    // A fresh transform cache per iteration: every job pays the
    // eigenvalue-dropout preprocessing, as a first request on a graph does.
    let pris = PrisJobConfig {
        alpha: 0.0,
        iterations: 100,
        phi: 0.1,
    };
    let job = SolveJob::new(Arc::clone(&g), 1);
    group.bench_function("pris_100_iters", |b| {
        b.iter(|| {
            PrisSolver::new(pris, Arc::default())
                .solve(black_box(&job), &mut NullObserver)
                .unwrap()
        });
    });
    group.finish();
}

criterion_group!(benches, bench_solvers, micro::baselines);
criterion_main!(benches);
