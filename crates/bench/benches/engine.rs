//! Microbenchmarks of the tiled engine: full jobs, schedule generation,
//! and the analytic op-count replay. Suites
//! live in [`sophie_bench::micro`] so `repro bench-summary` can run the
//! same code in-process.

use criterion::{criterion_group, criterion_main};
use sophie_bench::micro;

criterion_group!(
    benches,
    micro::engine_job,
    micro::schedule_generation,
    micro::analytic_counts
);
criterion_main!(benches);
