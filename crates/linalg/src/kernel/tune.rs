//! Startup autotuner: micro-benchmarks the kernel variants per tile size
//! and picks each direction's fastest [`KernelVariant::TUNED`] candidate.
//!
//! Each process measures a tile size once, on first use, and memoizes the
//! plan; nothing is persisted, so a pick skewed by interference on a busy
//! host lives only as long as the process that measured it.
//!
//! Because every variant is bit-identical (see the module docs of
//! [`crate::kernel`]), a noisy winner is harmless: any plan produces the
//! same solver bits, so tuning only has to be *roughly* right to collect
//! the wall-clock win.

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use super::{KernelPlan, KernelVariant, Sweep};
use crate::tile::Tile;

/// Per-variant, per-direction measurement for one tile size — what
/// `repro tune` records into `BENCH_sophie.json`.
#[derive(Debug, Clone)]
pub struct TuneReport {
    /// Tile edge length measured.
    pub tile_size: usize,
    /// `(variant, forward ns, transposed ns)` per variant, in
    /// [`KernelVariant::ALL`] order.
    pub table: Vec<(KernelVariant, f64, f64)>,
    /// The plan the measurements select.
    pub plan: KernelPlan,
}

impl TuneReport {
    /// Nanoseconds measured for `variant` in the given direction.
    #[must_use]
    pub fn ns_for(&self, variant: KernelVariant, forward: bool) -> f64 {
        self.table
            .iter()
            .find(|(v, _, _)| *v == variant)
            .map(|&(_, f, t)| if forward { f } else { t })
            .unwrap_or(f64::NAN)
    }
}

/// The autotuned plan for tiles of edge length `t`, measured once per
/// process.
#[must_use]
pub fn tuned_plan(t: usize) -> KernelPlan {
    static MEMO: OnceLock<Mutex<HashMap<usize, KernelPlan>>> = OnceLock::new();
    let memo = MEMO.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(plan) = memo.lock().unwrap().get(&t) {
        return *plan;
    }
    // Measure outside the lock: concurrent first-callers may race to
    // measure, but every answer is valid (bit-identity) and the map
    // settles on one.
    let plan = measure(t).plan;
    memo.lock().unwrap().insert(t, plan);
    plan
}

/// Runs a fresh measurement (ignoring the memo) and returns the full
/// timing table — the entry point for `repro tune`.
#[must_use]
pub fn measure(t: usize) -> TuneReport {
    let tile = bench_tile(t);
    let x = bench_input(t);
    let mut y = vec![0.0_f32; t];
    let reps = ((1usize << 20) / (t * t).max(1)).clamp(8, 256);

    // Candidate 2·v is variant v forward, 2·v + 1 the same transposed.
    let sweeps = [Sweep::forward(&tile), Sweep::transposed(&tile)];
    let ns = time_round_robin(reps, 2 * KernelVariant::ALL.len(), |c| {
        super::run_sweep(KernelVariant::ALL[c / 2], &sweeps[c % 2], &x, &mut y);
    });
    let mut report = TuneReport {
        tile_size: t,
        table: KernelVariant::ALL
            .iter()
            .zip(ns.chunks_exact(2))
            .map(|(&v, fwd_trn)| (v, fwd_trn[0], fwd_trn[1]))
            .collect(),
        plan: KernelPlan::scalar(),
    };
    // First minimum in `TUNED` order, per direction.
    let fastest = |forward: bool| {
        KernelVariant::TUNED
            .into_iter()
            .min_by(|&a, &b| {
                report
                    .ns_for(a, forward)
                    .total_cmp(&report.ns_for(b, forward))
            })
            .expect("at least one tuned candidate")
    };
    let plan = KernelPlan {
        forward: fastest(true),
        transposed: fastest(false),
    };
    report.plan = plan;
    report
}

/// Timing passes per candidate; each candidate's best pass counts.
const PASSES: usize = 3;

/// Median-free robust timing of `candidates` kernels, `run(c)` running
/// candidate `c` once: 2 warm-up runs each, then [`PASSES`] passes of
/// `reps` runs, round robin over the candidates so that an interference
/// episode on a noisy host slows every candidate alike rather than the
/// one that happened to be running. Returns each candidate's best ns per
/// run.
fn time_round_robin(reps: usize, candidates: usize, mut run: impl FnMut(usize)) -> Vec<f64> {
    for c in 0..candidates {
        run(c);
        run(c);
    }
    let mut best = vec![f64::INFINITY; candidates];
    for _ in 0..PASSES {
        for (c, best_c) in best.iter_mut().enumerate() {
            let start = Instant::now();
            for _ in 0..reps {
                run(c);
            }
            let ns = start.elapsed().as_nanos() as f64 / reps as f64;
            *best_c = best_c.min(ns);
        }
    }
    best
}

/// Deterministic LCG-filled benchmark tile, dense with a sprinkling of
/// exact zeros so zero-skipping variants see realistic work.
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

/// Spin-like benchmark input: about a third exact zeros, the rest ±1-ish.
fn bench_input(t: usize) -> Vec<f32> {
    (0..t)
        .map(|i| {
            if i % 3 == 0 {
                0.0
            } else if i % 2 == 0 {
                1.0
            } else {
                -1.0
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_produces_full_table_and_valid_plan() {
        let report = measure(16);
        assert_eq!(report.tile_size, 16);
        let variants: Vec<KernelVariant> = report.table.iter().map(|row| row.0).collect();
        assert_eq!(variants, KernelVariant::ALL.to_vec());
        for &(_, f_ns, t_ns) in &report.table {
            assert!(f_ns > 0.0 && f_ns.is_finite());
            assert!(t_ns > 0.0 && t_ns.is_finite());
        }
        assert!(report.ns_for(KernelVariant::Scalar, true) > 0.0);
        // The plan takes each direction's fastest tuned candidate; the
        // scalar reference is timed but never picked.
        let min_over_tuned = |forward: bool| {
            KernelVariant::TUNED
                .iter()
                .map(|&v| report.ns_for(v, forward))
                .fold(f64::INFINITY, f64::min)
        };
        assert!(KernelVariant::TUNED.contains(&report.plan.forward));
        assert!(KernelVariant::TUNED.contains(&report.plan.transposed));
        assert_eq!(
            report.ns_for(report.plan.forward, true),
            min_over_tuned(true)
        );
        assert_eq!(
            report.ns_for(report.plan.transposed, false),
            min_over_tuned(false)
        );
    }

    #[test]
    fn timing_passes_go_round_robin_over_candidates() {
        let mut calls = Vec::new();
        let ns = time_round_robin(2, 3, |c| calls.push(c));
        assert_eq!(ns.len(), 3);
        assert!(ns.iter().all(|x| x.is_finite() && *x >= 0.0));
        // Warm-up pairs, then PASSES rounds of c0 c0 c1 c1 c2 c2.
        let mut want = vec![0, 0, 1, 1, 2, 2];
        for _ in 0..PASSES {
            want.extend([0, 0, 1, 1, 2, 2]);
        }
        assert_eq!(calls, want);
    }

    #[test]
    fn tuned_plan_is_memoized() {
        let a = tuned_plan(8);
        let b = tuned_plan(8);
        assert_eq!(a, b);
    }
}
