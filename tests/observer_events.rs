//! Observer-event regression tests across the whole solver family.
//!
//! The instrumentation layer (`sophie::solve`) promises that a solver's
//! event stream is (a) deterministic for a fixed seed, (b) independent of
//! `SOPHIE_THREADS` — events are emitted only from the driving thread in
//! a fixed order — and (c) faithful: the report is the one a
//! [`TraceRecorder`] distills from the stream, and the stream matches the
//! digests recorded from the engine's former observed entry point. These
//! tests pin all three properties for the SOPHIE engine, the PRIS runner,
//! and the SA/SB baselines.

mod common;

use std::sync::{Arc, Mutex};

use sophie::baselines::{SaConfig, SaSolver, SbConfig, SbSolver};
use sophie::core::{SophieConfig, SophieSolver};
use sophie::graph::cut::cut_value_binary;
use sophie::graph::generate::{gnm, WeightDist};
use sophie::graph::Graph;
use sophie::pris::{PrisJobConfig, PrisSolver};
use sophie::solve::{
    EventLog, SolveEvent, SolveJob, SolveObserver, SolveReport, Solver, TraceRecorder,
};

/// `SOPHIE_THREADS` is process-global; serialize the tests that set it.
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn with_threads<T>(threads: &str, f: impl FnOnce() -> T) -> T {
    std::env::set_var("SOPHIE_THREADS", threads);
    let out = f();
    std::env::remove_var("SOPHIE_THREADS");
    out
}

fn test_instance() -> (Arc<Graph>, SophieSolver) {
    let g = Arc::new(gnm(96, 500, WeightDist::UniformInt { lo: -3, hi: 3 }, 11).unwrap());
    let cfg = SophieConfig {
        tile_size: 16,
        local_iters: 4,
        global_iters: 40,
        tile_fraction: 0.6,
        phi: 0.25,
        alpha: 0.1,
        ..SophieConfig::default()
    };
    let solver = SophieSolver::from_graph(&g, cfg).unwrap();
    (g, solver)
}

/// One job through `Solver::solve`, streaming to `observer`.
fn solve(
    solver: &dyn Solver,
    g: &Arc<Graph>,
    seed: u64,
    target: Option<f64>,
    observer: &mut EventLog,
) -> SolveReport {
    let job = SolveJob::new(Arc::clone(g), seed).with_target(target);
    solver.solve(&job, observer).unwrap()
}

/// Event-stream digests of [`test_instance`] at target 600 for seeds 0 and
/// 42, recorded from the engine's former observed entry point.
const GOLDEN: [(u64, u64); 2] = [(0, 0x1e6c_9efb_fd63_3142), (42, 0xeb0f_4993_6b6f_d3cf)];

#[test]
fn engine_event_stream_is_identical_across_thread_counts() {
    let _guard = ENV_LOCK.lock().unwrap();
    let (g, solver) = test_instance();
    let capture = || {
        let mut log = EventLog::new();
        solve(&solver, &g, 42, Some(600.0), &mut log);
        log.into_events()
    };
    let serial = with_threads("1", capture);
    let four = with_threads("4", capture);
    let eight = with_threads("8", capture);
    assert!(!serial.is_empty());
    assert_eq!(serial, four, "1 vs 4 threads");
    assert_eq!(serial, eight, "1 vs 8 threads");
}

#[test]
fn trace_recorder_report_matches_the_engine_outcome() {
    let (g, solver) = test_instance();
    for (seed, digest) in GOLDEN {
        let mut log = EventLog::new();
        let report = solve(&solver, &g, seed, Some(600.0), &mut log);
        // The stream is the one the former observed entry point emitted…
        assert_eq!(common::event_digest(log.events()), digest, "seed {seed}");
        // …the report is exactly what a recorder distills from it…
        let mut rec = TraceRecorder::new();
        for event in log.events() {
            rec.on_event(event);
        }
        let distilled = rec.into_report();
        assert_eq!(
            SolveReport {
                best_bits: Vec::new(),
                ..report.clone()
            },
            distilled
        );
        assert_eq!(report.solver, "sophie");
        assert_eq!(report.seed, seed);
        // …and the out-of-band bits reproduce the best cut.
        assert_eq!(cut_value_binary(&g, &report.best_bits), report.best_cut);
    }
}

#[test]
fn engine_sync_deltas_sum_to_the_run_totals_and_jsonl_is_valid() {
    let (g, solver) = test_instance();
    let mut log = EventLog::new();
    let out = solve(&solver, &g, 7, None, &mut log);

    let mut summed = sophie::solve::OpCounts::default();
    for ev in log.events() {
        if let SolveEvent::GlobalSync { ops_delta, .. } = ev {
            summed = summed.combined(ops_delta);
        }
    }
    assert_eq!(summed, out.ops, "per-sync deltas must tile the run totals");

    // Every event serializes to one well-formed JSON object line.
    for ev in log.events() {
        let line = ev.to_json();
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        assert!(!line.contains('\n'), "{line}");
        assert_eq!(
            line.matches('{').count(),
            line.matches('}').count(),
            "{line}"
        );
    }
}

/// Framing shared by every solver: one `RunStarted` first, one
/// `RunFinished` last, a round-0 `GlobalSync`, at most one
/// `TargetReached`, and monotonically non-decreasing sync rounds.
fn assert_well_formed(events: &[SolveEvent], solver: &str) {
    assert!(
        matches!(events.first(), Some(SolveEvent::RunStarted { solver: s, .. }) if *s == solver),
        "{solver}: stream must open with RunStarted"
    );
    assert!(
        matches!(events.last(), Some(SolveEvent::RunFinished { .. })),
        "{solver}: stream must close with RunFinished"
    );
    let sync_rounds: Vec<usize> = events
        .iter()
        .filter_map(|e| match e {
            SolveEvent::GlobalSync { round, .. } => Some(*round),
            _ => None,
        })
        .collect();
    assert_eq!(sync_rounds.first(), Some(&0), "{solver}: round-0 sync");
    assert!(
        sync_rounds.windows(2).all(|w| w[0] < w[1]),
        "{solver}: sync rounds must increase"
    );
    let hits = events
        .iter()
        .filter(|e| matches!(e, SolveEvent::TargetReached { .. }))
        .count();
    assert!(hits <= 1, "{solver}: at most one TargetReached, got {hits}");
}

#[test]
fn pris_and_baselines_emit_well_formed_streams() {
    let g = Arc::new(gnm(48, 200, WeightDist::Unit, 3).unwrap());

    let mut log = EventLog::new();
    let pris = PrisSolver::new(
        PrisJobConfig {
            alpha: 0.1,
            iterations: 30,
            ..PrisJobConfig::default()
        },
        Arc::default(),
    );
    solve(&pris, &g, 0, None, &mut log);
    assert_well_formed(log.events(), "pris");

    let mut log = EventLog::new();
    let sa = SaSolver::new(SaConfig {
        sweeps: 25,
        ..SaConfig::default()
    })
    .unwrap();
    solve(&sa, &g, 0, Some(1.0), &mut log);
    assert_well_formed(log.events(), "sa");

    let mut log = EventLog::new();
    let sb = SbSolver::new(SbConfig {
        steps: 25,
        ..SbConfig::default()
    })
    .unwrap();
    solve(&sb, &g, 0, Some(1.0), &mut log);
    assert_well_formed(log.events(), "sb");

    let mut log = EventLog::new();
    let (graph2, solver) = test_instance();
    solve(&solver, &graph2, 0, Some(600.0), &mut log);
    assert_well_formed(log.events(), "sophie");
}

#[test]
fn trait_solve_emits_the_same_stream_as_run_observed() {
    let _guard = ENV_LOCK.lock().unwrap();
    let (g, solver) = test_instance();
    let mut log = EventLog::new();
    solve(&solver, &g, 42, Some(600.0), &mut log);
    assert!(!log.events().is_empty());
    // The digest recorded from the engine's former observed entry point
    // for this (graph, seed, target).
    assert_eq!(common::event_digest(log.events()), GOLDEN[1].1);
}
