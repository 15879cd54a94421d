//! Thread-count-independence of the fault/recovery pipeline.
//!
//! Fault events are drawn from RNG streams keyed purely by
//! `(schedule seed, round, unit id)`, reports are drained by the driving
//! thread in ascending pair order, and probing/recovery run serially —
//! so the *entire* solve-event stream of a fault-aware run, including
//! `fault_injected`, `fault_detected`, `tile_recovered`, and
//! `recovery_exhausted` lines, must be byte-identical for every
//! `SOPHIE_THREADS` value.

mod common;

use std::sync::{Arc, Mutex};

use sophie::core::observe::EventLog;
use sophie::core::queue::NullTimeline;
use sophie::core::{EngineRun, HealthConfig, RecoveryPolicy, SophieConfig, SophieSolver};
use sophie::graph::generate::{gnm, WeightDist};
use sophie::graph::Graph;
use sophie::hw::{FaultSchedule, OpcmBackend, OpcmBackendConfig, SophieOpcm};
use sophie::solve::{SolveJob, Solver};

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

/// One fault-aware run under `threads`, returning the whole event stream
/// rendered to JSONL (byte comparison catches *any* divergence: order,
/// payloads, and counts alike) plus the report's best cut.
fn run_stream(
    solver: &SophieSolver,
    g: &Arc<Graph>,
    health: &HealthConfig,
    threads: &str,
) -> (String, f64) {
    with_threads(threads, || {
        let backend = OpcmBackend::new(OpcmBackendConfig {
            seed: 7,
            faults: FaultSchedule::uniform(0.08, 99),
            ..OpcmBackendConfig::default()
        });
        let run = EngineRun {
            health: Some(health),
            ..EngineRun::default()
        };
        let mut log = EventLog::new();
        let report = solver
            .solve_job(
                &backend,
                &SolveJob::new(Arc::clone(g), 42),
                &run,
                &mut log,
                &mut NullTimeline,
            )
            .unwrap();
        let jsonl: Vec<String> = log.events().iter().map(|e| e.to_json()).collect();
        (jsonl.join("\n"), report.best_cut)
    })
}

#[test]
fn fault_and_recovery_event_streams_match_across_thread_counts() {
    let _guard = ENV_LOCK.lock().unwrap();
    let (g, solver) = test_instance();
    let health = HealthConfig::default();
    let (serial, cut1) = run_stream(&solver, &g, &health, "1");
    let (four, cut4) = run_stream(&solver, &g, &health, "4");
    assert!(
        serial.contains("fault_injected"),
        "the schedule must actually fire faults"
    );
    assert!(
        serial.contains("fault_detected") && serial.contains("tile_recovered"),
        "the monitor must detect and recover"
    );
    assert_eq!(serial, four, "event stream must be byte-identical");
    assert_eq!(cut1, cut4);
}

#[test]
fn remap_and_quarantine_streams_match_across_thread_counts() {
    let _guard = ENV_LOCK.lock().unwrap();
    let (g, solver) = test_instance();
    for policy in [
        RecoveryPolicy::Remap {
            reprogram_attempts: 1,
            max_spares: 8,
        },
        RecoveryPolicy::Quarantine {
            reprogram_attempts: 1,
        },
    ] {
        let health = HealthConfig {
            policy,
            ..HealthConfig::default()
        };
        let (serial, _) = run_stream(&solver, &g, &health, "1");
        let (four, _) = run_stream(&solver, &g, &health, "4");
        assert_eq!(serial, four, "policy {policy:?}");
    }
}

/// Event-stream digest of the default-health fault-aware run in
/// [`run_stream`], recorded from the engine's former fault-aware entry
/// point.
const FAULT_AWARE_GOLDEN: u64 = 0x04be_b2d4_6f32_9301;

#[test]
fn trait_object_fault_aware_stream_matches_legacy_across_thread_counts() {
    let _guard = ENV_LOCK.lock().unwrap();
    let (graph, solver) = test_instance();
    let health = HealthConfig::default();
    let backend_config = OpcmBackendConfig {
        seed: 7,
        faults: FaultSchedule::uniform(0.08, 99),
        ..OpcmBackendConfig::default()
    };
    let opcm: Arc<dyn Solver> = Arc::new(
        SophieOpcm::new(solver.config().clone(), backend_config, Arc::default())
            .unwrap()
            .with_health(health)
            .unwrap(),
    );
    let trait_digest = |threads: &str| {
        with_threads(threads, || {
            let mut log = EventLog::new();
            opcm.solve(&SolveJob::new(Arc::clone(&graph), 42), &mut log)
                .unwrap();
            common::event_digest(log.events())
        })
    };
    assert_eq!(
        trait_digest("1"),
        FAULT_AWARE_GOLDEN,
        "recorded digest, 1 thread"
    );
    assert_eq!(
        trait_digest("4"),
        FAULT_AWARE_GOLDEN,
        "recorded digest, 4 threads"
    );
}
