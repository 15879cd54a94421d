//! Absolute goldens for the engine's event streams.
//!
//! The other determinism suites compare runs with each other (threads
//! against threads, kernel against kernel), so a change that shifts every
//! stream the same way passes them all. This suite pins FNV-1a digests of
//! the solve-event JSONL of three engine paths — `sophie`, `sophie-opcm`,
//! and a fault-aware OPCM run recovering with `RecoveryPolicy::Reprogram` —
//! plus the command timeline (key, kind, cost of every record) of the
//! `sophie` run. Two small instances cover the tile shapes: one at tile 16,
//! and one at tile 64 whose edge tiles are trimmed. One more digest pins a
//! warm-started run over an explicitly supplied schedule. The digests hold
//! at every `SOPHIE_THREADS` value.
//!
//! Set `SOPHIE_PRINT_DIGESTS=1` to print the digests instead of checking
//! them.

mod common;

use std::sync::{Arc, Mutex};

use sophie::core::backend::IdealBackend;
use sophie::core::observe::EventLog;
use sophie::core::queue::{Completion, TimelineSink};
use sophie::core::{EngineRun, HealthConfig, RecoveryPolicy, Schedule, SophieConfig, SophieSolver};
use sophie::graph::generate::{gnm, WeightDist};
use sophie::graph::Graph;
use sophie::hw::{FaultSchedule, OpcmBackendConfig, SophieOpcm};
use sophie::solve::{OpCounts, SolveJob, Solver};

use common::Fnv;

/// `SOPHIE_THREADS` is process-global; serialize the tests that set it.
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn with_threads<T>(threads: &str, f: impl FnOnce() -> T) -> T {
    std::env::set_var("SOPHIE_THREADS", threads);
    let out = f();
    std::env::remove_var("SOPHIE_THREADS");
    out
}

/// Digest of a run's event stream rendered to JSONL, one line per event.
fn event_digest(log: &EventLog) -> u64 {
    common::event_digest(log.events())
}

/// Timeline sink hashing every record's key, kind (or host stage) and
/// cost in arrival order.
struct TimelineDigest(Fnv);

impl TimelineSink for TimelineDigest {
    fn device(&mut self, c: &Completion) {
        let line = format!(
            "device {} {} {} {} {}\n",
            c.key.round,
            c.key.wave,
            c.key.unit,
            c.kind,
            c.cost.to_json()
        );
        self.0.feed(line.as_bytes());
    }

    fn host(&mut self, round: u64, stage: &'static str, cost: &OpCounts) {
        let line = format!("host {round} {stage} {}\n", cost.to_json());
        self.0.feed(line.as_bytes());
    }
}

/// The two instances: tile 16 on a 6×6 grid, and tile 64 on a 2×2 grid
/// whose edge tiles hold only 36 used rows and columns.
fn instances() -> Vec<(&'static str, Arc<Graph>, SophieConfig)> {
    let base = SophieConfig {
        local_iters: 4,
        phi: 0.25,
        alpha: 0.1,
        ..SophieConfig::default()
    };
    vec![
        (
            "t16",
            Arc::new(gnm(96, 500, WeightDist::UniformInt { lo: -3, hi: 3 }, 11).unwrap()),
            SophieConfig {
                tile_size: 16,
                global_iters: 30,
                tile_fraction: 0.6,
                ..base.clone()
            },
        ),
        (
            "t64-trimmed",
            Arc::new(gnm(100, 800, WeightDist::UniformInt { lo: -3, hi: 3 }, 5).unwrap()),
            SophieConfig {
                tile_size: 64,
                global_iters: 25,
                tile_fraction: 0.7,
                ..base
            },
        ),
    ]
}

/// `[dense events, opcm events, fault-aware events, dense timeline]` of
/// one instance.
fn digests(graph: &Arc<Graph>, config: &SophieConfig) -> [u64; 4] {
    let job = SolveJob::new(Arc::clone(graph), 42);
    let solve = |solver: &dyn Solver| {
        let mut log = EventLog::new();
        solver.solve(&job, &mut log).unwrap();
        log
    };
    let dense = Arc::new(SophieSolver::from_graph(graph, config.clone()).unwrap());

    let opcm = SophieOpcm::from_engine(
        Arc::clone(&dense),
        OpcmBackendConfig {
            seed: 7,
            ..OpcmBackendConfig::default()
        },
    )
    .unwrap();
    let faulty = SophieOpcm::from_engine(
        Arc::clone(&dense),
        OpcmBackendConfig {
            seed: 7,
            faults: FaultSchedule::uniform(0.08, 99),
            ..OpcmBackendConfig::default()
        },
    )
    .unwrap()
    .with_health(HealthConfig {
        policy: RecoveryPolicy::Reprogram { max_attempts: 3 },
        ..HealthConfig::default()
    })
    .unwrap();
    let fault_log = solve(&faulty);
    let fault_stream: String = fault_log.events().iter().map(|e| e.to_json()).collect();
    assert!(
        fault_stream.contains("fault_injected") && fault_stream.contains("tile_recovered"),
        "the fault-aware run must inject faults and recover from them"
    );

    let mut timeline = TimelineDigest(Fnv::default());
    let mut timed_log = EventLog::new();
    dense
        .solve_job(
            &IdealBackend::new(),
            &job,
            &EngineRun::default(),
            &mut timed_log,
            &mut timeline,
        )
        .unwrap();
    let dense_log = solve(dense.as_ref());
    assert_eq!(
        event_digest(&timed_log),
        event_digest(&dense_log),
        "attaching a timeline must not change the event stream"
    );

    [
        event_digest(&dense_log),
        event_digest(&solve(&opcm)),
        event_digest(&fault_log),
        timeline.0 .0,
    ]
}

/// `(instance, [dense, opcm, fault-aware, dense timeline])`. Recorded
/// before the fused pair kernel, the blocked variants other than `b32u2`,
/// and the `queue_depth` knob were removed.
const GOLDEN: &[(&str, [u64; 4])] = &[
    (
        "t16",
        [
            0x4f4a_880f_b3b8_483f,
            0x5aca_8627_d5d4_c9af,
            0x1f10_268a_2a84_a06b,
            0xd528_7465_2319_e304,
        ],
    ),
    (
        "t64-trimmed",
        [
            0x6cd2_0c68_83f1_f09d,
            0x3597_2647_2d76_3aac,
            0xb7b6_9332_ff72_cd5e,
            0x1b65_e7b6_c00b_e506,
        ],
    ),
];

#[test]
fn engine_streams_match_recorded_digests_at_every_thread_count() {
    let _guard = ENV_LOCK.lock().unwrap();
    let print = std::env::var_os("SOPHIE_PRINT_DIGESTS").is_some();
    for (label, graph, config) in instances() {
        for threads in ["1", "4"] {
            let got = with_threads(threads, || digests(&graph, &config));
            if print {
                println!(
                    "    (\"{label}\", [{:#018x}, {:#018x}, {:#018x}, {:#018x}]), // {threads}",
                    got[0], got[1], got[2], got[3]
                );
                continue;
            }
            let want = GOLDEN
                .iter()
                .find(|(l, _)| *l == label)
                .unwrap_or_else(|| panic!("no golden digest for {label}"))
                .1;
            assert_eq!(got, want, "{label} at SOPHIE_THREADS={threads}");
        }
    }
}

/// Event digest of a dense run on the `t16` instance, warm-started from
/// every third spin set and driven by a 12-round schedule generated
/// apart from the job seed.
fn warm_start_digest() -> u64 {
    let (_, graph, config) = instances().swap_remove(0);
    let engine = SophieSolver::from_graph(&graph, config).unwrap();
    let schedule = Schedule::generate(engine.grid(), 12, 0.5, true, 2024);
    let bits: Vec<bool> = (0..graph.num_nodes()).map(|i| i % 3 == 0).collect();
    let run = EngineRun {
        schedule: Some(&schedule),
        initial_bits: Some(&bits),
        ..EngineRun::default()
    };
    let job = SolveJob::new(graph, 42).with_target(Some(110.0));
    let mut log = EventLog::new();
    let report = engine
        .solve_job(
            &IdealBackend::new(),
            &job,
            &run,
            &mut log,
            &mut sophie::core::queue::NullTimeline,
        )
        .unwrap();
    assert_eq!(
        report.iterations_run, 12,
        "the supplied schedule is run as given"
    );
    event_digest(&log)
}

/// Recorded through the engine's former warm-start entry point, which took
/// the schedule, seed, target and initial bits as separate arguments.
const WARM_START_GOLDEN: u64 = 0xdb39_2bbf_dec6_c764;

#[test]
fn warm_started_scheduled_run_matches_recorded_digest_at_every_thread_count() {
    let _guard = ENV_LOCK.lock().unwrap();
    let print = std::env::var_os("SOPHIE_PRINT_DIGESTS").is_some();
    for threads in ["1", "4"] {
        let got = with_threads(threads, warm_start_digest);
        if print {
            println!("    warm start: {got:#018x} // {threads}");
            continue;
        }
        assert_eq!(
            got, WARM_START_GOLDEN,
            "warm start at SOPHIE_THREADS={threads}"
        );
    }
}
