//! Per-command cost attribution: the device runtime's exactness contract.
//!
//! Every device command completion carries an exact [`OpCounts`] record,
//! and every host-side stage reports its delta to the [`TimelineSink`].
//! These tests drive full solves over all four execution paths — the ideal
//! dense backend, the delta-driven sparse backend, the clean OPCM device
//! model, and OPCM with injected transient faults plus active recovery —
//! and assert that the records sum **exactly** (integer equality, every
//! field) to the aggregate counts of the run's [`SolveReport`], at
//! `SOPHIE_THREADS` 1 and 4, and that the annotated energies sum
//! accordingly. They also pin the determinism contract (the record-key
//! stream is byte-identical across thread counts) and the
//! probe/solve overlap the async runtime exists for.

use std::sync::Arc;

use sophie_core::backend::IdealBackend;
use sophie_core::queue::{Completion, TimelineSink};
use sophie_core::{
    EngineRun, HealthConfig, OpCounts, RecoveryPolicy, SolveJob, SophieConfig, SophieSolver,
    SparseBackend,
};
use sophie_graph::generate::{gnm, WeightDist};
use sophie_graph::Graph;
use sophie_hw::queue::CommandCostModel;
use sophie_hw::{FaultSchedule, OpcmBackend, OpcmBackendConfig};
use sophie_solve::NullObserver;

/// `(round, wave, unit, kind)` of one device record.
type RecordKey = (u64, u32, u32, &'static str);

/// Collects every timeline record: summed costs plus the device-record
/// key/kind stream for determinism comparisons.
#[derive(Debug, Default)]
struct Collector {
    device: OpCounts,
    host: OpCounts,
    /// Device-record keys in emission order.
    keys: Vec<RecordKey>,
    host_stages: Vec<(u64, &'static str)>,
}

impl TimelineSink for Collector {
    fn device(&mut self, c: &Completion) {
        self.device = self.device.combined(&c.cost);
        self.keys
            .push((c.key.round, c.key.wave, c.key.unit, c.kind));
    }

    fn host(&mut self, round: u64, stage: &'static str, cost: &OpCounts) {
        self.host = self.host.combined(cost);
        self.host_stages.push((round, stage));
    }
}

fn test_graph() -> Graph {
    gnm(60, 500, WeightDist::UniformInt { lo: -2, hi: 2 }, 7).unwrap()
}

fn test_config() -> SophieConfig {
    SophieConfig {
        tile_size: 16,
        local_iters: 4,
        global_iters: 12,
        tile_fraction: 0.8,
        phi: 0.1,
        ..SophieConfig::default()
    }
}

fn faulty_backend() -> OpcmBackend {
    OpcmBackend::new(OpcmBackendConfig {
        faults: FaultSchedule::uniform(0.05, 99),
        ..OpcmBackendConfig::default()
    })
}

fn recovery_health(policy: RecoveryPolicy) -> HealthConfig {
    HealthConfig {
        check_interval: 2,
        policy,
        ..HealthConfig::default()
    }
}

/// Runs one job over `backend` and returns `(report_ops, collector)`.
fn run_collected<B: sophie_core::backend::MvmBackend>(
    solver: &SophieSolver,
    backend: &B,
    graph: &Arc<Graph>,
    health: Option<&HealthConfig>,
) -> (OpCounts, Collector) {
    let mut sink = Collector::default();
    let run = EngineRun {
        health,
        ..EngineRun::default()
    };
    let report = solver
        .solve_job(
            backend,
            &SolveJob::new(Arc::clone(graph), 5),
            &run,
            &mut NullObserver,
            &mut sink,
        )
        .unwrap();
    (report.ops, sink)
}

fn assert_exact_sum(label: &str, report_ops: &OpCounts, sink: &Collector) {
    let summed = sink.device.combined(&sink.host);
    assert_eq!(
        summed, *report_ops,
        "{label}: device records {:?} + host records {:?} must sum to the report exactly",
        sink.device, sink.host
    );
    // And the annotated energy follows (the model is linear, so this pins
    // the wiring, not new arithmetic).
    let model = CommandCostModel::sophie_default();
    let parts = model.energy_j(&sink.device) + model.energy_j(&sink.host);
    let total = model.energy_j(report_ops);
    assert!(total > 0.0, "{label}: run must have nonzero energy");
    assert!(
        (parts - total).abs() <= 1e-9 * total,
        "{label}: per-record energies {parts} must sum to the aggregate {total}"
    );
}

/// All four execution paths, at 1 and 4 worker threads: record sums are
/// exact, and the record streams are identical across thread counts.
///
/// One test function (not four) because it mutates `SOPHIE_THREADS`,
/// which must not race sibling tests in this binary.
#[test]
fn per_command_costs_sum_exactly_across_backends_and_threads() {
    let graph = Arc::new(test_graph());
    let solver = SophieSolver::from_graph(&graph, test_config()).unwrap();
    let health = recovery_health(RecoveryPolicy::Reprogram { max_attempts: 2 });

    let prev = std::env::var("SOPHIE_THREADS").ok();
    let mut streams: Vec<Vec<RecordKey>> = Vec::new();
    for threads in ["1", "4"] {
        std::env::set_var("SOPHIE_THREADS", threads);
        let mut keys_this_thread_count = Vec::new();

        let (ops, sink) = run_collected(&solver, &IdealBackend::new(), &graph, None);
        assert_exact_sum(&format!("ideal/t{threads}"), &ops, &sink);
        keys_this_thread_count.push(sink.keys);

        let (ops, sink) = run_collected(&solver, &SparseBackend::auto(), &graph, None);
        assert_exact_sum(&format!("sparse/t{threads}"), &ops, &sink);
        keys_this_thread_count.push(sink.keys);

        let clean = OpcmBackend::new(OpcmBackendConfig::default());
        let (ops, sink) = run_collected(&solver, &clean, &graph, None);
        assert_exact_sum(&format!("opcm/t{threads}"), &ops, &sink);
        keys_this_thread_count.push(sink.keys);

        let (ops, sink) = run_collected(&solver, &faulty_backend(), &graph, Some(&health));
        assert!(
            ops.probe_mvms > 0,
            "fault-aware run must have probed (t{threads})"
        );
        assert_exact_sum(&format!("opcm+faults/t{threads}"), &ops, &sink);
        keys_this_thread_count.push(sink.keys);

        streams.push(keys_this_thread_count.concat());
    }
    match prev {
        Some(v) => std::env::set_var("SOPHIE_THREADS", v),
        None => std::env::remove_var("SOPHIE_THREADS"),
    }
    assert_eq!(
        streams[0], streams[1],
        "device-record streams must be byte-identical across SOPHIE_THREADS"
    );
}

/// Probe traffic overlaps the solve: in a probed round, probe completions
/// carry wave keys that sort *between* solve-MVM keys of the same round —
/// the monitor's calibration reads execute alongside in-flight local
/// iterations instead of serializing after them.
#[test]
fn probes_interleave_with_solve_mvms_in_the_same_round() {
    let graph = Arc::new(test_graph());
    let solver = SophieSolver::from_graph(&graph, test_config()).unwrap();
    let health = recovery_health(RecoveryPolicy::DetectOnly);
    let (ops, sink) = run_collected(&solver, &faulty_backend(), &graph, Some(&health));
    assert!(ops.probe_mvms > 0);

    let mut sorted = sink.keys.clone();
    sorted.sort_by_key(|&(round, wave, unit, _)| (round, wave, unit));
    let probed_round = sorted
        .iter()
        .find(|r| r.3 == "probe")
        .map(|r| r.0)
        .expect("at least one probe record");
    let round: Vec<_> = sorted.iter().filter(|r| r.0 == probed_round).collect();
    let first_probe = round.iter().position(|r| r.3 == "probe").unwrap();
    let last_mvm = round
        .iter()
        .rposition(|r| r.3.starts_with("mvm_"))
        .expect("round has solve MVMs");
    assert!(
        first_probe < last_mvm,
        "in round {probed_round}, the first probe (index {first_probe}) must sort before the \
         last solve MVM (index {last_mvm}) — probes overlap the solve"
    );
}

/// Every recovery policy keeps the exactness invariant, including the
/// quarantine path whose bookkeeping is a host-side record.
#[test]
fn recovery_policies_preserve_exact_attribution() {
    let graph = Arc::new(test_graph());
    let solver = SophieSolver::from_graph(&graph, test_config()).unwrap();
    for (label, policy) in [
        ("detect", RecoveryPolicy::DetectOnly),
        ("reprogram", RecoveryPolicy::Reprogram { max_attempts: 2 }),
        (
            "remap",
            RecoveryPolicy::Remap {
                reprogram_attempts: 1,
                max_spares: 4,
            },
        ),
        (
            "quarantine",
            RecoveryPolicy::Quarantine {
                reprogram_attempts: 1,
            },
        ),
    ] {
        let health = recovery_health(policy);
        let (ops, sink) = run_collected(&solver, &faulty_backend(), &graph, Some(&health));
        assert_exact_sum(label, &ops, &sink);
        if ops.pairs_quarantined > 0 {
            assert!(
                sink.host_stages.iter().any(|(_, s)| *s == "quarantine"),
                "quarantines must appear as host records"
            );
        }
    }
}
