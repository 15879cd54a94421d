//! Robustness sweep (extension): fault rate × recovery policy.
//!
//! Runs the fault-aware engine on a small complete graph while the OPCM
//! backend fires transient faults (drift bursts, laser droop, stuck
//! cells, ADC saturation, chiplet dropout — dropout dominant, see
//! [`FaultSchedule::uniform`]) and the health monitor applies one of the
//! recovery policies. The table reports solution quality next to the
//! *honest* recovery bill: probe MVMs, recovery reprograms, and the
//! energy/time they add on the cost model. Per-run rows additionally land
//! in `robustness.jsonl` (written atomically) for downstream analysis.

use std::fmt::Write as _;
use std::sync::Arc;

use sophie_core::{HealthConfig, RecoveryPolicy, SophieConfig};
use sophie_hw::arch::MachineConfig;
use sophie_hw::cost::energy::{ops_energy_j, recovery_energy_j};
use sophie_hw::cost::params::CostParams;
use sophie_hw::cost::timing::recovery_time_s;
use sophie_hw::device::opcm::OpcmCellSpec;
use sophie_hw::{FaultSchedule, OpcmBackendConfig, SophieOpcm};
use sophie_solve::{run_batch, BatchJob, BatchOptions, Json, OpCounts, SolveJob, SolveReport};

use crate::experiments::mean;
use crate::fidelity::Fidelity;
use crate::instances::Instances;
use crate::report::{fmt_energy, fmt_time, Report};

const TILE: usize = 32;

fn graph_name(fidelity: Fidelity) -> &'static str {
    match fidelity {
        Fidelity::Fast => "K64",
        Fidelity::Full => "K100",
    }
}

fn fault_rates(fidelity: Fidelity) -> &'static [f64] {
    match fidelity {
        Fidelity::Fast => &[0.0, 0.05],
        Fidelity::Full => &[0.0, 0.02, 0.05],
    }
}

fn config(fidelity: Fidelity) -> SophieConfig {
    SophieConfig {
        tile_size: TILE,
        local_iters: 10,
        global_iters: match fidelity {
            Fidelity::Fast => 60,
            Fidelity::Full => 150,
        },
        tile_fraction: 1.0,
        phi: 0.1,
        alpha: 0.0,
        stochastic_spin_update: true,
        ..SophieConfig::default()
    }
}

/// The policy grid: label plus the health configuration (`None` = the
/// plain engine path, no probing at all).
fn policies() -> Vec<(&'static str, Option<HealthConfig>)> {
    let with = |policy| {
        Some(HealthConfig {
            policy,
            ..HealthConfig::default()
        })
    };
    vec![
        ("none", None),
        ("detect-only", with(RecoveryPolicy::DetectOnly)),
        (
            "reprogram",
            with(RecoveryPolicy::Reprogram { max_attempts: 3 }),
        ),
        (
            "remap",
            with(RecoveryPolicy::Remap {
                reprogram_attempts: 1,
                max_spares: 64,
            }),
        ),
        (
            "quarantine",
            with(RecoveryPolicy::Quarantine {
                reprogram_attempts: 1,
            }),
        ),
    ]
}

/// Runs the whole sweep and renders the quality/overhead table.
///
/// # Errors
///
/// Returns I/O errors from report writing.
pub fn run(inst: &mut Instances, fidelity: Fidelity, report: &Report) -> std::io::Result<()> {
    let name = graph_name(fidelity);
    let graph = inst.graph(name);
    let cfg = config(fidelity);
    let solver = inst.solver(name, &cfg);
    let best_known = inst.best_known(name, fidelity);
    let runs = fidelity.runs();

    // The cost model matched to the experiment's tile size.
    let mut machine = MachineConfig::sophie_default(1);
    machine.accelerator.chiplet.pe.tile_size = TILE;
    let params = CostParams::default();
    let cell = OpcmCellSpec::default();

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut jsonl = String::new();

    for &rate in fault_rates(fidelity) {
        for (label, health) in policies() {
            // One heterogeneous batch per cell: every seed gets its own
            // `SophieOpcm` wrapper (pinned to the shared engine, so the
            // transform is computed once) carrying that seed's fault
            // schedule, and the scheduler fans the jobs across workers.
            let jobs: Vec<BatchJob> = (0..runs as u64)
                .map(|seed| {
                    let mut opcm = SophieOpcm::from_engine(
                        Arc::clone(&solver),
                        OpcmBackendConfig {
                            faults: FaultSchedule::uniform(rate, 0xFA_0715 + seed),
                            ..OpcmBackendConfig::default()
                        },
                    )
                    .expect("valid backend config");
                    if let Some(h) = &health {
                        opcm = opcm
                            .with_health(*h)
                            .expect("validated health configuration");
                    }
                    BatchJob::new(Arc::new(opcm), SolveJob::new(Arc::clone(&graph), seed))
                })
                .collect();
            let results: Vec<SolveReport> = run_batch(&jobs, &BatchOptions::default())
                .expect("engine runs are infallible after construction")
                .reports;

            let quality = mean(results.iter().map(|r| r.best_cut)) / best_known;
            let injected = mean(results.iter().map(|r| r.faults_injected as f64));
            let recovered = mean(results.iter().map(|r| r.tiles_recovered as f64));
            let overhead_j = mean(results.iter().map(|r| {
                ops_delta_energy(&machine, &params, &cell, &r.ops)
                    + recovery_energy_j(&params, TILE, &r.ops)
            }));
            let recovery_s = mean(
                results
                    .iter()
                    .map(|r| recovery_time_s(&params, TILE, &r.ops)),
            );
            eprintln!(
                "[robustness] rate {rate:.2} policy {label}: quality {:.1}%, \
                 {injected:.1} faults, {recovered:.1} recoveries",
                100.0 * quality
            );
            rows.push(vec![
                format!("{rate:.2}"),
                label.into(),
                format!("{:.1}", 100.0 * quality),
                format!("{injected:.1}"),
                format!("{recovered:.1}"),
                format!(
                    "{:.0}",
                    mean(results.iter().map(|r| r.ops.probe_mvms as f64))
                ),
                format!(
                    "{:.1}",
                    mean(results.iter().map(|r| r.ops.recovery_reprograms as f64))
                ),
                fmt_energy(overhead_j),
                fmt_time(recovery_s),
            ]);

            for (seed, r) in results.iter().enumerate() {
                let record = Json::obj([
                    ("experiment", "robustness".into()),
                    ("graph", name.into()),
                    ("fault_rate", rate.into()),
                    ("policy", label.into()),
                    ("seed", seed.into()),
                    ("best_cut", r.best_cut.into()),
                    ("faults_injected", r.faults_injected.into()),
                    ("faults_detected", r.faults_detected.into()),
                    ("tiles_recovered", r.tiles_recovered.into()),
                    ("recoveries_exhausted", r.recoveries_exhausted.into()),
                    ("probe_mvms", r.ops.probe_mvms.into()),
                    ("recovery_reprograms", r.ops.recovery_reprograms.into()),
                    ("units_remapped", r.ops.units_remapped.into()),
                    ("pairs_quarantined", r.ops.pairs_quarantined.into()),
                    (
                        "recovery_energy_j",
                        recovery_energy_j(&params, TILE, &r.ops).into(),
                    ),
                    (
                        "recovery_time_s",
                        recovery_time_s(&params, TILE, &r.ops).into(),
                    ),
                ]);
                let _ = writeln!(jsonl, "{record}");
            }
        }
    }

    let jsonl_path = report.out_dir().join("robustness.jsonl");
    crate::trace::write_atomic(&jsonl_path, jsonl.as_bytes())?;
    println!("[written {}]", jsonl_path.display());

    report.table(
        "robustness",
        &format!(
            "Robustness: fault rate × recovery policy on {name} \
             (avg over {runs} runs, % of best-known; overheads are per-job \
             dynamic energy incl. recovery, and serial recovery-write time)"
        ),
        &[
            "fault_rate",
            "policy",
            "quality_pct",
            "faults/run",
            "recoveries/run",
            "probes",
            "reprograms",
            "dyn_energy",
            "recovery_time",
        ],
        &rows,
    )
}

/// Per-job dynamic (op-proportional) energy for a run's total counts.
fn ops_delta_energy(
    machine: &MachineConfig,
    params: &CostParams,
    cell: &OpcmCellSpec,
    ops: &OpCounts,
) -> f64 {
    ops_energy_j(machine, params, cell, ops, 8)
}
