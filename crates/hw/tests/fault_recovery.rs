//! Fault-aware runtime: transient injection through the OPCM backend,
//! calibration-based detection, and retry/remap recovery.

use std::sync::Arc;

use proptest::prelude::*;
use sophie_core::backend::{MvmBackend, MvmUnit};
use sophie_core::observe::NullObserver;
use sophie_core::queue::NullTimeline;
use sophie_core::{
    EngineRun, HealthConfig, RecoveryPolicy, SolveJob, SolveReport, SophieConfig, SophieSolver,
};
use sophie_graph::generate::{gnm, WeightDist};
use sophie_graph::Graph;
use sophie_hw::{FaultSchedule, OpcmBackend, OpcmBackendConfig};
use sophie_linalg::Tile;
use sophie_solve::SolveError;

/// A backend that is exact except for the given fault schedule: ideal
/// variability, zero read noise, generous ADC resolution.
fn exact_backend(faults: FaultSchedule) -> OpcmBackend {
    OpcmBackend::new(OpcmBackendConfig {
        read_noise: 0.0,
        adc_bits: 12,
        faults,
        ..OpcmBackendConfig::default()
    })
}

/// All gain/dropout/saturation classes firing at wave 0 of every round;
/// no stuck cells.
fn transient_storm() -> FaultSchedule {
    FaultSchedule {
        drift_rate: 1.0,
        droop_rate: 1.0,
        adc_rate: 1.0,
        dropout_rate: 1.0,
        waves_per_round: 1,
        ..FaultSchedule::none()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// On an otherwise-ideal device, reprogramming after any mix of
    /// transient faults restores *bit-identical* MVM results — the
    /// foundation of the reprogram-with-retry recovery policy.
    #[test]
    fn reprogram_restores_bit_identical_mvms(
        weights in proptest::collection::vec(-1.0f32..1.0, 16),
        x_bits in proptest::collection::vec(proptest::bool::ANY, 4),
        round in 1u64..50,
    ) {
        let tile = Tile::from_vec(4, weights).unwrap();
        let x: Vec<f32> = x_bits.iter().map(|&b| if b { 1.0 } else { 0.0 }).collect();
        let backend = exact_backend(transient_storm());
        let mut unit = backend.unit(4);
        unit.program(&tile);

        // Baseline: setup is never faulted (no begin_round yet).
        let mut baseline = vec![0.0f32; 4];
        unit.forward(&x, &mut baseline);
        unit.quantize_8bit(&mut baseline);

        // Fire the round's faults, then recover by reprogramming.
        unit.begin_round(round);
        let mut faulted = vec![0.0f32; 4];
        unit.forward(&x, &mut faulted);
        prop_assert!(!unit.take_fault_reports().is_empty());
        unit.program(&tile);

        let mut recovered = vec![0.0f32; 4];
        unit.forward(&x, &mut recovered);
        unit.quantize_8bit(&mut recovered);
        prop_assert_eq!(baseline, recovered);
    }
}

fn sample_tile() -> Tile {
    Tile::from_vec(4, (0..16).map(|i| i as f32 / 4.0 - 2.0).collect()).unwrap()
}

#[test]
fn dropout_zeroes_outputs_until_reprogram() {
    let backend = exact_backend(FaultSchedule {
        dropout_rate: 1.0,
        waves_per_round: 1,
        ..FaultSchedule::none()
    });
    let mut unit = backend.unit(4);
    let tile = sample_tile();
    unit.program(&tile);
    unit.begin_round(1);
    let x = [1.0f32; 4];
    let mut y = [1.0f32; 4];
    unit.forward(&x, &mut y);
    assert_eq!(y, [0.0; 4], "dropped chiplet must read zero");
    assert!(unit.is_faulted());
    let reports = unit.take_fault_reports();
    assert!(reports.iter().any(|r| r.kind == "chiplet_dropout"));
    assert!(unit.take_fault_reports().is_empty(), "reports drain once");

    unit.program(&tile);
    assert!(!unit.is_faulted());
    unit.forward(&x, &mut y);
    assert!(y.iter().any(|&v| v != 0.0));
}

#[test]
fn stuck_cells_survive_reprogram_and_only_remap_cures() {
    let backend = exact_backend(FaultSchedule {
        stuck_rate: 1.0,
        stuck_fraction: 0.5,
        waves_per_round: 1,
        ..FaultSchedule::none()
    });
    let tile = sample_tile();
    let x = [1.0f32; 4];
    let mut exact = [0.0f32; 4];
    tile.mvm(&x, &mut exact);

    let mut unit = backend.unit(4);
    unit.program(&tile);
    unit.begin_round(1);
    let mut y = [0.0f32; 4];
    unit.forward(&x, &mut y);
    assert!(unit.is_faulted());

    // A fresh OPCM write does not heal latched cells.
    unit.program(&tile);
    assert!(unit.is_faulted(), "stuck cells persist across reprograms");

    // Remap = a fresh physical array from the backend. Before its first
    // begin_round it is clean and exact.
    let mut spare = backend.unit(4);
    spare.program(&tile);
    assert!(!spare.is_faulted());
    spare.forward(&x, &mut y);
    for (a, b) in y.iter().zip(&exact) {
        assert!((a - b).abs() < 0.05, "{a} vs {b}");
    }
}

#[test]
fn adc_saturation_clamps_multibit_reads() {
    let backend = exact_backend(FaultSchedule {
        adc_rate: 1.0,
        waves_per_round: 1,
        ..FaultSchedule::none()
    });
    let tile = sample_tile();
    let x = [1.0f32; 4];
    let mut unit = backend.unit(4);
    unit.program(&tile);

    let mut clean = [0.0f32; 4];
    unit.forward(&x, &mut clean);
    unit.quantize_8bit(&mut clean);
    let clean_peak = clean.iter().fold(0.0f32, |m, v| m.max(v.abs()));

    unit.begin_round(1);
    let mut sat = [0.0f32; 4];
    unit.forward(&x, &mut sat);
    unit.quantize_8bit(&mut sat);
    let sat_peak = sat.iter().fold(0.0f32, |m, v| m.max(v.abs()));
    assert!(
        sat_peak < clean_peak / 2.0,
        "saturated reads must clamp: {sat_peak} vs clean {clean_peak}"
    );

    // A reprogram clears the burst: full-range reads come back.
    unit.program(&tile);
    let mut next = [0.0f32; 4];
    unit.forward(&x, &mut next);
    unit.quantize_8bit(&mut next);
    let next_peak = next.iter().fold(0.0f32, |m, v| m.max(v.abs()));
    assert_eq!(next_peak, clean_peak);
}

#[test]
fn try_new_rejects_invalid_configs() {
    assert!(OpcmBackend::try_new(OpcmBackendConfig::default()).is_ok());
    let bad_noise = OpcmBackendConfig {
        read_noise: f32::NAN,
        ..OpcmBackendConfig::default()
    };
    assert!(OpcmBackend::try_new(bad_noise).is_err());
    let bad_adc = OpcmBackendConfig {
        adc_bits: 1,
        ..OpcmBackendConfig::default()
    };
    assert!(OpcmBackend::try_new(bad_adc).is_err());
    let bad_var = OpcmBackendConfig {
        variability: sophie_hw::device::variability::VariabilityModel {
            stuck_fraction: 2.0,
            ..Default::default()
        },
        ..OpcmBackendConfig::default()
    };
    assert!(OpcmBackend::try_new(bad_var).is_err());
    let bad_faults = OpcmBackendConfig {
        faults: FaultSchedule {
            dropout_rate: -0.5,
            ..FaultSchedule::none()
        },
        ..OpcmBackendConfig::default()
    };
    assert!(OpcmBackend::try_new(bad_faults).is_err());
}

#[test]
#[should_panic(expected = "invalid OpcmBackendConfig")]
fn new_panics_on_invalid_config() {
    let _ = OpcmBackend::new(OpcmBackendConfig {
        adc_bits: 0,
        ..OpcmBackendConfig::default()
    });
}

// ---- Engine-level recovery behavior. ----

fn solver_and_graph() -> (SophieSolver, Arc<Graph>) {
    let g = Arc::new(gnm(96, 480, WeightDist::Unit, 23).unwrap());
    let cfg = SophieConfig {
        tile_size: 32,
        global_iters: 60,
        phi: 0.1,
        ..SophieConfig::default()
    };
    (SophieSolver::from_graph(&g, cfg).unwrap(), g)
}

/// One job on `backend`, fault-aware when `health` is set.
fn solve_on(
    solver: &SophieSolver,
    backend: &OpcmBackend,
    g: &Arc<Graph>,
    seed: u64,
    health: Option<&HealthConfig>,
) -> Result<SolveReport, SolveError> {
    let run = EngineRun {
        health,
        ..EngineRun::default()
    };
    let job = SolveJob::new(Arc::clone(g), seed);
    solver.solve_job(backend, &job, &run, &mut NullObserver, &mut NullTimeline)
}

#[test]
fn reprogram_recovery_beats_no_recovery_under_dropout() {
    let (solver, g) = solver_and_graph();
    let faults = FaultSchedule::uniform(0.10, 3);
    let health = HealthConfig::default();

    let mut bare_best = f64::NEG_INFINITY;
    let mut recovered_best = f64::NEG_INFINITY;
    let mut recovered_any = false;
    for seed in 0..3u64 {
        let backend = exact_backend(faults);
        let bare = solve_on(&solver, &backend, &g, seed, None).unwrap();
        bare_best = bare_best.max(bare.best_cut);

        let backend = exact_backend(faults);
        let healed = solve_on(&solver, &backend, &g, seed, Some(&health)).unwrap();
        recovered_best = recovered_best.max(healed.best_cut);
        assert!(healed.faults_injected > 0, "storm must fire faults");
        recovered_any |= healed.tiles_recovered > 0;
        assert!(healed.ops.probe_mvms > 0, "probes must be charged");
        if healed.tiles_recovered > 0 {
            assert!(
                healed.ops.recovery_reprograms > 0,
                "recovery writes must be charged"
            );
        }
    }
    assert!(
        recovered_any,
        "at least one run must actually recover a tile"
    );
    assert!(
        recovered_best > bare_best,
        "recovery {recovered_best} must beat no-recovery {bare_best}"
    );
}

#[test]
fn remap_policy_consumes_spares_on_stuck_cells() {
    let (solver, g) = solver_and_graph();
    let faults = FaultSchedule {
        stuck_rate: 0.10,
        stuck_fraction: 0.25,
        ..FaultSchedule::none()
    };
    let health = HealthConfig {
        policy: RecoveryPolicy::Remap {
            reprogram_attempts: 1,
            max_spares: 16,
        },
        ..HealthConfig::default()
    };
    let backend = exact_backend(faults);
    let report = solve_on(&solver, &backend, &g, 1, Some(&health)).unwrap();
    assert!(report.faults_injected > 0);
    assert!(
        report.ops.units_remapped > 0,
        "stuck cells can only be cured by remapping"
    );
    assert!(report.tiles_recovered > 0);
}

#[test]
fn quarantine_policy_degrades_gracefully() {
    let (solver, g) = solver_and_graph();
    let faults = FaultSchedule {
        stuck_rate: 0.05,
        stuck_fraction: 0.5,
        ..FaultSchedule::none()
    };
    let health = HealthConfig {
        policy: RecoveryPolicy::Quarantine {
            reprogram_attempts: 0,
        },
        ..HealthConfig::default()
    };
    let backend = exact_backend(faults);
    let outcome = solve_on(&solver, &backend, &g, 1, Some(&health)).unwrap();
    assert!(outcome.best_cut.is_finite());
    // m/2 = 240 is the random-cut baseline; the rounds before quarantine
    // kicks in must at least hold that level.
    assert!(
        outcome.best_cut > 216.0,
        "graceful degradation: {}",
        outcome.best_cut
    );
    assert!(
        outcome.ops.pairs_quarantined > 0,
        "heavy stuck-cell pressure must quarantine at least one pair"
    );
    assert_eq!(
        outcome.recoveries_exhausted as u64,
        outcome.ops.pairs_quarantined
    );
}

#[test]
fn fault_aware_run_rejects_invalid_health_config() {
    let (solver, g) = solver_and_graph();
    let backend = exact_backend(FaultSchedule::none());
    let health = HealthConfig {
        check_interval: 0,
        ..HealthConfig::default()
    };
    assert!(matches!(
        solve_on(&solver, &backend, &g, 0, Some(&health)),
        Err(SolveError::BadConfig { .. })
    ));
}

#[test]
fn healthy_fault_aware_run_matches_plain_run() {
    // With no faults and DetectOnly, the fault-aware path must not change
    // the solve: probes are extra reads, never writes into the machine.
    let (solver, g) = solver_and_graph();
    let health = HealthConfig {
        policy: RecoveryPolicy::DetectOnly,
        ..HealthConfig::default()
    };
    let backend = exact_backend(FaultSchedule::none());
    let plain = solve_on(&solver, &backend, &g, 7, None).unwrap();
    let backend = exact_backend(FaultSchedule::none());
    let aware = solve_on(&solver, &backend, &g, 7, Some(&health)).unwrap();
    assert_eq!(plain.best_cut, aware.best_cut);
    assert_eq!(plain.best_bits, aware.best_bits);
    assert_eq!(aware.faults_detected, 0, "ideal units must not be flagged");
    assert!(aware.ops.probe_mvms >= 60, "one probe per pair per round");
}
