//! JSONL command-timeline capture (the `repro timeline` command).
//!
//! Runs one SOPHIE job on a named benchmark instance through the OPCM
//! device model with fault injection and active recovery, records every
//! device command completion and host-stage cost record from the engine's
//! command queue, annotates each with §IV-A time/energy via
//! [`sophie_hw::queue::CommandCostModel`], and writes the stream as JSONL
//! — one JSON object per line, in `(round, wave, unit)` key order. The
//! schema is documented in `EXPERIMENTS.md` (§ "Command timelines"); the
//! stream is deterministic for a fixed (instance, config, seed) and
//! independent of `SOPHIE_THREADS`.
//!
//! The per-record `ops` costs sum exactly — every integer field — to the
//! run's aggregate [`OpCounts`], and the file's `total` line carries that
//! aggregate so consumers can check the invariant without re-summing.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;

use sophie_core::queue::{Completion, TimelineSink};
use sophie_core::{EngineRun, HealthConfig, SophieConfig};
use sophie_hw::queue::CommandCostModel;
use sophie_hw::{FaultSchedule, OpcmBackend, OpcmBackendConfig};
use sophie_solve::{Json, NullObserver, OpCounts, SolveJob};

use crate::fidelity::Fidelity;
use crate::instances::Instances;
use crate::trace::write_atomic;

/// Transient-fault rate injected into the timeline run, chosen so a fast
/// capture still exercises probe, reprogram, and fault-collection records.
pub const TIMELINE_FAULT_RATE: f64 = 0.02;

/// What a timeline capture produced, for the command-line summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimelineSummary {
    /// Device command records written.
    pub device_records: u64,
    /// Host-stage records written.
    pub host_records: u64,
    /// Device records that were health probes (demonstrating overlap).
    pub probe_records: u64,
    /// Best cut found by the captured run.
    pub best_cut: f64,
    /// Total device-occupancy time of the run in nanoseconds.
    pub total_ns: f64,
    /// Total energy of the run in joules.
    pub total_j: f64,
}

struct DeviceRec {
    round: u64,
    wave: u32,
    unit: u32,
    kind: &'static str,
    macs: u64,
    cells: u64,
    residual: Option<f64>,
    faults: usize,
    cost: OpCounts,
}

struct HostRec {
    round: u64,
    stage: &'static str,
    cost: OpCounts,
}

#[derive(Default)]
struct Recorder {
    device: Vec<DeviceRec>,
    host: Vec<HostRec>,
}

impl TimelineSink for Recorder {
    fn device(&mut self, c: &Completion) {
        self.device.push(DeviceRec {
            round: c.key.round,
            wave: c.key.wave,
            unit: c.key.unit,
            kind: c.kind,
            macs: c.macs,
            cells: c.cells,
            residual: c.residual,
            faults: c.faults.len(),
            cost: c.cost,
        });
    }

    fn host(&mut self, round: u64, stage: &'static str, cost: &OpCounts) {
        self.host.push(HostRec {
            round,
            stage,
            cost: *cost,
        });
    }
}

/// Runs one fault-injected SOPHIE job on instance `name` with `seed`
/// through the OPCM backend and writes its command timeline as JSONL to
/// `out`, atomically.
///
/// The configuration matches the `repro trace` operating point (tile 64,
/// 10 local iterations, all tiles, φ = 0.05) with the fidelity's
/// global-iteration budget, plus a [`TIMELINE_FAULT_RATE`] uniform fault
/// schedule and the default health monitor (probe every round, reprogram
/// on fault) so probe and recovery records appear interleaved with solve
/// MVMs.
///
/// # Errors
///
/// Returns I/O errors (annotated with the path) from writing `out`.
///
/// # Panics
///
/// Panics on an unknown instance name, or if the engine's cost records
/// fail to sum to the report aggregate (an attribution bug, not an I/O
/// condition).
pub fn write_timeline(
    inst: &mut Instances,
    name: &str,
    seed: u64,
    fidelity: Fidelity,
    out: &Path,
) -> std::io::Result<TimelineSummary> {
    let config = SophieConfig {
        tile_size: 64,
        local_iters: 10,
        global_iters: fidelity.global_iters(),
        tile_fraction: 1.0,
        phi: 0.05,
        alpha: 0.0,
        stochastic_spin_update: true,
        ..SophieConfig::default()
    };
    let solver = inst.solver(name, &config);
    let graph = inst.graph(name);
    let backend = OpcmBackend::new(OpcmBackendConfig {
        faults: FaultSchedule::uniform(TIMELINE_FAULT_RATE, seed ^ 0xFA17),
        ..OpcmBackendConfig::default()
    });
    let health = HealthConfig::default();

    let mut rec = Recorder::default();
    let run = EngineRun {
        health: Some(&health),
        ..EngineRun::default()
    };
    let report = solver
        .solve_job(
            &backend,
            &SolveJob::new(Arc::clone(&graph), seed),
            &run,
            &mut NullObserver,
            &mut rec,
        )
        .expect("engine runs are infallible after construction");

    // The attribution invariant this file exists to expose: per-record
    // costs sum exactly to the aggregate.
    let mut summed = OpCounts::new();
    for d in &rec.device {
        summed = summed.combined(&d.cost);
    }
    for h in &rec.host {
        summed = summed.combined(&h.cost);
    }
    assert_eq!(
        summed, report.ops,
        "timeline records must sum exactly to the report aggregate"
    );

    // Canonical order: device records by (round, wave, unit) — the
    // deterministic completion order — with each round's host records
    // (already in stage order) following its device records.
    rec.device
        .sort_by_key(|d| (d.round, d.wave, d.unit, d.kind));

    let model = CommandCostModel::sophie_default();
    let total = model.annotate(&report.ops);
    let mut text = String::new();
    let mut line = |record: Json| {
        writeln!(text, "{record}").expect("writing to a String cannot fail");
    };
    line(Json::obj([
        ("record", "run".into()),
        ("instance", name.into()),
        ("seed", seed.into()),
        ("solver", "sophie".into()),
        ("tile_size", config.tile_size.into()),
        ("local_iters", config.local_iters.into()),
        ("global_iters", config.global_iters.into()),
        ("fault_rate", TIMELINE_FAULT_RATE.into()),
        ("check_interval", health.check_interval.into()),
    ]));

    let mut device_iter = rec.device.iter().peekable();
    let mut host_iter = rec.host.iter().peekable();
    let mut probe_records = 0u64;
    while device_iter.peek().is_some() || host_iter.peek().is_some() {
        // Host records for round r land after round r's device records.
        let next_device_round = device_iter.peek().map(|d| d.round);
        let next_host_round = host_iter.peek().map(|h| h.round);
        let device_first = match (next_device_round, next_host_round) {
            (Some(d), Some(h)) => d <= h,
            (Some(_), None) => true,
            _ => false,
        };
        if device_first {
            let d = device_iter.next().expect("peeked");
            if d.kind == "probe" {
                probe_records += 1;
            }
            let cost = model.annotate(&d.cost);
            line(Json::obj([
                ("record", "device".into()),
                ("round", d.round.into()),
                ("wave", d.wave.into()),
                ("unit", d.unit.into()),
                ("kind", d.kind.into()),
                ("macs", d.macs.into()),
                ("cells", d.cells.into()),
                ("residual", d.residual.into()),
                ("faults", d.faults.into()),
                ("ns", cost.ns.into()),
                ("j", cost.j.into()),
                ("ops", d.cost.json()),
            ]));
        } else {
            let h = host_iter.next().expect("peeked");
            let cost = model.annotate(&h.cost);
            line(Json::obj([
                ("record", "host".into()),
                ("round", h.round.into()),
                ("stage", h.stage.into()),
                ("ns", cost.ns.into()),
                ("j", cost.j.into()),
                ("ops", h.cost.json()),
            ]));
        }
    }
    line(Json::obj([
        ("record", "total".into()),
        ("device_records", rec.device.len().into()),
        ("host_records", rec.host.len().into()),
        ("probe_records", probe_records.into()),
        ("ns", total.ns.into()),
        ("j", total.j.into()),
        ("best_cut", report.best_cut.into()),
        ("ops", report.ops.json()),
    ]));

    write_atomic(out, text.as_bytes())?;
    Ok(TimelineSummary {
        device_records: rec.device.len() as u64,
        host_records: rec.host.len() as u64,
        probe_records,
        best_cut: report.best_cut,
        total_ns: total.ns,
        total_j: total.j,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeline_is_jsonl_with_framing_probes_and_exact_totals() {
        let dir = std::env::temp_dir().join(format!("sophie_timeline_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("k100.jsonl");
        let mut inst = Instances::new();
        let summary = write_timeline(&mut inst, "K100", 1, Fidelity::Fast, &path).unwrap();

        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines.len() as u64,
            summary.device_records + summary.host_records + 2,
            "one line per record plus run/total framing"
        );
        assert!(lines[0].starts_with(r#"{"record":"run""#));
        assert!(lines.last().unwrap().starts_with(r#"{"record":"total""#));
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        assert!(summary.probe_records > 0, "run must contain probe records");
        assert!(summary.total_ns > 0.0 && summary.total_j > 0.0);

        // Probes interleave with solve MVMs: within some probed round, a
        // probe line appears before a later mvm line.
        let probe_idx = lines.iter().position(|l| l.contains(r#""kind":"probe""#));
        let probe_idx = probe_idx.expect("probe record present");
        assert!(
            lines[probe_idx..]
                .iter()
                .any(|l| l.contains(r#""kind":"mvm_"#)),
            "a solve MVM record must follow the first probe"
        );
        std::fs::remove_file(&path).ok();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn timeline_is_deterministic_across_captures() {
        let dir = std::env::temp_dir().join(format!("sophie_timeline_det_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("a.jsonl");
        let b = dir.join("b.jsonl");
        let mut inst = Instances::new();
        write_timeline(&mut inst, "K64", 3, Fidelity::Fast, &a).unwrap();
        write_timeline(&mut inst, "K64", 3, Fidelity::Fast, &b).unwrap();
        assert_eq!(
            std::fs::read(&a).unwrap(),
            std::fs::read(&b).unwrap(),
            "same (instance, seed) must produce byte-identical timelines"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
