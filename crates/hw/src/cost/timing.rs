//! Run-time model.
//!
//! Mirrors the paper's execution/dataflow description (§III-E, §IV-A):
//!
//! * each selected symmetric pair runs `L` local iterations on its PE; an
//!   off-diagonal pair time-duplexes two MVMs per iteration, one cycle per
//!   1-bit read, `adc_cycles` per 8-bit read (last iteration);
//! * when the problem is larger than the machine, pairs execute in
//!   *waves*; reprogramming and context transfer of the next wave overlap
//!   with the current wave's compute (`wave = max(compute, program,
//!   transfer)`);
//! * global synchronization uses hierarchical reduction: the controller
//!   receives/broadcasts per-row partial-sum aggregates (`2·B·T` 8-bit
//!   values) and multicasts the updated spin columns, overlapping with the
//!   next round's reprogramming where possible;
//! * everything scales per batch job; initial host→DRAM transfer and the
//!   first programming pass are amortized across the batch (the paper's
//!   Table II includes amortized programming the same way).

use sophie_core::OpCounts;

use crate::arch::MachineConfig;
use crate::cost::params::CostParams;
use crate::cost::workload::WorkloadSummary;
use crate::error::Result;

/// Where the time of one batch goes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingBreakdown {
    /// One-time host transfer + initial programming (whole batch).
    pub init_s: f64,
    /// Local-iteration execution across all rounds (whole batch).
    pub local_s: f64,
    /// Non-overlapped global synchronization exposure (whole batch).
    pub sync_s: f64,
    /// Total batch time.
    pub total_batch_s: f64,
    /// Amortized time per job.
    pub per_job_s: f64,
    /// Execution waves per round (1 when the problem is resident).
    pub waves_per_round: usize,
    /// Whether the whole problem fits in OPCM at once.
    pub resident: bool,
}

/// Computes the batch/job run time for a workload on a machine.
///
/// `adc_cycles` is the 8-bit conversion latency in cycles (8 for the
/// bit-serial SAR of §III-C).
///
/// # Errors
///
/// Returns machine-validation errors.
pub fn batch_time(
    machine: &MachineConfig,
    params: &CostParams,
    w: &WorkloadSummary,
    adc_cycles: u64,
) -> Result<TimingBreakdown> {
    machine.validate()?;
    let cycle = machine.cycle_s();
    let t = w.tile as f64;
    let b = w.blocks() as f64;
    let batch = w.batch_jobs as f64;
    let arrays = machine.total_arrays();
    let resident = machine.is_resident(w.pairs_total);
    // Aggregate on-interposer bandwidth scales with the number of
    // accelerators (each has its own interposer).
    let bw = params.interposer_bandwidth_bps * machine.accelerators as f64;

    // ---- Per-wave local execution. ----
    let waves = ((w.avg_pairs_per_round / arrays as f64).ceil() as usize).max(1);
    let cycles_per_pair_round =
        2.0 * (w.local_iters.saturating_sub(1)) as f64 + 2.0 * adc_cycles as f64;
    let wave_compute = batch * cycles_per_pair_round * cycle;
    let wave_program = if resident {
        0.0
    } else {
        params.program_time_for_tile_s(w.tile)
    };
    // Context swapped per non-resident wave: spin copies (2 bits/element)
    // plus offset vectors (2 × 8 bits/element), per pair per job.
    let context_bits_per_pair_job = t * (2.0 + 16.0);
    let pairs_per_wave = w.avg_pairs_per_round / waves as f64;
    let wave_transfer = if resident {
        0.0
    } else {
        pairs_per_wave * context_bits_per_pair_job * batch / bw + params.dram_latency_s
    };
    let wave_time = wave_compute.max(wave_program).max(wave_transfer);
    let round_local = waves as f64 * wave_time;

    // ---- Global synchronization. ----
    // Hierarchical reduction: per block row, the controller collects the
    // row aggregate and returns the row sum (2 × B × T 8-bit values per
    // job); spin updates are one multicast of T bits per covered column.
    let sync_bits_per_job = 2.0 * b * t * 8.0 + w.avg_covered_cols_per_round * t;
    let mut sync_transfer = sync_bits_per_job * batch / bw + params.dram_latency_s;
    if machine.accelerators > 1 {
        let cross_fraction = (machine.accelerators - 1) as f64 / machine.accelerators as f64;
        sync_transfer += sync_bits_per_job * batch * cross_fraction / params.cxl_bandwidth_bps
            + params.cross_dram_latency_s;
    }
    // Each accelerator's controller chiplet reduces its own share.
    let glue_time = w.avg_glue_adds_per_round * batch
        / (params.glue_adds_per_cycle * machine.clock_hz * machine.accelerators as f64);
    // Sync overlaps with the next round's reprogramming (§III-E).
    let sync_exposed = (sync_transfer + glue_time - wave_program).max(0.0);

    // ---- One-time initialization. ----
    // The coupling matrix is assumed staged in accelerator DRAM (the
    // paper amortizes *programming* into its results, not the host
    // transfer, which persists across batches). All arrays program in
    // parallel.
    let init = params.program_time_for_tile_s(w.tile);

    let local_total = w.rounds as f64 * round_local;
    let sync_total = w.rounds as f64 * sync_exposed;
    let total = init + local_total + sync_total;
    Ok(TimingBreakdown {
        init_s: init,
        local_s: local_total,
        sync_s: sync_total,
        total_batch_s: total,
        per_job_s: total / batch,
        waves_per_round: waves,
        resident,
    })
}

/// Modeled latency of one device tile MVM, in nanoseconds.
///
/// A 1-bit read resolves in one cycle; an 8-bit read pays the bit-serial
/// SAR conversion (`adc_cycles` per sample, §III-C). `repro tune`
/// records this next to its measured host-side kernel timings
/// (the `kernel_tune` block of `BENCH_sophie.json`) so simulation
/// throughput can be put in context against the device it emulates.
#[must_use]
pub fn device_mvm_ns(machine: &MachineConfig, adc_cycles: u64, eight_bit: bool) -> f64 {
    let cycles = if eight_bit { adc_cycles } else { 1 };
    machine.cycle_s() * cycles as f64 * 1e9
}

/// Wall-time of recovery reprograms alone.
///
/// [`batch_time`] derives programming time from the workload shape and
/// cannot see run-time reprograms issued by the health monitor; those are
/// tallied in `ops.recovery_reprograms`. Recovery writes are serial (the
/// monitor repairs one tile at a time), so they add
/// `recovery_reprograms × program_time_for_tile_s(t)` of exposed time.
#[must_use]
pub fn recovery_time_s(params: &CostParams, tile_size: usize, ops: &OpCounts) -> f64 {
    ops.recovery_reprograms as f64 * params.program_time_for_tile_s(tile_size)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sophie_core::SophieConfig;

    fn workload(n: usize, frac: f64, rounds: usize, batch: usize) -> WorkloadSummary {
        let cfg = SophieConfig {
            tile_size: 64,
            local_iters: 10,
            global_iters: rounds,
            tile_fraction: frac,
            ..SophieConfig::default()
        };
        WorkloadSummary::analytic(n, &cfg, batch, 7).unwrap()
    }

    #[test]
    fn small_resident_problem_is_compute_dominated() {
        let m = MachineConfig::sophie_default(4);
        let w = workload(2000, 1.0, 100, 100);
        let t = batch_time(&m, &CostParams::default(), &w, 8).unwrap();
        assert!(t.resident);
        assert_eq!(t.waves_per_round, 1);
        // Per-job time must land in the paper's regime (fraction of a µs to
        // a few µs per job for G22-sized graphs).
        assert!(t.per_job_s < 20e-6, "per job {:.3e}s", t.per_job_s);
        assert!(t.per_job_s > 10e-9);
    }

    #[test]
    fn non_resident_problem_needs_waves() {
        let m = MachineConfig::sophie_default(1);
        let w = workload(16_384, 0.74, 50, 100);
        let t = batch_time(&m, &CostParams::default(), &w, 8).unwrap();
        assert!(!t.resident);
        assert!(t.waves_per_round > 50, "waves {}", t.waves_per_round);
    }

    #[test]
    fn more_accelerators_speed_things_up_roughly_linearly() {
        let w = workload(16_384, 0.74, 50, 100);
        let p = CostParams::default();
        let t1 = batch_time(&MachineConfig::sophie_default(1), &p, &w, 8).unwrap();
        let t2 = batch_time(&MachineConfig::sophie_default(2), &p, &w, 8).unwrap();
        let t4 = batch_time(&MachineConfig::sophie_default(4), &p, &w, 8).unwrap();
        assert!(t2.per_job_s < t1.per_job_s);
        assert!(t4.per_job_s < t2.per_job_s);
        let speedup = t1.per_job_s / t4.per_job_s;
        assert!((2.0..8.0).contains(&speedup), "4-accel speedup {speedup}");
    }

    #[test]
    fn doubling_problem_size_roughly_quadruples_time() {
        // K32768 has 4× the pairs of K16384 → ≈4× the waves (the paper
        // reports ≈3.4×).
        let p = CostParams::default();
        let m = MachineConfig::sophie_default(1);
        let t16 = batch_time(&m, &p, &workload(16_384, 0.74, 50, 100), 8).unwrap();
        let t32 = batch_time(&m, &p, &workload(32_768, 0.74, 50, 100), 8).unwrap();
        let ratio = t32.per_job_s / t16.per_job_s;
        assert!((2.5..5.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn fewer_selected_tiles_reduce_round_time() {
        let p = CostParams::default();
        let m = MachineConfig::sophie_default(1);
        let full = batch_time(&m, &p, &workload(16_384, 1.0, 50, 100), 8).unwrap();
        let half = batch_time(&m, &p, &workload(16_384, 0.5, 50, 100), 8).unwrap();
        assert!(half.local_s < full.local_s);
        assert!(half.per_job_s < full.per_job_s);
    }

    #[test]
    fn batching_amortizes_fixed_costs() {
        let p = CostParams::default();
        let m = MachineConfig::sophie_default(1);
        let single = batch_time(&m, &p, &workload(2000, 1.0, 100, 1), 8).unwrap();
        let batched = batch_time(&m, &p, &workload(2000, 1.0, 100, 100), 8).unwrap();
        assert!(batched.per_job_s < single.per_job_s);
    }

    #[test]
    fn device_mvm_latency_scales_with_adc_cycles() {
        let m = MachineConfig::sophie_default(1);
        let one_bit = device_mvm_ns(&m, 8, false);
        let eight_bit = device_mvm_ns(&m, 8, true);
        assert!((one_bit - m.cycle_s() * 1e9).abs() < 1e-12);
        assert!((eight_bit - 8.0 * one_bit).abs() < 1e-12);
    }

    #[test]
    fn breakdown_sums_to_total() {
        let p = CostParams::default();
        let m = MachineConfig::sophie_default(1);
        let t = batch_time(&m, &p, &workload(4096, 0.74, 20, 10), 8).unwrap();
        assert!((t.init_s + t.local_s + t.sync_s - t.total_batch_s).abs() < 1e-12);
        assert!((t.per_job_s * 10.0 - t.total_batch_s).abs() < 1e-12);
    }
}
