//! Timed calls into the simulator layers, shared by the workloads that
//! run the SOPHIE engine, plus the host facts every run records.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use sophie_core::{KernelPlan, Schedule, SophieConfig, SophieSolver};
use sophie_graph::Graph;
use sophie_hw::arch::MachineConfig;
use sophie_hw::cost::{params::CostParams, timing::batch_time, workload::WorkloadSummary};
use sophie_linalg::{Matrix, Tile, TileGrid};
use sophie_pris::dropout::{DeltaVariant, Preprocessor};
use sophie_solve::{
    Capabilities, SolveError, SolveEvent, SolveJob, SolveObserver, SolveReport, Solver,
};

use crate::report::Outcome;
use crate::stats;
use crate::trace::Tracer;

/// Jobs sharing one programming pass in the §IV-A cost model (the paper's
/// batch, §III-E).
const MODEL_BATCH: usize = 100;
/// The modeled machine: the paper's four-accelerator system with its
/// 8-cycle bit-serial ADC.
const MODEL_ACCELERATORS: usize = 4;
const MODEL_ADC_CYCLES: u64 = 8;

/// The seed of job or request `index` in a run with `seed`: distinct across
/// indices and across run seeds.
#[must_use]
pub fn job_seed(seed: u64, index: usize) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(index as u64)
}

/// FNV-1a digest of a report's wire JSON and its best bits.
#[must_use]
pub fn digest(report: &SolveReport) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let bits = report
        .best_bits
        .iter()
        .map(|&b| if b { b'1' } else { b'0' });
    for byte in report.to_json().bytes().chain(bits) {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The eigenvalue-dropout preprocessing and tiling a SOPHIE engine needs,
/// each step in its own span under `parent`.
///
/// # Errors
///
/// Preprocessing and configuration errors, as text.
pub fn build_engine(
    graph: &Graph,
    config: &SophieConfig,
    tracer: &Tracer,
    parent: u64,
) -> Result<(Matrix, SophieSolver), String> {
    let pre = tracer.time("pris.eigen", parent, 0, || {
        let k = sophie_graph::coupling::coupling_matrix(graph);
        let delta = sophie_graph::coupling::delta_diagonal(graph);
        Preprocessor::new(&k, delta, DeltaVariant::Gershgorin)
    });
    let pre = pre.map_err(|e| format!("eigendecomposition: {e}"))?;
    let c = tracer
        .time("pris.transform", parent, 0, || pre.transform(config.alpha))
        .map_err(|e| format!("dropout transform: {e}"))?;
    let solver = tracer
        .time("core.tile", parent, 0, || {
            SophieSolver::from_transform(&c, config.clone())
        })
        .map_err(|e| format!("tiling: {e}"))?;
    Ok((c, solver))
}

/// The engine generates each job's static schedule inside `solve`; this
/// replays that generation per job seed, so the layer is timed on its own.
///
/// # Errors
///
/// Tiling errors, as text.
pub fn replay_schedules(
    tracer: &Tracer,
    c: &Matrix,
    config: &SophieConfig,
    reports: &[SolveReport],
) -> Result<(), String> {
    let grid = TileGrid::new(c.rows(), config.tile_size).map_err(|e| e.to_string())?;
    for r in reports {
        std::hint::black_box(tracer.time("core.schedule", 0, r.seed, || {
            Schedule::generate(
                &grid,
                config.global_iters,
                config.tile_fraction,
                config.stochastic_spin_update,
                r.seed,
            )
        }));
    }
    Ok(())
}

/// One job as [`TimedSolver`] saw it: its start and end, and the instant
/// each of its global synchronizations (rounds 1, 2, …) completed.
#[derive(Debug, Clone)]
pub struct JobRun {
    pub start: Instant,
    pub end: Instant,
    pub syncs: Vec<Instant>,
}

impl JobRun {
    #[must_use]
    pub fn seconds(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }

    /// The job cut at its synchronizations into `(start, end, share)`
    /// pieces, in seconds from `origin`; the shares sum to one job. A job
    /// takes a few milliseconds per round, so its progress is visible at a
    /// far finer grain than the job itself.
    #[must_use]
    pub fn pieces(&self, origin: Instant) -> Vec<(f64, f64, f64)> {
        let secs = |t: Instant| t.saturating_duration_since(origin).as_secs_f64();
        let bounds: Vec<f64> = std::iter::once(self.start)
            .chain(self.syncs.iter().copied())
            .chain(std::iter::once(self.end))
            .map(secs)
            .collect();
        let share = 1.0 / (bounds.len() - 1) as f64;
        bounds.windows(2).map(|w| (w[0], w[1], share)).collect()
    }

    /// The job's time had every piece taken the median piece's time: a
    /// stall the host imposes on a few rounds drops out, while anything
    /// that slows most rounds counts in full.
    #[must_use]
    pub fn paced_seconds(&self) -> f64 {
        let pieces = self.pieces(self.start);
        let lengths: Vec<f64> = pieces.iter().map(|(s, e, _)| e - s).collect();
        stats::p50(&lengths) * pieces.len() as f64
    }
}

/// Forwards every event and stamps each completed global synchronization.
struct SyncStamps<'a> {
    inner: &'a mut dyn SolveObserver,
    syncs: Vec<Instant>,
}

impl SolveObserver for SyncStamps<'_> {
    fn on_event(&mut self, event: &SolveEvent) {
        if matches!(event, SolveEvent::GlobalSync { round, .. } if *round > 0) {
            self.syncs.push(Instant::now());
        }
        self.inner.on_event(event);
    }
}

/// A [`Solver`] that times every job it runs: the job's start, end and
/// round boundaries are kept and, while tracing, the job is recorded as a
/// `core.solve` span.
pub struct TimedSolver {
    inner: Arc<dyn Solver>,
    tracer: Arc<Tracer>,
    runs: Mutex<Vec<JobRun>>,
}

impl TimedSolver {
    #[must_use]
    pub fn new(inner: Arc<dyn Solver>, tracer: Arc<Tracer>) -> Self {
        TimedSolver {
            inner,
            tracer,
            runs: Mutex::new(Vec::new()),
        }
    }

    /// Every job run so far, drained.
    pub fn take_runs(&self) -> Vec<JobRun> {
        std::mem::take(&mut *self.runs.lock().expect("timing lock"))
    }
}

/// Durations of the jobs, in seconds.
#[must_use]
pub fn seconds_of(runs: &[JobRun]) -> Vec<f64> {
    runs.iter().map(JobRun::seconds).collect()
}

impl Solver for TimedSolver {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn capabilities(&self) -> Capabilities {
        self.inner.capabilities()
    }

    fn solve(
        &self,
        job: &SolveJob,
        observer: &mut dyn SolveObserver,
    ) -> Result<SolveReport, SolveError> {
        let mut stamps = SyncStamps {
            inner: observer,
            syncs: Vec::new(),
        };
        let start = Instant::now();
        let out = self.inner.solve(job, &mut stamps);
        let end = Instant::now();
        self.tracer.record("core.solve", 0, job.seed, start, end);
        self.runs.lock().expect("timing lock").push(JobRun {
            start,
            end,
            syncs: stamps.syncs,
        });
        out
    }
}

/// Jobs whose operation counts the per-layer count metrics average: the
/// first ones of a run by index, which every run completes, so the counts
/// repeat exactly for a seed however fast the run went.
const COUNTED_JOBS: usize = 4;

/// Per-job operation counts, the host time per simulated tile MVM, the
/// §IV-A modeled time, and the kernel timings on a tile of `c`. `reports`
/// are the run's jobs in index order; `solve_seconds` the timed ones.
///
/// # Errors
///
/// Cost-model validation errors, as text.
pub fn put_engine_metrics(
    out: &mut Outcome,
    reports: &[SolveReport],
    solve_seconds: &[f64],
    c: &Matrix,
    config: &SophieConfig,
    seed: u64,
) -> Result<(), String> {
    let reports = &reports[..reports.len().min(COUNTED_JOBS)];
    let Some(first) = reports.first() else {
        return Ok(());
    };
    let jobs = reports.len();
    let mean =
        |f: fn(&SolveReport) -> u64| reports.iter().map(|r| f(r) as f64).sum::<f64>() / jobs as f64;
    let tile_mvms = mean(|r| r.ops.total_tile_mvms());
    out.put("core.tile_mvms", tile_mvms, "count", jobs);
    out.put(
        "core.pairs_executed",
        mean(|r| r.ops.pairs_executed),
        "count",
        jobs,
    );
    out.put(
        "core.global_syncs",
        mean(|r| r.ops.global_syncs),
        "count",
        jobs,
    );
    out.put(
        "core.sparse_spin_flips",
        mean(|r| r.ops.sparse_spin_flips),
        "count",
        jobs,
    );
    out.put(
        "core.delta_macs",
        mean(|r| r.ops.sparse_delta_macs),
        "count",
        jobs,
    );
    let t = config.tile_size as f64;
    // Dense-equivalent work of the tile MVMs: t² MACs each, moving the f32
    // weights plus an f32 input and output vector.
    out.put("linalg.dense_macs", tile_mvms * t * t, "count", jobs);
    out.put(
        "linalg.bytes_moved",
        tile_mvms * 4.0 * (t * t + 2.0 * t),
        "B",
        jobs,
    );
    // Every job of a workload runs the same number of tile MVMs (all pairs
    // execute every round), so the timed jobs' mean divides by it.
    if tile_mvms > 0.0 && !solve_seconds.is_empty() {
        let solve_ns = solve_seconds.iter().sum::<f64>() * 1e9 / solve_seconds.len() as f64;
        out.put(
            "core.ns_per_tile_mvm",
            solve_ns / tile_mvms,
            "ns",
            solve_seconds.len(),
        );
    }

    let w = WorkloadSummary::from_ops(c.rows(), config, &first.ops, MODEL_BATCH);
    let machine = MachineConfig::sophie_default(MODEL_ACCELERATORS);
    let model = batch_time(&machine, &CostParams::default(), &w, MODEL_ADC_CYCLES)
        .map_err(|e| format!("cost model: {e}"))?;
    let per_job_us = |s: f64| s / MODEL_BATCH as f64 * 1e6;
    out.put(
        "hw.modeled_local_us",
        per_job_us(model.local_s),
        "modeled_us",
        1,
    );
    out.put(
        "hw.modeled_sync_us",
        per_job_us(model.sync_s),
        "modeled_us",
        1,
    );
    out.put("hw.modeled_job_us", model.per_job_s * 1e6, "modeled_us", 1);

    let (fwd, tr) = kernel_ns(c, config.tile_size, seed)?;
    out.put(
        &format!("linalg.mvm_fwd_ns.t{}", config.tile_size),
        fwd,
        "ns",
        KERNEL_BATCHES,
    );
    out.put(
        &format!("linalg.mvm_tr_ns.t{}", config.tile_size),
        tr,
        "ns",
        KERNEL_BATCHES,
    );
    Ok(())
}

/// Notes the kernel plan the autotune chose for `tile`.
pub fn note_kernel_plan(out: &mut Outcome, tile: usize) {
    let plan = KernelPlan::for_size(tile).describe();
    out.note("kernel_plan", format!("t{tile} {plan}"));
}

const KERNEL_BATCHES: usize = 9;
const KERNEL_CALLS: usize = 4096;

/// Median over [`KERNEL_BATCHES`] batches of the nanoseconds one forward
/// and one transposed MVM take through the resolved [`KernelPlan`], on the
/// first off-diagonal tile of `c` with a ±1 input drawn from `seed`.
fn kernel_ns(c: &Matrix, tile: usize, seed: u64) -> Result<(f64, f64), String> {
    let grid = TileGrid::new(c.rows(), tile).map_err(|e| e.to_string())?;
    let pairs = grid.symmetric_pairs();
    let pair = pairs
        .iter()
        .find(|p| !p.primary().is_diagonal())
        .or_else(|| pairs.first())
        .ok_or("no tiles")?;
    let t = Tile::from_matrix(c, &grid, pair.primary());
    let mut state = seed | 1;
    let x: Vec<f32> = (0..tile)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            if state >> 63 == 1 {
                1.0
            } else {
                -1.0
            }
        })
        .collect();
    let mut y = vec![0.0_f32; tile];
    let plan = KernelPlan::for_size(tile);
    let mut time = |forward: bool| {
        let mut batches: Vec<f64> = (0..KERNEL_BATCHES)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..KERNEL_CALLS {
                    if forward {
                        plan.forward(&t, std::hint::black_box(&x), &mut y);
                    } else {
                        plan.transposed(&t, std::hint::black_box(&x), &mut y);
                    }
                    std::hint::black_box(&y);
                }
                start.elapsed().as_nanos() as f64 / KERNEL_CALLS as f64
            })
            .collect();
        batches.sort_by(f64::total_cmp);
        batches[KERNEL_BATCHES / 2]
    };
    let fwd = time(true);
    let tr = time(false);
    Ok((fwd, tr))
}

/// Seconds of CPU this process has used, all threads, user plus system.
///
/// # Errors
///
/// When `/proc/self/stat` is unreadable (the benchmark needs Linux).
pub fn cpu_seconds() -> Result<f64, String> {
    let stat =
        std::fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    // Fields after the parenthesised command name start at field 3 (state);
    // utime and stime are fields 14 and 15, in clock ticks of 1/100 s.
    let after = stat.rsplit_once(')').ok_or("malformed /proc/self/stat")?.1;
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(|| "malformed /proc/self/stat".to_string())
    };
    Ok((ticks(11)? + ticks(12)?) / 100.0)
}

fn status_mb(field: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no {field} in /proc/self/status"))
}

/// This process's peak resident set so far (VmHWM), in MiB.
///
/// # Errors
///
/// When `/proc/self/status` is unreadable.
pub fn peak_rss_mb() -> Result<f64, String> {
    status_mb("VmHWM:")
}

/// Bytes held by the process's live heap allocations.
static LIVE_HEAP: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting the bytes live allocations hold (the
/// benchmark's global allocator). The resident set is no substitute: it
/// keeps freed pages below the last live allocation, so it depends on
/// heap layout, and one extra early allocation was seen to halve it.
pub struct CountingAlloc;

// SAFETY: each method hands its arguments unchanged to the system
// allocator, so the caller's guarantees (a valid layout; a pointer this
// allocator returned for that layout) are exactly the ones `System`
// requires, and every pointer returned comes from `System`. The counter is
// bookkeeping only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            LIVE_HEAP.fetch_add(layout.size(), Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            LIVE_HEAP.fetch_add(layout.size(), Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE_HEAP.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            LIVE_HEAP.fetch_add(new_size, Ordering::Relaxed);
            LIVE_HEAP.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        moved
    }
}

/// MiB the process's live heap allocations hold now.
#[must_use]
pub fn live_heap_mb() -> f64 {
    LIVE_HEAP.load(Ordering::Relaxed) as f64 / (1 << 20) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_seeds_are_distinct_across_indices_and_runs() {
        assert_eq!(job_seed(0, 5), 5);
        assert_ne!(job_seed(1, 0), job_seed(0, 1));
        assert_ne!(job_seed(2, 3), job_seed(3, 3));
    }

    #[test]
    fn jobs_split_at_their_syncs_and_pace_drops_a_stall() {
        let start = Instant::now();
        let at = |ms: u64| start + std::time::Duration::from_millis(ms);
        // Four pieces of 10 ms, one of them stalled to 40 ms.
        let run = JobRun {
            start: at(5),
            end: at(75),
            syncs: vec![at(15), at(25), at(65)],
        };
        let pieces = run.pieces(start);
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
        assert_eq!(pieces.len(), 4);
        assert!(pieces.iter().all(|p| close(p.2, 0.25)));
        assert!(close(pieces[0].0, 0.005) && close(pieces[3].1, 0.075));
        assert!(close(pieces[2].1 - pieces[2].0, 0.040));
        assert!(close(run.seconds(), 0.070));
        assert!(close(run.paced_seconds(), 0.040));
        // A job without syncs is one piece at its own pace.
        let whole = JobRun {
            start: at(0),
            end: at(30),
            syncs: Vec::new(),
        };
        assert!(close(whole.paced_seconds(), 0.030));
    }

    #[test]
    fn host_counters_read() {
        assert!(cpu_seconds().unwrap() >= 0.0);
        assert!(peak_rss_mb().unwrap() > 0.0);
    }

    #[test]
    fn the_live_heap_counts_allocations_until_they_are_freed() {
        // Zeroed pages are mapped lazily: 256 MiB of address space, no
        // resident memory. Other tests allocate alongside, so allow slack.
        let before = live_heap_mb();
        let mut block = vec![0_u8; 256 << 20];
        let held = live_heap_mb() - before;
        assert!((held - 256.0).abs() < 16.0, "held {held} MiB");
        block.truncate(1);
        block.shrink_to_fit();
        let after = live_heap_mb() - before;
        assert!(after.abs() < 16.0, "still held {after} MiB");
        drop(block);
    }
}
