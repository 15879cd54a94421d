//! The tiled recurrent Ising engine (paper Algorithm 1), as a staged
//! round pipeline.
//!
//! [`SophieSolver`] executes the modified PRIS algorithm:
//!
//! * the transformation matrix is tiled and each **symmetric pair** of
//!   tiles is mapped to one bidirectional MVM unit (§III-A1, §III-D);
//! * each selected pair runs `local_iters` **local iterations** against its
//!   private spin copies and frozen offset vectors;
//! * a **global synchronization** then exchanges partial sums and spin
//!   states, with *stochastic tile computation* and *stochastic spin
//!   update* shrinking both compute and traffic (§III-A2).
//!
//! The engine is generic over [`MvmBackend`] so the identical algorithm can
//! run on the exact floating-point substrate or on the OPCM device model in
//! `sophie-hw`, and it tallies an [`OpCounts`](sophie_solve::OpCounts) as it
//! goes — the interface to the power/performance models.
//!
//! # Stage pipeline
//!
//! A run is a thin loop over four explicit stages, each its own module:
//!
//! 1. [`program`] — unit programming and state upload (once per run);
//! 2. [`round`] — pair selection and parallel local iteration;
//! 3. [`sync`] — global synchronization and partial-sum merge;
//! 4. [`track`] — best/target/trace bookkeeping and event emission.
//!
//! The stages communicate through one [`state::MachineState`] value. A
//! job enters through [`Solver::solve`](sophie_solve::Solver::solve) or,
//! for a chosen backend, health monitor, schedule or warm start, through
//! the one backend-generic core [`SophieSolver::solve_job`]; both stream
//! typed [`sophie_solve::SolveEvent`]s to a [`SolveObserver`] and return
//! the [`SolveReport`] distilled from that stream.
//!
//! # Threading model
//!
//! Within a round, the selected tile pairs are independent by construction:
//! each owns a private spin copy and partial-sum segment, and reads only
//! offset vectors frozen at the last synchronization. The engine exploits
//! this by fanning the pairs of every round across the persistent worker
//! pool in [`sophie_linalg::par`] (bounded by `SOPHIE_THREADS`). Noise is
//! drawn from counter-derived per-`(round, pair)` RNG streams rather than
//! one shared generator, per-pair [`OpCounts`](sophie_solve::OpCounts)
//! tallies are folded in a
//! fixed order at every synchronization, and all observer events are
//! emitted from the driving thread — so outcomes *and event streams*
//! (traces, bits, op counts) are bit-identical regardless of the thread
//! count.

mod dispatch;
mod health;
mod program;
mod round;
mod state;
mod sync;
mod track;

#[cfg(test)]
mod tests;

use std::borrow::Cow;
use std::sync::Arc;

use sophie_graph::cut::CutScorer;
use sophie_graph::Graph;
use sophie_linalg::{Matrix, SparseCsr, Tile, TileGrid, TilePair};
use sophie_pris::TransformCache;
use sophie_solve::{
    OpCounts, RunControl, SolveError, SolveEvent, SolveJob, SolveObserver, SolveReport, Tee,
    TraceRecorder,
};

use crate::backend::MvmBackend;
use crate::config::SophieConfig;
use crate::error::{Result, SophieError};
use crate::health::HealthConfig;
use crate::queue::TimelineSink;
use crate::schedule::{Round, RoundGenerator, Schedule};

/// Mixed into a job's seed to seed the rounds the engine streams when the
/// job supplies no schedule.
const SCHEDULE_SEED_MIX: u64 = 0x5c3a_11ed_0b57_aced;

/// The SOPHIE solver: a tiled transformation matrix plus everything needed
/// to run jobs against it.
///
/// ```
/// use std::sync::Arc;
///
/// use sophie_core::observe::NullObserver;
/// use sophie_core::{SolveJob, Solver, SophieConfig, SophieSolver};
/// use sophie_graph::generate::{complete, WeightDist};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = Arc::new(complete(32, WeightDist::Unit, 0)?);
/// let config = SophieConfig { tile_size: 8, global_iters: 60, ..SophieConfig::default() };
/// let solver = SophieSolver::from_graph(&g, config)?;
/// let report = solver.solve(&SolveJob::new(g, 1), &mut NullObserver)?;
/// assert!(report.best_cut > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SophieSolver {
    config: SophieConfig,
    grid: TileGrid,
    pairs: Vec<TilePair>,
    /// Primary (upper-triangular or diagonal) tile of each pair.
    tiles: Vec<Tile>,
    /// Per-node thresholds `θ_i = ½ Σ_j C_ij`, zero on padding.
    thresholds: Vec<f32>,
    /// Per-node noise scales `ρ_i = ½ Σ_j |C_ij|`, zero on padding.
    noise_scale: Vec<f32>,
    /// True (unpadded) problem dimension.
    n: usize,
    /// Nonzero pattern of `C` as spin → adjacent-field adjacency (row `j`
    /// lists the rows `i` with `C_ij ≠ 0` after `f32` cast, matching the
    /// tiles). Drives the backend-independent reuse-model op counters;
    /// see [`tally_reuse`].
    reuse: SparseCsr,
}

/// What one [`SophieSolver::solve_job`] call takes beyond its
/// [`SolveJob`]. Every field defaults to `None`, which is the plain run
/// [`Solver::solve`](sophie_solve::Solver::solve) performs.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineRun<'a> {
    /// Attaches the runtime health monitor: after each
    /// `check_interval`-th synchronization the engine probes every pair's
    /// physical unit with a calibration MVM and applies the configured
    /// [`crate::RecoveryPolicy`] to the units that fail, emitting
    /// `FaultDetected` / `TileRecovered` / `RecoveryExhausted` events
    /// (and, from fault-capable backends, `FaultInjected`). All probe and
    /// reprogram work is tallied in the report's op counts, so the
    /// `sophie-hw` cost models charge the recovery overhead.
    pub health: Option<&'a HealthConfig>,
    /// A pre-generated schedule (the hardware flow: the host plans every
    /// scheduling decision offline, §III-D), used as given. `None`
    /// streams the same rounds from the job's seed, one as each is run.
    pub schedule: Option<&'a Schedule>,
    /// Warm start: the initial binary state in graph order instead of a
    /// random one — e.g. to continue annealing from the best state of a
    /// previous batch, or to polish a baseline solver's output.
    pub initial_bits: Option<&'a [bool]>,
}

impl SophieSolver {
    /// Builds a solver from a max-cut instance: forms `K = -A`, applies
    /// eigenvalue dropout with the configured `α`, and tiles the result.
    ///
    /// # Errors
    ///
    /// Propagates configuration, eigensolver, and preprocessing errors.
    pub fn from_graph(graph: &Graph, config: SophieConfig) -> Result<Self> {
        config.validate_for(graph.num_nodes())?;
        let k = sophie_graph::coupling::coupling_matrix(graph);
        let delta = sophie_graph::coupling::delta_diagonal(graph);
        let c = sophie_pris::dropout::transformation_matrix(
            &k,
            delta,
            config.alpha,
            sophie_pris::DeltaVariant::Gershgorin,
        )?;
        Self::from_transform(&c, config)
    }

    /// Builds the solver [`from_graph`](Self::from_graph) would, taking the
    /// transformation matrix from `cache` and preprocessing only on a miss.
    ///
    /// # Errors
    ///
    /// As [`from_graph`](Self::from_graph).
    pub fn from_cache(
        cache: &TransformCache,
        graph: &Arc<Graph>,
        config: SophieConfig,
    ) -> Result<Self> {
        config.validate_for(graph.num_nodes())?;
        let c = cache.transform(graph, config.alpha)?;
        Self::from_transform(&c, config)
    }

    /// Builds a solver from an already-preprocessed transformation matrix
    /// `C` (useful when sweeping `α` with a cached
    /// [`sophie_pris::Preprocessor`]).
    ///
    /// # Errors
    ///
    /// Returns configuration errors (including a round that would queue
    /// more than [`SophieConfig::MAX_ROUND_STEPS`] steps) or
    /// [`SophieError::Linalg`] if `c` is rectangular.
    pub fn from_transform(c: &Matrix, config: SophieConfig) -> Result<Self> {
        config.validate_for(c.rows())?;
        if !c.is_square() {
            return Err(SophieError::Linalg(sophie_linalg::LinalgError::NotSquare {
                rows: c.rows(),
                cols: c.cols(),
            }));
        }
        let grid = TileGrid::new(c.rows(), config.tile_size)?;
        let pairs = grid.symmetric_pairs();
        let tiles: Vec<Tile> = pairs
            .iter()
            .map(|p| Tile::from_matrix(c, &grid, p.primary()))
            .collect();
        let padded = grid.padded_len();
        let mut thresholds = vec![0.0_f32; padded];
        let mut noise_scale = vec![0.0_f32; padded];
        for r in 0..c.rows() {
            let row = c.row(r);
            thresholds[r] = (0.5 * row.iter().sum::<f64>()) as f32;
            noise_scale[r] = (0.5 * row.iter().map(|x| x.abs()).sum::<f64>()) as f32;
        }
        // Column-major pattern of C in f32 (what the tiles store): row j of
        // the CSR lists the field rows adjacent to spin j.
        let n = c.rows();
        let mut transposed = vec![0.0_f32; n * n];
        for r in 0..n {
            for (j, &v) in c.row(r).iter().enumerate() {
                transposed[j * n + r] = v as f32;
            }
        }
        let reuse = SparseCsr::from_dense(n, n, &transposed)?;
        Ok(SophieSolver {
            config,
            grid,
            pairs,
            tiles,
            thresholds,
            noise_scale,
            n,
            reuse,
        })
    }

    /// The validated configuration.
    #[must_use]
    pub fn config(&self) -> &SophieConfig {
        &self.config
    }

    /// The tiling descriptor.
    #[must_use]
    pub fn grid(&self) -> &TileGrid {
        &self.grid
    }

    /// Number of symmetric tile pairs (physical MVM units required).
    #[must_use]
    pub fn num_pairs(&self) -> usize {
        self.pairs.len()
    }

    /// Problem dimension (graph order).
    #[must_use]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Index of the pair covering tile `(r, c)` in the pair list.
    ///
    /// # Panics
    ///
    /// Panics if the block indices are out of range.
    #[must_use]
    pub fn pair_index(&self, r: usize, c: usize) -> usize {
        let b = self.grid.blocks();
        assert!(r < b && c < b, "block index out of range");
        let (lo, hi) = if r <= c { (r, c) } else { (c, r) };
        // Pairs are emitted row-major: for row k, the diagonal then (k, k+1..B).
        lo * b - lo * (lo + 1) / 2 + lo + (hi - lo)
    }

    /// Runs a [`SolveJob`] on `backend`: the backend-generic core behind
    /// every [`Solver`](sophie_solve::Solver) impl of the engine (the impl
    /// on this type runs [`IdealBackend`](crate::backend::IdealBackend);
    /// the OPCM adapter in `sophie-hw` supplies its device model).
    ///
    /// The job's seed draws the initial state and the schedule,
    /// `budget.max_iterations` caps the planned rounds, its target is
    /// tracked, and its [`RunControl`] is polled between rounds. `run`
    /// adds what a job does not carry: a health monitor, a pre-generated
    /// schedule (used as given, capped by the budget) and a warm start.
    ///
    /// The returned [`SolveReport`] is distilled from the exact event
    /// stream `observer` receives, with the winning bits attached. The
    /// stage loop is: `program` once, then per scheduled round `round` →
    /// `sync` → `track` (one private module per stage, see the module
    /// docs). Events follow the ordering contract documented in
    /// [`sophie_solve`]: `RunStarted`, a round-0 `GlobalSync` for the
    /// initial state (its `ops_delta` is the setup cost), then per round
    /// `RoundStarted`, one `PairIterated` per selected pair in ascending
    /// pair order, `GlobalSync`, and at most one `TargetReached`; finally
    /// `RunFinished`.
    ///
    /// Every device command completion and host-side cost record goes to
    /// `timeline` ([`NullTimeline`](crate::queue::NullTimeline) drops
    /// them): the sum of all record costs reproduces the report's op
    /// totals exactly, and the device stream's `(round, wave, unit)` keys
    /// are byte-identical for every `SOPHIE_THREADS` setting. Reports and
    /// events are unaffected by the sink.
    ///
    /// # Errors
    ///
    /// [`SolveError::BadJob`] if the job's graph order or the warm start's
    /// length differs from the engine dimension, or the schedule was
    /// generated for another grid; [`SolveError::BadConfig`] for an
    /// invalid health config.
    pub fn solve_job<B: MvmBackend>(
        &self,
        backend: &B,
        job: &SolveJob,
        run: &EngineRun<'_>,
        observer: &mut dyn SolveObserver,
        timeline: &mut dyn TimelineSink,
    ) -> std::result::Result<SolveReport, SolveError> {
        let bad_job = |message: String| SolveError::BadJob {
            solver: "sophie".to_string(),
            message,
        };
        if job.graph.num_nodes() != self.n {
            return Err(bad_job(format!(
                "graph order {} does not match engine dimension {}",
                job.graph.num_nodes(),
                self.n
            )));
        }
        if let Some(bits) = run.initial_bits.filter(|b| b.len() != self.n) {
            return Err(bad_job(format!(
                "initial state has {} spins, engine dimension is {}",
                bits.len(),
                self.n
            )));
        }
        if let Some(schedule) = run.schedule.filter(|s| s.blocks() != self.grid.blocks()) {
            return Err(bad_job(format!(
                "schedule has {} block columns, engine grid has {}",
                schedule.blocks(),
                self.grid.blocks()
            )));
        }
        if let Some(h) = run.health {
            h.validate().map_err(|e| SolveError::BadConfig {
                solver: "sophie".to_string(),
                message: e.to_string(),
            })?;
        }
        let control = job.control();
        // One stage loop runs either round source. Streamed rounds are the
        // ones a schedule generated from the same seed would hold, each
        // built when the loop reaches it, so a run stopped early builds no
        // more and memory does not grow with `global_iters`.
        let planned = job.budget.cap(
            run.schedule
                .map_or(self.config.global_iters, |s| s.rounds().len()),
        );
        let stochastic_spin = run.schedule.map_or(
            self.config.stochastic_spin_update,
            Schedule::stochastic_spin,
        );
        let rounds: Box<dyn Iterator<Item = Cow<'_, Round>> + '_> = match run.schedule {
            Some(schedule) => Box::new(schedule.rounds()[..planned].iter().map(Cow::Borrowed)),
            None => {
                let mut gen = RoundGenerator::new(
                    &self.grid,
                    self.config.tile_fraction,
                    self.config.stochastic_spin_update,
                    job.seed ^ SCHEDULE_SEED_MIX,
                );
                Box::new((0..planned).map(move |_| Cow::Owned(gen.next_round())))
            }
        };
        let mut recorder = TraceRecorder::new();
        let best_bits = self.run_impl(
            backend,
            job,
            rounds,
            planned,
            stochastic_spin,
            run,
            &control,
            &mut Tee::new(&mut recorder, observer),
            timeline,
        );
        let mut report = recorder.into_report();
        // Events carry no bits; attach the winning state out-of-band so
        // problem decoders can map the report back to their domain.
        report.best_bits = best_bits;
        Ok(report)
    }

    /// The stage loop over `rounds` (`planned` of them), returning the
    /// best bits; inputs are validated by [`Self::solve_job`].
    #[allow(clippy::too_many_arguments)]
    fn run_impl<'r, B: MvmBackend>(
        &self,
        backend: &B,
        job: &SolveJob,
        rounds: impl Iterator<Item = Cow<'r, Round>>,
        planned: usize,
        stochastic_spin: bool,
        run: &EngineRun<'_>,
        control: &RunControl,
        observer: &mut dyn SolveObserver,
        timeline: &mut dyn TimelineSink,
    ) -> Vec<bool> {
        let (graph, seed) = (job.graph.as_ref(), job.seed);
        observer.on_event(&SolveEvent::RunStarted {
            solver: "sophie",
            dimension: self.n,
            planned_iterations: planned,
            seed,
            target: job.target,
        });

        let mut monitor = run.health.map(|h| health::HealthMonitor::new(*h));
        let probe_seed = monitor
            .as_ref()
            .map_or(0, health::HealthMonitor::probe_seed);

        // Stage 1: program the units and upload the initial state.
        let mut ms = program::program(self, backend, seed, run.initial_bits, probe_seed, timeline);
        // Reuse-model setup charge: the initial state computes every field
        // from scratch (one full pass over the nonzeros of C).
        dispatch::host_record(&mut ms, 0, "reuse_setup", timeline, |ms| {
            ms.ops.sparse_field_updates += self.n as u64;
            ms.ops.sparse_delta_macs += self.reuse.nnz() as u64;
        });

        // Every synchronized state is scored, in integers where the graph's
        // weights allow it, with the bits of the ordered edge sum.
        let scorer = CutScorer::new(graph);
        let bits = state::global_bits(&ms.global, self.n);
        let cut0 = scorer.score(&bits);
        let mut tracker = track::RunTracker::start(job.target, &bits, cut0, ms.ops, observer);
        let mut prev_bits = bits;
        let mut reuse_stamp = vec![0_u32; self.n];
        let mut reuse_gen = 0_u32;

        let local_iters = self.config.local_iters;
        let mut active: Vec<usize> = Vec::with_capacity(self.pairs.len());
        let mut rounds_done = 0usize;
        for (g, sched_round) in rounds.enumerate() {
            // Cooperative stop (deadline or sibling cancellation): wind
            // down at round granularity, still emitting `RunFinished`.
            if control.should_stop() {
                break;
            }
            let round_index = g + 1;
            rounds_done = round_index;

            // Stage 2: submit the selected pairs' local-iteration chains
            // (minus any the health monitor quarantined).
            active.clear();
            active.extend(
                sched_round
                    .pairs
                    .iter()
                    .copied()
                    .filter(|&pi| !ms.states[pi].disabled),
            );
            observer.on_event(&SolveEvent::RoundStarted {
                round: round_index,
                pairs_selected: active.len(),
            });
            ms.queue.begin_round(round_index as u64);
            for &pi in &active {
                let state::MachineState { states, queue, .. } = &mut ms;
                round::submit_pair(queue, &states[pi], local_iters);
            }
            // Health probes (every live pair, selected or not) ride the
            // same flush as the in-flight solve chains: the sorted
            // timeline shows probe completions interleaved with solve
            // MVMs of the same round. The host plans and flushes the
            // whole round at once (§III-D).
            let probing = monitor.as_ref().is_some_and(|m| m.due(round_index));
            if probing {
                monitor.as_ref().unwrap().submit_probes(&mut ms);
            }
            let mut art = dispatch::RoundArtifacts::default();
            dispatch::flush_all(self, &mut ms, seed, probe_seed, timeline, &mut art);
            art.sort();

            for &pi in &active {
                observer.on_event(&SolveEvent::PairIterated {
                    round: round_index,
                    pair: pi,
                    local_iters,
                });
            }
            // The round's transient-fault reports, drained by the
            // per-pair `CollectFaults` commands, surface in ascending
            // pair order.
            for (pi, faults) in &art.fault_stash {
                for fault in faults {
                    observer.on_event(&SolveEvent::FaultInjected {
                        round: round_index,
                        pair: *pi,
                        kind: fault.kind,
                        wave: fault.wave,
                    });
                }
            }

            // Stage 3: global synchronization and partial-sum merge
            // (host-side glue, reported to the timeline as one record).
            dispatch::host_record(&mut ms, round_index as u64, "global_sync", timeline, |ms| {
                sync::synchronize(self, ms, &sched_round, stochastic_spin, &active);
            });

            // Stage 3b: recovery of the pairs whose probe failed
            // (fault-aware runs only), charged to the same round's ops
            // delta. Probe residuals are state-independent of the global
            // sync, so resolving after it matches the legacy serial
            // probe-then-recover flow exactly.
            if probing {
                monitor.as_mut().unwrap().resolve(
                    self,
                    backend,
                    &mut ms,
                    round_index,
                    seed,
                    &art.probe_residuals,
                    timeline,
                    observer,
                );
            }
            ms.drain_pair_ops();

            // Stage 4: score the synchronized state and emit its events.
            let bits = state::global_bits(&ms.global, self.n);
            dispatch::host_record(&mut ms, round_index as u64, "reuse_tally", timeline, |ms| {
                tally_reuse(
                    &self.reuse,
                    &prev_bits,
                    &bits,
                    &mut reuse_stamp,
                    &mut reuse_gen,
                    &mut ms.ops,
                );
            });
            let cut = scorer.score(&bits);
            tracker.observe(round_index, &bits, cut, ms.ops, observer);
            prev_bits = bits;
        }

        tracker.finish(rounds_done, ms.ops, observer)
    }
}

/// Tallies the reuse-model op counters for one global synchronization.
///
/// The counters model what an incremental-update ASIC datapath would pay
/// for this sync: every spin whose global bit flipped since the previous
/// sync (`sparse_spin_flips`), every field adjacent to at least one
/// flipped spin (`sparse_field_updates`, deduplicated via generation
/// stamps), and one MAC per (flipped spin, adjacent field) pair
/// (`sparse_delta_macs`). Once every field is stamped, later flipped rows
/// add only their lengths: on a dense `C` the first flip saturates it.
///
/// Deliberately **backend- and thread-independent**: derived solely from
/// the synchronized global state and the static pattern of `C`, never from
/// which kernel the backend actually executed — so the counters model the
/// datapath, not the host, and event streams stay byte-identical across
/// kernels and `SOPHIE_THREADS` settings.
fn tally_reuse(
    adjacency: &SparseCsr,
    prev: &[bool],
    now: &[bool],
    stamp: &mut [u32],
    gen: &mut u32,
    ops: &mut OpCounts,
) {
    *gen = gen.wrapping_add(1);
    if *gen == 0 {
        stamp.fill(0);
        *gen = 1;
    }
    let fields = stamp.len() as u64;
    let mut flips = 0_u64;
    let mut touched = 0_u64;
    let mut macs = 0_u64;
    for (j, (&a, &b)) in prev.iter().zip(now).enumerate() {
        if a != b {
            flips += 1;
            let rows = adjacency.row(j);
            macs += rows.len() as u64;
            if touched == fields {
                continue;
            }
            for &i in rows {
                if stamp[i as usize] != *gen {
                    stamp[i as usize] = *gen;
                    touched += 1;
                }
            }
        }
    }
    ops.sparse_spin_flips += flips;
    ops.sparse_field_updates += touched;
    ops.sparse_delta_macs += macs;
}
