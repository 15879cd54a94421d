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
//! The stages communicate through one [`state::MachineState`] value, and
//! every `run*` entry point has an `_observed` variant that streams typed
//! [`sophie_solve::SolveEvent`]s to a [`SolveObserver`] (the plain
//! variants attach a no-op observer; outcomes are bit-identical either
//! way).
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

use std::sync::Arc;

use sophie_graph::cut::cut_value_binary;
use sophie_graph::Graph;
use sophie_linalg::{Matrix, SparseCsr, Tile, TileGrid, TilePair};
use sophie_pris::TransformCache;
use sophie_solve::{
    NullObserver, OpCounts, RunControl, SolveError, SolveEvent, SolveJob, SolveObserver,
    SolveReport, Tee, TraceRecorder,
};

use crate::backend::{IdealBackend, MvmBackend};
use crate::config::{ComputeMode, SophieConfig};
use crate::error::{Result, SophieError};
use crate::health::HealthConfig;
use crate::outcome::SophieOutcome;
use crate::queue::{DeviceQueue, NullTimeline, TimelineSink};
use crate::schedule::Schedule;
use crate::sparse::SparseBackend;

/// The SOPHIE solver: a tiled transformation matrix plus everything needed
/// to run jobs against it.
///
/// ```
/// use sophie_core::{SophieConfig, SophieSolver};
/// use sophie_graph::generate::{complete, WeightDist};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = complete(32, WeightDist::Unit, 0)?;
/// let config = SophieConfig { tile_size: 8, global_iters: 60, ..SophieConfig::default() };
/// let solver = SophieSolver::from_graph(&g, config)?;
/// let out = solver.run(&g, 1, None)?;
/// assert!(out.best_cut > 0.0);
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
    /// tiles). Drives the strategy-independent reuse-model op counters;
    /// see [`tally_reuse`].
    reuse: SparseCsr,
}

impl SophieSolver {
    /// Builds a solver from a max-cut instance: forms `K = -A`, applies
    /// eigenvalue dropout with the configured `α`, and tiles the result.
    ///
    /// # Errors
    ///
    /// Propagates configuration, eigensolver, and preprocessing errors.
    pub fn from_graph(graph: &Graph, config: SophieConfig) -> Result<Self> {
        config.validate()?;
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
        config.validate()?;
        let c = cache.transform(graph, config.alpha)?;
        Self::from_transform(&c, config)
    }

    /// Builds a solver from an already-preprocessed transformation matrix
    /// `C` (useful when sweeping `α` with a cached
    /// [`sophie_pris::Preprocessor`]).
    ///
    /// # Errors
    ///
    /// Returns configuration errors or [`SophieError::Linalg`] if `c` is
    /// rectangular.
    pub fn from_transform(c: &Matrix, config: SophieConfig) -> Result<Self> {
        config.validate()?;
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

    /// Runs one job on the exact floating-point substrate, dispatching on
    /// the configured [`ComputeMode`]: the dense [`IdealBackend`] or the
    /// delta-driven [`SparseBackend`]. The two are bit-identical in every
    /// output (see [`crate::sparse`]); the mode trades wall-clock only.
    ///
    /// # Errors
    ///
    /// Currently infallible after construction; kept fallible for parity
    /// with backend-specific runs.
    pub fn run(&self, graph: &Graph, seed: u64, target_cut: Option<f64>) -> Result<SophieOutcome> {
        match self.config.compute {
            ComputeMode::Dense => {
                self.run_with_backend(&IdealBackend::new(), graph, seed, target_cut)
            }
            ComputeMode::Sparse | ComputeMode::Auto => self.run_with_backend(
                &SparseBackend::from_config(&self.config),
                graph,
                seed,
                target_cut,
            ),
        }
    }

    /// Like [`Self::run`], but streaming [`SolveEvent`]s to `observer`.
    ///
    /// # Errors
    ///
    /// Currently infallible after construction.
    pub fn run_observed(
        &self,
        graph: &Graph,
        seed: u64,
        target_cut: Option<f64>,
        observer: &mut dyn SolveObserver,
    ) -> Result<SophieOutcome> {
        match self.config.compute {
            ComputeMode::Dense => self.run_with_backend_observed(
                &IdealBackend::new(),
                graph,
                seed,
                target_cut,
                observer,
            ),
            ComputeMode::Sparse | ComputeMode::Auto => self.run_with_backend_observed(
                &SparseBackend::from_config(&self.config),
                graph,
                seed,
                target_cut,
                observer,
            ),
        }
    }

    /// Runs one job on an arbitrary MVM backend, generating the static
    /// schedule from `seed`.
    ///
    /// # Errors
    ///
    /// Currently infallible after construction.
    pub fn run_with_backend<B: MvmBackend>(
        &self,
        backend: &B,
        graph: &Graph,
        seed: u64,
        target_cut: Option<f64>,
    ) -> Result<SophieOutcome> {
        self.run_with_backend_observed(backend, graph, seed, target_cut, &mut NullObserver)
    }

    /// Like [`Self::run_with_backend`], but streaming [`SolveEvent`]s to
    /// `observer`.
    ///
    /// # Errors
    ///
    /// Currently infallible after construction.
    pub fn run_with_backend_observed<B: MvmBackend>(
        &self,
        backend: &B,
        graph: &Graph,
        seed: u64,
        target_cut: Option<f64>,
        observer: &mut dyn SolveObserver,
    ) -> Result<SophieOutcome> {
        let schedule = Schedule::generate(
            &self.grid,
            self.config.global_iters,
            self.config.tile_fraction,
            self.config.stochastic_spin_update,
            seed ^ 0x5c3a_11ed_0b57_aced,
        );
        self.run_scheduled_from_observed(
            backend, graph, &schedule, seed, target_cut, None, observer,
        )
    }

    /// Runs one job against a pre-generated schedule (the hardware flow:
    /// the host generates all scheduling decisions offline, §III-D).
    ///
    /// # Errors
    ///
    /// Currently infallible after construction.
    ///
    /// # Panics
    ///
    /// Panics if `graph.num_nodes() != self.dim()` or the schedule was
    /// generated for a different grid.
    pub fn run_scheduled<B: MvmBackend>(
        &self,
        backend: &B,
        graph: &Graph,
        schedule: &Schedule,
        seed: u64,
        target_cut: Option<f64>,
    ) -> Result<SophieOutcome> {
        self.run_scheduled_from(backend, graph, schedule, seed, target_cut, None)
    }

    /// Like [`Self::run_scheduled`], but warm-started from `initial_bits`
    /// instead of a random state — e.g. to continue annealing from the
    /// best configuration of a previous batch, or to polish a baseline
    /// solver's output on the Ising machine.
    ///
    /// # Errors
    ///
    /// Currently infallible after construction.
    ///
    /// # Panics
    ///
    /// Panics on graph/schedule mismatch or if `initial_bits` has the
    /// wrong length.
    pub fn run_scheduled_from<B: MvmBackend>(
        &self,
        backend: &B,
        graph: &Graph,
        schedule: &Schedule,
        seed: u64,
        target_cut: Option<f64>,
        initial_bits: Option<&[bool]>,
    ) -> Result<SophieOutcome> {
        self.run_scheduled_from_observed(
            backend,
            graph,
            schedule,
            seed,
            target_cut,
            initial_bits,
            &mut NullObserver,
        )
    }

    /// The fully general entry point: pre-generated schedule, optional
    /// warm start, and a [`SolveObserver`] receiving the run's event
    /// stream. All other `run*` methods funnel here (fault-aware runs via
    /// [`Self::run_fault_aware`], which additionally attaches a health
    /// monitor).
    ///
    /// The stage loop is: `program` once, then per scheduled round
    /// `round` → `sync` → `track` (one private module per stage, see the
    /// module docs). Events follow the ordering
    /// contract documented in [`sophie_solve`]: `RunStarted`, a round-0
    /// `GlobalSync` for the initial state (its `ops_delta` is the setup
    /// cost), then per round `RoundStarted`, one `PairIterated` per
    /// selected pair in ascending pair order, `GlobalSync`, and at most
    /// one `TargetReached`; finally `RunFinished`.
    ///
    /// # Errors
    ///
    /// Currently infallible after construction.
    ///
    /// # Panics
    ///
    /// Panics on graph/schedule mismatch or if `initial_bits` has the
    /// wrong length.
    #[allow(clippy::too_many_arguments)]
    pub fn run_scheduled_from_observed<B: MvmBackend>(
        &self,
        backend: &B,
        graph: &Graph,
        schedule: &Schedule,
        seed: u64,
        target_cut: Option<f64>,
        initial_bits: Option<&[bool]>,
        observer: &mut dyn SolveObserver,
    ) -> Result<SophieOutcome> {
        self.run_impl(
            backend,
            graph,
            schedule,
            schedule.rounds().len(),
            seed,
            target_cut,
            initial_bits,
            None,
            &RunControl::unrestricted(),
            observer,
            &mut NullTimeline,
        )
    }

    /// Runs one job with the runtime health monitor attached: after each
    /// `check_interval`-th synchronization the engine probes every pair's
    /// physical unit with a calibration MVM and applies the configured
    /// [`crate::RecoveryPolicy`] to the units that fail, emitting
    /// `FaultDetected` / `TileRecovered` / `RecoveryExhausted` events
    /// (and, from fault-capable backends, `FaultInjected`) alongside the
    /// usual stream. All probe and reprogram work is tallied in the
    /// outcome's op counts, so the `sophie-hw` cost models charge the
    /// recovery overhead.
    ///
    /// The schedule is generated from `seed` exactly as in
    /// [`Self::run_with_backend`].
    ///
    /// # Errors
    ///
    /// Returns [`SophieError::BadConfig`] if `health` is invalid.
    pub fn run_fault_aware<B: MvmBackend>(
        &self,
        backend: &B,
        graph: &Graph,
        seed: u64,
        target_cut: Option<f64>,
        health: &HealthConfig,
        observer: &mut dyn SolveObserver,
    ) -> Result<SophieOutcome> {
        health.validate()?;
        let schedule = Schedule::generate(
            &self.grid,
            self.config.global_iters,
            self.config.tile_fraction,
            self.config.stochastic_spin_update,
            seed ^ 0x5c3a_11ed_0b57_aced,
        );
        self.run_impl(
            backend,
            graph,
            &schedule,
            schedule.rounds().len(),
            seed,
            target_cut,
            None,
            Some(health),
            &RunControl::unrestricted(),
            observer,
            &mut NullTimeline,
        )
    }

    /// Runs a [`SolveJob`] on `backend` through the shared
    /// [`Solver`](sophie_solve::Solver) contract: the job's seed and
    /// target replace per-call parameters, `budget.max_iterations` caps
    /// the configured `global_iters`, the job's [`RunControl`] is polled
    /// between rounds, and the returned [`SolveReport`] is distilled from
    /// the exact event stream `observer` receives. With no budget or
    /// cancellation the stream is byte-identical to
    /// [`Self::run_with_backend_observed`] (or, with `health` set, to
    /// [`Self::run_fault_aware`]) for the same (graph, seed, target).
    ///
    /// This is the backend-generic core of the `Solver` impls: the ideal
    /// impl on this type fixes the backend to [`IdealBackend`], and the
    /// OPCM adapter in `sophie-hw` supplies its device model.
    ///
    /// # Errors
    ///
    /// [`SolveError::BadJob`] if the job's graph order differs from the
    /// engine dimension, [`SolveError::BadConfig`] for an invalid
    /// `health`.
    pub fn solve_job<B: MvmBackend>(
        &self,
        backend: &B,
        job: &SolveJob,
        health: Option<&HealthConfig>,
        observer: &mut dyn SolveObserver,
    ) -> std::result::Result<SolveReport, SolveError> {
        self.solve_job_with_timeline(backend, job, health, observer, &mut NullTimeline)
    }

    /// Like [`Self::solve_job`], but streaming every device command
    /// completion and host-side cost record of the run to `timeline` —
    /// the exact per-command attribution behind the aggregate
    /// [`OpCounts`] in the report. The sum of all device-record costs
    /// plus all host-record costs reproduces the report's op totals
    /// exactly, and the device stream's `(round, wave, unit)` keys are
    /// byte-identical for every `SOPHIE_THREADS` setting. Outcomes and
    /// events are unaffected by the sink.
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::solve_job`].
    pub fn solve_job_with_timeline<B: MvmBackend>(
        &self,
        backend: &B,
        job: &SolveJob,
        health: Option<&HealthConfig>,
        observer: &mut dyn SolveObserver,
        timeline: &mut dyn TimelineSink,
    ) -> std::result::Result<SolveReport, SolveError> {
        if job.graph.num_nodes() != self.n {
            return Err(SolveError::BadJob {
                solver: "sophie".to_string(),
                message: format!(
                    "graph order {} does not match engine dimension {}",
                    job.graph.num_nodes(),
                    self.n
                ),
            });
        }
        if let Some(h) = health {
            h.validate().map_err(|e| SolveError::BadConfig {
                solver: "sophie".to_string(),
                message: e.to_string(),
            })?;
        }
        let planned = job.budget.cap(self.config.global_iters);
        let control = job.control();
        // Cooperative generation: schedule setup is O(global_iters) work
        // before the first round, so it honors cancellation and deadlines
        // too. Truncation is unobservable — a run stopped during setup
        // would never execute the missing rounds — and `planned` still
        // reports the requested count.
        let schedule = Schedule::generate_while(
            &self.grid,
            planned,
            self.config.tile_fraction,
            self.config.stochastic_spin_update,
            job.seed ^ 0x5c3a_11ed_0b57_aced,
            || !control.should_stop(),
        );
        let mut recorder = TraceRecorder::new();
        let outcome = {
            let mut tee = Tee::new(&mut recorder, observer);
            self.run_impl(
                backend, &job.graph, &schedule, planned, job.seed, job.target, None, health,
                &control, &mut tee, timeline,
            )
            .map_err(|e| SolveError::Failed {
                solver: "sophie".to_string(),
                message: e.to_string(),
            })?
        };
        let mut report = recorder.into_report();
        // Events carry no bits; attach the winning state out-of-band so
        // problem decoders can map the report back to their domain.
        report.best_bits = outcome.best_bits;
        Ok(report)
    }

    #[allow(clippy::too_many_arguments)]
    fn run_impl<B: MvmBackend>(
        &self,
        backend: &B,
        graph: &Graph,
        schedule: &Schedule,
        planned: usize,
        seed: u64,
        target_cut: Option<f64>,
        initial_bits: Option<&[bool]>,
        health_config: Option<&HealthConfig>,
        control: &RunControl,
        observer: &mut dyn SolveObserver,
        timeline: &mut dyn TimelineSink,
    ) -> Result<SophieOutcome> {
        assert_eq!(graph.num_nodes(), self.n, "graph order mismatch");
        assert_eq!(
            schedule.blocks(),
            self.grid.blocks(),
            "schedule grid mismatch"
        );

        observer.on_event(&SolveEvent::RunStarted {
            solver: "sophie",
            dimension: self.n,
            planned_iterations: planned,
            seed,
            target: target_cut,
        });

        let mut monitor = health_config.map(|h| health::HealthMonitor::new(*h));
        let probe_seed = monitor
            .as_ref()
            .map_or(0, health::HealthMonitor::probe_seed);

        // Stage 1: program the units and upload the initial state.
        let mut ms = program::program(self, backend, seed, initial_bits, probe_seed, timeline);
        // Reuse-model setup charge: the initial state computes every field
        // from scratch (one full pass over the nonzeros of C).
        dispatch::host_record(&mut ms, 0, "reuse_setup", timeline, |ms| {
            ms.ops.sparse_field_updates += self.n as u64;
            ms.ops.sparse_delta_macs += self.reuse.nnz() as u64;
        });

        let bits = state::global_bits(&ms.global, self.n);
        let cut0 = cut_value_binary(graph, &bits);
        let mut tracker = track::RunTracker::start(target_cut, &bits, cut0, ms.ops, observer);
        let mut prev_bits = bits;
        let mut reuse_stamp = vec![0_u32; self.n];
        let mut reuse_gen = 0_u32;

        let local_iters = self.config.local_iters;
        let mut active: Vec<usize> = Vec::with_capacity(self.pairs.len());
        let mut rounds_done = 0usize;
        for (g, sched_round) in schedule.rounds().iter().enumerate() {
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
                sync::synchronize(self, ms, schedule, sched_round, &active);
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
            let cut = cut_value_binary(graph, &bits);
            tracker.observe(round_index, &bits, cut, ms.ops, observer);
            prev_bits = bits;
        }

        Ok(tracker.finish(rounds_done, ms.ops, observer))
    }
}

/// Tallies the reuse-model op counters for one global synchronization.
///
/// The counters model what an incremental-update ASIC datapath would pay
/// for this sync: every spin whose global bit flipped since the previous
/// sync (`sparse_spin_flips`), every field adjacent to at least one
/// flipped spin (`sparse_field_updates`, deduplicated via generation
/// stamps), and one MAC per (flipped spin, adjacent field) pair
/// (`sparse_delta_macs`).
///
/// Deliberately **strategy- and thread-independent**: derived solely from
/// the synchronized global state and the static pattern of `C`, never from
/// which kernel the backend actually executed — so event streams stay
/// byte-identical across [`ComputeMode`]s and `SOPHIE_THREADS` settings.
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
    let mut flips = 0_u64;
    let mut touched = 0_u64;
    let mut macs = 0_u64;
    for (j, (&a, &b)) in prev.iter().zip(now).enumerate() {
        if a != b {
            flips += 1;
            let (rows, _) = adjacency.row(j);
            macs += rows.len() as u64;
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
