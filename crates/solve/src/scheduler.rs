//! Solver-agnostic batch scheduling.
//!
//! The accelerator amortizes OPCM programming by running a *batch* of
//! independent jobs between reprogramming passes (§III-E; Fig. 9 picks
//! batch = 100). This module generalizes that idea to heterogeneous
//! batches: each [`BatchJob`] pairs its own [`Solver`] instance with its
//! own [`SolveJob`], and [`run_batch`] fans the batch across the
//! persistent worker pool in [`sophie_linalg::par`].
//!
//! # Determinism
//!
//! With default [`BatchOptions`] every job is a pure function of its
//! (solver, job) pair: results come back in submission order and are
//! bit-identical for any `SOPHIE_THREADS` value. The opt-in cooperative
//! features — [`BatchOptions::cancel_on_target`] and per-job
//! [`JobBudget::time_limit`](crate::JobBudget::time_limit) — trade that
//! away: which iteration a cancelled job stops at depends on wall-clock
//! timing.
//!
//! # Nesting
//!
//! Jobs dispatched here may themselves fan out (the SOPHIE engine
//! parallelizes tile pairs within a round). The worker pool runs nested
//! parallel calls inline on the posting thread, so batch-over-engine
//! composition cannot deadlock or oversubscribe.

use std::sync::Arc;

use crate::error::SolveError;
use crate::job::{CancelToken, SolveJob};
use crate::observe::{NullObserver, SolveEvent, SolveObserver};
use crate::opcount::OpCounts;
use crate::report::SolveReport;
use crate::solver::Solver;
use crate::stats::{self, StatsError};

/// One scheduled unit: a solver instance plus the job it should run.
#[derive(Clone)]
pub struct BatchJob {
    /// The solver to run the job on.
    pub solver: Arc<dyn Solver>,
    /// The job description.
    pub job: SolveJob,
}

impl BatchJob {
    /// Pairs a solver with a job.
    #[must_use]
    pub fn new(solver: Arc<dyn Solver>, job: SolveJob) -> Self {
        BatchJob { solver, job }
    }
}

impl std::fmt::Debug for BatchJob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchJob")
            .field("solver", &self.solver.name())
            .field("job", &self.job)
            .finish()
    }
}

/// Batch-wide execution policy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchOptions {
    /// When set, the first job whose run reaches its target cancels every
    /// sibling through a shared [`CancelToken`] (replacing any token the
    /// jobs carried). Useful for racing heterogeneous solvers to a cut;
    /// makes where the losers stop timing-dependent.
    pub cancel_on_target: bool,
}

/// Aggregate result of one batch.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchReport {
    /// Per-job reports, in submission order.
    pub reports: Vec<SolveReport>,
    /// Mean best cut across jobs.
    pub mean_cut: f64,
    /// Best cut across jobs.
    pub best_cut: f64,
    /// Jobs that reached their target (when one was set).
    pub converged: usize,
    /// Operation totals summed over every job.
    pub ops: OpCounts,
}

impl BatchReport {
    fn from_reports(reports: Vec<SolveReport>) -> Self {
        let mean_cut = stats::mean(reports.iter().map(|r| r.best_cut));
        let best_cut = reports
            .iter()
            .map(|r| r.best_cut)
            .fold(f64::NEG_INFINITY, f64::max);
        let converged = reports
            .iter()
            .filter(|r| r.iterations_to_target.is_some())
            .count();
        let ops = reports
            .iter()
            .fold(OpCounts::default(), |acc, r| acc.combined(&r.ops));
        BatchReport {
            reports,
            mean_cut,
            best_cut,
            converged,
            ops,
        }
    }

    /// The `q`-quantile of iterations-to-target across the batch, with
    /// non-converged jobs counted at `budget` (`q = 0.9` is Table II's
    /// T90).
    ///
    /// # Errors
    ///
    /// Propagates [`StatsError`] for an empty batch or `q` outside
    /// `[0, 1]`.
    pub fn iters_to_target_quantile(&self, q: f64, budget: usize) -> Result<usize, StatsError> {
        stats::iters_to_target_quantile(
            self.reports.iter().map(|r| r.iterations_to_target),
            q,
            budget,
        )
    }
}

/// Observer that trips a shared token on the first `TargetReached`.
struct CancelOnTarget<'a> {
    token: &'a CancelToken,
}

impl SolveObserver for CancelOnTarget<'_> {
    fn on_event(&mut self, event: &SolveEvent) {
        if matches!(event, SolveEvent::TargetReached { .. }) {
            self.token.cancel();
        }
    }
}

/// Runs a heterogeneous batch across the worker pool, returning per-job
/// reports in submission order plus aggregate statistics.
///
/// # Errors
///
/// [`SolveError::EmptyBatch`] for an empty batch; the first solver error
/// otherwise (in submission order).
pub fn run_batch(jobs: &[BatchJob], options: &BatchOptions) -> Result<BatchReport, SolveError> {
    if jobs.is_empty() {
        return Err(SolveError::EmptyBatch);
    }
    let shared = options.cancel_on_target.then(CancelToken::new);
    let results: Vec<Result<SolveReport, SolveError>> =
        sophie_linalg::par::parallel_map(jobs.len(), |i| {
            let entry = &jobs[i];
            match &shared {
                Some(token) => {
                    let mut job = entry.job.clone();
                    job.cancel = Some(token.clone());
                    entry.solver.solve(&job, &mut CancelOnTarget { token })
                }
                None => entry.solver.solve(&entry.job, &mut NullObserver),
            }
        });
    let mut reports = Vec::with_capacity(results.len());
    for r in results {
        reports.push(r?);
    }
    Ok(BatchReport::from_reports(reports))
}

/// Convenience wrapper: runs `seeds` jobs (seeds `0..seeds`) of one solver
/// on one graph with a common target and no budget.
///
/// # Errors
///
/// As [`run_batch`].
pub fn run_seeds(
    solver: &Arc<dyn Solver>,
    graph: &Arc<sophie_graph::Graph>,
    seeds: usize,
    target: Option<f64>,
) -> Result<BatchReport, SolveError> {
    let jobs: Vec<BatchJob> = (0..seeds as u64)
        .map(|seed| {
            BatchJob::new(
                Arc::clone(solver),
                SolveJob::new(Arc::clone(graph), seed).with_target(target),
            )
        })
        .collect();
    run_batch(&jobs, &BatchOptions::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobBudget;
    use crate::solver::Capabilities;
    use sophie_graph::generate::{complete, WeightDist};
    use sophie_graph::Graph;

    /// Toy deterministic solver: cut grows by one per iteration from the
    /// seed, honoring budget caps and cooperative stops.
    struct Ramp {
        iterations: usize,
    }

    impl Solver for Ramp {
        fn name(&self) -> &'static str {
            "ramp"
        }
        fn capabilities(&self) -> Capabilities {
            Capabilities::default()
        }
        fn solve(
            &self,
            job: &SolveJob,
            observer: &mut dyn SolveObserver,
        ) -> Result<SolveReport, SolveError> {
            let control = job.control();
            let planned = job.budget.cap(self.iterations);
            let mut recorder = crate::observe::TraceRecorder::new();
            let mut tee = crate::observe::Tee::new(&mut recorder, observer);
            let obs: &mut dyn SolveObserver = &mut tee;
            obs.on_event(&SolveEvent::RunStarted {
                solver: "ramp",
                dimension: job.graph.num_nodes(),
                planned_iterations: planned,
                seed: job.seed,
                target: job.target,
            });
            let mut cut = job.seed as f64;
            obs.on_event(&SolveEvent::GlobalSync {
                round: 0,
                cut,
                activity: 0,
                ops_delta: OpCounts::default(),
            });
            let mut hit = false;
            let mut executed = 0;
            for round in 1..=planned {
                if control.should_stop() {
                    break;
                }
                executed = round;
                cut += 1.0;
                obs.on_event(&SolveEvent::GlobalSync {
                    round,
                    cut,
                    activity: 1,
                    ops_delta: OpCounts::default(),
                });
                if !hit && job.target.is_some_and(|t| cut >= t) {
                    hit = true;
                    obs.on_event(&SolveEvent::TargetReached { round, cut });
                }
            }
            obs.on_event(&SolveEvent::RunFinished {
                best_cut: cut,
                best_round: executed,
                rounds_run: executed,
                ops: OpCounts::default(),
            });
            Ok(recorder.into_report())
        }
    }

    fn graph() -> Arc<Graph> {
        Arc::new(complete(6, WeightDist::Unit, 0).unwrap())
    }

    #[test]
    fn batch_reports_come_back_in_submission_order() {
        let solver: Arc<dyn Solver> = Arc::new(Ramp { iterations: 4 });
        let out = run_seeds(&solver, &graph(), 5, None).unwrap();
        assert_eq!(out.reports.len(), 5);
        for (seed, r) in out.reports.iter().enumerate() {
            assert_eq!(r.seed, seed as u64);
            assert_eq!(r.best_cut, seed as f64 + 4.0);
            assert_eq!(r.iterations_run, 4);
        }
        assert_eq!(out.best_cut, 8.0);
        assert_eq!(out.mean_cut, 6.0);
        assert_eq!(out.converged, 0);
    }

    #[test]
    fn heterogeneous_batches_aggregate_targets() {
        let fast: Arc<dyn Solver> = Arc::new(Ramp { iterations: 10 });
        let slow: Arc<dyn Solver> = Arc::new(Ramp { iterations: 2 });
        let g = graph();
        let jobs = vec![
            BatchJob::new(
                fast,
                SolveJob::new(Arc::clone(&g), 0).with_target(Some(5.0)),
            ),
            BatchJob::new(slow, SolveJob::new(g, 0).with_target(Some(5.0))),
        ];
        let out = run_batch(&jobs, &BatchOptions::default()).unwrap();
        assert_eq!(out.converged, 1);
        assert_eq!(out.reports[0].iterations_to_target, Some(5));
        assert_eq!(out.reports[1].iterations_to_target, None);
        assert_eq!(out.iters_to_target_quantile(1.0, 10).unwrap(), 10);
        assert_eq!(out.iters_to_target_quantile(0.0, 10).unwrap(), 5);
    }

    #[test]
    fn empty_batches_are_rejected() {
        assert!(matches!(
            run_batch(&[], &BatchOptions::default()),
            Err(SolveError::EmptyBatch)
        ));
    }

    #[test]
    fn iteration_budgets_truncate_deterministically() {
        let solver: Arc<dyn Solver> = Arc::new(Ramp { iterations: 100 });
        let job = SolveJob::new(graph(), 3).with_budget(JobBudget {
            max_iterations: Some(7),
            time_limit: None,
        });
        let out = run_batch(&[BatchJob::new(solver, job)], &BatchOptions::default()).unwrap();
        assert_eq!(out.reports[0].iterations_run, 7);
        assert_eq!(out.reports[0].best_cut, 10.0);
    }

    #[test]
    fn cancel_on_target_stops_siblings_eventually() {
        // Seed 10 hits the easy target immediately; the sibling with a huge
        // iteration count must stop early instead of running all 200_000
        // iterations. (Where it stops is timing-dependent; that it stops
        // and still reports is not.)
        let solver: Arc<dyn Solver> = Arc::new(Ramp {
            iterations: 200_000,
        });
        let g = graph();
        let jobs = vec![
            BatchJob::new(
                Arc::clone(&solver),
                SolveJob::new(Arc::clone(&g), 10).with_target(Some(11.0)),
            ),
            BatchJob::new(solver, SolveJob::new(g, 0).with_target(Some(1e12))),
        ];
        let out = run_batch(
            &jobs,
            &BatchOptions {
                cancel_on_target: true,
            },
        )
        .unwrap();
        assert_eq!(out.reports.len(), 2);
        assert_eq!(out.reports[0].iterations_to_target, Some(1));
        assert!(out.converged >= 1);
    }
}
