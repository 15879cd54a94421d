//! The solver-agnostic run interface.

use crate::error::SolveError;
use crate::job::SolveJob;
use crate::observe::SolveObserver;
use crate::report::SolveReport;

/// What a solver implementation can do, for dispatch and display.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Capabilities {
    /// Executes on the tiled engine (emits `RoundStarted`/`PairIterated`).
    pub tiled: bool,
    /// Tallies hardware operation counts (non-zero `OpCounts`) that the
    /// power/performance models can consume.
    pub op_model: bool,
    /// Simulates device faults and can emit the fault/recovery events.
    pub fault_model: bool,
}

/// A max-cut solver runnable through the shared job/observer interface.
///
/// Implementations exist for every solver in the workspace: the SOPHIE
/// engine on the ideal and OPCM backends (`sophie-core` / `sophie-hw`),
/// the PRIS reference sampler (`sophie-pris`), and the SA/SB/PT/BLS
/// baselines (`sophie-baselines`). The `sophie` facade crate builds a
/// [`SolverRegistry`](crate::SolverRegistry) with all of them.
///
/// # Contract
///
/// * `solve` is the solver's one entry point that streams events: it
///   emits the full event stream documented at the crate level to
///   `observer` and returns the [`SolveReport`] distilled from that same
///   stream (plus the winning bits, which events do not carry).
/// * The job's `seed` replaces any seed in the solver's configuration, and
///   `budget.max_iterations` caps the configured iteration count.
/// * Implementations poll the job's [`RunControl`](crate::RunControl) at
///   iteration granularity and wind down early (still emitting
///   `RunFinished`) when it requests a stop.
/// * Implementations are `Send + Sync` so one instance can serve many
///   scheduler jobs concurrently; per-job state lives on the stack.
pub trait Solver: Send + Sync {
    /// Short stable identifier (`"sophie"`, `"pris"`, `"sa"`, …), matching
    /// the `solver` field of the `RunStarted` events it emits.
    fn name(&self) -> &'static str;

    /// What this implementation can do.
    fn capabilities(&self) -> Capabilities;

    /// Runs one job, streaming events to `observer`.
    ///
    /// # Errors
    ///
    /// [`SolveError::BadJob`] for jobs incompatible with the instance,
    /// [`SolveError::BadConfig`] / [`SolveError::Failed`] for
    /// configuration or execution failures.
    fn solve(
        &self,
        job: &SolveJob,
        observer: &mut dyn SolveObserver,
    ) -> Result<SolveReport, SolveError>;
}
