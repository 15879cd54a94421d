//! Solver-agnostic instrumentation and the shared solver abstraction.
//!
//! The paper's entire evaluation (Figs. 6–10, Tables I–III) is built from
//! per-iteration trajectories: cut traces, spin-flip activity, operation
//! counts, and time-to-target statistics. Rather than letting each solver
//! grow its own ad-hoc plumbing for those quantities, this crate defines
//! one vocabulary that all of them speak:
//!
//! * [`OpCounts`] — the operation tally that feeds the power/performance
//!   models in `sophie-hw` (§IV-A: the functional simulator "counts the
//!   total number of each type of operation");
//! * [`SolutionTracker`] — streaming best-cut, best-state and
//!   time-to-target bookkeeping (Fig. 6–8 statistics);
//! * [`observe`] — the [`SolveObserver`] trait with typed [`SolveEvent`]s
//!   plus provided sinks ([`NullObserver`], [`TraceRecorder`],
//!   [`EventWriter`], [`Tee`]);
//! * [`SolveReport`] — the uniform run summary a [`TraceRecorder`]
//!   distills from any solver's event stream;
//! * [`Json`] — the workspace's one JSON value type: every event, report
//!   and wire frame is rendered by its `Display`, and untrusted input is
//!   read by its depth-limited, linear-time parser.
//!
//! On top of the vocabulary sits the solver abstraction:
//!
//! * [`Solver`] — the uniform run interface (`solve(job, observer)`),
//!   implemented by the SOPHIE engine (`sophie-core`, plus the OPCM
//!   variant in `sophie-hw`), the PRIS reference sampler (`sophie-pris`),
//!   and the SA/SB/tempering/local-search baselines (`sophie-baselines`);
//! * [`SolveJob`] — the unit of work: graph, seed, target, and a
//!   [`JobBudget`] with deterministic iteration caps plus cooperative
//!   wall-clock/[`CancelToken`] limits polled through [`RunControl`];
//! * [`SolverRegistry`] — name-indexed construction from typed configs
//!   (the `sophie` facade crate registers every solver in the workspace);
//! * [`scheduler`] — heterogeneous batches over the worker pool with
//!   per-job seeded determinism and aggregate [`BatchReport`] statistics;
//! * [`stats`] — the shared mean/quantile helpers behind those
//!   aggregates, with typed [`StatsError`]s.
//!
//! # Event ordering contract
//!
//! Every solver emits, in order: one [`SolveEvent::RunStarted`]; then per
//! iteration an optional [`SolveEvent::RoundStarted`] and
//! [`SolveEvent::PairIterated`]s (tiled solvers only), one
//! [`SolveEvent::GlobalSync`], and — at most once per run, immediately
//! after the sync that crossed the target — a
//! [`SolveEvent::TargetReached`]; finally one [`SolveEvent::RunFinished`].
//! Events are emitted from the thread driving the run, never from worker
//! threads, so streams are bit-identical for every `SOPHIE_THREADS` value.
//! [`Solver::solve`] is every solver's one event-streaming entry point;
//! the root package's `tests/solver_registry.rs` pins each solver's
//! stream by digest.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod error;
mod job;
pub mod json;
pub mod observe;
mod opcount;
mod registry;
mod report;
pub mod scheduler;
mod solver;
pub mod stats;
pub mod track;

pub use error::SolveError;
pub use job::{CancelToken, JobBudget, RunControl, SolveJob};
pub use json::{Json, JsonError};
pub use observe::{
    EventLog, EventWriter, FnObserver, NullObserver, SolveEvent, SolveObserver, Tee, TraceRecorder,
};
pub use opcount::OpCounts;
pub use registry::SolverRegistry;
pub use report::SolveReport;
pub use scheduler::{run_batch, run_seeds, BatchJob, BatchOptions, BatchReport};
pub use solver::{Capabilities, Solver};
pub use stats::StatsError;
pub use track::SolutionTracker;
