//! End-to-end PRIS runs against a max-cut instance.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sophie_graph::cut::CutScorer;
use sophie_graph::Graph;
use sophie_solve::{
    NullObserver, OpCounts, RunControl, SolutionTracker, SolveEvent, SolveObserver,
};

use crate::error::Result;
use crate::sampler::PrisModel;

/// Configuration for a single PRIS run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunConfig {
    /// Number of recurrent iterations.
    pub iterations: usize,
    /// Noise level φ (relative to per-row scales, see [`crate::noise`]).
    pub phi: f64,
    /// RNG seed for the initial state and the noise stream.
    pub seed: u64,
    /// Cut value that counts as converged (e.g. 95 % of best-known).
    pub target_cut: Option<f64>,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            iterations: 1000,
            phi: 0.2,
            seed: 0,
            target_cut: None,
        }
    }
}

/// Outcome of one PRIS run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Best cut value observed.
    pub best_cut: f64,
    /// Binary configuration attaining the best cut.
    pub best_bits: Vec<bool>,
    /// Iteration at which the best cut was first reached.
    pub best_iteration: usize,
    /// First iteration reaching `target_cut`, if configured and reached.
    pub iterations_to_target: Option<usize>,
    /// Total iterations executed.
    pub iterations: usize,
}

/// Runs PRIS on `graph` using `model` (built from the graph's transformed
/// coupling matrix). [`crate::PrisSolver`] runs the same loop through the
/// `Solver` trait, streaming its events.
///
/// The model dimension must equal the graph's node count.
///
/// # Errors
///
/// Returns [`crate::PrisError::BadNoise`] for invalid φ.
///
/// # Panics
///
/// Panics if `model.dim() != graph.num_nodes()`.
pub fn run(model: &PrisModel, graph: &Graph, config: &RunConfig) -> Result<RunOutcome> {
    run_controlled(
        model,
        graph,
        config,
        &RunControl::unrestricted(),
        &mut NullObserver,
    )
}

/// The loop behind [`run`] and [`crate::PrisSolver`]: emits
/// [`SolveEvent`]s to `observer`, polls `control` between recurrent steps
/// and winds down early (still emitting `RunFinished`, with `rounds_run` /
/// `iterations` reflecting the steps actually executed) when it requests
/// a stop.
///
/// One recurrent step maps to one round: every step emits a
/// [`SolveEvent::GlobalSync`] whose `activity` is the Hamming distance to
/// the previous state and whose `ops_delta` is zero (PRIS has no hardware
/// operation model). Round 0 is the initial random state. The event
/// stream does not perturb the sampling path.
pub(crate) fn run_controlled(
    model: &PrisModel,
    graph: &Graph,
    config: &RunConfig,
    control: &RunControl,
    observer: &mut dyn SolveObserver,
) -> Result<RunOutcome> {
    assert_eq!(
        model.dim(),
        graph.num_nodes(),
        "model dimension must match graph order"
    );
    let noise = model.noise(config.phi)?;
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut bits = model.random_state(&mut rng);

    observer.on_event(&SolveEvent::RunStarted {
        solver: "pris",
        dimension: graph.num_nodes(),
        planned_iterations: config.iterations,
        seed: config.seed,
        target: config.target_cut,
    });

    let scorer = CutScorer::new(graph);
    let cut0 = scorer.score(&bits);
    let mut tracker = SolutionTracker::start(config.target_cut, &bits, cut0);
    observer.on_event(&SolveEvent::GlobalSync {
        round: 0,
        cut: cut0,
        activity: 0,
        ops_delta: OpCounts::default(),
    });
    if tracker.hit_at_start() {
        observer.on_event(&SolveEvent::TargetReached {
            round: 0,
            cut: cut0,
        });
    }

    let mut executed = 0usize;
    for it in 1..=config.iterations {
        if control.should_stop() {
            break;
        }
        executed = it;
        model.step(&mut bits, &noise, &mut rng);
        let cut = scorer.score(&bits);
        let obs = tracker.observe(it, &bits, cut);
        observer.on_event(&SolveEvent::GlobalSync {
            round: it,
            cut,
            activity: obs.flips,
            ops_delta: OpCounts::default(),
        });
        if obs.reached_target {
            observer.on_event(&SolveEvent::TargetReached { round: it, cut });
        }
    }

    observer.on_event(&SolveEvent::RunFinished {
        best_cut: tracker.best_cut(),
        best_round: tracker.best_iteration(),
        rounds_run: executed,
        ops: OpCounts::default(),
    });

    let best_iteration = tracker.best_iteration();
    let (best_cut, best_bits, first_hit) = tracker.into_parts();
    Ok(RunOutcome {
        best_cut,
        best_bits,
        best_iteration,
        iterations_to_target: first_hit,
        iterations: executed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sophie_graph::cut::{binary_to_spins, cut_value};
    use sophie_graph::generate::{complete, gnm, WeightDist};

    /// Preprocesses `graph` at dropout factor `alpha` and runs PRIS on it.
    fn solve(graph: &Graph, alpha: f64, config: &RunConfig) -> Result<RunOutcome> {
        let k = sophie_graph::coupling::coupling_matrix(graph);
        let delta = sophie_graph::coupling::delta_diagonal(graph);
        let c = crate::dropout::transformation_matrix(
            &k,
            delta,
            alpha,
            crate::dropout::DeltaVariant::Gershgorin,
        )?;
        run(&PrisModel::new(c)?, graph, config)
    }

    #[test]
    fn finds_the_optimum_on_a_tiny_bipartite_instance() {
        // K4 with unit weights: max cut = 4 (2+2 split).
        let g = complete(4, WeightDist::Unit, 0).unwrap();
        let config = RunConfig {
            iterations: 300,
            phi: 0.3,
            seed: 1,
            target_cut: Some(4.0),
        };
        let out = solve(&g, 0.0, &config).unwrap();
        assert_eq!(out.best_cut, 4.0);
        assert!(out.iterations_to_target.is_some());
    }

    #[test]
    fn beats_random_on_a_sparse_graph() {
        let g = gnm(60, 240, WeightDist::Unit, 3).unwrap();
        let config = RunConfig {
            iterations: 400,
            phi: 0.2,
            seed: 2,
            target_cut: None,
        };
        let out = solve(&g, 0.0, &config).unwrap();
        // Expected random cut = m/2 = 120; PRIS should clearly beat it.
        assert!(out.best_cut > 140.0, "best cut {}", out.best_cut);
        // The reported bits must reproduce the reported cut, as the ±1
        // ordered sum computes it.
        assert_eq!(
            cut_value(&g, &binary_to_spins(&out.best_bits)),
            out.best_cut
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let g = gnm(30, 90, WeightDist::Unit, 5).unwrap();
        let config = RunConfig {
            iterations: 100,
            phi: 0.15,
            seed: 9,
            target_cut: None,
        };
        let a = solve(&g, 0.0, &config).unwrap();
        let b = solve(&g, 0.0, &config).unwrap();
        assert_eq!(a.best_cut, b.best_cut);
        assert_eq!(a.best_bits, b.best_bits);
    }

    #[test]
    fn observed_run_matches_unobserved_and_rebuilds_traces() {
        let g = gnm(30, 90, WeightDist::Unit, 5).unwrap();
        let k = sophie_graph::coupling::coupling_matrix(&g);
        let delta = sophie_graph::coupling::delta_diagonal(&g);
        let c = crate::dropout::transformation_matrix(
            &k,
            delta,
            0.0,
            crate::dropout::DeltaVariant::Gershgorin,
        )
        .unwrap();
        let model = PrisModel::new(c).unwrap();
        let config = RunConfig {
            iterations: 50,
            phi: 0.15,
            seed: 9,
            target_cut: Some(1.0),
        };
        let plain = run(&model, &g, &config).unwrap();
        let mut rec = sophie_solve::TraceRecorder::new();
        let observed =
            run_controlled(&model, &g, &config, &RunControl::unrestricted(), &mut rec).unwrap();
        assert_eq!(plain.best_cut, observed.best_cut);
        assert_eq!(plain.best_bits, observed.best_bits);
        assert_eq!(plain.best_iteration, observed.best_iteration);
        let report = rec.into_report();
        assert_eq!(report.solver, "pris");
        assert_eq!(report.best_cut, plain.best_cut);
        assert_eq!(report.cut_trace.len(), config.iterations + 1);
        assert_eq!(report.activity_trace.len(), config.iterations);
        assert_eq!(report.iterations_to_target, plain.iterations_to_target);
    }

    #[test]
    fn zero_iterations_reports_initial_state() {
        let g = complete(5, WeightDist::Unit, 0).unwrap();
        let config = RunConfig {
            iterations: 0,
            phi: 0.2,
            seed: 0,
            target_cut: None,
        };
        let out = solve(&g, 0.0, &config).unwrap();
        assert_eq!(out.iterations, 0);
        assert!(out.best_cut >= 0.0);
    }
}
