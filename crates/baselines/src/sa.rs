//! Simulated annealing baseline.
//!
//! Single-spin Metropolis dynamics with a geometric cooling schedule — the
//! classic software solver every Ising-machine paper measures against, and
//! one leg of the best-known-cut reference pipeline.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sophie_graph::cut::{cut_value, random_spins, FlipGains};
use sophie_graph::Graph;
use sophie_solve::{NullObserver, RunControl, SolveObserver};

use crate::instrument::{spin_flips, BaselineEvents};

/// Configuration for one annealing run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SaConfig {
    /// Full sweeps (each sweep attempts one flip per node).
    pub sweeps: usize,
    /// Initial temperature (in units of cut weight).
    pub t_initial: f64,
    /// Final temperature.
    pub t_final: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SaConfig {
    fn default() -> Self {
        SaConfig {
            sweeps: 200,
            t_initial: 4.0,
            t_final: 0.05,
            seed: 0,
        }
    }
}

/// Result of one annealing run.
#[derive(Debug, Clone)]
pub struct SaOutcome {
    /// Best cut value reached.
    pub best_cut: f64,
    /// Spin assignment attaining it.
    pub best_spins: Vec<i8>,
    /// Sweep at which the best cut was first reached.
    pub best_sweep: usize,
    /// Flip attempts accepted.
    pub accepted: u64,
    /// Total flip attempts.
    pub attempts: u64,
}

/// Runs simulated annealing for max-cut on `graph`.
///
/// # Panics
///
/// Panics if `config.sweeps == 0` temperatures are non-positive or
/// mis-ordered.
#[must_use]
pub fn anneal(graph: &Graph, config: &SaConfig) -> SaOutcome {
    anneal_controlled(
        graph,
        config,
        None,
        &RunControl::unrestricted(),
        &mut NullObserver,
    )
}

/// The loop behind [`anneal`] and the `Solver` adapter: emits
/// [`sophie_solve::SolveEvent`]s to `observer`, polls `control` between
/// sweeps and winds down early (still emitting `RunFinished`, with
/// `rounds_run` reflecting the sweeps actually executed) when it requests
/// a stop.
///
/// One sweep maps to one round: each sweep ends with a `GlobalSync` whose
/// `cut` is the current (not best) cut and whose `activity` is the Hamming
/// distance to the sweep-start state. Because SA captures its best
/// per-flip, `TargetReached` fires at the end of the sweep in which the
/// best first crossed `target`. The event stream does not perturb the
/// Metropolis RNG path.
pub(crate) fn anneal_controlled(
    graph: &Graph,
    config: &SaConfig,
    target: Option<f64>,
    control: &RunControl,
    observer: &mut dyn SolveObserver,
) -> SaOutcome {
    assert!(config.sweeps > 0, "sweeps must be positive");
    assert!(
        config.t_initial >= config.t_final && config.t_final > 0.0,
        "temperatures must satisfy t_initial >= t_final > 0"
    );
    let n = graph.num_nodes();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut state = FlipGains::new(graph, random_spins(n, &mut rng));
    let mut cut = cut_value(graph, state.spins());
    let mut best_cut = cut;
    let mut best_spins = state.spins().to_vec();
    let mut best_sweep = 0;
    let mut accepted = 0u64;
    let mut attempts = 0u64;

    let mut events =
        BaselineEvents::start("sa", n, config.sweeps, config.seed, target, cut, observer);
    let mut best_round = 0usize;
    let mut sweep_start = state.spins().to_vec();

    let cooling = (config.t_final / config.t_initial).powf(1.0 / config.sweeps as f64);
    let mut temp = config.t_initial;

    let mut executed = 0usize;
    for sweep in 0..config.sweeps {
        if control.should_stop() {
            break;
        }
        executed = sweep + 1;
        sweep_start.copy_from_slice(state.spins());
        for _ in 0..n {
            let u = rng.gen_range(0..n);
            let gain = state.gain(u);
            attempts += 1;
            // Metropolis on -cut (we maximize the cut).
            if gain >= 0.0 || rng.gen::<f64>() < (gain / temp).exp() {
                state.flip(u);
                cut += gain;
                accepted += 1;
                if cut > best_cut {
                    best_cut = cut;
                    best_spins.copy_from_slice(state.spins());
                    best_sweep = sweep;
                    best_round = sweep + 1;
                }
            }
        }
        temp *= cooling;
        events.round(
            sweep + 1,
            cut,
            spin_flips(&sweep_start, state.spins()),
            best_cut,
            observer,
        );
    }
    events.finish(best_cut, best_round, executed, observer);
    SaOutcome {
        best_cut,
        best_spins,
        best_sweep,
        accepted,
        attempts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sophie_graph::generate::{complete, gnm, WeightDist};

    #[test]
    fn solves_k4_exactly() {
        let g = complete(4, WeightDist::Unit, 0).unwrap();
        let out = anneal(&g, &SaConfig::default());
        assert_eq!(out.best_cut, 4.0);
    }

    #[test]
    fn tracked_cut_matches_final_spins() {
        let g = gnm(60, 240, WeightDist::PlusMinusOne, 3).unwrap();
        let out = anneal(&g, &SaConfig::default());
        assert_eq!(cut_value(&g, &out.best_spins), out.best_cut);
    }

    #[test]
    fn beats_random_assignments() {
        let g = gnm(100, 500, WeightDist::Unit, 5).unwrap();
        let out = anneal(&g, &SaConfig::default());
        assert!(out.best_cut > 290.0, "cut {}", out.best_cut); // random ≈ 250
    }

    #[test]
    fn deterministic_per_seed() {
        let g = gnm(40, 120, WeightDist::Unit, 1).unwrap();
        let a = anneal(&g, &SaConfig::default());
        let b = anneal(&g, &SaConfig::default());
        assert_eq!(a.best_cut, b.best_cut);
        assert_eq!(a.best_spins, b.best_spins);
    }

    #[test]
    fn acceptance_rate_is_sane() {
        let g = gnm(50, 200, WeightDist::Unit, 2).unwrap();
        let out = anneal(&g, &SaConfig::default());
        assert!(out.accepted > 0);
        assert!(out.accepted <= out.attempts);
        assert_eq!(out.attempts, (200 * 50) as u64);
    }

    #[test]
    #[should_panic(expected = "temperatures")]
    fn rejects_bad_temperatures() {
        let g = complete(4, WeightDist::Unit, 0).unwrap();
        let _ = anneal(
            &g,
            &SaConfig {
                t_initial: 0.1,
                t_final: 1.0,
                ..SaConfig::default()
            },
        );
    }
}
