//! Local search with breakout perturbations.
//!
//! A simplified take on Breakout Local Search (BLS \[5\], the CPU solver in
//! Table II): steepest-ascent one-flip moves to a local optimum, then a
//! random multi-flip "breakout" perturbation, repeated for a fixed budget.
//! Also used to polish the best-known reference cuts.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sophie_graph::cut::{cut_value, random_spins, FlipGains};
use sophie_graph::Graph;
use sophie_solve::{NullObserver, RunControl, SolveObserver};

use crate::instrument::{spin_flips, BaselineEvents};

/// Configuration for one breakout-local-search run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlsConfig {
    /// Perturbation rounds (each = descend to local optimum + breakout).
    pub rounds: usize,
    /// Spins flipped by one breakout perturbation.
    pub perturbation: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for BlsConfig {
    fn default() -> Self {
        BlsConfig {
            rounds: 20,
            perturbation: 8,
            seed: 0,
        }
    }
}

/// Result of a local-search run.
#[derive(Debug, Clone)]
pub struct BlsOutcome {
    /// Best cut value reached.
    pub best_cut: f64,
    /// Spin assignment attaining it.
    pub best_spins: Vec<i8>,
    /// One-flip moves applied in total.
    pub moves: u64,
}

/// Steepest-ascent one-flip descent of `state` to a local optimum.
/// Returns the resulting cut and the number of moves.
fn descend(graph: &Graph, state: &mut FlipGains<'_>, mut cut: f64) -> (f64, u64) {
    let n = graph.num_nodes();
    let mut gains: Vec<f64> = (0..n).map(|u| state.gain(u)).collect();
    let mut moves = 0u64;
    while let Some((u, &g)) = gains.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)) {
        if g <= 1e-12 {
            break;
        }
        state.flip(u);
        cut += g;
        moves += 1;
        // Flipping u negates its own gain and shifts only its neighbours'.
        gains[u] = -g;
        for &(v, _) in graph.neighbors(u) {
            gains[v] = state.gain(v);
        }
    }
    (cut, moves)
}

/// Runs breakout local search for max-cut on `graph`.
///
/// # Panics
///
/// Panics if `config.rounds == 0`.
#[must_use]
pub fn search(graph: &Graph, config: &BlsConfig) -> BlsOutcome {
    search_controlled(
        graph,
        config,
        None,
        &RunControl::unrestricted(),
        &mut NullObserver,
    )
}

/// The loop behind [`search`] and the `Solver` adapter: emits
/// [`sophie_solve::SolveEvent`]s to `observer`, polls `control` between
/// perturbation rounds and winds down early (still emitting `RunFinished`,
/// with `rounds_run` reflecting the rounds actually executed) when it
/// requests a stop. The first descent (round 1) always runs.
///
/// One perturbation round (descent to a local optimum, preceded by a
/// breakout from round 2 on) maps to one event round: its `GlobalSync`
/// scores the local optimum reached, with `activity` the Hamming distance
/// to the previous round's optimum. Round 0 scores the initial random
/// state. The event stream does not perturb the RNG path.
pub(crate) fn search_controlled(
    graph: &Graph,
    config: &BlsConfig,
    target: Option<f64>,
    control: &RunControl,
    observer: &mut dyn SolveObserver,
) -> BlsOutcome {
    assert!(config.rounds > 0, "rounds must be positive");
    let n = graph.num_nodes();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut state = FlipGains::new(graph, random_spins(n, &mut rng));
    let mut cut = cut_value(graph, state.spins());
    let mut total_moves = 0u64;

    let mut events =
        BaselineEvents::start("bls", n, config.rounds, config.seed, target, cut, observer);
    let mut prev_spins = state.spins().to_vec();
    let mut best_round = 1usize;

    let (c, m) = descend(graph, &mut state, cut);
    cut = c;
    total_moves += m;
    let mut best_cut = cut;
    let mut best_spins = state.spins().to_vec();
    events.round(
        1,
        cut,
        spin_flips(&prev_spins, state.spins()),
        best_cut,
        observer,
    );
    prev_spins.copy_from_slice(state.spins());

    let mut executed = 1usize;
    for round in 1..config.rounds {
        if control.should_stop() {
            break;
        }
        executed = round + 1;
        // Breakout: random multi-flip perturbation from the best state.
        state.reset(&best_spins);
        for _ in 0..config.perturbation.min(n) {
            state.flip(rng.gen_range(0..n));
        }
        cut = cut_value(graph, state.spins());
        let (c, m) = descend(graph, &mut state, cut);
        cut = c;
        total_moves += m;
        if cut > best_cut {
            best_cut = cut;
            best_spins.copy_from_slice(state.spins());
            best_round = round + 1;
        }
        events.round(
            round + 1,
            cut,
            spin_flips(&prev_spins, state.spins()),
            best_cut,
            observer,
        );
        prev_spins.copy_from_slice(state.spins());
    }
    events.finish(best_cut, best_round, executed, observer);
    BlsOutcome {
        best_cut,
        best_spins,
        moves: total_moves,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sophie_graph::generate::{complete, gnm, WeightDist};

    #[test]
    fn solves_k6_exactly() {
        let g = complete(6, WeightDist::Unit, 0).unwrap();
        let out = search(&g, &BlsConfig::default());
        assert_eq!(out.best_cut, 9.0); // 3-3 split of K6
    }

    #[test]
    fn local_optimum_has_no_improving_flip() {
        let g = gnm(60, 240, WeightDist::Unit, 3).unwrap();
        let out = search(
            &g,
            &BlsConfig {
                rounds: 1,
                ..BlsConfig::default()
            },
        );
        let cut = cut_value(&g, &out.best_spins);
        let mut spins = out.best_spins.clone();
        for u in 0..60 {
            spins[u] = -spins[u];
            assert!(cut_value(&g, &spins) - cut <= 1e-9, "node {u} improvable");
            spins[u] = -spins[u];
        }
    }

    #[test]
    fn breakouts_improve_over_single_descent() {
        let g = gnm(120, 700, WeightDist::PlusMinusOne, 11).unwrap();
        let single = search(
            &g,
            &BlsConfig {
                rounds: 1,
                ..BlsConfig::default()
            },
        );
        let multi = search(
            &g,
            &BlsConfig {
                rounds: 30,
                ..BlsConfig::default()
            },
        );
        assert!(multi.best_cut >= single.best_cut);
    }

    #[test]
    fn reported_spins_match_reported_cut() {
        let g = gnm(50, 220, WeightDist::Unit, 5).unwrap();
        let out = search(&g, &BlsConfig::default());
        assert_eq!(cut_value(&g, &out.best_spins), out.best_cut);
    }

    #[test]
    fn deterministic_per_seed() {
        let g = gnm(40, 140, WeightDist::Unit, 2).unwrap();
        assert_eq!(
            search(&g, &BlsConfig::default()).best_cut,
            search(&g, &BlsConfig::default()).best_cut
        );
    }
}
