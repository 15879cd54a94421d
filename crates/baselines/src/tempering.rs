//! Parallel tempering (replica exchange) baseline.
//!
//! Runs several Metropolis replicas at different temperatures and
//! periodically swaps neighboring replicas with the detailed-balance
//! acceptance rule. Stronger than plain annealing on rugged landscapes
//! (e.g. ±1 spin glasses) at the cost of more sweeps; included as the
//! strongest software baseline in the comparison suite.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sophie_graph::cut::{cut_value, random_spins, FlipGains};
use sophie_graph::Graph;
use sophie_solve::{NullObserver, RunControl, SolveObserver};

use crate::instrument::BaselineEvents;

/// Configuration for a parallel-tempering run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PtConfig {
    /// Number of temperature replicas.
    pub replicas: usize,
    /// Coldest temperature.
    pub t_min: f64,
    /// Hottest temperature.
    pub t_max: f64,
    /// Monte-Carlo sweeps between replica-exchange attempts.
    pub sweeps_per_exchange: usize,
    /// Replica-exchange rounds.
    pub exchanges: usize,
    /// RNG seed.
    pub seed: u64,
}

/// The most replicas a run may hold. Each replica keeps `n` `i8` spins and
/// `n` `i64` local fields, about 36 KB at a 4,096-node instance, so this
/// bounds one run's replicas near 37 MB at that size; the default is 8.
/// An unbounded count let one config ask for gigabytes before its first
/// sweep (10⁹ replicas on K20 is an 88 GB allocation).
pub const MAX_REPLICAS: usize = 1024;

impl Default for PtConfig {
    fn default() -> Self {
        PtConfig {
            replicas: 8,
            t_min: 0.05,
            t_max: 4.0,
            sweeps_per_exchange: 5,
            exchanges: 40,
            seed: 0,
        }
    }
}

/// Result of a parallel-tempering run.
#[derive(Debug, Clone)]
pub struct PtOutcome {
    /// Best cut value reached by any replica.
    pub best_cut: f64,
    /// Spin assignment attaining it.
    pub best_spins: Vec<i8>,
    /// Replica swaps accepted.
    pub swaps_accepted: u64,
    /// Replica swaps attempted.
    pub swaps_attempted: u64,
}

struct Replica<'g> {
    state: FlipGains<'g>,
    cut: f64,
    temp: f64,
}

/// Runs parallel tempering for max-cut on `graph`.
///
/// # Panics
///
/// Panics if `replicas` is outside `2..=`[`MAX_REPLICAS`], temperatures
/// are non-positive, or `t_min > t_max`.
#[must_use]
pub fn temper(graph: &Graph, config: &PtConfig) -> PtOutcome {
    temper_controlled(
        graph,
        config,
        None,
        &RunControl::unrestricted(),
        &mut NullObserver,
    )
}

/// The loop behind [`temper`] and the `Solver` adapter: emits
/// [`sophie_solve::SolveEvent`]s to `observer`, polls `control` between
/// exchange rounds and winds down early (still emitting `RunFinished`,
/// with `rounds_run` reflecting the exchanges actually executed) when it
/// requests a stop.
///
/// One exchange round maps to one event round: each round's `GlobalSync`
/// scores the current best replica (the max of the per-replica cuts) and
/// reports `activity` 0 — with many replicas there is no single spin state
/// whose flips would be meaningful. Round 0 scores the best initial
/// replica. The event stream does not perturb the RNG path.
pub(crate) fn temper_controlled(
    graph: &Graph,
    config: &PtConfig,
    target: Option<f64>,
    control: &RunControl,
    observer: &mut dyn SolveObserver,
) -> PtOutcome {
    assert!(
        (2..=MAX_REPLICAS).contains(&config.replicas),
        "need at least 2 replicas and at most {MAX_REPLICAS}"
    );
    assert!(
        config.t_min > 0.0 && config.t_min <= config.t_max,
        "temperatures must satisfy 0 < t_min <= t_max"
    );
    let n = graph.num_nodes();
    let mut rng = StdRng::seed_from_u64(config.seed);

    // Geometric temperature ladder.
    let ratio = if config.replicas == 1 {
        1.0
    } else {
        (config.t_max / config.t_min).powf(1.0 / (config.replicas - 1) as f64)
    };
    let mut replicas: Vec<Replica> = (0..config.replicas)
        .map(|i| {
            let spins = random_spins(n, &mut rng);
            let cut = cut_value(graph, &spins);
            Replica {
                state: FlipGains::new(graph, spins),
                cut,
                temp: config.t_min * ratio.powi(i as i32),
            }
        })
        .collect();

    let mut best_cut = replicas
        .iter()
        .map(|r| r.cut)
        .fold(f64::NEG_INFINITY, f64::max);
    let mut best_spins = replicas
        .iter()
        .max_by(|a, b| a.cut.total_cmp(&b.cut))
        .expect("at least two replicas")
        .state
        .spins()
        .to_vec();
    let mut swaps_accepted = 0u64;
    let mut swaps_attempted = 0u64;

    let mut events = BaselineEvents::start(
        "pt",
        n,
        config.exchanges,
        config.seed,
        target,
        best_cut,
        observer,
    );
    let mut best_round = 0usize;

    let mut executed = 0usize;
    for exchange in 0..config.exchanges {
        if control.should_stop() {
            break;
        }
        executed = exchange + 1;
        // Metropolis sweeps within each replica.
        for rep in &mut replicas {
            for _ in 0..config.sweeps_per_exchange * n {
                let u = rng.gen_range(0..n);
                let gain = rep.state.gain(u);
                if gain >= 0.0 || rng.gen::<f64>() < (gain / rep.temp).exp() {
                    rep.state.flip(u);
                    rep.cut += gain;
                    if rep.cut > best_cut {
                        best_cut = rep.cut;
                        best_spins.copy_from_slice(rep.state.spins());
                        best_round = exchange + 1;
                    }
                }
            }
        }
        // Neighbor exchanges: maximizing the cut ⇔ minimizing E = −cut, so
        // accept with min(1, exp(Δβ·ΔE)) = min(1, exp((β_hot−β_cold)(cut_cold−cut_hot))).
        for i in 0..config.replicas - 1 {
            swaps_attempted += 1;
            let beta_lo = 1.0 / replicas[i].temp; // colder (smaller temp → larger beta)
            let beta_hi = 1.0 / replicas[i + 1].temp;
            let delta = (beta_lo - beta_hi) * (replicas[i + 1].cut - replicas[i].cut);
            if delta >= 0.0 || rng.gen::<f64>() < delta.exp() {
                // Swap configurations (with their gains), keep
                // temperatures in place.
                let (a, b) = replicas.split_at_mut(i + 1);
                std::mem::swap(&mut a[i].state, &mut b[0].state);
                std::mem::swap(&mut a[i].cut, &mut b[0].cut);
                swaps_accepted += 1;
            }
        }
        let ensemble_best = replicas
            .iter()
            .map(|r| r.cut)
            .fold(f64::NEG_INFINITY, f64::max);
        events.round(exchange + 1, ensemble_best, 0, best_cut, observer);
    }
    events.finish(best_cut, best_round, executed, observer);
    PtOutcome {
        best_cut,
        best_spins,
        swaps_accepted,
        swaps_attempted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sophie_graph::generate::{complete, gnm, WeightDist};

    #[test]
    fn solves_k6_exactly() {
        let g = complete(6, WeightDist::Unit, 0).unwrap();
        let out = temper(&g, &PtConfig::default());
        assert_eq!(out.best_cut, 9.0);
    }

    #[test]
    fn beats_plain_annealing_on_a_spin_glass() {
        let g = complete(60, WeightDist::PlusMinusOne, 11).unwrap();
        let pt = temper(&g, &PtConfig::default());
        let sa = crate::sa::anneal(
            &g,
            &crate::sa::SaConfig {
                sweeps: PtConfig::default().replicas
                    * PtConfig::default().sweeps_per_exchange
                    * PtConfig::default().exchanges,
                ..crate::sa::SaConfig::default()
            },
        );
        // Same sweep budget: PT should match or beat SA.
        assert!(
            pt.best_cut >= sa.best_cut - 2.0,
            "pt {} sa {}",
            pt.best_cut,
            sa.best_cut
        );
    }

    #[test]
    fn reported_spins_match_reported_cut() {
        let g = gnm(50, 200, WeightDist::PlusMinusOne, 3).unwrap();
        let out = temper(&g, &PtConfig::default());
        assert_eq!(cut_value(&g, &out.best_spins), out.best_cut);
    }

    #[test]
    fn swaps_actually_happen() {
        let g = gnm(40, 160, WeightDist::Unit, 5).unwrap();
        let out = temper(&g, &PtConfig::default());
        assert!(out.swaps_attempted > 0);
        assert!(out.swaps_accepted > 0);
        assert!(out.swaps_accepted <= out.swaps_attempted);
    }

    #[test]
    fn deterministic_per_seed() {
        let g = gnm(30, 100, WeightDist::Unit, 2).unwrap();
        let a = temper(&g, &PtConfig::default());
        let b = temper(&g, &PtConfig::default());
        assert_eq!(a.best_cut, b.best_cut);
    }

    #[test]
    #[should_panic(expected = "at least 2 replicas")]
    fn rejects_single_replica() {
        let g = complete(4, WeightDist::Unit, 0).unwrap();
        let _ = temper(
            &g,
            &PtConfig {
                replicas: 1,
                ..PtConfig::default()
            },
        );
    }
}
