//! Simulated bifurcation (SB) baseline.
//!
//! SB \[40\] evolves classical oscillator positions `x_i` and momenta `y_i`
//! under a Hamiltonian whose bifurcation parameter ramps up during the
//! run; as the oscillators bifurcate, `sign(x_i)` converges to a
//! low-energy Ising state. The *ballistic* (bSB) variant couples through
//! `x_j`, the *discrete* (dSB) variant through `sign(x_j)` — dSB is the
//! stronger combinatorial solver and the algorithm behind the multi-FPGA
//! machine SOPHIE compares against in Table III \[37\].

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sophie_graph::cut::cut_value;
use sophie_graph::Graph;
use sophie_solve::{NullObserver, RunControl, SolveObserver};

use crate::instrument::{spin_flips, BaselineEvents};

/// Coupling variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SbVariant {
    /// Ballistic SB: force uses the continuous positions.
    Ballistic,
    /// Discrete SB: force uses `sign(x_j)` (default; best quality).
    #[default]
    Discrete,
}

/// Configuration for one SB run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SbConfig {
    /// Integration steps.
    pub steps: usize,
    /// Time step Δt (paper values ≈ 0.5–1.25).
    pub dt: f64,
    /// Detuning/positive-bifurcation constant `a0` (usually 1).
    pub a0: f64,
    /// Coupling variant.
    pub variant: SbVariant,
    /// RNG seed for the initial state.
    pub seed: u64,
}

impl Default for SbConfig {
    fn default() -> Self {
        SbConfig {
            steps: 1000,
            dt: 1.0,
            a0: 1.0,
            variant: SbVariant::Discrete,
            seed: 0,
        }
    }
}

/// Result of one SB run.
#[derive(Debug, Clone)]
pub struct SbOutcome {
    /// Best cut value reached (evaluated at `sign(x)` each step).
    pub best_cut: f64,
    /// Spin assignment attaining it.
    pub best_spins: Vec<i8>,
    /// Step at which the best cut was first reached.
    pub best_step: usize,
}

/// Runs simulated bifurcation for max-cut on `graph`.
///
/// The Ising coupling is `J = -A` (max-cut mapping); the coupling strength
/// is normalized per Goto et al. as `c0 = 0.5 / (√N · σ_J)` with `σ_J` the
/// RMS coupling.
///
/// # Panics
///
/// Panics if `config.steps == 0` or `config.dt <= 0`.
#[must_use]
pub fn bifurcate(graph: &Graph, config: &SbConfig) -> SbOutcome {
    bifurcate_controlled(
        graph,
        config,
        None,
        &RunControl::unrestricted(),
        &mut NullObserver,
    )
}

/// The loop behind [`bifurcate`] and the `Solver` adapter: emits
/// [`sophie_solve::SolveEvent`]s to `observer`, polls `control`
/// between integration steps and winds down early (still emitting
/// `RunFinished`, with `rounds_run` reflecting the steps actually
/// executed) when it requests a stop.
///
/// One integration step maps to one round: each step ends with a
/// `GlobalSync` scoring `sign(x)`, with `activity` the Hamming distance to
/// the previous step's signs. Round 0 scores the initial oscillator signs
/// (which the plain solver never evaluates — its best tracking starts at
/// the first step, and that is unchanged here). The event stream does not
/// perturb the RNG path.
pub(crate) fn bifurcate_controlled(
    graph: &Graph,
    config: &SbConfig,
    target: Option<f64>,
    control: &RunControl,
    observer: &mut dyn SolveObserver,
) -> SbOutcome {
    assert!(config.steps > 0, "steps must be positive");
    assert!(config.dt > 0.0, "dt must be positive");
    let n = graph.num_nodes();
    let mut rng = StdRng::seed_from_u64(config.seed);

    // c0 normalization: RMS of the coupling matrix entries.
    let sum_sq: f64 = graph.edges().map(|e| 2.0 * e.w * e.w).sum();
    let sigma_j = (sum_sq / (n.max(2) * (n - 1).max(1)) as f64).sqrt();
    let c0 = if sigma_j > 0.0 {
        0.5 / ((n as f64).sqrt() * sigma_j)
    } else {
        0.0
    };

    let mut x: Vec<f64> = (0..n).map(|_| 0.02 * (rng.gen::<f64>() - 0.5)).collect();
    let mut y: Vec<f64> = (0..n).map(|_| 0.02 * (rng.gen::<f64>() - 0.5)).collect();
    let mut force = vec![0.0_f64; n];
    let mut spins: Vec<i8> = vec![1; n];

    let mut best_cut = f64::NEG_INFINITY;
    let mut best_spins = spins.clone();
    let mut best_step = 0;

    // Round 0 scores the initial oscillator signs; best tracking still
    // starts at the first integration step, exactly as before.
    for (s, &xi) in spins.iter_mut().zip(&x) {
        *s = if xi >= 0.0 { 1 } else { -1 };
    }
    let cut0 = cut_value(graph, &spins);
    let mut events =
        BaselineEvents::start("sb", n, config.steps, config.seed, target, cut0, observer);
    let mut prev_spins = spins.clone();

    let mut executed = 0usize;
    for step in 0..config.steps {
        if control.should_stop() {
            break;
        }
        executed = step + 1;
        let a_t = config.a0 * (step as f64 + 1.0) / config.steps as f64;
        // Force from the coupling: f_i = c0 Σ_j J_ij s_j with J = -w.
        force.fill(0.0);
        match config.variant {
            SbVariant::Discrete => {
                for (u, f) in force.iter_mut().enumerate() {
                    let mut acc = 0.0;
                    for &(v, w) in graph.neighbors(u) {
                        acc += -w * x[v].signum();
                    }
                    *f = c0 * acc;
                }
            }
            SbVariant::Ballistic => {
                for (u, f) in force.iter_mut().enumerate() {
                    let mut acc = 0.0;
                    for &(v, w) in graph.neighbors(u) {
                        acc += -w * x[v];
                    }
                    *f = c0 * acc;
                }
            }
        }
        for i in 0..n {
            y[i] += (-(config.a0 - a_t) * x[i] + force[i]) * config.dt;
            x[i] += config.a0 * y[i] * config.dt;
            // Inelastic walls at |x| = 1.
            if x[i].abs() > 1.0 {
                x[i] = x[i].signum();
                y[i] = 0.0;
            }
        }
        for (s, &xi) in spins.iter_mut().zip(&x) {
            *s = if xi >= 0.0 { 1 } else { -1 };
        }
        let cut = cut_value(graph, &spins);
        if cut > best_cut {
            best_cut = cut;
            best_spins.copy_from_slice(&spins);
            best_step = step;
        }
        events.round(
            step + 1,
            cut,
            spin_flips(&prev_spins, &spins),
            best_cut,
            observer,
        );
        prev_spins.copy_from_slice(&spins);
    }
    events.finish(best_cut, best_step + 1, executed, observer);
    SbOutcome {
        best_cut,
        best_spins,
        best_step,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sophie_graph::generate::{complete, gnm, WeightDist};

    #[test]
    fn solves_k4_exactly() {
        let g = complete(4, WeightDist::Unit, 0).unwrap();
        let out = bifurcate(&g, &SbConfig::default());
        assert_eq!(out.best_cut, 4.0);
    }

    #[test]
    fn discrete_beats_random_clearly() {
        let g = gnm(100, 500, WeightDist::Unit, 7).unwrap();
        let out = bifurcate(&g, &SbConfig::default());
        assert!(out.best_cut > 300.0, "cut {}", out.best_cut); // random ≈ 250
    }

    #[test]
    fn ballistic_variant_also_works() {
        let g = gnm(80, 400, WeightDist::Unit, 3).unwrap();
        let out = bifurcate(
            &g,
            &SbConfig {
                variant: SbVariant::Ballistic,
                ..SbConfig::default()
            },
        );
        assert!(out.best_cut > 230.0, "cut {}", out.best_cut); // random ≈ 200
    }

    #[test]
    fn reported_spins_match_reported_cut() {
        let g = gnm(50, 200, WeightDist::PlusMinusOne, 9).unwrap();
        let out = bifurcate(&g, &SbConfig::default());
        assert_eq!(cut_value(&g, &out.best_spins), out.best_cut);
    }

    #[test]
    fn deterministic_per_seed() {
        let g = gnm(40, 160, WeightDist::Unit, 1).unwrap();
        let a = bifurcate(&g, &SbConfig::default());
        let b = bifurcate(&g, &SbConfig::default());
        assert_eq!(a.best_cut, b.best_cut);
    }

    #[test]
    fn handles_weightless_degenerate_graph() {
        // All-zero weights: c0 = 0 and every cut is 0.
        let mut b = sophie_graph::GraphBuilder::new(3);
        b.add_edge(0, 1, 0.0).unwrap();
        let g = b.build().unwrap();
        let out = bifurcate(
            &g,
            &SbConfig {
                steps: 10,
                ..SbConfig::default()
            },
        );
        assert_eq!(out.best_cut, 0.0);
    }
}
