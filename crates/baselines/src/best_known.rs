//! Best-known cut references for generated instances.
//!
//! The paper normalizes solution quality against "best-known" cuts from
//! the max-cut literature. Our instances are regenerated (same
//! order/degree/weights as GSET but different seeds), so their best-known
//! values must be computed: a multi-restart discrete-SB sweep polished by
//! breakout local search, which reaches literature-quality cuts on graphs
//! of this size.

use sophie_graph::Graph;

use crate::local_search::{search, BlsConfig};
use crate::sb::{bifurcate, SbConfig};

/// Effort levels for the reference computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Effort {
    /// A couple of restarts — for tests and fast mode.
    Quick,
    /// The default: several restarts, longer schedules.
    #[default]
    Standard,
    /// Many restarts — for the full experiment runs.
    Thorough,
}

impl Effort {
    fn restarts(self) -> u64 {
        match self {
            Effort::Quick => 2,
            Effort::Standard => 6,
            Effort::Thorough => 16,
        }
    }

    fn sb_steps(self, n: usize) -> usize {
        let base = match self {
            Effort::Quick => 400,
            Effort::Standard => 1500,
            Effort::Thorough => 4000,
        };
        base.max(n / 2)
    }
}

/// Computes a best-known-quality reference cut for `graph`.
///
/// Deterministic for a given `(graph, effort)`: restart seeds are fixed.
#[must_use]
pub fn best_known_cut(graph: &Graph, effort: Effort) -> f64 {
    let mut best = f64::NEG_INFINITY;
    for restart in 0..effort.restarts() {
        let sb = bifurcate(
            graph,
            &SbConfig {
                steps: effort.sb_steps(graph.num_nodes()),
                seed: 1000 + restart,
                ..SbConfig::default()
            },
        );
        best = best.max(sb.best_cut);
        // Polish the SB solution with local search from the same seed.
        let bls = search(
            graph,
            &BlsConfig {
                rounds: 10,
                perturbation: 6,
                seed: 2000 + restart,
            },
        );
        best = best.max(bls.best_cut);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use sophie_graph::generate::{complete, gnm, WeightDist};

    #[test]
    fn exact_on_tiny_complete_graphs() {
        // Optimum of K_n (unit weights) is ⌊n/2⌋·⌈n/2⌉.
        for n in [4usize, 5, 6, 8] {
            let g = complete(n, WeightDist::Unit, 0).unwrap();
            let want = (n / 2 * n.div_ceil(2)) as f64;
            assert_eq!(best_known_cut(&g, Effort::Quick), want, "K{n}");
        }
    }

    #[test]
    fn monotone_in_effort() {
        let g = gnm(80, 400, WeightDist::PlusMinusOne, 4).unwrap();
        let quick = best_known_cut(&g, Effort::Quick);
        let std = best_known_cut(&g, Effort::Standard);
        assert!(std >= quick);
    }

    #[test]
    fn deterministic() {
        let g = gnm(60, 240, WeightDist::Unit, 9).unwrap();
        assert_eq!(
            best_known_cut(&g, Effort::Quick),
            best_known_cut(&g, Effort::Quick)
        );
    }
}
