//! Rudy-style random graph generators.
//!
//! The SOPHIE evaluation (paper §IV-A, Table I) draws its workloads from two
//! families produced by the Rudy graph generator \[16\]: GSET-style sparse
//! random graphs (G1, G22) and complete graphs with random edge weights
//! (K100, K16384, K32768). The original GSET files are not redistributable
//! here, so [`presets`] regenerates instances with the same order, size, and
//! weight distribution; the parser in [`crate::io`] accepts real GSET files
//! as a drop-in replacement.

use crate::error::{GraphError, Result};
use crate::graph::{Graph, GraphBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Edge-weight distributions offered by the generators.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WeightDist {
    /// Every edge has weight `+1` (GSET G1/G22 style).
    Unit,
    /// Weights drawn uniformly from `{-1, +1}` (K-graph style).
    PlusMinusOne,
    /// Integer weights drawn uniformly from `lo..=hi`, zero excluded.
    UniformInt {
        /// Lower bound (inclusive).
        lo: i32,
        /// Upper bound (inclusive).
        hi: i32,
    },
}

impl WeightDist {
    fn sample(self, rng: &mut StdRng) -> f64 {
        match self {
            WeightDist::Unit => 1.0,
            WeightDist::PlusMinusOne => {
                if rng.gen_bool(0.5) {
                    1.0
                } else {
                    -1.0
                }
            }
            WeightDist::UniformInt { lo, hi } => loop {
                let w = rng.gen_range(lo..=hi);
                if w != 0 {
                    return f64::from(w);
                }
            },
        }
    }
}

/// Generates a complete graph on `n` nodes with random weights (a K-graph).
///
/// # Errors
///
/// Returns [`GraphError::Empty`] if `n == 0`.
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = sophie_graph::generate::complete(100, sophie_graph::WeightDist::PlusMinusOne, 7)?;
/// assert!(g.is_complete());
/// assert_eq!(g.num_edges(), 100 * 99 / 2);
/// # Ok(())
/// # }
/// ```
pub fn complete(n: usize, dist: WeightDist, seed: u64) -> Result<Graph> {
    if n == 0 {
        return Err(GraphError::Empty);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::for_distinct_edges(n, n * (n - 1) / 2);
    for u in 0..n {
        for v in (u + 1)..n {
            b.push_distinct(u, v, dist.sample(&mut rng));
        }
    }
    b.build()
}

/// Generates a uniform random simple graph with exactly `m` edges
/// (the Erdős–Rényi `G(n, m)` model, which is what Rudy's `-rnd_graph`
/// mode produces).
///
/// # Errors
///
/// * [`GraphError::Empty`] if `n == 0`.
/// * [`GraphError::TooManyEdges`] if `m > n(n-1)/2`.
pub fn gnm(n: usize, m: usize, dist: WeightDist, seed: u64) -> Result<Graph> {
    if n == 0 {
        return Err(GraphError::Empty);
    }
    let capacity = n * (n - 1) / 2;
    if m > capacity {
        return Err(GraphError::TooManyEdges {
            requested: m,
            capacity,
        });
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut chosen = std::collections::HashSet::with_capacity(m);
    let mut b = GraphBuilder::for_distinct_edges(n, m);
    while chosen.len() < m {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u == v {
            continue;
        }
        let key = if u < v { (u, v) } else { (v, u) };
        if chosen.insert(key) {
            b.push_distinct(key.0, key.1, dist.sample(&mut rng));
        }
    }
    b.build()
}

/// Generates a 2D toroidal grid (`rows × cols`, wrap-around) with random
/// weights — Rudy's spin-glass topology, useful as a sparse structured
/// workload.
///
/// # Errors
///
/// Returns [`GraphError::Empty`] if either dimension is zero.
pub fn toroidal(rows: usize, cols: usize, dist: WeightDist, seed: u64) -> Result<Graph> {
    if rows == 0 || cols == 0 {
        return Err(GraphError::Empty);
    }
    let n = rows * cols;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::with_edge_capacity(n, 2 * n);
    let id = |r: usize, c: usize| r * cols + c;
    for r in 0..rows {
        for c in 0..cols {
            let right = id(r, (c + 1) % cols);
            let down = id((r + 1) % rows, c);
            // Wrap-around duplicates appear when a dimension is ≤ 2; skip them.
            if right != id(r, c) && !(cols == 2 && c == 1) {
                b.add_edge(id(r, c), right, dist.sample(&mut rng))?;
            }
            if down != id(r, c) && !(rows == 2 && r == 1) {
                b.add_edge(id(r, c), down, dist.sample(&mut rng))?;
            }
        }
    }
    b.build()
}

/// Generates a random `k`-regular graph via the configuration model with
/// rejection (retry until simple). Rudy's `-leap`/`-simplex` family covers
/// regular topologies; useful as a structured sparse workload.
///
/// # Errors
///
/// * [`GraphError::Empty`] if `n == 0`.
/// * [`GraphError::TooManyEdges`] if `k >= n` or `n·k` is odd (no such
///   graph exists).
pub fn regular(n: usize, k: usize, dist: WeightDist, seed: u64) -> Result<Graph> {
    if n == 0 {
        return Err(GraphError::Empty);
    }
    if k >= n || !(n * k).is_multiple_of(2) {
        return Err(GraphError::TooManyEdges {
            requested: n * k / 2,
            capacity: n * (n - 1) / 2,
        });
    }
    let mut rng = StdRng::seed_from_u64(seed);
    'retry: for _ in 0..1000 {
        // Configuration model: k stubs per node, random perfect matching.
        let mut stubs: Vec<usize> = (0..n).flat_map(|v| std::iter::repeat_n(v, k)).collect();
        // Fisher–Yates shuffle.
        for i in (1..stubs.len()).rev() {
            let j = rng.gen_range(0..=i);
            stubs.swap(i, j);
        }
        let mut b = GraphBuilder::with_edge_capacity(n, n * k / 2);
        for pair in stubs.chunks_exact(2) {
            if pair[0] == pair[1] || b.add_edge(pair[0], pair[1], dist.sample(&mut rng)).is_err() {
                continue 'retry; // self-loop or multi-edge: reject and redo
            }
        }
        return b.build();
    }
    // Practically unreachable for sensible (n, k); the matching rarely
    // fails 1000 times in a row.
    Err(GraphError::TooManyEdges {
        requested: n * k / 2,
        capacity: n * (n - 1) / 2,
    })
}

/// Regenerated stand-ins for the paper's Table I benchmark instances.
pub mod presets {
    use super::*;

    /// Node count of GSET G1.
    pub const G1_NODES: usize = 800;
    /// Edge count of GSET G1.
    pub const G1_EDGES: usize = 19_176;
    /// Node count of GSET G22.
    pub const G22_NODES: usize = 2_000;
    /// Edge count of GSET G22.
    pub const G22_EDGES: usize = 19_990;

    /// A G1-shaped instance: 800 nodes, 19 176 unit-weight random edges.
    ///
    /// # Errors
    ///
    /// Propagates generator errors (not expected for these parameters).
    pub fn g1_like(seed: u64) -> Result<Graph> {
        gnm(G1_NODES, G1_EDGES, WeightDist::Unit, seed)
    }

    /// A G22-shaped instance: 2 000 nodes, 19 990 unit-weight random edges.
    ///
    /// # Errors
    ///
    /// Propagates generator errors (not expected for these parameters).
    pub fn g22_like(seed: u64) -> Result<Graph> {
        gnm(G22_NODES, G22_EDGES, WeightDist::Unit, seed)
    }

    /// The K100 complete graph with ±1 random weights.
    ///
    /// # Errors
    ///
    /// Propagates generator errors (not expected for these parameters).
    pub fn k100(seed: u64) -> Result<Graph> {
        complete(100, WeightDist::PlusMinusOne, seed)
    }

    /// A scaled-down K-graph of arbitrary order for functional experiments.
    /// The paper's K16384/K32768 are never materialized as explicit graphs
    /// (their dense coupling matrices would need gigabytes); performance
    /// numbers for them flow through the analytic schedule/cost path in
    /// `sophie-hw`.
    ///
    /// # Errors
    ///
    /// Propagates generator errors.
    pub fn k_graph(n: usize, seed: u64) -> Result<Graph> {
        complete(n, WeightDist::PlusMinusOne, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complete_graph_has_all_edges() {
        let g = complete(10, WeightDist::Unit, 1).unwrap();
        assert_eq!(g.num_edges(), 45);
        assert!(g.is_complete());
        assert!(g.edges().all(|e| e.w == 1.0));
    }

    #[test]
    fn complete_rejects_empty() {
        assert!(complete(0, WeightDist::Unit, 1).is_err());
    }

    #[test]
    fn plus_minus_one_uses_both_signs() {
        let g = complete(30, WeightDist::PlusMinusOne, 3).unwrap();
        let pos = g.edges().filter(|e| e.w > 0.0).count();
        let neg = g.edges().filter(|e| e.w < 0.0).count();
        assert!(pos > 0 && neg > 0);
        assert_eq!(pos + neg, g.num_edges());
    }

    #[test]
    fn uniform_int_excludes_zero_and_respects_bounds() {
        let g = complete(25, WeightDist::UniformInt { lo: -3, hi: 3 }, 5).unwrap();
        for e in g.edges() {
            assert!(e.w != 0.0);
            assert!((-3.0..=3.0).contains(&e.w));
            assert_eq!(e.w.fract(), 0.0);
        }
    }

    #[test]
    fn gnm_produces_exact_edge_count() {
        let g = gnm(50, 200, WeightDist::Unit, 9).unwrap();
        assert_eq!(g.num_nodes(), 50);
        assert_eq!(g.num_edges(), 200);
    }

    #[test]
    fn gnm_rejects_overfull_graphs() {
        assert!(matches!(
            gnm(4, 7, WeightDist::Unit, 0),
            Err(GraphError::TooManyEdges {
                requested: 7,
                capacity: 6
            })
        ));
    }

    #[test]
    fn gnm_at_full_capacity_is_complete() {
        let g = gnm(8, 28, WeightDist::Unit, 2).unwrap();
        assert!(g.is_complete());
    }

    #[test]
    fn generators_are_deterministic_in_seed() {
        let a = gnm(40, 100, WeightDist::PlusMinusOne, 77).unwrap();
        let b = gnm(40, 100, WeightDist::PlusMinusOne, 77).unwrap();
        assert_eq!(a, b);
        let c = gnm(40, 100, WeightDist::PlusMinusOne, 78).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn toroidal_grid_is_4_regular() {
        let g = toroidal(5, 6, WeightDist::PlusMinusOne, 4).unwrap();
        assert_eq!(g.num_nodes(), 30);
        assert_eq!(g.num_edges(), 2 * 30);
        for u in 0..30 {
            assert_eq!(g.degree(u), 4, "node {u}");
        }
    }

    #[test]
    fn toroidal_small_dimensions_do_not_duplicate_edges() {
        // rows=2 wraps down-edges onto the same pair; generator must dedupe.
        let g = toroidal(2, 4, WeightDist::Unit, 0).unwrap();
        assert!(g.num_edges() > 0);
    }

    /// The generators as they were before they skipped the builder's
    /// duplicate set: every edge through `add_edge`.
    fn complete_via_add_edge(n: usize, dist: WeightDist, seed: u64) -> Graph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = GraphBuilder::new(n);
        for u in 0..n {
            for v in (u + 1)..n {
                b.add_edge(u, v, dist.sample(&mut rng)).unwrap();
            }
        }
        b.build().unwrap()
    }

    fn gnm_via_add_edge(n: usize, m: usize, dist: WeightDist, seed: u64) -> Graph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut chosen = std::collections::HashSet::new();
        let mut b = GraphBuilder::new(n);
        while chosen.len() < m {
            let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
            let key = (u.min(v), u.max(v));
            if u != v && chosen.insert(key) {
                b.add_edge(key.0, key.1, dist.sample(&mut rng)).unwrap();
            }
        }
        b.build().unwrap()
    }

    fn assert_same_bits(a: &Graph, b: &Graph) {
        assert_eq!(a.num_nodes(), b.num_nodes());
        let bits = |g: &Graph| -> Vec<(usize, usize, u64)> {
            g.edges().map(|e| (e.u, e.v, e.w.to_bits())).collect()
        };
        assert_eq!(bits(a), bits(b));
        assert_eq!(a, b);
    }

    #[test]
    fn distinct_edge_generators_match_add_edge_bit_for_bit() {
        let dists = [
            WeightDist::Unit,
            WeightDist::PlusMinusOne,
            WeightDist::UniformInt { lo: -7, hi: 5 },
        ];
        for dist in dists {
            for seed in [0, 1, 42] {
                for n in [1, 2, 9, 64] {
                    let g = complete(n, dist, seed).unwrap();
                    assert_same_bits(&g, &complete_via_add_edge(n, dist, seed));
                    for m in [0, n * (n - 1) / 4, n * (n - 1) / 2] {
                        let g = gnm(n, m, dist, seed).unwrap();
                        assert_same_bits(&g, &gnm_via_add_edge(n, m, dist, seed));
                    }
                }
            }
        }
    }

    #[test]
    fn presets_match_table1_shapes() {
        let g1 = presets::g1_like(1).unwrap();
        assert_eq!(g1.num_nodes(), 800);
        assert_eq!(g1.num_edges(), 19_176);
        let k = presets::k100(1).unwrap();
        assert_eq!(k.num_nodes(), 100);
        assert!(k.is_complete());
    }
}

#[cfg(test)]
mod regular_tests {
    use super::*;

    #[test]
    fn regular_graph_has_uniform_degree() {
        let g = regular(30, 4, WeightDist::Unit, 3).unwrap();
        assert_eq!(g.num_edges(), 60);
        for u in 0..30 {
            assert_eq!(g.degree(u), 4, "node {u}");
        }
    }

    #[test]
    fn regular_rejects_impossible_parameters() {
        assert!(regular(5, 5, WeightDist::Unit, 0).is_err()); // k >= n
        assert!(regular(5, 3, WeightDist::Unit, 0).is_err()); // odd n·k
        assert!(regular(0, 0, WeightDist::Unit, 0).is_err());
    }

    #[test]
    fn regular_is_deterministic_per_seed() {
        let a = regular(24, 3, WeightDist::PlusMinusOne, 9).unwrap();
        let b = regular(24, 3, WeightDist::PlusMinusOne, 9).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn three_regular_odd_cycle_sizes_work() {
        // n=20, k=3: classic cubic graph.
        let g = regular(20, 3, WeightDist::Unit, 1).unwrap();
        assert_eq!(g.num_edges(), 30);
    }
}
