//! Max-cut evaluation and spin-configuration helpers.
//!
//! Spins are `i8` values in `{-1, +1}`; the recurrent algorithms also use a
//! binary `{0, 1}` encoding (PRIS works on `S ∈ {0,1}^N`), so converters are
//! provided. The cut/energy identities used throughout:
//!
//! * `energy(σ) = Σ_{(u,v)∈E} w_uv σ_u σ_v` (the Ising Hamiltonian under the
//!   max-cut coupling `K = -A`),
//! * `cut(σ) = (W_total − energy(σ)) / 2`.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::graph::Graph;
use rand::Rng;

/// Validates that `spins` is a ±1 assignment of the right length.
///
/// # Panics
///
/// Panics (with a descriptive message) on length mismatch or non-±1 entries.
fn validate_spins(g: &Graph, spins: &[i8]) {
    assert_eq!(
        spins.len(),
        g.num_nodes(),
        "spin vector length {} does not match node count {}",
        spins.len(),
        g.num_nodes()
    );
    debug_assert!(
        spins.iter().all(|&s| s == 1 || s == -1),
        "spins must be +1 or -1"
    );
}

/// Total weight of edges crossing the partition induced by `spins`.
///
/// # Panics
///
/// Panics if `spins.len() != g.num_nodes()` (and, in debug builds, if any
/// entry is not ±1).
///
/// ```
/// use sophie_graph::{GraphBuilder, cut::cut_value};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = GraphBuilder::new(2);
/// b.add_edge(0, 1, 3.0)?;
/// let g = b.build()?;
/// assert_eq!(cut_value(&g, &[1, -1]), 3.0);
/// assert_eq!(cut_value(&g, &[1, 1]), 0.0);
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn cut_value(g: &Graph, spins: &[i8]) -> f64 {
    validate_spins(g, spins);
    g.edges()
        .filter(|e| spins[e.u] != spins[e.v])
        .map(|e| e.w)
        .sum()
}

/// The Ising energy `Σ_{(u,v)∈E} w_uv σ_u σ_v` under the max-cut mapping.
///
/// # Panics
///
/// Panics if `spins.len() != g.num_nodes()`.
#[must_use]
pub fn ising_energy(g: &Graph, spins: &[i8]) -> f64 {
    validate_spins(g, spins);
    g.edges()
        .map(|e| e.w * f64::from(spins[e.u]) * f64::from(spins[e.v]))
        .sum()
}

/// Cut value for a binary `{0,1}` configuration (PRIS's native encoding).
///
/// # Panics
///
/// Panics if `bits.len() != g.num_nodes()`.
#[must_use]
pub fn cut_value_binary(g: &Graph, bits: &[bool]) -> f64 {
    assert_eq!(bits.len(), g.num_nodes(), "bit vector length mismatch");
    g.edges()
        .filter(|e| bits[e.u] != bits[e.v])
        .map(|e| e.w)
        .sum()
}

/// Scores binary states of one graph with the bits of
/// [`cut_value_binary`], in integers where the graph allows it. Build it
/// once and score many states.
///
/// A graph qualifies when every weight is finite, nonzero and an integer
/// multiple of a common `2^-p`, with `Σ|w|·2^p ≤ 2^53`. Every partial sum
/// of the ordered loop is then a multiple of `2^-p` no larger than
/// `2^53·2^-p`, so it is exact in `f64`, and the ordered result equals the
/// integer total of the crossing weights times `2^-p`, in any order. The
/// total cannot carry the sign of a zero: the ordered sum starts at `-0.0`
/// and keeps it only while no edge crosses, because a nonzero weight
/// replaces it and an exact cancellation rounds to `+0.0`.
///
/// For a qualifying graph the scorer keeps each node's upper neighbours,
/// sorted, with their weights as integers `w·2^p`, and sums the crossing
/// ones in `i64`; a row whose neighbours are one contiguous run (every row
/// of a complete graph) reads the state as a slice. Any other graph (a
/// weight of 0.1, a zero weight, LDPC channel weights) is scored by
/// [`cut_value_binary`] itself.
///
/// ```
/// use sophie_graph::{GraphBuilder, cut::{cut_value_binary, CutScorer}};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1, 1.5)?;
/// b.add_edge(1, 2, -0.25)?;
/// let g = b.build()?;
/// let scorer = CutScorer::new(&g);
/// assert!(scorer.is_exact());
/// let bits = [true, false, true];
/// assert_eq!(scorer.score(&bits), cut_value_binary(&g, &bits));
/// assert!(scorer.score(&[false; 3]).is_sign_negative());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CutScorer<'g> {
    graph: &'g Graph,
    exact: Option<&'g ExactCut>,
}

/// The integer form of a qualifying graph (see [`CutScorer`]).
#[derive(Debug, Clone)]
pub(crate) struct ExactCut {
    /// `2^-p`.
    scale: f64,
    /// Nodes with at least one upper neighbour, in ascending order.
    rows: Vec<Row>,
    /// Integer weights `w·2^p`, row after row, by ascending neighbour.
    weights: Vec<i64>,
    /// Neighbours of the gathered rows.
    cols: Vec<u32>,
}

#[derive(Debug, Clone)]
struct Row {
    node: usize,
    /// The row's slice of `weights`.
    at: usize,
    len: usize,
    run: Run,
}

#[derive(Debug, Clone, Copy)]
enum Run {
    /// The neighbours are `first..first + len`.
    Slice { first: usize },
    /// The neighbours are `cols[at..at + len]`.
    Gather { at: usize },
}

/// Largest integer total the exactness argument allows.
const EXACT_LIMIT: u64 = 1 << 53;

/// Integer forms built by this process: see [`exact_builds`].
static EXACT_BUILDS: AtomicU64 = AtomicU64::new(0);

/// How many times this process has checked a graph and built its
/// integer form. A graph does it once, on its first [`CutScorer::new`],
/// so jobs that share one `Graph` share one build.
#[must_use]
pub fn exact_builds() -> u64 {
    EXACT_BUILDS.load(Ordering::Relaxed)
}

impl<'g> CutScorer<'g> {
    /// The scorer of `g`. The first scorer of a graph checks whether it
    /// qualifies and, if it does, builds its integer rows, `O(m log d)` for
    /// maximum degree `d`; the graph keeps them for every later scorer.
    #[must_use]
    pub fn new(g: &'g Graph) -> Self {
        CutScorer {
            graph: g,
            exact: g.exact_cut(),
        }
    }

    /// Whether states are scored in integers (`false`: by
    /// [`cut_value_binary`]).
    #[must_use]
    pub fn is_exact(&self) -> bool {
        self.exact.is_some()
    }

    /// The cut of `bits`, bit for bit what [`cut_value_binary`] returns.
    ///
    /// # Panics
    ///
    /// Panics if `bits.len()` differs from the graph's node count.
    #[must_use]
    pub fn score(&self, bits: &[bool]) -> f64 {
        match self.exact {
            Some(exact) => {
                assert_eq!(
                    bits.len(),
                    self.graph.num_nodes(),
                    "bit vector length mismatch"
                );
                exact.score(bits)
            }
            None => cut_value_binary(self.graph, bits),
        }
    }
}

impl ExactCut {
    /// The most heap bytes the integer form of a graph with `nodes` nodes
    /// and `edges` edges holds: a row per node, a weight and a gathered
    /// neighbour per edge.
    pub(crate) fn max_heap_bytes(nodes: usize, edges: usize) -> usize {
        use std::mem::size_of;
        nodes * size_of::<Row>() + edges * (size_of::<i64>() + size_of::<u32>())
    }

    /// The heap bytes this form holds.
    #[cfg(test)]
    pub(crate) fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.rows.capacity() * size_of::<Row>()
            + self.weights.capacity() * size_of::<i64>()
            + self.cols.capacity() * size_of::<u32>()
    }

    pub(crate) fn build(g: &Graph) -> Option<Self> {
        EXACT_BUILDS.fetch_add(1, Ordering::Relaxed);
        // Gathered rows hold their neighbours as `u32`.
        u32::try_from(g.num_nodes()).ok()?;
        let p = g
            .edges()
            .try_fold(0, |p, e| Some(p.max(fraction_bits(e.w)?)))?;
        // 2^p and 2^-p are normal numbers, so scaling by them is exact.
        if p > 1022 {
            return None;
        }
        let up = (2.0_f64).powi(p);
        let mut sum = 0_u64;
        for e in g.edges() {
            let k = (e.w * up).abs();
            if k > EXACT_LIMIT as f64 {
                return None;
            }
            sum += k as u64;
            if sum > EXACT_LIMIT {
                return None;
            }
        }
        // Capacities stay within `max_heap_bytes`.
        let (mut rows, mut weights, mut cols) = (Vec::new(), Vec::new(), Vec::new());
        rows.reserve_exact(g.num_nodes());
        weights.reserve_exact(g.num_edges());
        let mut upper = Vec::new();
        for node in 0..g.num_nodes() {
            upper.clear();
            upper.extend(g.neighbors(node).iter().filter(|&&(v, _)| v > node));
            if upper.is_empty() {
                continue;
            }
            upper.sort_unstable_by_key(|&(v, _)| v);
            let (first, last, len) = (upper[0].0, upper[upper.len() - 1].0, upper.len());
            let run = if last - first + 1 == len {
                Run::Slice { first }
            } else {
                let at = cols.len();
                cols.extend(upper.iter().map(|&(v, _)| v as u32));
                Run::Gather { at }
            };
            rows.push(Row {
                node,
                at: weights.len(),
                len,
                run,
            });
            // Exact: |w·2^p| ≤ 2^53 was checked above.
            weights.extend(upper.iter().map(|&(_, w)| (w * up) as i64));
        }
        cols.shrink_to_fit();
        Some(ExactCut {
            scale: (2.0_f64).powi(-p),
            rows,
            weights,
            cols,
        })
    }

    fn score(&self, bits: &[bool]) -> f64 {
        // Each node's side as a mask, all ones for `true`: an edge's weight
        // counts when the two masks differ, `w & (a ^ b)`, with no branch.
        let side: Vec<i64> = bits.iter().map(|&b| -i64::from(b)).collect();
        let mut total = 0_i64;
        for row in &self.rows {
            let (own, w) = (side[row.node], &self.weights[row.at..row.at + row.len]);
            total += match row.run {
                Run::Slice { first } => {
                    crossing(w, own, side[first..first + row.len].iter().copied())
                }
                Run::Gather { at } => crossing(
                    w,
                    own,
                    self.cols[at..at + row.len]
                        .iter()
                        .map(|&v| side[v as usize]),
                ),
            };
        }
        if total == 0 && !self.any_crossing(&side) {
            return -0.0;
        }
        // Exact: |total| ≤ 2^53, and 2^-p is a power of two.
        total as f64 * self.scale
    }

    /// Whether any edge crosses: only a zero total needs to know.
    fn any_crossing(&self, side: &[i64]) -> bool {
        self.rows.iter().any(|row| {
            let own = side[row.node];
            match row.run {
                Run::Slice { first } => side[first..first + row.len].iter().any(|&s| s != own),
                Run::Gather { at } => self.cols[at..at + row.len]
                    .iter()
                    .any(|&v| side[v as usize] != own),
            }
        })
    }
}

/// The sum of the weights whose other end's side mask is not `own`.
#[inline(always)]
fn crossing(weights: &[i64], own: i64, others: impl Iterator<Item = i64>) -> i64 {
    weights
        .iter()
        .zip(others)
        .map(|(&w, other)| w & (own ^ other))
        .sum()
}

/// Binary digits `w` needs after the point (0 for an integer), or `None`
/// for a zero or non-finite weight.
fn fraction_bits(w: f64) -> Option<i32> {
    if w == 0.0 || !w.is_finite() {
        return None;
    }
    let bits = w.to_bits();
    let biased = ((bits >> 52) & 0x7ff) as i32;
    let mantissa = bits & ((1 << 52) - 1);
    // A normal number is (2^52 + mantissa)·2^(biased − 1075); a subnormal
    // one is mantissa·2^−1074.
    let (m, e) = if biased == 0 {
        (mantissa, -1074)
    } else {
        (mantissa | (1 << 52), biased - 1075)
    };
    Some((-(e + m.trailing_zeros() as i32)).max(0))
}

/// Change in cut value if node `u` flips sides, `O(degree(u))`.
///
/// The reference for [`FlipGains`], which the annealing, tempering and
/// local-search baselines read their gains from, and its fallback.
///
/// # Panics
///
/// Panics if `spins.len() != g.num_nodes()` or `u` is out of bounds.
#[must_use]
pub fn flip_gain(g: &Graph, spins: &[i8], u: usize) -> f64 {
    validate_spins(g, spins);
    let su = f64::from(spins[u]);
    // Edges that currently cross contribute -w after the flip; edges that
    // currently don't cross contribute +w.
    g.neighbors(u)
        .iter()
        .map(|&(v, w)| w * su * f64::from(spins[v]))
        .sum()
}

/// A ±1 state of one graph with the [`flip_gain`] of every node at hand,
/// bit for bit, kept up to date as spins flip.
///
/// On a graph with the integer form [`CutScorer`] uses (every weight a
/// nonzero multiple of a common `2^-p`, `Σ|w|·2^p ≤ 2^53`), it holds each
/// node's local field `h_u = Σ_v w_uv·2^p·s_v` as an `i64`. Every term of
/// `flip_gain`'s ordered sum `Σ_v w_uv·s_u·s_v` is then `±w_uv`, and every
/// partial sum a multiple of `2^-p` no larger than `2^53·2^-p`, so the sum
/// is exact and equals `s_u·h_u·2^-p` in any order. Its zero carries a
/// sign the integer cannot: the sum starts at `-0.0` and keeps it only
/// when there is no term, because a nonzero term replaces it and an exact
/// cancellation rounds to `+0.0`. A gain is thus `O(1)`, and a flip of
/// `u` moves each neighbour's field by `2·w_uv·2^p·s_u` in `O(deg u)`,
/// with each integer weight taken from the adjacency times `2^p`, exact.
/// On any other graph (a weight of 0.1, LDPC channel weights) a gain is
/// [`flip_gain`] itself and a flip only negates the spin.
///
/// ```
/// use sophie_graph::{GraphBuilder, cut::{flip_gain, FlipGains}};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = GraphBuilder::new(4);
/// b.add_edge(0, 1, 1.5)?;
/// b.add_edge(1, 2, -0.25)?;
/// let g = b.build()?;
/// let mut state = FlipGains::new(&g, vec![1, -1, 1, 1]);
/// assert!(state.is_exact());
/// state.flip(1);
/// for u in 0..4 {
///     assert_eq!(state.gain(u).to_bits(), flip_gain(&g, state.spins(), u).to_bits());
/// }
/// assert!(state.gain(3).is_sign_negative()); // node 3 has no edge
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FlipGains<'g> {
    graph: &'g Graph,
    spins: Vec<i8>,
    fields: Option<Fields>,
}

/// Local fields in units of `2^-p` (see [`FlipGains`]).
#[derive(Debug, Clone)]
struct Fields {
    /// `h_u = Σ_v w_uv·2^p·s_v`.
    h: Vec<i64>,
    /// `2^p`.
    up: f64,
    /// `2^-p`.
    scale: f64,
}

impl<'g> FlipGains<'g> {
    /// The gains of `spins` on `graph`: `O(m)` on a graph with an integer
    /// form (the graph builds that form on its first use), `O(1)` on any
    /// other.
    ///
    /// # Panics
    ///
    /// Panics if `spins.len()` differs from the node count (and, in debug
    /// builds, if an entry is not ±1).
    #[must_use]
    pub fn new(graph: &'g Graph, spins: Vec<i8>) -> Self {
        validate_spins(graph, &spins);
        let fields = graph.exact_cut().map(|exact| {
            let up = exact.scale.recip();
            let mut fields = Fields {
                h: vec![0; spins.len()],
                up,
                scale: exact.scale,
            };
            fields.recount(graph, &spins);
            fields
        });
        FlipGains {
            graph,
            spins,
            fields,
        }
    }

    /// Whether gains come from integer fields (`false`: from
    /// [`flip_gain`]).
    #[must_use]
    pub fn is_exact(&self) -> bool {
        self.fields.is_some()
    }

    /// The current state.
    #[must_use]
    pub fn spins(&self) -> &[i8] {
        &self.spins
    }

    /// The change in cut value if `u` flips, bit for bit what
    /// [`flip_gain`] returns for the current state.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of bounds.
    #[must_use]
    pub fn gain(&self, u: usize) -> f64 {
        let Some(fields) = &self.fields else {
            return flip_gain(self.graph, &self.spins, u);
        };
        let h = fields.h[u];
        if h == 0 {
            return if self.graph.degree(u) == 0 { -0.0 } else { 0.0 };
        }
        // Exact: |h| ≤ 2^53, and 2^-p is a power of two.
        (i64::from(self.spins[u]) * h) as f64 * fields.scale
    }

    /// Flips `u` and updates its neighbours' fields, `O(deg u)`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of bounds.
    pub fn flip(&mut self, u: usize) {
        let s = -self.spins[u];
        self.spins[u] = s;
        if let Some(fields) = &mut self.fields {
            // h_v moves by w_uv·2^p·(s − (−s)); w_uv·2^(p+1) is an integer
            // of at most 2^54, exact in f64 and in the conversion.
            let step = f64::from(2 * s) * fields.up;
            for &(v, w) in self.graph.neighbors(u) {
                fields.h[v] += (w * step) as i64;
            }
        }
    }

    /// Replaces the state with `spins`, `O(m)` on a graph with an integer
    /// form.
    ///
    /// # Panics
    ///
    /// Panics if `spins.len()` differs from the node count.
    pub fn reset(&mut self, spins: &[i8]) {
        self.spins.copy_from_slice(spins);
        if let Some(fields) = &mut self.fields {
            fields.recount(self.graph, spins);
        }
    }
}

impl Fields {
    fn recount(&mut self, graph: &Graph, spins: &[i8]) {
        for (u, h) in self.h.iter_mut().enumerate() {
            // Exact: each |w·2^p| ≤ 2^53, and so is every partial sum.
            *h = graph
                .neighbors(u)
                .iter()
                .map(|&(v, w)| (w * self.up) as i64 * i64::from(spins[v]))
                .sum();
        }
    }
}

/// Converts a binary configuration to ±1 spins (`true → +1`).
#[must_use]
pub fn binary_to_spins(bits: &[bool]) -> Vec<i8> {
    bits.iter().map(|&b| if b { 1 } else { -1 }).collect()
}

/// Converts ±1 spins to a binary configuration (`+1 → true`).
#[must_use]
pub fn spins_to_binary(spins: &[i8]) -> Vec<bool> {
    spins.iter().map(|&s| s > 0).collect()
}

/// Draws a uniformly random ±1 spin configuration.
pub fn random_spins<R: Rng>(n: usize, rng: &mut R) -> Vec<i8> {
    (0..n)
        .map(|_| if rng.gen_bool(0.5) { 1 } else { -1 })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{complete, WeightDist};
    use crate::graph::GraphBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn path3() -> Graph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1.0).unwrap();
        b.add_edge(1, 2, 2.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn cut_counts_crossing_edges_only() {
        let g = path3();
        assert_eq!(cut_value(&g, &[1, -1, 1]), 3.0);
        assert_eq!(cut_value(&g, &[1, 1, 1]), 0.0);
        assert_eq!(cut_value(&g, &[1, 1, -1]), 2.0);
    }

    #[test]
    fn cut_is_invariant_under_global_flip() {
        let g = complete(12, WeightDist::PlusMinusOne, 3).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let s = random_spins(12, &mut rng);
        let flipped: Vec<i8> = s.iter().map(|&x| -x).collect();
        assert_eq!(cut_value(&g, &s), cut_value(&g, &flipped));
    }

    #[test]
    fn energy_cut_identity_holds() {
        let g = complete(10, WeightDist::UniformInt { lo: -4, hi: 4 }, 8).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..20 {
            let s = random_spins(10, &mut rng);
            let lhs = cut_value(&g, &s);
            let rhs = (g.total_weight() - ising_energy(&g, &s)) / 2.0;
            assert!((lhs - rhs).abs() < 1e-9);
        }
    }

    #[test]
    fn flip_gain_matches_recomputation() {
        let g = complete(9, WeightDist::PlusMinusOne, 4).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let mut s = random_spins(9, &mut rng);
        for u in 0..9 {
            let before = cut_value(&g, &s);
            let gain = flip_gain(&g, &s, u);
            s[u] = -s[u];
            let after = cut_value(&g, &s);
            assert!((after - before - gain).abs() < 1e-9, "node {u}");
            s[u] = -s[u];
        }
    }

    #[test]
    fn binary_and_spin_encodings_agree() {
        let g = path3();
        let bits = vec![true, false, true];
        assert_eq!(
            cut_value_binary(&g, &bits),
            cut_value(&g, &binary_to_spins(&bits))
        );
        assert_eq!(spins_to_binary(&binary_to_spins(&bits)), bits);
    }

    #[test]
    #[should_panic(expected = "length")]
    fn wrong_length_panics() {
        let g = path3();
        let _ = cut_value(&g, &[1, -1]);
    }

    #[test]
    fn random_spins_are_plus_minus_one() {
        let mut rng = StdRng::seed_from_u64(3);
        let s = random_spins(100, &mut rng);
        assert!(s.iter().all(|&x| x == 1 || x == -1));
        assert!(s.contains(&1));
        assert!(s.contains(&-1));
    }
}
