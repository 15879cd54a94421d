//! Weighted undirected graphs.

use std::sync::OnceLock;

use crate::cut::ExactCut;
use crate::error::{GraphError, Result};

/// One weighted undirected edge. Endpoints are stored with `u < v`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// Smaller endpoint.
    pub u: usize,
    /// Larger endpoint.
    pub v: usize,
    /// Edge weight (nonzero).
    pub w: f64,
}

/// A simple weighted undirected graph.
///
/// This is the workload representation for every benchmark in the SOPHIE
/// evaluation: max-cut instances from the GSET family and complete
/// random-weight K-graphs. Construction goes through [`GraphBuilder`], which
/// enforces simple-graph invariants (no self-loops, no duplicate edges).
///
/// ```
/// use sophie_graph::GraphBuilder;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1, 1.0)?;
/// b.add_edge(1, 2, -2.0)?;
/// let g = b.build()?;
/// assert_eq!(g.num_nodes(), 3);
/// assert_eq!(g.num_edges(), 2);
/// assert_eq!(g.degree(1), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Graph {
    nodes: usize,
    edges: Vec<Edge>,
    /// CSR-style adjacency: `adj[offsets[u]..offsets[u+1]]` lists `(v, w)`.
    offsets: Vec<usize>,
    adj: Vec<(usize, f64)>,
    derived: Derived,
}

/// Values derived from a graph's edges on first use and kept for the
/// graph's life, so jobs that share one graph (a daemon's named graphs
/// are one `Arc` each) compute them once. `==` ignores them: they are
/// functions of the edges.
#[derive(Clone, Default)]
struct Derived {
    /// The integer form [`crate::cut::CutScorer`] scores with, or `None`
    /// when the graph does not qualify.
    exact: OnceLock<Option<ExactCut>>,
    digest: OnceLock<u64>,
}

impl PartialEq for Derived {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl std::fmt::Debug for Derived {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("..")
    }
}

impl Graph {
    /// Number of nodes.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.nodes
    }

    /// Number of undirected edges.
    #[must_use]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Iterates over the edges in insertion-normalized order.
    pub fn edges(&self) -> impl Iterator<Item = &Edge> + '_ {
        self.edges.iter()
    }

    /// Neighbors of `u` with the connecting edge weights.
    ///
    /// # Panics
    ///
    /// Panics if `u >= self.num_nodes()`.
    #[must_use]
    pub fn neighbors(&self, u: usize) -> &[(usize, f64)] {
        assert!(u < self.nodes, "node {u} out of bounds");
        &self.adj[self.offsets[u]..self.offsets[u + 1]]
    }

    /// Degree of node `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u >= self.num_nodes()`.
    #[must_use]
    pub fn degree(&self, u: usize) -> usize {
        self.neighbors(u).len()
    }

    /// Sum of all edge weights.
    #[must_use]
    pub fn total_weight(&self) -> f64 {
        self.edges.iter().map(|e| e.w).sum()
    }

    /// Sum of `|w|` over edges incident to `u` — the `Δ_ii = Σ_{j≠i} |K_ij|`
    /// quantity of the eigenvalue-dropout step (paper Eq. 4), since
    /// `|K_ij| = |w_ij|` under the max-cut mapping.
    ///
    /// # Panics
    ///
    /// Panics if `u >= self.num_nodes()`.
    #[must_use]
    pub fn abs_weight_degree(&self, u: usize) -> f64 {
        self.neighbors(u).iter().map(|(_, w)| w.abs()).sum()
    }

    /// Edge density relative to the complete graph on the same nodes.
    #[must_use]
    pub fn density(&self) -> f64 {
        let cap = self.nodes * self.nodes.saturating_sub(1) / 2;
        if cap == 0 {
            0.0
        } else {
            self.edges.len() as f64 / cap as f64
        }
    }

    /// True if every possible edge is present.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.num_edges() == self.nodes * self.nodes.saturating_sub(1) / 2
    }

    /// Bytes held by the edge list, the adjacency arrays and the cut
    /// scorer's integer form, counted at its largest whether or not it
    /// has been built, so the figure never changes over the graph's life.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.edges.len() * size_of::<Edge>()
            + self.offsets.len() * size_of::<usize>()
            + self.adj.len() * size_of::<(usize, f64)>()
            + ExactCut::max_heap_bytes(self.nodes, self.edges.len())
    }

    /// The integer form of the cut scorer, built on the first call.
    pub(crate) fn exact_cut(&self) -> Option<&ExactCut> {
        self.derived
            .exact
            .get_or_init(|| ExactCut::build(self))
            .as_ref()
    }

    /// A 64-bit digest of the node count and of every edge (endpoints and
    /// weight bits, in order), computed on the first call. Equal graphs
    /// have equal digests; a cache keyed on it must still confirm a hit
    /// with `==`, as different graphs can collide.
    ///
    /// A word-wise FNV-1a whose state rotates after each product, so high
    /// input bits (a weight's sign) reach every digest bit.
    #[must_use]
    pub fn content_digest(&self) -> u64 {
        *self.derived.digest.get_or_init(|| {
            let mut h = digest_word(0xcbf2_9ce4_8422_2325, self.nodes as u64);
            for e in &self.edges {
                h = digest_word(h, e.u as u64);
                h = digest_word(h, e.v as u64);
                h = digest_word(h, e.w.to_bits());
            }
            h
        })
    }
}

/// One step of [`Graph::content_digest`]'s hash: takes `word` into `h`.
fn digest_word(h: u64, word: u64) -> u64 {
    (h ^ word)
        .wrapping_mul(0x0000_0100_0000_01b3)
        .rotate_left(29)
}

/// Incremental builder enforcing the simple-graph invariants.
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    nodes: usize,
    edges: Vec<Edge>,
    seen: std::collections::HashSet<(usize, usize)>,
}

impl GraphBuilder {
    /// Starts a builder for a graph on `nodes` nodes.
    #[must_use]
    pub fn new(nodes: usize) -> Self {
        GraphBuilder {
            nodes,
            edges: Vec::new(),
            seen: std::collections::HashSet::new(),
        }
    }

    /// Pre-allocates capacity for `edges` edges.
    #[must_use]
    pub fn with_edge_capacity(nodes: usize, edges: usize) -> Self {
        GraphBuilder {
            nodes,
            edges: Vec::with_capacity(edges),
            seen: std::collections::HashSet::with_capacity(edges),
        }
    }

    /// A builder for edges that are distinct by construction: it keeps no
    /// duplicate set. Add edges with [`GraphBuilder::push_distinct`] only.
    pub(crate) fn for_distinct_edges(nodes: usize, edges: usize) -> Self {
        GraphBuilder {
            nodes,
            edges: Vec::with_capacity(edges),
            seen: std::collections::HashSet::new(),
        }
    }

    /// Adds the edge `{u, v}`, `u < v < nodes`, which the caller knows was
    /// not added before: the generators that emit each pair once skip the
    /// duplicate set, whose hashing costs more than the rest of the build.
    pub(crate) fn push_distinct(&mut self, u: usize, v: usize, w: f64) {
        debug_assert!(u < v && v < self.nodes, "edge ({u}, {v}) of {}", self.nodes);
        self.edges.push(Edge { u, v, w });
    }

    /// Adds the undirected edge `{u, v}` with weight `w`.
    ///
    /// Edges of weight zero are accepted and stored (GSET files contain
    /// them in principle) but contribute nothing to cuts or couplings.
    ///
    /// # Errors
    ///
    /// * [`GraphError::NodeOutOfBounds`] if an endpoint is out of range.
    /// * [`GraphError::SelfLoop`] if `u == v`.
    /// * [`GraphError::DuplicateEdge`] if `{u, v}` was already added.
    pub fn add_edge(&mut self, u: usize, v: usize, w: f64) -> Result<&mut Self> {
        if u >= self.nodes {
            return Err(GraphError::NodeOutOfBounds {
                node: u,
                nodes: self.nodes,
            });
        }
        if v >= self.nodes {
            return Err(GraphError::NodeOutOfBounds {
                node: v,
                nodes: self.nodes,
            });
        }
        if u == v {
            return Err(GraphError::SelfLoop { node: u });
        }
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        if !self.seen.insert((a, b)) {
            return Err(GraphError::DuplicateEdge { u: a, v: b });
        }
        self.edges.push(Edge { u: a, v: b, w });
        Ok(self)
    }

    /// Number of edges added so far.
    #[must_use]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Finishes construction, building the adjacency structure.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Empty`] if the graph has zero nodes.
    pub fn build(self) -> Result<Graph> {
        if self.nodes == 0 {
            return Err(GraphError::Empty);
        }
        let n = self.nodes;
        let mut counts = vec![0usize; n + 1];
        for e in &self.edges {
            counts[e.u + 1] += 1;
            counts[e.v + 1] += 1;
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let offsets = counts.clone();
        let mut cursor = counts;
        let mut adj = vec![(0usize, 0.0f64); 2 * self.edges.len()];
        for e in &self.edges {
            adj[cursor[e.u]] = (e.v, e.w);
            cursor[e.u] += 1;
            adj[cursor[e.v]] = (e.u, e.w);
            cursor[e.v] += 1;
        }
        Ok(Graph {
            nodes: n,
            edges: self.edges,
            offsets,
            adj,
            derived: Derived::default(),
        })
    }
}

impl std::fmt::Display for Graph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Graph({} nodes, {} edges, density {:.4})",
            self.nodes,
            self.edges.len(),
            self.density()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1.0).unwrap();
        b.add_edge(1, 2, 2.0).unwrap();
        b.add_edge(2, 0, 3.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn builder_normalizes_endpoint_order() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(3, 1, 1.0).unwrap();
        let g = b.build().unwrap();
        let e = g.edges().next().unwrap();
        assert_eq!((e.u, e.v), (1, 3));
    }

    #[test]
    fn builder_rejects_self_loop() {
        let mut b = GraphBuilder::new(2);
        assert!(matches!(
            b.add_edge(1, 1, 1.0),
            Err(GraphError::SelfLoop { node: 1 })
        ));
    }

    #[test]
    fn builder_rejects_duplicates_in_either_order() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1.0).unwrap();
        assert!(matches!(
            b.add_edge(1, 0, 2.0),
            Err(GraphError::DuplicateEdge { u: 0, v: 1 })
        ));
    }

    #[test]
    fn builder_rejects_out_of_bounds() {
        let mut b = GraphBuilder::new(2);
        assert!(matches!(
            b.add_edge(0, 5, 1.0),
            Err(GraphError::NodeOutOfBounds { node: 5, nodes: 2 })
        ));
    }

    #[test]
    fn empty_graph_is_rejected() {
        assert!(matches!(
            GraphBuilder::new(0).build(),
            Err(GraphError::Empty)
        ));
    }

    #[test]
    fn adjacency_matches_edges() {
        let g = triangle();
        let mut n0: Vec<usize> = g.neighbors(0).iter().map(|&(v, _)| v).collect();
        n0.sort_unstable();
        assert_eq!(n0, vec![1, 2]);
        assert_eq!(g.degree(1), 2);
        let w01 = g
            .neighbors(0)
            .iter()
            .find(|&&(v, _)| v == 1)
            .map(|&(_, w)| w)
            .unwrap();
        assert_eq!(w01, 1.0);
    }

    #[test]
    fn totals_and_density() {
        let g = triangle();
        assert_eq!(g.total_weight(), 6.0);
        assert!(g.is_complete());
        assert!((g.density() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn abs_weight_degree_sums_magnitudes() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, -2.0).unwrap();
        b.add_edge(0, 2, 3.0).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.abs_weight_degree(0), 5.0);
        assert_eq!(g.abs_weight_degree(1), 2.0);
    }

    #[test]
    fn isolated_nodes_have_empty_neighbor_lists() {
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1, 1.0).unwrap();
        let g = b.build().unwrap();
        assert!(g.neighbors(4).is_empty());
        assert_eq!(g.degree(4), 0);
    }

    #[test]
    fn display_mentions_size() {
        let s = format!("{}", triangle());
        assert!(s.contains("3 nodes"));
    }

    #[test]
    fn single_node_graph_is_fine() {
        let g = GraphBuilder::new(1).build().unwrap();
        assert_eq!(g.num_nodes(), 1);
        assert_eq!(g.density(), 0.0);
        assert!(g.is_complete());
    }

    /// The scorer's integer form and the digest, once computed, change
    /// neither `==` nor `heap_bytes`, and the integer form fits the bytes
    /// `heap_bytes` counts for it.
    #[test]
    fn derived_values_leave_equality_and_heap_bytes_alone() {
        let mut b = GraphBuilder::new(40);
        for v in (2..40).step_by(3) {
            b.add_edge(0, v, 0.5).unwrap();
            b.add_edge(v - 1, v, -2.0).unwrap();
        }
        let fresh = b.build().unwrap();
        let g = fresh.clone();
        let bytes = g.heap_bytes();
        let exact = g.exact_cut().expect("halves and integers qualify");
        let held = exact.heap_bytes();
        assert!(
            held <= ExactCut::max_heap_bytes(g.num_nodes(), g.num_edges()),
            "{held} bytes held"
        );
        assert_eq!(g.content_digest(), fresh.content_digest());
        assert_eq!(g.heap_bytes(), bytes);
        assert_eq!(g, fresh);
        assert_eq!(g.clone(), fresh);
        assert!(std::ptr::eq(exact, g.exact_cut().unwrap()), "built once");

        let mut other = GraphBuilder::new(40);
        other.add_edge(0, 1, 0.5).unwrap();
        assert_ne!(other.build().unwrap().content_digest(), g.content_digest());
    }
}
