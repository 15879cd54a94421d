//! Summary statistics for benchmark graphs (paper Table I).

use crate::graph::Graph;

/// Descriptive statistics of a graph instance.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    /// Number of nodes.
    pub nodes: usize,
    /// Number of undirected edges.
    pub edges: usize,
    /// Edge density relative to the complete graph.
    pub density: f64,
    /// Sum of edge weights.
    pub total_weight: f64,
    /// Minimum node degree.
    pub min_degree: usize,
    /// Maximum node degree.
    pub max_degree: usize,
    /// Mean node degree.
    pub avg_degree: f64,
    /// True when every possible edge is present (a K-graph).
    pub complete: bool,
}

impl GraphStats {
    /// Computes statistics for `g`.
    ///
    /// ```
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let g = sophie_graph::generate::complete(5, sophie_graph::WeightDist::Unit, 0)?;
    /// let s = sophie_graph::GraphStats::compute(&g);
    /// assert_eq!(s.nodes, 5);
    /// assert!(s.complete);
    /// # Ok(())
    /// # }
    /// ```
    #[must_use]
    pub fn compute(g: &Graph) -> Self {
        let n = g.num_nodes();
        let degrees: Vec<usize> = (0..n).map(|u| g.degree(u)).collect();
        GraphStats {
            nodes: n,
            edges: g.num_edges(),
            density: g.density(),
            total_weight: g.total_weight(),
            min_degree: degrees.iter().copied().min().unwrap_or(0),
            max_degree: degrees.iter().copied().max().unwrap_or(0),
            avg_degree: if n == 0 {
                0.0
            } else {
                degrees.iter().sum::<usize>() as f64 / n as f64
            },
            complete: g.is_complete(),
        }
    }
}

impl std::fmt::Display for GraphStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} nodes, {} edges (density {:.4}), degrees [{}, {}] avg {:.1}, total weight {}{}",
            self.nodes,
            self.edges,
            self.density,
            self.min_degree,
            self.max_degree,
            self.avg_degree,
            self.total_weight,
            if self.complete { ", complete" } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{complete, gnm, WeightDist};

    #[test]
    fn complete_graph_stats() {
        let g = complete(6, WeightDist::Unit, 0).unwrap();
        let s = GraphStats::compute(&g);
        assert_eq!(s.nodes, 6);
        assert_eq!(s.edges, 15);
        assert_eq!(s.min_degree, 5);
        assert_eq!(s.max_degree, 5);
        assert!((s.avg_degree - 5.0).abs() < 1e-12);
        assert!(s.complete);
        assert!((s.density - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sparse_graph_stats() {
        let g = gnm(100, 50, WeightDist::Unit, 1).unwrap();
        let s = GraphStats::compute(&g);
        assert_eq!(s.edges, 50);
        assert!(!s.complete);
        assert!(s.density < 0.02);
        assert!((s.avg_degree - 1.0).abs() < 1e-12);
    }

    #[test]
    fn display_is_informative() {
        let g = complete(4, WeightDist::Unit, 0).unwrap();
        let text = GraphStats::compute(&g).to_string();
        assert!(text.contains("4 nodes"));
        assert!(text.contains("complete"));
    }
}
