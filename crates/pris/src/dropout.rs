//! Eigenvalue dropout preprocessing (paper §II-C, Eq. 2–4).
//!
//! The PRIS algorithm replaces the coupling matrix `K` by
//! `C = U · Sq_α(D) · Uᵀ` where `K = U D Uᵀ` and
//! `Sq_α(D) = 2·Re(√(D + αΔ))`. Taking the real part of the square root
//! zeroes every negative shifted eigenvalue — "dropping" them — while `α`
//! controls how much of the spectrum survives: `α = 0` keeps only the
//! non-negative eigenvalues; `α = 1` shifts by the Gershgorin radius so the
//! whole spectrum becomes non-negative.
//!
//! The paper defines `Δ_ii = Σ_{j≠i} |K_ij|` (a node-indexed quantity) but
//! applies it inside the eigenbasis, leaving the pairing between eigenvalue
//! index and node index unspecified. Two faithful readings are provided:
//!
//! * [`DeltaVariant::Gershgorin`] (default) — the uniform bound
//!   `Δ = (max_i Δ_ii)·I`, which guarantees `D + αΔ ⪰ 0` at `α = 1` by the
//!   Gershgorin circle theorem and keeps the knob's documented behaviour;
//! * [`DeltaVariant::SortedPerNode`] — pairs the ascending eigenvalues with
//!   the ascending per-node sums, preserving the per-node scale.
//!
//! [`TransformCache`] keeps computed transforms by graph content and `α`,
//! so solvers built per request share one preprocessing per instance.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

use sophie_graph::coupling::{coupling_matrix, delta_diagonal};
use sophie_graph::Graph;
use sophie_linalg::eigen::{symmetric_eigen, SymmetricEigen};
use sophie_linalg::Matrix;

use crate::error::{PrisError, Result};

/// How the dropout shift `Δ` is paired with the eigenvalues.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum DeltaVariant {
    /// Uniform Gershgorin shift `max_i Σ_{j≠i}|K_ij|` (default).
    #[default]
    Gershgorin,
    /// Ascending per-node sums paired with ascending eigenvalues.
    SortedPerNode,
}

/// Caches the eigendecomposition of `K` so the transformation matrix can be
/// rebuilt cheaply while sweeping `α` (Fig. 6 runs a whole grid of `α`
/// values per graph).
#[derive(Debug, Clone)]
pub struct Preprocessor {
    eigen: SymmetricEigen,
    delta: Vec<f64>,
    variant: DeltaVariant,
}

impl Preprocessor {
    /// Decomposes the coupling matrix once.
    ///
    /// `delta` is the node-indexed `Δ_ii = Σ_{j≠i}|K_ij|` vector, available
    /// from [`sophie_graph::coupling::delta_diagonal`] without touching `K`.
    ///
    /// # Errors
    ///
    /// * [`PrisError::BadDelta`] if `delta.len() != k.rows()`.
    /// * [`PrisError::Linalg`] if `k` is not square/symmetric or the
    ///   eigensolver fails.
    pub fn new(k: &Matrix, delta: Vec<f64>, variant: DeltaVariant) -> Result<Self> {
        if delta.len() != k.rows() {
            return Err(PrisError::BadDelta {
                expected: k.rows(),
                found: delta.len(),
            });
        }
        let eigen = symmetric_eigen(k)?;
        Ok(Preprocessor {
            eigen,
            delta,
            variant,
        })
    }

    /// Dimension of the problem.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.eigen.dim()
    }

    /// Borrow the cached eigendecomposition.
    #[must_use]
    pub fn eigen(&self) -> &SymmetricEigen {
        &self.eigen
    }

    /// Shift applied to eigenvalue index `i` before the square root.
    fn shift(&self, i: usize, sorted_delta: &[f64]) -> f64 {
        match self.variant {
            DeltaVariant::Gershgorin => sorted_delta[sorted_delta.len() - 1],
            DeltaVariant::SortedPerNode => sorted_delta[i],
        }
    }

    /// Builds the transformation matrix `C = U · Sq_α(D) · Uᵀ`.
    ///
    /// # Errors
    ///
    /// Returns [`PrisError::BadAlpha`] unless `0 ≤ α ≤ 1`.
    pub fn transform(&self, alpha: f64) -> Result<Matrix> {
        if !(0.0..=1.0).contains(&alpha) || alpha.is_nan() {
            return Err(PrisError::BadAlpha { alpha });
        }
        let mut sorted_delta = self.delta.clone();
        sorted_delta.sort_by(f64::total_cmp);
        let n = self.dim();
        let f: Vec<f64> = (0..n)
            .map(|i| {
                let shifted = self.eigen.values[i] + alpha * self.shift(i, &sorted_delta);
                // 2·Re(√x): zero for negative x, 2√x otherwise.
                if shifted > 0.0 {
                    2.0 * shifted.sqrt()
                } else {
                    0.0
                }
            })
            .collect();
        Ok(self.eigen.compose_nonnegative(&f))
    }
}

/// One-shot convenience wrapper around [`Preprocessor`] for a single `α`.
///
/// # Errors
///
/// Same as [`Preprocessor::new`] and [`Preprocessor::transform`].
///
/// ```
/// use sophie_linalg::Matrix;
/// use sophie_pris::dropout::{transformation_matrix, DeltaVariant};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let k = Matrix::from_rows(&[&[0.0, -1.0], &[-1.0, 0.0]])?;
/// let delta = vec![1.0, 1.0];
/// let c = transformation_matrix(&k, delta, 0.0, DeltaVariant::Gershgorin)?;
/// assert!(c.is_symmetric(1e-10));
/// # Ok(())
/// # }
/// ```
pub fn transformation_matrix(
    k: &Matrix,
    delta: Vec<f64>,
    alpha: f64,
    variant: DeltaVariant,
) -> Result<Matrix> {
    Preprocessor::new(k, delta, variant)?.transform(alpha)
}

/// Byte budget of a [`TransformCache`]: two G22-sized entries (n = 2000,
/// 32 MB of `C` each) fit.
const TRANSFORM_CACHE_BYTES: usize = 64 << 20;

/// Bounded cache of dropout transforms `C`, keyed on graph content and `α`:
/// the software form of programming the couplings once and amortizing
/// them over a batch of jobs (paper §III-E).
///
/// A slot is selected by a digest of the graph's edges, kept by the graph
/// once computed, and `α`.
/// A hit also requires the stored graph to equal the job's (`Arc` identity
/// or `==`) at the same `α` bits, so a digest collision on untrusted input
/// costs a miss, never a wrong `C`. Entries are evicted first in, first
/// out once their bytes (`C` plus the graph's arrays) would pass 64 MiB; a
/// transform larger than that serves its own job and is not kept.
///
/// The lock is held for lookup and insert only, never while decomposing:
/// concurrent misses on one key each compute the same bits, and the first
/// insert stays.
#[derive(Debug)]
pub struct TransformCache {
    budget: usize,
    inner: Mutex<CacheInner>,
}

#[derive(Debug, Default)]
struct CacheInner {
    slots: HashMap<u64, CacheEntry>,
    /// Digests in insertion order.
    order: VecDeque<u64>,
    bytes: usize,
    hits: u64,
    misses: u64,
}

#[derive(Debug)]
struct CacheEntry {
    graph: Arc<Graph>,
    alpha_bits: u64,
    c: Arc<Matrix>,
    bytes: usize,
}

/// A [`TransformCache`]'s counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Transforms held.
    pub entries: usize,
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that computed their transform.
    pub misses: u64,
}

impl Default for TransformCache {
    fn default() -> Self {
        TransformCache {
            budget: TRANSFORM_CACHE_BYTES,
            inner: Mutex::default(),
        }
    }
}

impl TransformCache {
    /// The transform of `graph` at `alpha` under the Gershgorin shift, as
    /// [`transformation_matrix`] computes it from the graph's coupling
    /// matrix: served from the cache, or computed and kept.
    ///
    /// # Errors
    ///
    /// Same as [`transformation_matrix`].
    pub fn transform(&self, graph: &Arc<Graph>, alpha: f64) -> Result<Arc<Matrix>> {
        let digest = digest(graph, alpha);
        {
            let mut inner = self.inner.lock().expect("transform cache lock");
            let hit = inner
                .slots
                .get(&digest)
                .filter(|e| {
                    e.alpha_bits == alpha.to_bits()
                        && (Arc::ptr_eq(&e.graph, graph) || *e.graph == **graph)
                })
                .map(|e| Arc::clone(&e.c));
            if let Some(c) = hit {
                inner.hits += 1;
                return Ok(c);
            }
            inner.misses += 1;
        }
        let c = Arc::new(transformation_matrix(
            &coupling_matrix(graph),
            delta_diagonal(graph),
            alpha,
            DeltaVariant::Gershgorin,
        )?);
        let bytes = c.rows() * c.cols() * std::mem::size_of::<f64>() + graph.heap_bytes();
        if bytes <= self.budget {
            let mut inner = self.inner.lock().expect("transform cache lock");
            if !inner.slots.contains_key(&digest) {
                while inner.bytes + bytes > self.budget {
                    let oldest = inner.order.pop_front().expect("bytes are held by entries");
                    let evicted = inner.slots.remove(&oldest).expect("ordered slot exists");
                    inner.bytes -= evicted.bytes;
                }
                inner.order.push_back(digest);
                inner.bytes += bytes;
                let entry = CacheEntry {
                    graph: Arc::clone(graph),
                    alpha_bits: alpha.to_bits(),
                    c: Arc::clone(&c),
                    bytes,
                };
                inner.slots.insert(digest, entry);
            }
        }
        Ok(c)
    }

    /// Entries held and lookups served so far.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().expect("transform cache lock");
        CacheStats {
            entries: inner.slots.len(),
            hits: inner.hits,
            misses: inner.misses,
        }
    }
}

/// The graph's content digest (computed once per graph) with `α`'s bits
/// folded in the same way. The digest only picks a slot: a hit is
/// confirmed by comparing the graphs.
fn digest(graph: &Graph, alpha: f64) -> u64 {
    (graph.content_digest() ^ alpha.to_bits())
        .wrapping_mul(0x0000_0100_0000_01b3)
        .rotate_left(29)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sophie_graph::generate::{complete, WeightDist};
    use sophie_graph::GraphBuilder;

    fn setup(n: usize, seed: u64) -> (Matrix, Vec<f64>) {
        let g = complete(n, WeightDist::PlusMinusOne, seed).unwrap();
        (coupling_matrix(&g), delta_diagonal(&g))
    }

    #[test]
    fn transform_is_symmetric_psd() {
        let (k, d) = setup(12, 3);
        let c = transformation_matrix(&k, d, 0.0, DeltaVariant::Gershgorin).unwrap();
        assert!(c.is_symmetric(1e-9));
        let eig = sophie_linalg::eigen::symmetric_eigen(&c).unwrap();
        assert!(
            eig.values[0] > -1e-9,
            "C must be PSD, min λ = {}",
            eig.values[0]
        );
    }

    #[test]
    fn alpha_zero_drops_negative_eigenvalues() {
        let (k, d) = setup(10, 7);
        let pre = Preprocessor::new(&k, d, DeltaVariant::Gershgorin).unwrap();
        let c = pre.transform(0.0).unwrap();
        let c_eig = sophie_linalg::eigen::symmetric_eigen(&c).unwrap();
        let kept_in_c = c_eig.values.iter().filter(|&&v| v > 1e-9).count();
        let positive_in_k = pre.eigen().values.iter().filter(|&&v| v > 1e-9).count();
        assert_eq!(kept_in_c, positive_in_k);
    }

    #[test]
    fn alpha_one_keeps_full_rank_under_gershgorin() {
        let (k, d) = setup(10, 5);
        let pre = Preprocessor::new(&k, d, DeltaVariant::Gershgorin).unwrap();
        let c = pre.transform(1.0).unwrap();
        let c_eig = sophie_linalg::eigen::symmetric_eigen(&c).unwrap();
        // λ_i + max Δ > 0 strictly for generic random instances.
        let kept = c_eig.values.iter().filter(|&&v| v > 1e-9).count();
        assert_eq!(kept, 10);
    }

    #[test]
    fn eigenvalues_of_c_match_formula() {
        let (k, d) = setup(8, 11);
        let pre = Preprocessor::new(&k, d.clone(), DeltaVariant::Gershgorin).unwrap();
        let c = pre.transform(0.3).unwrap();
        let shift = d.iter().fold(0.0_f64, |m, &x| m.max(x));
        let mut expect: Vec<f64> = pre
            .eigen()
            .values
            .iter()
            .map(|&l| {
                let s = l + 0.3 * shift;
                if s > 0.0 {
                    2.0 * s.sqrt()
                } else {
                    0.0
                }
            })
            .collect();
        expect.sort_by(f64::total_cmp);
        let got = sophie_linalg::eigen::symmetric_eigen(&c).unwrap().values;
        for (a, b) in got.iter().zip(&expect) {
            assert!((a - b).abs() < 1e-7, "{a} vs {b}");
        }
    }

    #[test]
    fn rejects_out_of_range_alpha() {
        let (k, d) = setup(6, 1);
        let pre = Preprocessor::new(&k, d, DeltaVariant::Gershgorin).unwrap();
        assert!(pre.transform(-0.1).is_err());
        assert!(pre.transform(1.1).is_err());
        assert!(pre.transform(f64::NAN).is_err());
    }

    #[test]
    fn rejects_wrong_delta_length() {
        let (k, _) = setup(6, 1);
        assert!(matches!(
            Preprocessor::new(&k, vec![1.0; 5], DeltaVariant::Gershgorin),
            Err(PrisError::BadDelta {
                expected: 6,
                found: 5
            })
        ));
    }

    #[test]
    fn sorted_variant_also_yields_psd() {
        let (k, d) = setup(9, 13);
        let c = transformation_matrix(&k, d, 0.5, DeltaVariant::SortedPerNode).unwrap();
        let eig = sophie_linalg::eigen::symmetric_eigen(&c).unwrap();
        assert!(eig.values[0] > -1e-9);
    }

    fn k_graph(n: usize, seed: u64) -> Arc<Graph> {
        Arc::new(complete(n, WeightDist::PlusMinusOne, seed).unwrap())
    }

    fn bits(c: &Matrix) -> Vec<u64> {
        c.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    /// Cache bytes of one transform of `g`.
    fn entry_bytes(g: &Graph) -> usize {
        g.num_nodes() * g.num_nodes() * 8 + g.heap_bytes()
    }

    fn stats(entries: usize, hits: u64, misses: u64) -> CacheStats {
        CacheStats {
            entries,
            hits,
            misses,
        }
    }

    #[test]
    fn transform_cache_hits_an_equal_graph_in_another_arc() {
        let cache = TransformCache::default();
        let (a, b) = (k_graph(12, 3), k_graph(12, 3));
        assert!(!Arc::ptr_eq(&a, &b));
        let first = cache.transform(&a, 0.2).unwrap();
        let second = cache.transform(&b, 0.2).unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(cache.stats(), stats(1, 1, 1));
        let direct = transformation_matrix(
            &coupling_matrix(&a),
            delta_diagonal(&a),
            0.2,
            DeltaVariant::Gershgorin,
        )
        .unwrap();
        assert_eq!(bits(&first), bits(&direct));
    }

    #[test]
    fn transform_cache_misses_on_another_alpha_or_edge_weight() {
        let cache = TransformCache::default();
        let g = k_graph(10, 5);
        cache.transform(&g, 0.0).unwrap();
        cache.transform(&g, 0.5).unwrap();
        let mut b = GraphBuilder::new(g.num_nodes());
        for (i, e) in g.edges().enumerate() {
            b.add_edge(e.u, e.v, if i == 7 { -e.w } else { e.w })
                .unwrap();
        }
        let reweighted = Arc::new(b.build().unwrap());
        let c = cache.transform(&reweighted, 0.0).unwrap();
        assert_eq!(cache.stats(), stats(3, 0, 3));
        assert_ne!(bits(&c), bits(&cache.transform(&g, 0.0).unwrap()));
        assert_eq!(cache.stats(), stats(3, 1, 3));
    }

    #[test]
    fn transform_cache_evicts_first_in_first_out_at_the_byte_budget() {
        let graphs: Vec<Arc<Graph>> = (1..=3).map(|seed| k_graph(10, seed)).collect();
        let cache = TransformCache {
            budget: 2 * entry_bytes(&graphs[0]),
            inner: Mutex::default(),
        };
        for g in &graphs {
            cache.transform(g, 0.0).unwrap();
        }
        // The third insert evicted the first graph's transform.
        assert_eq!(cache.stats(), stats(2, 0, 3));
        cache.transform(&graphs[2], 0.0).unwrap();
        cache.transform(&graphs[1], 0.0).unwrap();
        assert_eq!(cache.stats(), stats(2, 2, 3));
        cache.transform(&graphs[0], 0.0).unwrap();
        assert_eq!(cache.stats(), stats(2, 2, 4));
        // Re-inserting the first evicted the second, the oldest entry.
        cache.transform(&graphs[1], 0.0).unwrap();
        assert_eq!(cache.stats(), stats(2, 2, 5));
    }

    #[test]
    fn transform_cache_serves_but_does_not_keep_an_entry_over_the_budget() {
        let g = k_graph(10, 1);
        let cache = TransformCache {
            budget: entry_bytes(&g) - 1,
            inner: Mutex::default(),
        };
        let first = cache.transform(&g, 0.0).unwrap();
        let second = cache.transform(&g, 0.0).unwrap();
        assert_eq!(bits(&first), bits(&second));
        assert_eq!(cache.stats(), stats(0, 0, 2));
    }

    #[test]
    fn transform_cache_gives_concurrent_lookups_bit_equal_transforms() {
        let cache = TransformCache::default();
        let graphs = [k_graph(40, 9), k_graph(40, 9)];
        let results: Vec<Arc<Matrix>> = std::thread::scope(|s| {
            let handles: Vec<_> = graphs
                .iter()
                .map(|g| s.spawn(|| cache.transform(g, 0.4).unwrap()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(bits(&results[0]), bits(&results[1]));
        let s = cache.stats();
        assert_eq!((s.entries, s.hits + s.misses), (1, 2));
    }

    #[test]
    fn sweep_reuses_decomposition() {
        let (k, d) = setup(8, 2);
        let pre = Preprocessor::new(&k, d.clone(), DeltaVariant::Gershgorin).unwrap();
        for &alpha in &[0.0, 0.25, 0.5, 1.0] {
            let via_cache = pre.transform(alpha).unwrap();
            let direct =
                transformation_matrix(&k, d.clone(), alpha, DeltaVariant::Gershgorin).unwrap();
            assert!(via_cache.max_abs_diff(&direct) < 1e-10);
        }
    }
}
