//! Parameter tuning: the (graph order, graph density) → (φ, α) lookup
//! table the paper proposes in §IV-B.
//!
//! The optimal noise level and dropout factor depend on the graph's order
//! and density \[4\]; the paper suggests building a lookup table offline for
//! common (order, density) pairs and consulting it before any computation.
//! [`TuningTable`] implements exactly that: it is populated by running
//! short calibration sweeps on representative random instances
//! ([`calibrate`]) and queried by nearest neighbor in log-order/density
//! space.

use rand::Rng;

use sophie_graph::generate::{gnm, WeightDist};
use sophie_graph::Graph;

use crate::error::Result;
use crate::runner::{run, RunConfig};
use crate::sampler::PrisModel;

/// The tuned operating point for one workload class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TuningEntry {
    /// Graph order this entry was calibrated at.
    pub order: usize,
    /// Edge density this entry was calibrated at.
    pub density: f64,
    /// Best noise level found.
    pub phi: f64,
    /// Best dropout factor found.
    pub alpha: f64,
    /// Average best cut achieved during calibration (diagnostic).
    pub calibration_cut: f64,
}

/// A lookup table from workload class to tuned parameters.
#[derive(Debug, Clone, Default)]
pub struct TuningTable {
    entries: Vec<TuningEntry>,
}

impl TuningTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        TuningTable::default()
    }

    /// Number of calibrated entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries have been calibrated.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Adds a calibrated entry.
    pub fn insert(&mut self, entry: TuningEntry) {
        self.entries.push(entry);
    }

    /// Iterates over the calibrated entries.
    pub fn iter(&self) -> impl Iterator<Item = &TuningEntry> + '_ {
        self.entries.iter()
    }

    /// Looks up the nearest entry for a workload of `order` nodes and
    /// `density` edge density. Distance is Euclidean in
    /// `(log₁₀ order, log₁₀ density)` space, matching how the optimum
    /// drifts with both quantities.
    #[must_use]
    pub fn lookup(&self, order: usize, density: f64) -> Option<&TuningEntry> {
        let key = Self::key(order, density);
        self.entries.iter().min_by(|a, b| {
            let da = Self::dist2(Self::key(a.order, a.density), key);
            let db = Self::dist2(Self::key(b.order, b.density), key);
            da.total_cmp(&db)
        })
    }

    /// Convenience: lookup for a concrete graph.
    #[must_use]
    pub fn lookup_graph(&self, graph: &Graph) -> Option<&TuningEntry> {
        self.lookup(graph.num_nodes(), graph.density())
    }

    fn key(order: usize, density: f64) -> (f64, f64) {
        ((order.max(1) as f64).log10(), density.max(1e-6).log10())
    }

    fn dist2(a: (f64, f64), b: (f64, f64)) -> f64 {
        let dx = a.0 - b.0;
        let dy = a.1 - b.1;
        dx * dx + dy * dy
    }
}

/// Calibration settings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationConfig {
    /// φ candidates to sweep.
    pub phis: &'static [f64],
    /// α candidates to sweep.
    pub alphas: &'static [f64],
    /// Iterations per calibration run.
    pub iterations: usize,
    /// Runs averaged per candidate.
    pub runs: u64,
    /// Seed for instance generation and runs.
    pub seed: u64,
}

impl Default for CalibrationConfig {
    fn default() -> Self {
        CalibrationConfig {
            phis: &[0.0, 0.025, 0.05, 0.1, 0.2],
            alphas: &[0.0, 0.1],
            iterations: 300,
            runs: 3,
            seed: 0,
        }
    }
}

/// Calibrates a tuning entry for the workload class `(order, density)` by
/// sweeping (φ, α) on a representative random instance.
///
/// # Errors
///
/// Propagates preprocessing/sampling errors; generator errors cannot occur
/// for valid `(order, density)`.
///
/// # Panics
///
/// Panics if `order < 2` or `density` is outside `(0, 1]`.
pub fn calibrate(order: usize, density: f64, config: &CalibrationConfig) -> Result<TuningEntry> {
    assert!(order >= 2, "calibration needs at least 2 nodes");
    assert!(
        density > 0.0 && density <= 1.0,
        "density must be in (0, 1], got {density}"
    );
    let capacity = order * (order - 1) / 2;
    let m = ((density * capacity as f64).round() as usize).clamp(1, capacity);
    let graph = gnm(order, m, WeightDist::Unit, config.seed ^ 0xCA11)
        .expect("valid (order, density) produce valid instances");

    let k = sophie_graph::coupling::coupling_matrix(&graph);
    let delta = sophie_graph::coupling::delta_diagonal(&graph);
    let pre = crate::dropout::Preprocessor::new(&k, delta, crate::DeltaVariant::Gershgorin)?;

    let mut best: Option<TuningEntry> = None;
    for &alpha in config.alphas {
        let model = PrisModel::new(pre.transform(alpha)?)?;
        for &phi in config.phis {
            let mut total = 0.0;
            for r in 0..config.runs {
                let out = run(
                    &model,
                    &graph,
                    &RunConfig {
                        iterations: config.iterations,
                        phi,
                        seed: config.seed.wrapping_add(r),
                        target_cut: None,
                    },
                )?;
                total += out.best_cut;
            }
            let avg = total / config.runs as f64;
            if best.as_ref().is_none_or(|b| avg > b.calibration_cut) {
                best = Some(TuningEntry {
                    order,
                    density,
                    phi,
                    alpha,
                    calibration_cut: avg,
                });
            }
        }
    }
    Ok(best.expect("at least one candidate is always evaluated"))
}

/// Verifies a tuned entry against a fresh instance: returns the best cut
/// achieved with the tuned parameters over `runs` seeds.
///
/// # Errors
///
/// Propagates preprocessing/sampling errors.
pub fn validate_on<R: Rng>(
    entry: &TuningEntry,
    graph: &Graph,
    iterations: usize,
    runs: u64,
    rng: &mut R,
) -> Result<f64> {
    let k = sophie_graph::coupling::coupling_matrix(graph);
    let delta = sophie_graph::coupling::delta_diagonal(graph);
    let c = crate::dropout::transformation_matrix(
        &k,
        delta,
        entry.alpha,
        crate::DeltaVariant::Gershgorin,
    )?;
    let model = PrisModel::new(c)?;
    let mut best = f64::NEG_INFINITY;
    for _ in 0..runs {
        let out = run(
            &model,
            graph,
            &RunConfig {
                iterations,
                phi: entry.phi,
                seed: rng.gen(),
                target_cut: None,
            },
        )?;
        best = best.max(out.best_cut);
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> CalibrationConfig {
        CalibrationConfig {
            phis: &[0.0, 0.05, 0.1],
            alphas: &[0.0],
            iterations: 120,
            runs: 2,
            seed: 7,
        }
    }

    #[test]
    fn calibration_prefers_positive_noise() {
        let entry = calibrate(64, 0.2, &quick_config()).unwrap();
        assert!(entry.phi > 0.0, "noiseless PRIS should not win: {entry:?}");
        assert_eq!(entry.order, 64);
    }

    #[test]
    fn lookup_finds_nearest_class() {
        let mut table = TuningTable::new();
        table.insert(TuningEntry {
            order: 100,
            density: 1.0,
            phi: 0.1,
            alpha: 0.0,
            calibration_cut: 0.0,
        });
        table.insert(TuningEntry {
            order: 2000,
            density: 0.01,
            phi: 0.05,
            alpha: 0.0,
            calibration_cut: 0.0,
        });
        let hit = table.lookup(1800, 0.02).unwrap();
        assert_eq!(hit.order, 2000);
        let hit = table.lookup(120, 0.9).unwrap();
        assert_eq!(hit.order, 100);
    }

    #[test]
    fn empty_table_returns_none() {
        assert!(TuningTable::new().lookup(100, 0.5).is_none());
        assert!(TuningTable::new().is_empty());
    }

    #[test]
    fn lookup_graph_uses_graph_stats() {
        let g = gnm(50, 100, WeightDist::Unit, 1).unwrap();
        let mut table = TuningTable::new();
        table.insert(TuningEntry {
            order: 50,
            density: 0.08,
            phi: 0.07,
            alpha: 0.0,
            calibration_cut: 0.0,
        });
        let hit = table.lookup_graph(&g).unwrap();
        assert_eq!(hit.phi, 0.07);
    }

    #[test]
    fn validated_entry_beats_random_cut() {
        let cfg = quick_config();
        let entry = calibrate(48, 0.3, &cfg).unwrap();
        let g = gnm(48, 338, WeightDist::Unit, 99).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        use rand::SeedableRng;
        let best = validate_on(&entry, &g, 200, 2, &mut rng).unwrap();
        assert!(best > 0.5 * 338.0, "best {best}");
    }

    #[test]
    #[should_panic(expected = "density")]
    fn rejects_bad_density() {
        let _ = calibrate(10, 0.0, &quick_config());
    }
}
