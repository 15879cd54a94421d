//! Delta-driven sparse MVM backend.
//!
//! GSET-class max-cut instances are sparse (G22: n = 2000, ~20k edges →
//! ~1% dense), and late in the anneal only a handful of spins change
//! between consecutive local iterations. The dense [`IdealBackend`] pays
//! the full `tile_size²` kernel on every MVM regardless. [`SparseBackend`]
//! exploits both structures:
//!
//! * each programmed tile is stored in CSR form ([`SparseCsr`]) alongside
//!   its transpose, so a full multiply costs `O(nnz)`;
//! * every unit caches the last input and output **per direction**; on the
//!   next call it diffs the input against the cache and recomputes only
//!   the output elements adjacent to a changed input (the *dirty set*);
//! * when the estimated touched work exceeds a density-crossover threshold
//!   θ (in units of `tile_size²` scalar MACs), the unit falls back to the
//!   dense tile kernel for that call — so dense-ish tiles and high-activity
//!   phases never run slower than [`IdealBackend`]. The estimate stops
//!   scanning the input at the changed element that passes the budget,
//!   and only the incremental path walks the changed inputs to mark
//!   rows, so a fallback builds no list of changed inputs.
//!
//! # Bit-compatibility contract
//!
//! Every kernel involved — dense [`Tile::mvm`]/[`Tile::mvm_transposed`],
//! [`SparseCsr::matvec`], [`SparseCsr::row_dot`] — accumulates each output
//! element as a *sequential sum of its nonzero terms in ascending index
//! order starting from `+0.0`*, and terms that are exactly zero (zero
//! weight or zero input) are bitwise invisible to such a sum. An output
//! element whose inputs are value-unchanged therefore has a bitwise
//! unchanged value, so serving it from the cache is exact. The engine's
//! cut trajectories and event streams are **bit-identical** across
//! [`ComputeMode::Dense`], [`ComputeMode::Sparse`], and
//! [`ComputeMode::Auto`] (inputs are finite in the engine; `NaN` inputs
//! would force a recompute via `NaN != NaN` but are outside the contract).
//!
//! The crossover threshold affects *which kernel computes* a result, never
//! the result itself. Its default, [`DEFAULT_CROSSOVER`], is a constant,
//! so a run's kernel choices are as reproducible as its results;
//! `SophieConfig::sparse_crossover` overrides it.

use sophie_linalg::{KernelPlan, SparseCsr, Tile};

use crate::backend::{MvmBackend, MvmUnit};
use crate::config::{ComputeMode, SophieConfig};

#[cfg(doc)]
use crate::backend::IdealBackend;

/// The crossover threshold θ of [`SparseBackend::auto`], which
/// [`ComputeMode::Auto`] uses unless `sparse_crossover` names one.
///
/// On a 2-vCPU x86-64 host, 20 fresh processes of the earlier per-process
/// timing probe drew θ in 0.154–0.176 (12 of them) or 0.209–0.281 (8),
/// and a default-config K512 solve ran faster at θ = 0.16 than at
/// θ = 0.25 in 4 of 4 alternating runs. 0.16 is also the θ the
/// benchmark's K512 requests name.
pub const DEFAULT_CROSSOVER: f64 = 0.16;

/// Sparse incremental MVM backend; see the [module docs](self) for the
/// strategy and the bit-compatibility contract.
#[derive(Debug, Clone, Copy)]
pub struct SparseBackend {
    crossover: f64,
}

impl SparseBackend {
    /// Backend with the default crossover threshold,
    /// [`DEFAULT_CROSSOVER`].
    #[must_use]
    pub fn auto() -> Self {
        SparseBackend {
            crossover: DEFAULT_CROSSOVER,
        }
    }

    /// Backend with an explicit crossover threshold θ: an MVM stays on the
    /// incremental path while its estimated touched work is below
    /// `θ × tile_size²` scalar MACs.
    ///
    /// # Panics
    ///
    /// Panics unless `theta` is positive (`+∞` is allowed and means "never
    /// fall back to dense").
    #[must_use]
    pub fn with_crossover(theta: f64) -> Self {
        assert!(
            theta > 0.0 && !theta.is_nan(),
            "crossover must be positive, got {theta}"
        );
        SparseBackend { crossover: theta }
    }

    /// Backend that always takes the sparse path (θ = ∞), regardless of
    /// activity or density.
    #[must_use]
    pub fn always_sparse() -> Self {
        SparseBackend {
            crossover: f64::INFINITY,
        }
    }

    /// Backend matching a configuration's `compute` / `sparse_crossover`
    /// knobs. [`ComputeMode::Sparse`] pins θ = ∞; otherwise an explicit
    /// `sparse_crossover` wins over [`DEFAULT_CROSSOVER`].
    /// ([`ComputeMode::Dense`] is dispatched to the dense backend *before*
    /// this is called; passing such a config here yields the same backend
    /// as [`ComputeMode::Auto`].)
    #[must_use]
    pub fn from_config(config: &SophieConfig) -> Self {
        match (config.compute, config.sparse_crossover) {
            (ComputeMode::Sparse, _) => Self::always_sparse(),
            (_, Some(theta)) => Self::with_crossover(theta),
            (_, None) => Self::auto(),
        }
    }

    /// The crossover threshold θ in effect.
    #[must_use]
    pub fn crossover(&self) -> f64 {
        self.crossover
    }
}

impl MvmBackend for SparseBackend {
    type Unit = SparseUnit;

    fn unit(&self, tile_size: usize) -> SparseUnit {
        SparseUnit::new(tile_size, self.crossover, KernelPlan::resolve(tile_size))
    }
}

/// Per-direction input/output cache of one unit.
#[derive(Debug, Clone)]
struct DirCache {
    x: Vec<f32>,
    y: Vec<f32>,
    valid: bool,
}

impl DirCache {
    fn new(size: usize) -> Self {
        DirCache {
            x: vec![0.0; size],
            y: vec![0.0; size],
            valid: false,
        }
    }

    fn invalidate(&mut self) {
        self.valid = false;
    }
}

/// Unit produced by [`SparseBackend`]: CSR storage, per-direction
/// input-diff caches, and a per-call dense fallback above the crossover.
#[derive(Debug, Clone)]
pub struct SparseUnit {
    tile_size: usize,
    crossover: f64,
    /// Kernel plan for the dense fallback path.
    plan: KernelPlan,
    /// Dense mirror for fallback kernels and cheap reprogramming.
    tile: Option<Tile>,
    /// CSR of the stored tile `T` (forward row dots).
    csr: Option<SparseCsr>,
    /// CSR of `Tᵀ` (transposed row dots; forward adjacency).
    csr_t: Option<SparseCsr>,
    fwd: DirCache,
    trn: DirCache,
    /// Generation-stamped visited marks for dirty-row dedup (no per-call
    /// clearing).
    stamp: Vec<u32>,
    stamp_gen: u32,
    /// Scratch: deduplicated touched output rows this call.
    touched: Vec<u32>,
    incremental_calls: u64,
    full_sparse_calls: u64,
    dense_calls: u64,
}

impl SparseUnit {
    fn new(tile_size: usize, crossover: f64, plan: KernelPlan) -> Self {
        SparseUnit {
            tile_size,
            crossover,
            plan,
            tile: None,
            csr: None,
            csr_t: None,
            fwd: DirCache::new(tile_size),
            trn: DirCache::new(tile_size),
            stamp: vec![0; tile_size],
            stamp_gen: 0,
            touched: Vec::new(),
            incremental_calls: 0,
            full_sparse_calls: 0,
            dense_calls: 0,
        }
    }

    /// Kernel selection counts since construction, as
    /// `(incremental, full_sparse, dense_fallback)` MVM invocations.
    /// Incremental includes unchanged-input calls served wholly from the
    /// cache; full-sparse are cold-cache `O(nnz)` recomputes.
    #[must_use]
    pub fn kernel_counts(&self) -> (u64, u64, u64) {
        (
            self.incremental_calls,
            self.full_sparse_calls,
            self.dense_calls,
        )
    }

    fn dense_kernel(plan: &KernelPlan, tile: &Tile, forward: bool, x: &[f32], y: &mut [f32]) {
        if forward {
            plan.forward(tile, x, y);
        } else {
            plan.transposed(tile, x, y);
        }
    }

    fn run_dir(&mut self, forward: bool, x: &[f32], y: &mut [f32]) {
        let t = self.tile_size;
        assert_eq!(x.len(), t, "mvm: input length mismatch");
        assert_eq!(y.len(), t, "mvm: output length mismatch");
        let tile = self.tile.as_ref().expect("unit used before programming");
        let csr = self.csr.as_ref().expect("unit used before programming");
        let csr_t = self.csr_t.as_ref().expect("unit used before programming");
        // `own` is the operator of this direction (its row dots produce the
        // output); `adj` maps a changed input index to the output rows it
        // feeds (row j of the opposite CSR).
        let (own, adj, cache) = if forward {
            (csr, csr_t, &mut self.fwd)
        } else {
            (csr_t, csr, &mut self.trn)
        };
        let budget = self.crossover * (t as f64) * (t as f64);

        if !cache.valid {
            // Cold cache: no diff to exploit; the choice is full-sparse
            // O(nnz) vs dense.
            if (own.nnz() as f64) > budget {
                Self::dense_kernel(&self.plan, tile, forward, x, y);
                self.dense_calls += 1;
            } else {
                own.matvec(x, y);
                self.full_sparse_calls += 1;
            }
            cache.x.copy_from_slice(x);
            cache.y.copy_from_slice(y);
            cache.valid = true;
            return;
        }

        // Estimate the recompute as (changed input → fed output) pairs, a
        // cheap proxy for the touched-row cost that needs no dedup pass.
        // The count only grows, so it stops at the first changed input
        // that takes it past the budget: that call goes dense without
        // reading the rest of the input. Inputs compare by value: ±0.0
        // aliasing is bitwise harmless per the module contract, NaN
        // forces a recompute.
        let mut est: u64 = 0;
        let mut changed = false;
        for (j, (&new, &old)) in x.iter().zip(&cache.x).enumerate() {
            if new != old {
                changed = true;
                est += adj.row_nnz(j) as u64;
                if (est as f64) > budget {
                    Self::dense_kernel(&self.plan, tile, forward, x, y);
                    cache.x.copy_from_slice(x);
                    cache.y.copy_from_slice(y);
                    self.dense_calls += 1;
                    return;
                }
            }
        }
        if !changed {
            y.copy_from_slice(&cache.y);
            self.incremental_calls += 1;
            return;
        }

        // Incremental path: mark the output rows fed by any changed input
        // (generation stamps dedup without clearing), then recompute only
        // those rows against the *new* input.
        self.stamp_gen = self.stamp_gen.wrapping_add(1);
        if self.stamp_gen == 0 {
            self.stamp.fill(0);
            self.stamp_gen = 1;
        }
        self.touched.clear();
        for (j, (&new, &old)) in x.iter().zip(&cache.x).enumerate() {
            if new != old {
                let (rows, _) = adj.row(j);
                for &i in rows {
                    if self.stamp[i as usize] != self.stamp_gen {
                        self.stamp[i as usize] = self.stamp_gen;
                        self.touched.push(i);
                    }
                }
            }
        }
        cache.x.copy_from_slice(x);
        for &i in &self.touched {
            cache.y[i as usize] = own.row_dot(i as usize, x);
        }
        y.copy_from_slice(&cache.y);
        self.incremental_calls += 1;
    }
}

impl MvmUnit for SparseUnit {
    fn program(&mut self, tile: &Tile) {
        assert_eq!(tile.size(), self.tile_size, "tile size mismatch");
        let csr = SparseCsr::from_tile(tile).expect("tile is non-empty");
        self.csr_t = Some(csr.transposed());
        self.csr = Some(csr);
        self.tile = Some(tile.clone());
        self.fwd.invalidate();
        self.trn.invalidate();
    }

    fn forward(&mut self, x: &[f32], y: &mut [f32]) {
        self.run_dir(true, x, y);
    }

    fn transposed(&mut self, x: &[f32], y: &mut [f32]) {
        self.run_dir(false, x, y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::IdealUnit;

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Deterministic tile with the given approximate density.
    fn test_tile(size: usize, density: f64, seed: u64) -> Tile {
        let mut state = seed | 1;
        let mut next = move || -> u64 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            state >> 11
        };
        let data: Vec<f32> = (0..size * size)
            .map(|_| {
                if (next() % 1000) as f64 >= density * 1000.0 {
                    0.0
                } else {
                    ((next() % 2001) as f32 - 1000.0) / 250.0
                }
            })
            .collect();
        Tile::from_vec(size, data).unwrap()
    }

    fn ideal_unit(tile: &Tile) -> IdealUnit {
        let mut u = crate::backend::IdealBackend::new().unit(tile.size());
        u.program(tile);
        u
    }

    /// Drives a sparse and an ideal unit through the same input sequence
    /// (alternating directions, sparse single-flip deltas and occasional
    /// full rewrites) and asserts bitwise-identical outputs throughout.
    fn assert_bitwise_equivalent(tile: &Tile, backend: &SparseBackend, steps: usize) {
        let size = tile.size();
        let mut sparse = backend.unit(size);
        sparse.program(tile);
        let mut ideal = ideal_unit(tile);
        let mut x: Vec<f32> = (0..size).map(|i| (i % 2) as f32).collect();
        let mut ys = vec![0.0_f32; size];
        let mut yi = vec![0.0_f32; size];
        for step in 0..steps {
            match step % 7 {
                // Occasionally rewrite the whole input (high activity)...
                0 => {
                    for (i, v) in x.iter_mut().enumerate() {
                        *v = ((step * 31 + i * 7) % 5) as f32 - 2.0;
                    }
                }
                // ...or change nothing (cache hit)...
                3 => {}
                // ...otherwise flip a couple of entries (late anneal).
                _ => {
                    x[(step * 13) % size] = ((step % 3) as f32) - 1.0;
                    x[(step * 5 + 1) % size] *= -1.0;
                }
            }
            let forward = step % 2 == 0;
            if forward {
                sparse.forward(&x, &mut ys);
                ideal.forward(&x, &mut yi);
            } else {
                sparse.transposed(&x, &mut ys);
                ideal.transposed(&x, &mut yi);
            }
            assert_eq!(
                bits(&ys),
                bits(&yi),
                "divergence at step {step} (forward={forward})"
            );
        }
    }

    #[test]
    fn matches_ideal_bitwise_across_densities_and_crossovers() {
        for &density in &[0.02, 0.3, 1.0] {
            let tile = test_tile(24, density, 0xC0FFEE ^ (density * 100.0) as u64);
            for backend in [
                SparseBackend::with_crossover(1e-12), // effectively always dense
                SparseBackend::with_crossover(0.25),  // genuine mid-run crossover
                SparseBackend::always_sparse(),       // never dense
            ] {
                assert_bitwise_equivalent(&tile, &backend, 60);
            }
        }
    }

    #[test]
    fn always_sparse_never_runs_the_dense_kernel() {
        let tile = test_tile(16, 0.2, 7);
        let mut unit = SparseBackend::always_sparse().unit(16);
        unit.program(&tile);
        let mut y = vec![0.0_f32; 16];
        let mut x = vec![1.0_f32; 16];
        for i in 0..20 {
            x[i % 16] = (i % 3) as f32;
            unit.forward(&x, &mut y);
            unit.transposed(&x, &mut y);
        }
        let (inc, full, dense) = unit.kernel_counts();
        assert_eq!(dense, 0, "always-sparse took a dense fallback");
        assert_eq!(full, 2, "one cold-cache recompute per direction");
        assert!(inc > 0);
    }

    #[test]
    fn tiny_crossover_forces_dense_except_unchanged_inputs() {
        let tile = test_tile(16, 0.5, 9);
        let mut unit = SparseBackend::with_crossover(1e-12).unit(16);
        unit.program(&tile);
        let mut y = vec![0.0_f32; 16];
        let x = vec![1.0_f32; 16];
        unit.forward(&x, &mut y);
        unit.forward(&x, &mut y); // unchanged input: cache hit, no kernel
        let mut x2 = x.clone();
        x2[3] = -1.0;
        unit.forward(&x2, &mut y);
        let (inc, full, dense) = unit.kernel_counts();
        assert_eq!((inc, full, dense), (1, 0, 2));
    }

    #[test]
    fn mid_crossover_switches_kernels_within_one_run() {
        // Sparse tile, θ = 0.5: cold start is full-sparse (nnz below
        // budget), a whole-input rewrite on a denser tile goes dense, a
        // single flip goes incremental.
        let tile = test_tile(16, 0.9, 11);
        let mut unit = SparseBackend::with_crossover(0.5).unit(16);
        unit.program(&tile);
        let mut y = vec![0.0_f32; 16];
        let x = vec![1.0_f32; 16];
        unit.forward(&x, &mut y);
        let (_, full0, dense0) = unit.kernel_counts();
        assert_eq!(full0 + dense0, 1, "cold start runs exactly one full kernel");
        let x2: Vec<f32> = (0..16).map(|i| (i % 3) as f32 - 1.0).collect();
        unit.forward(&x2, &mut y); // ~all inputs changed on a 90% tile → dense
        let (_, _, dense1) = unit.kernel_counts();
        assert!(dense1 > dense0, "high-activity call should fall back dense");
        let mut x3 = x2.clone();
        x3[0] += 1.0;
        unit.forward(&x3, &mut y); // single flip → incremental
        let (inc2, _, dense2) = unit.kernel_counts();
        assert_eq!(dense2, dense1);
        assert!(inc2 > 0);
    }

    #[test]
    fn reprogramming_invalidates_caches() {
        let t1 = test_tile(8, 1.0, 1);
        let t2 = test_tile(8, 1.0, 2);
        let mut unit = SparseBackend::always_sparse().unit(8);
        unit.program(&t1);
        let x = vec![1.0_f32; 8];
        let mut ys = vec![0.0_f32; 8];
        unit.forward(&x, &mut ys);
        unit.program(&t2);
        unit.forward(&x, &mut ys);
        let mut yi = vec![0.0_f32; 8];
        ideal_unit(&t2).forward(&x, &mut yi);
        assert_eq!(bits(&ys), bits(&yi));
    }

    #[test]
    #[should_panic(expected = "before programming")]
    fn unprogrammed_unit_panics() {
        let mut unit = SparseBackend::always_sparse().unit(4);
        let mut y = vec![0.0_f32; 4];
        unit.forward(&[0.0; 4], &mut y);
    }

    #[test]
    fn auto_uses_the_fixed_default_crossover() {
        assert_eq!(
            SparseBackend::auto().crossover().to_bits(),
            DEFAULT_CROSSOVER.to_bits()
        );
    }

    #[test]
    fn from_config_respects_mode_and_override() {
        let sparse_mode = SophieConfig {
            compute: ComputeMode::Sparse,
            sparse_crossover: Some(0.2),
            ..SophieConfig::default()
        };
        assert_eq!(
            SparseBackend::from_config(&sparse_mode).crossover(),
            f64::INFINITY
        );
        let auto_override = SophieConfig {
            sparse_crossover: Some(0.2),
            ..SophieConfig::default()
        };
        assert_eq!(SparseBackend::from_config(&auto_override).crossover(), 0.2);
        let auto = SparseBackend::from_config(&SophieConfig::default());
        assert_eq!(auto.crossover(), DEFAULT_CROSSOVER);
    }
}
