//! Gaussian noise generation and the φ-scaling convention.
//!
//! PRIS perturbs each matrix-vector product with Gaussian noise
//! (`X ~ N(C·S | φ)`, paper Eq. 5). In hardware the noise generator is
//! tuned so the *total* analog noise has standard deviation φ regardless of
//! the device (paper §III-C); in the functional simulator we apply it
//! directly.
//!
//! **Scaling convention.** Raw matrix entries grow with graph order, so a
//! fixed absolute φ would not transfer across graphs. Like the reference
//! PRIS implementation, φ is expressed relative to the per-row signal
//! magnitude: the noise added to component `i` has standard deviation
//! `φ · ρ_i` with `ρ_i = ½ Σ_j |C_ij|` (the scale of the thresholding
//! comparison). This keeps the interesting φ range near `[0.05, 1]` for
//! every benchmark graph, matching the paper's Fig. 6 axis.

use rand::Rng;

/// Draws one standard-normal sample using the Box–Muller transform.
///
/// `rand` 0.8 ships only uniform primitives (the normal distribution lives
/// in `rand_distr`, which is outside the allowed dependency set), so the
/// transform is implemented here.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Avoid ln(0) by sampling u1 from the half-open (0, 1].
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Per-row noise scales `ρ_i = ½ Σ_j |c_ij|` for a row-major matrix buffer.
#[must_use]
pub fn row_scales(c: &sophie_linalg::Matrix) -> Vec<f64> {
    (0..c.rows())
        .map(|r| 0.5 * c.row(r).iter().map(|x| x.abs()).sum::<f64>())
        .collect()
}

/// A reusable Gaussian noise source with per-component scales.
#[derive(Debug, Clone)]
pub struct NoiseModel {
    phi: f64,
    scales: Vec<f64>,
}

impl NoiseModel {
    /// Creates a noise model with level `phi` and per-component scales.
    ///
    /// # Errors
    ///
    /// Returns [`crate::PrisError::BadNoise`] if `phi` is negative or NaN.
    pub fn new(phi: f64, scales: Vec<f64>) -> crate::Result<Self> {
        if phi < 0.0 || phi.is_nan() {
            return Err(crate::PrisError::BadNoise { phi });
        }
        Ok(NoiseModel { phi, scales })
    }

    /// The configured noise level φ.
    #[must_use]
    pub fn phi(&self) -> f64 {
        self.phi
    }

    /// Adds noise to every component of `x` in place.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.len()`.
    pub fn perturb<R: Rng + ?Sized>(&self, x: &mut [f64], rng: &mut R) {
        assert_eq!(x.len(), self.scales.len(), "noise model length mismatch");
        if self.phi == 0.0 {
            return;
        }
        for (xi, &s) in x.iter_mut().zip(&self.scales) {
            *xi += self.phi * s * standard_normal(rng);
        }
    }

    /// Number of components.
    #[must_use]
    pub fn len(&self) -> usize {
        self.scales.len()
    }

    /// True if the model covers zero components.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.scales.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn zero_phi_is_exact_passthrough() {
        let m = NoiseModel::new(0.0, vec![1.0; 4]).unwrap();
        let mut x = vec![1.0, 2.0, 3.0, 4.0];
        let mut rng = StdRng::seed_from_u64(0);
        m.perturb(&mut x, &mut rng);
        assert_eq!(x, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn negative_phi_is_rejected() {
        assert!(NoiseModel::new(-0.1, vec![1.0]).is_err());
        assert!(NoiseModel::new(f64::NAN, vec![1.0]).is_err());
    }

    #[test]
    fn perturbation_scales_with_component_scale() {
        let m = NoiseModel::new(1.0, vec![0.0, 10.0]).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let mut devs0 = 0.0_f64;
        let mut devs1 = 0.0_f64;
        for _ in 0..2000 {
            let mut x = vec![0.0, 0.0];
            m.perturb(&mut x, &mut rng);
            devs0 += x[0].abs();
            devs1 += x[1].abs();
        }
        assert_eq!(devs0, 0.0);
        assert!(devs1 > 0.0);
    }

    #[test]
    fn row_scales_match_half_abs_row_sums() {
        let c = sophie_linalg::Matrix::from_rows(&[&[1.0, -3.0], &[0.0, 2.0]]).unwrap();
        assert_eq!(row_scales(&c), vec![2.0, 1.0]);
    }

    #[test]
    fn len_and_empty() {
        let m = NoiseModel::new(0.5, vec![]).unwrap();
        assert!(m.is_empty());
        assert_eq!(m.len(), 0);
    }
}
