//! Gaussian sampling for the inner simulation loop.
//!
//! The engine draws one noise sample per ADC output per local iteration —
//! hundreds of millions per run on G22-sized graphs — so it uses the polar
//! (Marsaglia) method, which produces two samples per accepted candidate
//! pair and avoids trigonometric calls.
//!
//! [`GaussianSource`] is the one-sample-at-a-time reference: it draws
//! candidate pairs until one is accepted, returns `u·f` and caches `v·f`
//! as the spare. The engine's threshold noise comes from
//! [`GaussianBlock`], which produces the same stream in blocks: it draws
//! [`BLOCK`] candidate pairs in stream order and compacts the accepted
//! ones without a branch, then runs `f64::ln`, the factor
//! `(-2.0 * ln / s).sqrt()` and the two products over the whole block.
//! Every operation is the reference's, on the same operands in the same
//! order, so each sample is bit-equal to `GaussianSource::sample(..) as
//! f32`. Samples a take leaves over wait for the next take, as the spare
//! does. The block draws up to [`BLOCK`] candidates ahead of the last
//! sample taken; a caller whose generator feeds nothing else (the
//! engine's per-`(round, unit)` noise streams) sees no difference.

use rand::Rng;

/// Candidate pairs drawn per refill of a [`GaussianBlock`]; about
/// `π/4` of them are accepted, two samples each.
const BLOCK: usize = 64;

/// A Gaussian sampler that caches the second output of each polar round.
#[derive(Debug, Clone, Default)]
pub struct GaussianSource {
    spare: Option<f64>,
}

impl GaussianSource {
    /// Creates an empty source.
    #[must_use]
    pub fn new() -> Self {
        GaussianSource { spare: None }
    }

    /// Draws one standard-normal sample.
    pub fn sample<R: Rng + ?Sized>(&mut self, rng: &mut R) -> f64 {
        if let Some(s) = self.spare.take() {
            return s;
        }
        loop {
            let u: f64 = rng.gen::<f64>() * 2.0 - 1.0;
            let v: f64 = rng.gen::<f64>() * 2.0 - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                let factor = (-2.0 * s.ln() / s).sqrt();
                self.spare = Some(v * factor);
                return u * factor;
            }
        }
    }
}

/// Block form of [`GaussianSource`] with `f32` output: the same samples,
/// bit for bit, drawn [`BLOCK`] candidate pairs at a time (see the
/// [module docs](self)).
#[derive(Debug, Default)]
pub(crate) struct GaussianBlock {
    /// Samples drawn but not yet taken start at `next`.
    samples: Vec<f32>,
    next: usize,
}

impl GaussianBlock {
    /// The next `n` standard-normal samples, in stream order.
    pub(crate) fn take<R: Rng + ?Sized>(&mut self, rng: &mut R, n: usize) -> &[f32] {
        if self.samples.len() - self.next < n {
            self.samples.drain(..self.next);
            self.next = 0;
            while self.samples.len() < n {
                self.refill(rng);
            }
        }
        let at = self.next;
        self.next += n;
        &self.samples[at..at + n]
    }

    /// Draws [`BLOCK`] candidate pairs and appends the samples of the
    /// accepted ones. A rejected candidate is written to the next free
    /// slot and overwritten by the next candidate, so the draw loop has no
    /// branch.
    fn refill<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        let mut u = [0.0_f64; BLOCK];
        let mut v = [0.0_f64; BLOCK];
        let mut s = [0.0_f64; BLOCK];
        let mut accepted = 0;
        for _ in 0..BLOCK {
            let uc: f64 = rng.gen::<f64>() * 2.0 - 1.0;
            let vc: f64 = rng.gen::<f64>() * 2.0 - 1.0;
            let sc = uc * uc + vc * vc;
            u[accepted] = uc;
            v[accepted] = vc;
            s[accepted] = sc;
            accepted += usize::from(sc > 0.0 && sc < 1.0);
        }
        let mut factor = [0.0_f64; BLOCK];
        for (f, &sk) in factor.iter_mut().zip(&s).take(accepted) {
            *f = sk.ln();
        }
        for (f, &sk) in factor.iter_mut().zip(&s).take(accepted) {
            *f = (-2.0 * *f / sk).sqrt();
        }
        let at = self.samples.len();
        self.samples.resize(at + 2 * accepted, 0.0);
        for (pair, ((&uk, &vk), &f)) in self.samples[at..]
            .chunks_exact_mut(2)
            .zip(u.iter().zip(&v).zip(&factor))
        {
            pair[0] = (uk * f) as f32;
            pair[1] = (vk * f) as f32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::{SmallRng, StdRng};
    use rand::SeedableRng;

    #[test]
    fn moments_match_standard_normal() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut src = GaussianSource::new();
        let n = 200_000;
        let mut sum = 0.0;
        let mut sum2 = 0.0;
        let mut sum3 = 0.0;
        for _ in 0..n {
            let x = src.sample(&mut rng);
            sum += x;
            sum2 += x * x;
            sum3 += x * x * x;
        }
        let mean = sum / n as f64;
        let var = sum2 / n as f64 - mean * mean;
        let skew = sum3 / n as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
        assert!(skew.abs() < 0.05, "skew {skew}");
    }

    #[test]
    fn consecutive_samples_are_not_identical() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut src = GaussianSource::new();
        let a = src.sample(&mut rng);
        let b = src.sample(&mut rng);
        assert_ne!(a, b);
    }

    #[test]
    fn deterministic_under_seed() {
        let draw = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut src = GaussianSource::new();
            (0..10).map(|_| src.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(9), draw(9));
        assert_ne!(draw(9), draw(10));
    }

    /// The block sampler yields `GaussianSource::sample(..) as f32`,
    /// sample for sample, whatever the take sizes: takes smaller than a
    /// block, equal to the engine's tile, and larger than one refill
    /// yields, all carrying leftovers across refills.
    #[test]
    fn block_sampler_matches_the_reference_sample_for_sample() {
        const SIZES: [usize; 6] = [1, 5, 63, 64, 65, 129];
        for seed in [0_u64, 1, 7, 0xDEAD_BEEF, u64::MAX] {
            let mut reference_rng = SmallRng::seed_from_u64(seed);
            let mut reference = GaussianSource::new();
            let mut block_rng = SmallRng::seed_from_u64(seed);
            let mut block = GaussianBlock::default();
            let mut drawn = 0_usize;
            let mut takes = 0_usize;
            while drawn < 100_000 {
                let n = SIZES[(takes + (seed % 6) as usize) % SIZES.len()];
                for (i, &z) in block.take(&mut block_rng, n).iter().enumerate() {
                    let want = reference.sample(&mut reference_rng) as f32;
                    assert_eq!(
                        z.to_bits(),
                        want.to_bits(),
                        "seed {seed}: sample {} (take {takes} of {n}, index {i})",
                        drawn + i
                    );
                }
                drawn += n;
                takes += 1;
            }
        }
    }
}
