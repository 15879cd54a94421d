//! Offline static scheduling (paper §III-D).
//!
//! SOPHIE's controller executes a schedule generated ahead of time by the
//! host: which symmetric tile pairs run in each global iteration
//! (*stochastic tile computation*) and, for each block column, which tile's
//! spin copy is broadcast during synchronization (*stochastic spin update*).
//! Pre-generating all randomness keeps the accelerator's control logic to
//! simple SRAM-backed state machines.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sophie_linalg::{TileGrid, TilePair};

/// One global iteration's worth of scheduling decisions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Round {
    /// Indices into the grid's symmetric-pair list, sorted ascending.
    pub pairs: Vec<usize>,
    /// Per block column: the block row whose spin copy is broadcast, when
    /// the stochastic spin update is enabled and the column has at least
    /// one selected tile. `None` leaves the column's global spins unchanged.
    pub donors: Vec<Option<usize>>,
}

impl Round {
    /// Block rows holding a fresh copy of column `c` in this round — the
    /// candidates for the column's spin update. `pairs` is the grid's
    /// symmetric-pair list the round's indices refer to.
    #[must_use]
    pub fn eligible_rows(&self, pairs: &[TilePair], c: usize) -> Vec<usize> {
        let mut rows = Vec::new();
        for &pi in &self.pairs {
            match pairs[pi] {
                TilePair::Diagonal(b) if b == c => rows.push(b),
                TilePair::OffDiagonal { row, col } if col == c => rows.push(row),
                TilePair::OffDiagonal { row, col } if row == c => rows.push(col),
                _ => {}
            }
        }
        rows
    }
}

/// A complete pre-generated schedule.
#[derive(Debug, Clone)]
pub struct Schedule {
    pairs: Vec<TilePair>,
    blocks: usize,
    rounds: Vec<Round>,
    stochastic_spin: bool,
}

/// Streaming generator producing one [`Round`] at a time.
///
/// [`Schedule::generate`] collects its output. The engine (when a job
/// supplies no schedule) and the analytic op-count path
/// ([`crate::analytic`]) take each round from it as they reach it, so a
/// run holds one round however many it plans, and very large grids
/// (K32768 → 131 328 pairs × 500 rounds) never hold a full schedule.
#[derive(Debug)]
pub struct RoundGenerator {
    pairs: Vec<TilePair>,
    blocks: usize,
    select: usize,
    stochastic_spin: bool,
    rng: StdRng,
    indices: Vec<usize>,
}

impl RoundGenerator {
    /// Starts a generator selecting `ceil(fraction · P)` of the `P`
    /// symmetric pairs per round.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `(0, 1]` (validated earlier by
    /// [`crate::SophieConfig::validate`]).
    #[must_use]
    pub fn new(grid: &TileGrid, fraction: f64, stochastic_spin: bool, seed: u64) -> Self {
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "tile fraction must be in (0, 1]"
        );
        let pairs = grid.symmetric_pairs();
        let select = ((fraction * pairs.len() as f64).ceil() as usize).clamp(1, pairs.len());
        let indices: Vec<usize> = (0..pairs.len()).collect();
        RoundGenerator {
            blocks: grid.blocks(),
            select,
            stochastic_spin,
            rng: StdRng::seed_from_u64(seed),
            indices,
            pairs,
        }
    }

    /// The symmetric-pair list the indices refer to.
    #[must_use]
    pub fn pairs(&self) -> &[TilePair] {
        &self.pairs
    }

    /// Produces the next round's decisions.
    pub fn next_round(&mut self) -> Round {
        // Partial Fisher–Yates: the first `select` entries become the
        // round's random sample.
        for i in 0..self.select {
            let j = self.rng.gen_range(i..self.indices.len());
            self.indices.swap(i, j);
        }
        let mut selected: Vec<usize> = self.indices[..self.select].to_vec();
        selected.sort_unstable();

        // Eligible donors per column: block rows r whose tile (r, c)
        // belongs to a selected pair.
        let mut eligible: Vec<Vec<usize>> = vec![Vec::new(); self.blocks];
        for &pi in &selected {
            match self.pairs[pi] {
                TilePair::Diagonal(b) => eligible[b].push(b),
                TilePair::OffDiagonal { row, col } => {
                    // tile (row, col) holds a copy of column `col`;
                    // tile (col, row) holds a copy of column `row`.
                    eligible[col].push(row);
                    eligible[row].push(col);
                }
            }
        }
        let donors: Vec<Option<usize>> = eligible
            .iter()
            .map(|rows| {
                if rows.is_empty() {
                    None
                } else if self.stochastic_spin {
                    Some(rows[self.rng.gen_range(0..rows.len())])
                } else {
                    // Majority mode resolves donors at sync time; mark the
                    // column as updatable.
                    Some(rows[0])
                }
            })
            .collect();
        Round {
            pairs: selected,
            donors,
        }
    }
}

impl Schedule {
    /// Generates a schedule for `global_iters` rounds, selecting
    /// `ceil(fraction · P)` of the `P` symmetric pairs uniformly at random
    /// each round.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `(0, 1]` (validated earlier by
    /// [`crate::SophieConfig::validate`]).
    #[must_use]
    pub fn generate(
        grid: &TileGrid,
        global_iters: usize,
        fraction: f64,
        stochastic_spin: bool,
        seed: u64,
    ) -> Self {
        let mut gen = RoundGenerator::new(grid, fraction, stochastic_spin, seed);
        let rounds = (0..global_iters).map(|_| gen.next_round()).collect();
        Schedule {
            pairs: gen.pairs,
            blocks: grid.blocks(),
            rounds,
            stochastic_spin,
        }
    }

    /// The grid's symmetric pairs, indexable by the round's pair indices.
    #[must_use]
    pub fn pairs(&self) -> &[TilePair] {
        &self.pairs
    }

    /// Number of block rows/columns.
    #[must_use]
    pub fn blocks(&self) -> usize {
        self.blocks
    }

    /// The scheduled rounds.
    #[must_use]
    pub fn rounds(&self) -> &[Round] {
        &self.rounds
    }

    /// Whether spin updates broadcast a single stochastic copy.
    #[must_use]
    pub fn stochastic_spin(&self) -> bool {
        self.stochastic_spin
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(n: usize, t: usize) -> TileGrid {
        TileGrid::new(n, t).unwrap()
    }

    #[test]
    fn full_fraction_selects_every_pair_every_round() {
        let g = grid(256, 64); // 4 blocks, 10 pairs
        let s = Schedule::generate(&g, 5, 1.0, true, 0);
        assert_eq!(s.rounds().len(), 5);
        for r in s.rounds() {
            assert_eq!(r.pairs.len(), 10);
            // Every column has a donor when every pair is selected.
            assert!(r.donors.iter().all(Option::is_some));
        }
    }

    #[test]
    fn fraction_half_selects_about_half() {
        let g = grid(512, 64); // 8 blocks, 36 pairs
        let s = Schedule::generate(&g, 20, 0.5, true, 1);
        for r in s.rounds() {
            assert_eq!(r.pairs.len(), 18);
        }
    }

    #[test]
    fn selection_varies_across_rounds() {
        let g = grid(512, 64);
        let s = Schedule::generate(&g, 10, 0.5, true, 2);
        let distinct: std::collections::HashSet<_> =
            s.rounds().iter().map(|r| r.pairs.clone()).collect();
        assert!(distinct.len() > 1, "selection should be random per round");
    }

    #[test]
    fn pair_indices_are_valid_and_unique() {
        let g = grid(320, 64); // 5 blocks, 15 pairs
        let s = Schedule::generate(&g, 8, 0.7, true, 3);
        for r in s.rounds() {
            let set: std::collections::HashSet<_> = r.pairs.iter().collect();
            assert_eq!(set.len(), r.pairs.len());
            assert!(r.pairs.iter().all(|&p| p < s.pairs().len()));
        }
    }

    #[test]
    fn donors_hold_fresh_copies() {
        let g = grid(512, 64);
        let s = Schedule::generate(&g, 30, 0.3, true, 4);
        for r in s.rounds() {
            for (c, donor) in r.donors.iter().enumerate() {
                let eligible = r.eligible_rows(s.pairs(), c);
                match donor {
                    Some(d) => assert!(eligible.contains(d), "donor {d} not eligible for col {c}"),
                    None => assert!(eligible.is_empty()),
                }
            }
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let g = grid(256, 64);
        let a = Schedule::generate(&g, 6, 0.6, true, 9);
        let b = Schedule::generate(&g, 6, 0.6, true, 9);
        assert_eq!(a.rounds(), b.rounds());
        let c = Schedule::generate(&g, 6, 0.6, true, 10);
        assert_ne!(a.rounds(), c.rounds());
    }

    #[test]
    fn tiny_fraction_still_selects_one_pair() {
        let g = grid(128, 64); // 2 blocks, 3 pairs
        let s = Schedule::generate(&g, 4, 0.01, true, 5);
        for r in s.rounds() {
            assert_eq!(r.pairs.len(), 1);
        }
    }

    #[test]
    fn single_block_graph_has_one_diagonal_pair() {
        let g = grid(50, 64);
        let s = Schedule::generate(&g, 3, 1.0, true, 6);
        assert_eq!(s.pairs().len(), 1);
        for r in s.rounds() {
            assert_eq!(r.pairs, vec![0]);
            assert_eq!(r.donors, vec![Some(0)]);
        }
    }
}
