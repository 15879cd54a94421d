//! Per-run mutable state shared by the engine's stages.
//!
//! [`MachineState`] is the "machine" the stages operate on: the programmed
//! MVM units with their private spin copies ([`PairState`]), the global
//! spin vector, the frozen offset vectors, the run's operation tally, and
//! the device-runtime pieces — the [`BufferPool`] holding every
//! device-visible buffer and the [`CommandQueue`] the stages submit typed
//! commands to. The stage modules ([`super::program`], [`super::round`],
//! [`super::sync`], [`super::track`]) each mutate a well-defined slice of
//! it; device work flows exclusively through the queue (see
//! [`super::dispatch`]).

use sophie_linalg::{KernelPlan, TilePair};
use sophie_solve::OpCounts;

use crate::queue::{BufferHandle, BufferPool, CommandQueue};

/// Everything one run mutates: pair states, the global spin vector, the
/// offset vectors frozen between synchronizations, the operation totals
/// accumulated so far, and the device runtime (buffer pool + command
/// queue).
#[derive(Debug)]
pub(super) struct MachineState<U> {
    /// One entry per symmetric tile pair, in pair-list order.
    pub states: Vec<PairState<U>>,
    /// Global spin state, padded; padding stays 0 and couples to nothing.
    pub global: Vec<f32>,
    /// Per-logical-tile offset vectors (`b²·t` values): read-only during
    /// local iterations, regathered at every synchronization.
    pub offsets: Vec<f32>,
    /// Run-total operation counts. Host-side stages add to this directly
    /// (each such addition is reported to the timeline as a host record);
    /// per-pair tallies fed by command completions are folded in via
    /// [`MachineState::drain_pair_ops`].
    pub ops: OpCounts,
    /// Every device-visible buffer of the run (spin copies, partial sums,
    /// MVM scratch), addressed by the handles in [`PairState`].
    pub pool: BufferPool,
    /// The device command queue all stages submit to.
    pub queue: CommandQueue,
    /// Kernel plan of the run's reference computations (probe
    /// expectations), resolved once when the run starts.
    pub plan: KernelPlan,
}

impl<U> MachineState<U> {
    /// Folds every pair's private tally into the run total, zeroing the
    /// per-pair counters.
    ///
    /// Called once per round (and once after setup) in fixed pair order;
    /// because `u64` addition is exact and commutative the final totals
    /// are identical to folding once at the end of the run, while the
    /// intermediate totals give the per-round deltas the observer layer
    /// reports.
    pub fn drain_pair_ops(&mut self) {
        for st in &mut self.states {
            let taken = std::mem::take(&mut st.ops);
            self.ops = self.ops.combined(&taken);
        }
    }
}

/// Per-pair mutable state: the pair's physical unit, handles to its
/// private spin copies, latest partial-sum segments and MVM scratch in
/// the run's [`BufferPool`], and its op tally.
///
/// During a flush each unit's command chain is executed by exactly one
/// pool task, and a chain touches only its own unit and buffers — which
/// is what makes the fan-out race-free without locks.
#[derive(Debug)]
pub(super) struct PairState<U> {
    pub pair: TilePair,
    /// Position in the solver's pair list (= the unit lane index and the
    /// RNG sub-stream id).
    pub index: usize,
    pub unit: U,
    /// Copy of `x_col` — input of the primary tile `(row, col)`.
    pub primary: BufferHandle,
    /// Copy of `x_row` — input of the partner tile `(col, row)`;
    /// zero-length for diagonal pairs.
    pub partner: BufferHandle,
    /// Latest 8-bit partial sum produced by the primary tile.
    pub partial_primary: BufferHandle,
    /// Latest 8-bit partial sum of the partner tile; zero-length for
    /// diagonals.
    pub partial_partner: BufferHandle,
    /// MVM output scratch.
    pub y: BufferHandle,
    /// Operations attributed to this pair since the last drain — fed by
    /// the pair's command completions.
    pub ops: OpCounts,
    /// Set when the health monitor quarantined this pair (graceful
    /// degradation): it is skipped by round execution and its partial
    /// sums stay zeroed. Never set on non-fault-aware runs.
    pub disabled: bool,
}

impl<U> PairState<U> {
    pub fn new(pair: TilePair, index: usize, unit: U, t: usize, pool: &mut BufferPool) -> Self {
        let off = matches!(pair, TilePair::OffDiagonal { .. });
        let side = |off: bool| if off { t } else { 0 };
        PairState {
            pair,
            index,
            unit,
            primary: pool.alloc(t),
            partner: pool.alloc(side(off)),
            partial_primary: pool.alloc(t),
            partial_partner: pool.alloc(side(off)),
            y: pool.alloc(t),
            ops: OpCounts::new(),
            disabled: false,
        }
    }

    /// Refreshes this pair's private spin copies from the global state
    /// (pure host-side copies; no device commands).
    pub fn reset_from_global(&self, pool: &mut BufferPool, global: &[f32], t: usize) {
        match self.pair {
            TilePair::Diagonal(d) => {
                pool.get_mut(self.primary)
                    .copy_from_slice(&global[d * t..(d + 1) * t]);
            }
            TilePair::OffDiagonal { row, col } => {
                pool.get_mut(self.primary)
                    .copy_from_slice(&global[col * t..(col + 1) * t]);
                pool.get_mut(self.partner)
                    .copy_from_slice(&global[row * t..(row + 1) * t]);
            }
        }
    }
}

/// Thresholds the first `n` (unpadded) entries of the global state into
/// bits.
pub(super) fn global_bits(global: &[f32], n: usize) -> Vec<bool> {
    global[..n].iter().map(|&x| x > 0.5).collect()
}
