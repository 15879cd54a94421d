//! Stage 2 — building each selected pair's local-iteration command chain.
//!
//! For every scheduled pair of a round this stage submits one atomic
//! chain of typed MVM commands to the device queue: `local_iters`
//! recurrent steps against the pair's private spin copies and the offset
//! vectors frozen at the previous synchronization (§III-A1), capped by a
//! fault drain. Execution happens at flush boundaries (see
//! [`super::dispatch`]), fanning independent chains across the worker
//! pool; because each chain touches only its own unit and buffers and
//! draws noise from a counter-derived per-`(round, pair)` stream, traces
//! are bit-identical for every `SOPHIE_THREADS` value.

use sophie_linalg::TilePair;

use super::state::PairState;
use crate::queue::{CommandKind, CommandQueue, MvmDir, Src, ThresholdSpec};

/// Submits one selected pair's full round chain: the local iterations
/// (each MVM carrying its threshold epilogue; the last in 8-bit capture
/// mode saving the partial sums) followed by a fault-report drain.
///
/// The chain's first command carries `starts_round`, so fault-capable
/// backends draw this round's transient-fault schedule (keyed by
/// (fault seed, round, unit id) — identical under any scheduling) before
/// the first array read. The chain is atomic: callers flush only at
/// chain boundaries, never mid-pair, so the pair's per-round noise
/// stream never spans a flush.
pub(super) fn submit_pair<U>(queue: &mut CommandQueue, st: &PairState<U>, local_iters: usize) {
    for l in 0..local_iters {
        let first = l == 0;
        let last = l + 1 == local_iters;
        match st.pair {
            TilePair::Diagonal(d) => {
                queue.submit(
                    st.index,
                    first,
                    CommandKind::Mvm {
                        dir: MvmDir::Forward,
                        input: Src::Buf(st.primary),
                        output: st.y,
                        quantize: last,
                        save_partial: last.then_some(st.partial_primary),
                        threshold: Some(ThresholdSpec {
                            tile_row: d,
                            tile_col: d,
                            out_block: d,
                            dest: st.primary,
                        }),
                    },
                );
            }
            TilePair::OffDiagonal { row, col } => {
                // Tile (row, col): x_col → y_row.
                queue.submit(
                    st.index,
                    first,
                    CommandKind::Mvm {
                        dir: MvmDir::Forward,
                        input: Src::Buf(st.primary),
                        output: st.y,
                        quantize: last,
                        save_partial: last.then_some(st.partial_primary),
                        threshold: Some(ThresholdSpec {
                            tile_row: row,
                            tile_col: col,
                            out_block: row,
                            dest: st.partner,
                        }),
                    },
                );
                // Tile (col, row) = transpose: x_row → y_col.
                queue.submit(
                    st.index,
                    false,
                    CommandKind::Mvm {
                        dir: MvmDir::Transposed,
                        input: Src::Buf(st.partner),
                        output: st.y,
                        quantize: last,
                        save_partial: last.then_some(st.partial_partner),
                        threshold: Some(ThresholdSpec {
                            tile_row: col,
                            tile_col: row,
                            out_block: col,
                            dest: st.primary,
                        }),
                    },
                );
            }
        }
    }
    // Drain the round's transient-fault reports at the exact point the
    // unit finished its solve MVMs (an empty, allocation-free drain on
    // ideal hardware). Completion order keeps the event stream in
    // ascending pair order.
    queue.submit(st.index, false, CommandKind::CollectFaults);
}
