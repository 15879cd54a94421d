//! Stage 3 — global synchronization and partial-sum merge.
//!
//! After the flushed local iterations, this stage rebuilds the shared
//! view of the machine serially (cheap copies and votes): it updates the
//! global spin state per block column — stochastic donor copy or majority
//! vote (§III-A2) — broadcasts the synchronized columns back into every
//! pair's private copies, accounts the synchronization traffic, and
//! regathers the offset vectors for the next round. It reads the pairs'
//! device buffers through the pool by handle; no device commands are
//! issued (the controller's glue work is host-side by construction and
//! reported to the timeline as host records by the caller).

use crate::queue::BufferPool;
use crate::schedule::Round;

use super::state::{MachineState, PairState};
use super::SophieSolver;

/// Synchronizes the machine after one round's local iterations.
///
/// `stochastic_spin` picks the column update: the round's donor copy, or
/// a majority vote over the column's fresh copies. `active_pairs` is the
/// subset of `round.pairs` that actually executed
/// (quarantined pairs are excluded on fault-aware runs; otherwise the two
/// are the same list) — it drives the partial-sum traffic and
/// pair-execution accounting.
pub(super) fn synchronize<U>(
    solver: &SophieSolver,
    ms: &mut MachineState<U>,
    round: &Round,
    stochastic_spin: bool,
    active_pairs: &[usize],
) {
    let t = solver.grid.tile();
    let b = solver.grid.blocks();

    let mut updated_cols = 0u64;
    {
        // Split borrow: the column updates read the pair buffers out of
        // the pool and write the global vector (plus the op tally).
        let MachineState {
            states,
            global,
            ops,
            pool,
            ..
        } = ms;
        for cblock in 0..b {
            if stochastic_spin {
                if let Some(donor) = round.donors[cblock] {
                    let copy = column_copy(solver, states, pool, donor, cblock);
                    global[cblock * t..(cblock + 1) * t].copy_from_slice(copy);
                    updated_cols += 1;
                }
            } else {
                let rows = round.eligible_rows(&solver.pairs, cblock);
                if !rows.is_empty() {
                    majority_update(
                        solver,
                        states,
                        pool,
                        &rows,
                        cblock,
                        &mut global[cblock * t..(cblock + 1) * t],
                    );
                    ops.glue_adds += (rows.len() * t) as u64;
                    updated_cols += 1;
                }
            }
        }
        // Broadcast the synchronized columns to every tile's copy.
        for st in states.iter() {
            st.reset_from_global(pool, global, t);
        }
    }
    ms.ops.spin_broadcast_bits += updated_cols * (b * t) as u64;
    let selected_logical: u64 = active_pairs
        .iter()
        .map(|&pi| solver.pairs[pi].logical_tiles() as u64)
        .sum();
    ms.ops.partial_sum_bits += selected_logical * (t * 8) as u64;
    recompute_offsets(solver, ms);
    ms.ops.global_syncs += 1;
    ms.ops.pairs_executed += active_pairs.len() as u64;
}

/// Offsets `o[r][c] = Σ_{c'≠c} p[r][c']` — the controller's glue
/// computation, gathered from the per-pair partial-sum segments.
pub(super) fn recompute_offsets<U>(solver: &SophieSolver, ms: &mut MachineState<U>) {
    let b = solver.grid.blocks();
    let t = solver.grid.tile();
    let MachineState {
        states,
        offsets,
        ops,
        pool,
        ..
    } = ms;
    let mut rowsum = vec![0.0_f32; t];
    for r in 0..b {
        rowsum.fill(0.0);
        for c in 0..b {
            let p = partial_slot(solver, states, pool, r, c);
            for (s, &v) in rowsum.iter_mut().zip(p) {
                *s += v;
            }
        }
        for c in 0..b {
            let p = partial_slot(solver, states, pool, r, c);
            let base = (r * b + c) * t;
            for i in 0..t {
                offsets[base + i] = rowsum[i] - p[i];
            }
        }
    }
    ops.glue_adds += 2 * (b * b * t) as u64;
}

/// The latest 8-bit partial-sum segment of logical tile `(r, c)`.
fn partial_slot<'a, U>(
    solver: &SophieSolver,
    states: &[PairState<U>],
    pool: &'a BufferPool,
    r: usize,
    c: usize,
) -> &'a [f32] {
    let pi = solver.pair_index(r, c);
    if r <= c {
        pool.get(states[pi].partial_primary)
    } else {
        pool.get(states[pi].partial_partner)
    }
}

/// The spin copy of column `cblock` held at block row `donor`.
fn column_copy<'a, U>(
    solver: &SophieSolver,
    states: &[PairState<U>],
    pool: &'a BufferPool,
    donor: usize,
    cblock: usize,
) -> &'a [f32] {
    let pi = solver.pair_index(donor, cblock);
    if donor <= cblock {
        // Tile (donor, cblock) is the pair's primary: input is x_cblock.
        pool.get(states[pi].primary)
    } else {
        // Pair (cblock, donor): the partner tile (donor, cblock) reads
        // x_cblock as its input copy.
        pool.get(states[pi].partner)
    }
}

/// Majority vote over the fresh copies of column `cblock`.
fn majority_update<U>(
    solver: &SophieSolver,
    states: &[PairState<U>],
    pool: &BufferPool,
    rows: &[usize],
    cblock: usize,
    out: &mut [f32],
) {
    let t = solver.grid.tile();
    let mut votes = vec![0.0_f32; t];
    for &r in rows {
        let copy = column_copy(solver, states, pool, r, cblock);
        for (v, &x) in votes.iter_mut().zip(copy) {
            *v += x;
        }
    }
    let half = rows.len() as f32 / 2.0;
    for (o, &v) in out.iter_mut().zip(&votes) {
        *o = if v >= half { 1.0 } else { 0.0 };
    }
}
