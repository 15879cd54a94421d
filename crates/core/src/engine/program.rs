//! Stage 1 — unit programming and state upload.
//!
//! Programs every pair's primary tile into a physical MVM unit, seeds the
//! global spin state (random or warm-started), computes the first 8-bit
//! partial sums, primes each pair's private spin copies, and gathers the
//! initial offset vectors. After this stage the machine is exactly at
//! "round 0": the state every subsequent round iterates from.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sophie_linalg::KernelPlan;

use super::dispatch::{self, RoundArtifacts};
use super::state::{MachineState, PairState};
use super::{sync, SophieSolver};
use crate::backend::MvmBackend;
use crate::queue::{BufferPool, CommandKind, CommandQueue, TimelineSink};

/// Builds the programmed machine for one run.
///
/// Unit creation and tile programming stay serial in ascending pair
/// order: backends may hand out unit ids from a shared counter, and the
/// id ↔ pair mapping must not depend on timing. The first partial-sum
/// pass is submitted as per-pair MVM commands and flushed across the
/// worker pool — one independent chain per pair.
///
/// On return the per-pair tallies have been drained, so `ms.ops` is the
/// complete setup cost (the `ops_delta` of the round-0 `GlobalSync`
/// event). A warm start's length was checked by
/// [`SophieSolver::solve_job`].
pub(super) fn program<B: MvmBackend>(
    solver: &SophieSolver,
    backend: &B,
    seed: u64,
    initial_bits: Option<&[bool]>,
    probe_seed: u64,
    timeline: &mut dyn TimelineSink,
) -> MachineState<B::Unit> {
    let t = solver.grid.tile();
    let b = solver.grid.blocks();

    let mut pool = BufferPool::new();
    let states: Vec<PairState<B::Unit>> = solver
        .pairs
        .iter()
        .enumerate()
        .map(|(pi, &pair)| PairState::new(pair, pi, backend.unit(t), t, &mut pool))
        .collect();
    let mut queue = CommandQueue::new(states.len());
    for st in &states {
        queue.submit(st.index, false, CommandKind::ProgramTile);
    }

    // Global spin state, padded; padding stays 0 and couples to nothing.
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut global = vec![0.0_f32; solver.grid.padded_len()];
    match initial_bits {
        Some(bits) => {
            debug_assert_eq!(bits.len(), solver.n, "initial state length mismatch");
            for (g, &bit) in global.iter_mut().zip(bits) {
                *g = if bit { 1.0 } else { 0.0 };
            }
        }
        None => {
            for g in global.iter_mut().take(solver.n) {
                *g = if rng.gen_bool(0.5) { 1.0 } else { 0.0 };
            }
        }
    }

    let mut ms = MachineState {
        states,
        global,
        offsets: vec![0.0_f32; b * b * t],
        ops: sophie_solve::OpCounts::new(),
        pool,
        queue,
        plan: KernelPlan::resolve(t),
    };

    // Program every tile (serial flush: the OPCM write order is part of
    // the device contract).
    let mut art = RoundArtifacts::default();
    dispatch::flush_all_serial(
        solver, backend, &mut ms, seed, probe_seed, timeline, &mut art,
    );

    // Initial partial sums — every tile's contribution to its block row —
    // as one parallel flush of per-pair MVM chains reading the fresh
    // global state.
    {
        let MachineState { states, queue, .. } = &mut ms;
        for st in states.iter() {
            dispatch::submit_partial_refresh(queue, st);
        }
    }
    dispatch::flush_all(solver, &mut ms, seed, probe_seed, timeline, &mut art);
    debug_assert!(art.probe_residuals.is_empty() && art.fault_stash.is_empty());

    // Private spin copies: pure host-side copies of the global state.
    {
        let MachineState {
            states,
            global,
            pool,
            ..
        } = &mut ms;
        for st in states.iter() {
            st.reset_from_global(pool, global, t);
        }
    }

    dispatch::host_record(&mut ms, 0, "recompute_offsets", timeline, |ms| {
        sync::recompute_offsets(solver, ms);
    });
    ms.drain_pair_ops();
    ms
}
