//! Stage glue between the engine and the device runtime: builds unit
//! lanes over the pair states, flushes the [`CommandQueue`], folds each
//! completion's exact cost record into the owning pair's tally, streams
//! the records to the run's [`TimelineSink`], and collects the artifacts
//! the driving thread consumes after the flush (probe residuals,
//! fault-report drains).
//!
//! This module is the only place engine code touches `MvmUnit`s — and it
//! does so solely by handing exclusive lane borrows to the queue
//! executor. The stage modules themselves never call unit methods
//! (enforced by a CI grep gate).

use sophie_linalg::KernelPlan;

use super::state::{MachineState, PairState};
use super::SophieSolver;
use crate::backend::{FaultReport, MvmBackend, MvmUnit};
use crate::queue::{
    CommandKind, CommandQueue, Completion, ExecCtx, Lane, MvmDir, Src, TimelineSink,
};

/// What a round's flush produced beyond machine-state mutation: the
/// per-pair probe residuals and drained fault reports the driving thread
/// turns into events after the flush.
///
/// Completions arrive in `(round, wave, unit)` order; call
/// [`RoundArtifacts::sort`] before consuming so emission follows
/// ascending pair order.
#[derive(Debug, Default)]
pub(super) struct RoundArtifacts {
    /// `(pair, residual)` of every completed probe command.
    pub probe_residuals: Vec<(usize, f64)>,
    /// `(pair, reports)` of every non-empty fault drain, reports in
    /// firing order.
    pub fault_stash: Vec<(usize, Vec<FaultReport>)>,
}

impl RoundArtifacts {
    /// Orders both artifact lists by pair index (each pair contributes at
    /// most one probe and one drain per round, so the order is total).
    pub fn sort(&mut self) {
        self.probe_residuals.sort_by_key(|&(pi, _)| pi);
        self.fault_stash.sort_by_key(|&(pi, _)| pi);
    }
}

/// Builds the flush context from the solver's frozen tables, the
/// machine's shared vectors and the kernel plan resolved at run start.
fn exec_ctx<'a>(
    solver: &'a SophieSolver,
    global: &'a [f32],
    offsets: &'a [f32],
    plan: KernelPlan,
    seed: u64,
    probe_seed: u64,
) -> ExecCtx<'a> {
    ExecCtx {
        tiles: &solver.tiles,
        thresholds: &solver.thresholds,
        noise_scale: &solver.noise_scale,
        offsets,
        global,
        t: solver.grid.tile(),
        b: solver.grid.blocks(),
        seed,
        probe_seed,
        phi: solver.config.phi as f32,
        plan,
    }
}

/// Folds a batch of completions into the owning pairs' tallies, streams
/// them to the timeline, and extracts the round artifacts.
fn fold<U>(
    states: &mut [PairState<U>],
    completions: Vec<Completion>,
    timeline: &mut dyn TimelineSink,
    art: &mut RoundArtifacts,
) {
    for c in completions {
        let pi = c.key.unit as usize;
        let st = &mut states[pi];
        st.ops = st.ops.combined(&c.cost);
        timeline.device(&c);
        if let Some(residual) = c.residual {
            art.probe_residuals.push((pi, residual));
        }
        if !c.faults.is_empty() {
            art.fault_stash.push((pi, c.faults));
        }
    }
}

/// Flushes everything pending, fanning independent unit chains across
/// the worker pool.
pub(super) fn flush_all<U: MvmUnit>(
    solver: &SophieSolver,
    ms: &mut MachineState<U>,
    seed: u64,
    probe_seed: u64,
    timeline: &mut dyn TimelineSink,
    art: &mut RoundArtifacts,
) {
    let MachineState {
        states,
        global,
        offsets,
        pool,
        queue,
        plan,
        ..
    } = ms;
    let ctx = exec_ctx(solver, global, offsets, *plan, seed, probe_seed);
    let completions = {
        let mut lanes: Vec<Lane<'_, U>> = states
            .iter_mut()
            .map(|st| Lane {
                unit_index: st.index,
                unit: &mut st.unit,
            })
            .collect();
        queue.flush(&mut lanes, pool, &ctx)
    };
    fold(states, completions, timeline, art);
}

/// Flushes everything pending serially in ascending unit order on the
/// calling thread — for setup programming (backends may hand out unit
/// identity from shared counters, so the order must not depend on
/// timing).
pub(super) fn flush_all_serial<B: MvmBackend>(
    solver: &SophieSolver,
    backend: &B,
    ms: &mut MachineState<B::Unit>,
    seed: u64,
    probe_seed: u64,
    timeline: &mut dyn TimelineSink,
    art: &mut RoundArtifacts,
) {
    let MachineState {
        states,
        global,
        offsets,
        pool,
        queue,
        plan,
        ..
    } = ms;
    let ctx = exec_ctx(solver, global, offsets, *plan, seed, probe_seed);
    let completions = {
        let mut lanes: Vec<Lane<'_, B::Unit>> = states
            .iter_mut()
            .map(|st| Lane {
                unit_index: st.index,
                unit: &mut st.unit,
            })
            .collect();
        queue.flush_serial(backend, &mut lanes, pool, &ctx)
    };
    fold(states, completions, timeline, art);
}

/// Serial mini-flush over a single unit — the recovery path, which needs
/// backend access for `Remap` spares and runs on the driving thread.
/// Returns the residual of the last probe completion, if any.
pub(super) fn flush_unit_serial<B: MvmBackend>(
    solver: &SophieSolver,
    backend: &B,
    ms: &mut MachineState<B::Unit>,
    pair: usize,
    seed: u64,
    probe_seed: u64,
    timeline: &mut dyn TimelineSink,
) -> Option<f64> {
    let MachineState {
        states,
        global,
        offsets,
        pool,
        queue,
        plan,
        ..
    } = ms;
    let ctx = exec_ctx(solver, global, offsets, *plan, seed, probe_seed);
    let st = &mut states[pair];
    let completions = {
        let mut lanes = [Lane {
            unit_index: st.index,
            unit: &mut st.unit,
        }];
        queue.flush_serial(backend, &mut lanes, pool, &ctx)
    };
    let mut residual = None;
    for c in completions {
        assert_eq!(c.key.unit as usize, pair, "mini-flush crossed units");
        st.ops = st.ops.combined(&c.cost);
        if c.residual.is_some() {
            residual = c.residual;
        }
        timeline.device(&c);
    }
    residual
}

/// Submits the commands that recompute a pair's partial sums from the
/// current global state (the first 8-bit pass of setup, and the refresh
/// after a successful recovery): no noise, no thresholding, inputs read
/// straight from the shared global vector, outputs written directly into
/// the partial buffers.
pub(super) fn submit_partial_refresh<U>(queue: &mut CommandQueue, st: &PairState<U>) {
    match st.pair {
        sophie_linalg::TilePair::Diagonal(d) => {
            queue.submit(
                st.index,
                false,
                CommandKind::Mvm {
                    dir: MvmDir::Forward,
                    input: Src::GlobalBlock(d),
                    output: st.partial_primary,
                    quantize: true,
                    save_partial: None,
                    threshold: None,
                },
            );
        }
        sophie_linalg::TilePair::OffDiagonal { row, col } => {
            queue.submit(
                st.index,
                false,
                CommandKind::Mvm {
                    dir: MvmDir::Forward,
                    input: Src::GlobalBlock(col),
                    output: st.partial_primary,
                    quantize: true,
                    save_partial: None,
                    threshold: None,
                },
            );
            queue.submit(
                st.index,
                false,
                CommandKind::Mvm {
                    dir: MvmDir::Transposed,
                    input: Src::GlobalBlock(row),
                    output: st.partial_partner,
                    quantize: true,
                    save_partial: None,
                    threshold: None,
                },
            );
        }
    }
}

/// Records a host-side op-count mutation on the timeline: snapshot
/// `ms.ops` before the stage, run it, report the delta.
pub(super) fn host_record<U, R>(
    ms: &mut MachineState<U>,
    round: u64,
    stage: &'static str,
    timeline: &mut dyn TimelineSink,
    f: impl FnOnce(&mut MachineState<U>) -> R,
) -> R {
    let before = ms.ops;
    let out = f(ms);
    timeline.host(round, stage, &ms.ops.delta_since(&before));
    out
}
