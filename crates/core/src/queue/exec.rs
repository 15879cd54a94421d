//! Command execution: per-unit chains, parallel fan-out, and exact
//! per-command cost records.
//!
//! A flush groups the pending commands by unit (submission order is
//! preserved within a unit), checks every referenced buffer out of the
//! pool, and executes each unit's chain as one task — in parallel across
//! the worker pool ([`flush_parallel`]) or in ascending unit order on the
//! calling thread ([`flush_serial`]). Because every chain touches only
//! its own unit and buffers, and all randomness comes from
//! counter-derived per-`(round, unit)` streams, the completions (and the
//! machine state they leave behind) are bit-identical for every
//! `SOPHIE_THREADS` value.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sophie_linalg::{par, KernelPlan, Tile};
use sophie_solve::OpCounts;

use super::buffer::{BufferHandle, BufferPool};
use super::command::{
    Command, CommandKind, CommandQueue, Completion, Lane, MvmDir, Src, ThresholdSpec,
};
use super::{noise_rng, noise_stream_seed, vec_at};
use crate::backend::{MvmBackend, MvmUnit};
use crate::gaussian::GaussianBlock;

/// Floor on the probe-residual denominator, guarding all-zero tiles
/// (whose exact product is identically zero).
const DENOM_FLOOR: f32 = 1e-6;

/// Read-only execution context of one flush: the solver's frozen tables
/// plus the run's RNG seeds. Everything a command needs beyond its unit
/// and buffers.
#[derive(Debug, Clone, Copy)]
pub struct ExecCtx<'a> {
    /// Primary tile of each pair (exact values; probe references).
    pub tiles: &'a [Tile],
    /// Per-node thresholds, padded (`b·t` values).
    pub thresholds: &'a [f32],
    /// Per-node noise scales, padded.
    pub noise_scale: &'a [f32],
    /// Per-logical-tile offset vectors (`b²·t` values), frozen at the
    /// last synchronization.
    pub offsets: &'a [f32],
    /// Global spin vector (read-only during a flush; [`Src::GlobalBlock`]
    /// inputs resolve here).
    pub global: &'a [f32],
    /// Tile edge length.
    pub t: usize,
    /// Blocks per matrix side.
    pub b: usize,
    /// Job seed (threshold-noise streams).
    pub seed: u64,
    /// Health probe seed (probe-vector streams); unused when no probes
    /// are submitted.
    pub probe_seed: u64,
    /// Noise level φ.
    pub phi: f32,
    /// Kernel plan of this run: the executor's reference computations
    /// (probe expectations) go through it.
    pub plan: KernelPlan,
}

/// Checked-out buffer storage of one unit chain.
///
/// A handle's storage is moved out for the duration of one command step
/// and moved back afterwards, so a step can hold its input and output
/// simultaneously without aliasing (handles within a step are always
/// distinct; across steps the same handle may serve different roles).
struct Workspace {
    slots: Vec<(BufferHandle, Option<Vec<f32>>)>,
}

impl Workspace {
    fn checkout(handles: &[BufferHandle], pool: &mut BufferPool) -> Self {
        Workspace {
            slots: handles.iter().map(|&h| (h, Some(pool.take(h)))).collect(),
        }
    }

    fn restore(self, pool: &mut BufferPool) {
        for (h, data) in self.slots {
            pool.restore(h, data.expect("buffer not returned to workspace"));
        }
    }

    fn take(&mut self, h: BufferHandle) -> Vec<f32> {
        self.slots
            .iter_mut()
            .find(|(sh, _)| *sh == h)
            .expect("command names a buffer outside its checkout set")
            .1
            .take()
            .expect("buffer taken twice within one step")
    }

    fn put(&mut self, h: BufferHandle, data: Vec<f32>) {
        let slot = self
            .slots
            .iter_mut()
            .find(|(sh, _)| *sh == h)
            .expect("command names a buffer outside its checkout set");
        assert!(slot.1.is_none(), "buffer returned twice");
        slot.1 = Some(data);
    }
}

/// Collects the distinct buffer handles a chain references.
fn chain_handles(cmds: &[Command]) -> Vec<BufferHandle> {
    let mut handles: Vec<BufferHandle> = Vec::new();
    let add = |h: BufferHandle, handles: &mut Vec<BufferHandle>| {
        if !handles.contains(&h) {
            handles.push(h);
        }
    };
    for cmd in cmds {
        if let CommandKind::Mvm {
            input,
            output,
            save_partial,
            threshold,
            ..
        } = cmd.kind
        {
            if let Src::Buf(h) = input {
                add(h, &mut handles);
            }
            add(output, &mut handles);
            if let Some(h) = save_partial {
                add(h, &mut handles);
            }
            if let Some(spec) = threshold {
                add(spec.dest, &mut handles);
            }
        }
    }
    handles
}

/// Per-`(round, unit)` threshold-noise state, created at first use within
/// a chain (creation draws nothing, so lazy creation matches the legacy
/// once-per-round construction exactly). Its block sampler carries the
/// samples one threshold leaves over to the chain's next threshold.
struct NoiseState {
    round: u64,
    rng: SmallRng,
    gauss: GaussianBlock,
}

/// Executes one unit's command chain in submission order, appending one
/// completion per command.
fn exec_chain<U: MvmUnit>(
    unit_index: usize,
    unit: &mut U,
    cmds: &[Command],
    ws: &mut Workspace,
    ctx: &ExecCtx<'_>,
    mut spare: Option<&mut dyn FnMut() -> U>,
    out: &mut Vec<Completion>,
) {
    let t = ctx.t;
    let cell_count = (t * t) as u64;
    let mut noise: Option<NoiseState> = None;
    for cmd in cmds {
        if cmd.starts_round {
            unit.begin_round(cmd.round);
        }
        let mut cost = OpCounts::new();
        let mut residual = None;
        let mut faults = Vec::new();
        let mut macs = 0_u64;
        let mut cells = 0_u64;
        let kind = match cmd.kind {
            CommandKind::ProgramTile => {
                unit.program(&ctx.tiles[unit_index]);
                cost.tiles_programmed += 1;
                cells = cell_count;
                "program_tile"
            }
            CommandKind::Reprogram => {
                unit.program(&ctx.tiles[unit_index]);
                cost.tiles_programmed += 1;
                cost.recovery_reprograms += 1;
                cells = cell_count;
                "reprogram"
            }
            CommandKind::Remap => {
                let fresh = spare
                    .as_mut()
                    .expect("Remap requires a serial flush with backend access");
                *unit = fresh();
                unit.program(&ctx.tiles[unit_index]);
                cost.tiles_programmed += 1;
                cost.recovery_reprograms += 1;
                cost.units_remapped += 1;
                cells = cell_count;
                "remap"
            }
            CommandKind::CollectFaults => {
                faults = unit.take_fault_reports();
                "collect_faults"
            }
            CommandKind::Probe => {
                residual = Some(run_probe(unit_index, unit, ctx, &mut cost));
                macs = cell_count;
                cells = cell_count;
                "probe"
            }
            CommandKind::Mvm {
                dir,
                input,
                output,
                quantize,
                save_partial,
                threshold,
            } => {
                run_mvm(
                    unit_index,
                    unit,
                    ctx,
                    ws,
                    &mut noise,
                    cmd.round,
                    dir,
                    input,
                    output,
                    quantize,
                    save_partial,
                    threshold,
                    &mut cost,
                );
                macs = cell_count;
                cells = cell_count;
                match dir {
                    MvmDir::Forward => "mvm_forward",
                    MvmDir::Transposed => "mvm_transposed",
                }
            }
        };
        out.push(Completion {
            key: cmd.key(),
            kind,
            cost,
            macs,
            cells,
            residual,
            faults,
        });
    }
}

/// One MVM command: array read, optional 8-bit capture, optional partial
/// save, optional threshold epilogue. Counts follow the legacy stage
/// accounting exactly: threshold reads charge the noise injector, plain
/// partial refreshes do not.
#[allow(clippy::too_many_arguments)]
fn run_mvm<U: MvmUnit>(
    unit_index: usize,
    unit: &mut U,
    ctx: &ExecCtx<'_>,
    ws: &mut Workspace,
    noise: &mut Option<NoiseState>,
    round: u64,
    dir: MvmDir,
    input: Src,
    output: BufferHandle,
    quantize: bool,
    save_partial: Option<BufferHandle>,
    threshold: Option<ThresholdSpec>,
    cost: &mut OpCounts,
) {
    let t = ctx.t;
    let mut y = ws.take(output);
    match input {
        Src::GlobalBlock(d) => {
            let x = &ctx.global[d * t..(d + 1) * t];
            match dir {
                MvmDir::Forward => unit.forward(x, &mut y),
                MvmDir::Transposed => unit.transposed(x, &mut y),
            }
        }
        Src::Buf(h) => {
            let x = ws.take(h);
            match dir {
                MvmDir::Forward => unit.forward(&x, &mut y),
                MvmDir::Transposed => unit.transposed(&x, &mut y),
            }
            ws.put(h, x);
        }
    }
    if quantize {
        unit.quantize_8bit(&mut y);
        cost.tile_mvms_8bit += 1;
        cost.adc_8bit_samples += t as u64;
    } else {
        cost.tile_mvms_1bit += 1;
        cost.adc_1bit_samples += t as u64;
    }
    cost.eo_input_bits += t as u64;
    if let Some(h) = save_partial {
        let mut p = ws.take(h);
        p.copy_from_slice(&y);
        ws.put(h, p);
    }
    if let Some(spec) = threshold {
        cost.noise_injections += t as u64;
        let st = noise.get_or_insert_with(|| NoiseState {
            round,
            rng: noise_rng(ctx.seed, round, unit_index as u64),
            gauss: GaussianBlock::default(),
        });
        assert_eq!(st.round, round, "threshold chain spans rounds");
        let theta = &ctx.thresholds[spec.out_block * t..(spec.out_block + 1) * t];
        let scale = &ctx.noise_scale[spec.out_block * t..(spec.out_block + 1) * t];
        let offset = &ctx.offsets[vec_at(ctx.b, t, spec.tile_row, spec.tile_col)];
        let mut dest = ws.take(spec.dest);
        // Branch-free: the spin is `(y + offset) + (φ·scale)·z >= θ` as 0/1.
        let outs = dest.iter_mut().zip(theta);
        if ctx.phi > 0.0 {
            let z = st.gauss.take(&mut st.rng, t);
            let ins = y.iter().zip(offset).zip(scale.iter().zip(z));
            for ((d, &th), ((&yi, &oi), (&si, &zi))) in outs.zip(ins) {
                *d = f32::from(u8::from((yi + oi) + (ctx.phi * si) * zi >= th));
            }
        } else {
            for ((d, &th), (&yi, &oi)) in outs.zip(y.iter().zip(offset)) {
                *d = f32::from(u8::from(yi + oi >= th));
            }
        }
        ws.put(spec.dest, dest);
    }
    ws.put(output, y);
}

/// One calibration MVM: device output vs. exact tile product on the
/// pair's deterministic probe vector, as a relative ∞-norm residual. The
/// probe vector is fixed per pair (independent of round and job seed): a
/// dense 0/1 pattern matching the unit's operational input domain, so the
/// ADC range assumptions hold.
fn run_probe<U: MvmUnit>(
    unit_index: usize,
    unit: &mut U,
    ctx: &ExecCtx<'_>,
    cost: &mut OpCounts,
) -> f64 {
    let t = ctx.t;
    let mut probe = vec![0.0_f32; t];
    let mut expected = vec![0.0_f32; t];
    let mut measured = vec![0.0_f32; t];
    let mut rng = SmallRng::seed_from_u64(noise_stream_seed(ctx.probe_seed, 0, unit_index as u64));
    for p in probe.iter_mut() {
        *p = if rng.gen_bool(0.5) { 1.0 } else { 0.0 };
    }
    ctx.plan
        .forward(&ctx.tiles[unit_index], &probe, &mut expected);
    unit.forward(&probe, &mut measured);
    unit.quantize_8bit(&mut measured);
    cost.probe_mvms += 1;
    cost.tile_mvms_8bit += 1;
    cost.adc_8bit_samples += t as u64;
    cost.eo_input_bits += t as u64;

    let mut max_abs = 0.0_f32;
    let mut max_err = 0.0_f32;
    for (&m, &e) in measured.iter().zip(&expected) {
        max_abs = max_abs.max(e.abs());
        max_err = max_err.max((m - e).abs());
    }
    f64::from(max_err) / f64::from(max_abs.max(DENOM_FLOOR))
}

/// Groups the pending commands by lane position, preserving submission
/// order within each unit.
fn group_by_lane<U>(cmds: Vec<Command>, lanes: &[Lane<'_, U>], units: usize) -> Vec<Vec<Command>> {
    let mut lookup = vec![usize::MAX; units];
    for (i, lane) in lanes.iter().enumerate() {
        lookup[lane.unit_index] = i;
    }
    let mut groups: Vec<Vec<Command>> = (0..lanes.len()).map(|_| Vec::new()).collect();
    for cmd in cmds {
        let slot = lookup[cmd.unit];
        assert_ne!(
            slot,
            usize::MAX,
            "pending command targets a unit with no lane"
        );
        groups[slot].push(cmd);
    }
    groups
}

/// Per-lane work item moved onto a worker thread.
struct LaneWork<'a, U> {
    unit_index: usize,
    unit: &'a mut U,
    cmds: Vec<Command>,
    ws: Workspace,
    done: Vec<Completion>,
}

pub(super) fn flush_parallel<U: MvmUnit>(
    queue: &mut CommandQueue,
    lanes: &mut [Lane<'_, U>],
    pool: &mut BufferPool,
    ctx: &ExecCtx<'_>,
) -> Vec<Completion> {
    let cmds = queue.take_pending();
    if cmds.is_empty() {
        return Vec::new();
    }
    let mut groups = group_by_lane(cmds, lanes, queue.unit_count());
    let mut work: Vec<LaneWork<'_, U>> = Vec::new();
    for (lane, cmds) in lanes.iter_mut().zip(groups.iter_mut()) {
        if cmds.is_empty() {
            continue;
        }
        let cmds = std::mem::take(cmds);
        let ws = Workspace::checkout(&chain_handles(&cmds), pool);
        let done = Vec::with_capacity(cmds.len());
        work.push(LaneWork {
            unit_index: lane.unit_index,
            unit: &mut *lane.unit,
            cmds,
            ws,
            done,
        });
    }
    let chunks = work.len().max(1);
    par::for_each_chunk_mut(&mut work, chunks, |_, chunk| {
        for w in chunk {
            exec_chain(
                w.unit_index,
                w.unit,
                &w.cmds,
                &mut w.ws,
                ctx,
                None,
                &mut w.done,
            );
        }
    });
    let mut completions = Vec::with_capacity(work.iter().map(|w| w.done.len()).sum());
    for w in work {
        w.ws.restore(pool);
        completions.extend(w.done);
    }
    completions.sort_by_key(|c| c.key);
    completions
}

pub(super) fn flush_serial<B: MvmBackend>(
    queue: &mut CommandQueue,
    backend: &B,
    lanes: &mut [Lane<'_, B::Unit>],
    pool: &mut BufferPool,
    ctx: &ExecCtx<'_>,
) -> Vec<Completion> {
    let cmds = queue.take_pending();
    if cmds.is_empty() {
        return Vec::new();
    }
    let mut order: Vec<usize> = (0..lanes.len()).collect();
    order.sort_by_key(|&i| lanes[i].unit_index);
    let groups = group_by_lane(cmds, lanes, queue.unit_count());
    let t = ctx.t;
    let mut spare = || backend.unit(t);
    let mut completions = Vec::new();
    for i in order {
        let cmds = &groups[i];
        if cmds.is_empty() {
            continue;
        }
        let lane = &mut lanes[i];
        let mut ws = Workspace::checkout(&chain_handles(cmds), pool);
        exec_chain(
            lane.unit_index,
            lane.unit,
            cmds,
            &mut ws,
            ctx,
            Some(&mut spare),
            &mut completions,
        );
        ws.restore(pool);
    }
    completions.sort_by_key(|c| c.key);
    completions
}
