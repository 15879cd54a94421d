//! Typed device commands, completion records, and the [`CommandQueue`]
//! that executes them.
//!
//! The engine never calls [`MvmUnit`](crate::backend::MvmUnit) methods
//! directly (enforced by a CI grep gate over the stage modules); it
//! submits [`CommandKind`]s against unit indices and buffer handles, and
//! the queue executes them at flush boundaries. Every executed command
//! yields one [`Completion`] carrying its exact operation cost, so the
//! run-total [`OpCounts`] is the literal sum of per-command records plus
//! the host-side records the engine reports for controller work.

use sophie_solve::OpCounts;

use super::buffer::{BufferHandle, BufferPool};
use super::exec::ExecCtx;
use crate::backend::{FaultReport, MvmBackend, MvmUnit};

/// Direction of a bidirectional MVM read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MvmDir {
    /// `y = T·x` (the pair's primary tile orientation).
    Forward,
    /// `y = Tᵀ·x` (the same array read in the other optical direction).
    Transposed,
}

/// Input operand of an MVM command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Src {
    /// A pooled buffer (a pair's private spin copy).
    Buf(BufferHandle),
    /// Block `d` of the shared global spin vector
    /// (`global[d·t .. (d+1)·t]`), read-only during a flush.
    GlobalBlock(usize),
}

/// Threshold epilogue of a local-iteration MVM: add the frozen offset
/// vector of logical tile `(tile_row, tile_col)` and per-node noise, then
/// threshold into `dest` (the 1-bit ADC read path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThresholdSpec {
    /// Row block of the logical tile whose offset vector applies.
    pub tile_row: usize,
    /// Column block of the logical tile whose offset vector applies.
    pub tile_col: usize,
    /// Block whose per-node thresholds/noise scales apply (the output
    /// block row of the MVM).
    pub out_block: usize,
    /// Spin-copy buffer receiving the thresholded bits.
    pub dest: BufferHandle,
}

/// One typed device command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommandKind {
    /// Program the unit with its pair's primary tile (an OPCM write).
    ProgramTile,
    /// One matrix-vector product, with optional 8-bit capture and
    /// threshold epilogue.
    Mvm {
        /// Read direction.
        dir: MvmDir,
        /// Input spins.
        input: Src,
        /// Raw MVM output buffer.
        output: BufferHandle,
        /// Run the 8-bit ADC read path over the output (the last local
        /// iteration of a round; otherwise the output is read in 1-bit
        /// threshold mode).
        quantize: bool,
        /// Capture the (quantized) output as the pair's partial sum.
        save_partial: Option<BufferHandle>,
        /// Threshold epilogue; `None` for partial-sum refreshes.
        threshold: Option<ThresholdSpec>,
    },
    /// Calibration MVM: drive the pair's deterministic probe vector
    /// through the unit and report the relative ∞-norm residual against
    /// the exact tile product in the completion.
    Probe,
    /// Drain the unit's transient-fault reports into the completion.
    CollectFaults,
    /// In-place recovery reprogram of the pair's tile.
    Reprogram,
    /// Swap in a spare physical unit and program it with the pair's tile.
    /// Only valid in a serial flush (the spare comes from the backend).
    Remap,
}

/// One queued command: the kind plus its deterministic ordering key.
#[derive(Debug, Clone, Copy)]
pub struct Command {
    /// Target unit (= pair index).
    pub unit: usize,
    /// Round the command belongs to (0 = setup).
    pub round: u64,
    /// Submission ordinal within `(round, unit)`.
    pub wave: u32,
    /// Call `begin_round(round)` on the unit before executing (first
    /// solve command of a selected pair's round chain).
    pub starts_round: bool,
    /// The operation.
    pub kind: CommandKind,
}

impl Command {
    /// The command's completion-ordering key.
    #[must_use]
    pub fn key(&self) -> CmdKey {
        CmdKey {
            round: self.round,
            wave: self.wave,
            unit: self.unit as u32,
        }
    }
}

/// Deterministic completion-ordering key: commands complete in submission
/// order per unit, and cross-unit order is fixed by `(round, wave, unit)`
/// — independent of worker-pool scheduling, so completion streams are
/// byte-identical at every `SOPHIE_THREADS` value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct CmdKey {
    /// Round (0 = setup).
    pub round: u64,
    /// Per-`(round, unit)` submission ordinal.
    pub wave: u32,
    /// Unit (= pair) index.
    pub unit: u32,
}

/// Completion record of one executed command: the ordering key, a label
/// from the command vocabulary, and the exact cost attribution.
#[derive(Debug, Clone, PartialEq)]
pub struct Completion {
    /// Ordering key (see [`CmdKey`]).
    pub key: CmdKey,
    /// Command label: `"program_tile"`, `"mvm_forward"`,
    /// `"mvm_transposed"`, `"probe"`, `"collect_faults"`, `"reprogram"`,
    /// or `"remap"`.
    pub kind: &'static str,
    /// Exact operation counts attributable to this command. Summing the
    /// `cost` of every completion of a run (plus the engine's host-side
    /// records) reproduces the run-total [`OpCounts`] exactly.
    pub cost: OpCounts,
    /// Nominal multiply-accumulates performed (`t²` per MVM-class
    /// command).
    pub macs: u64,
    /// OPCM cells touched (`t²` for array reads and writes).
    pub cells: u64,
    /// Probe residual (probe commands only).
    pub residual: Option<f64>,
    /// Drained transient-fault reports (`collect_faults` only), in firing
    /// order.
    pub faults: Vec<FaultReport>,
}

/// One schedulable unit lane: the unit index plus exclusive access to the
/// unit for the duration of a flush. Built by the engine from its pair
/// states; the executor never sees the rest of the pair state.
#[derive(Debug)]
pub struct Lane<'a, U> {
    /// Unit (= pair) index.
    pub unit_index: usize,
    /// The physical unit.
    pub unit: &'a mut U,
}

/// The engine's asynchronous device command queue: submission accumulates
/// typed commands; flush executes everything pending against a set of
/// unit lanes and returns the completions sorted by [`CmdKey`].
///
/// Determinism rules:
///
/// * commands execute in submission order per unit, each unit's chain on
///   one worker (a unit is never touched by two threads in one flush);
/// * a parallel [`CommandQueue::flush`] may interleave units arbitrarily
///   in time, but returned completions are sorted by `(round, wave,
///   unit)`, so the observable stream is schedule-independent;
/// * [`CommandQueue::flush_serial`] executes lanes in ascending unit order
///   on the calling thread — required for `Remap` (which draws spare
///   units from the backend) and for setup programming, where backends
///   may hand out unit identity from shared counters.
#[derive(Debug)]
pub struct CommandQueue {
    pending: Vec<Command>,
    round: u64,
    waves: Vec<u32>,
}

impl CommandQueue {
    /// Creates a queue for `units` unit lanes, positioned at round 0.
    #[must_use]
    pub fn new(units: usize) -> Self {
        CommandQueue {
            pending: Vec::new(),
            round: 0,
            waves: vec![0; units],
        }
    }

    /// Current round key.
    #[must_use]
    pub fn round(&self) -> u64 {
        self.round
    }

    pub(super) fn take_pending(&mut self) -> Vec<Command> {
        std::mem::take(&mut self.pending)
    }

    pub(super) fn unit_count(&self) -> usize {
        self.waves.len()
    }

    /// Enqueues a command for `unit`, assigning its wave ordinal; returns
    /// the completion-ordering key.
    pub fn submit(&mut self, unit: usize, starts_round: bool, kind: CommandKind) -> CmdKey {
        let wave = self.waves[unit];
        self.waves[unit] = wave.checked_add(1).expect("per-unit wave counter overflow");
        let cmd = Command {
            unit,
            round: self.round,
            wave,
            starts_round,
            kind,
        };
        let key = cmd.key();
        self.pending.push(cmd);
        key
    }

    /// Number of commands pending execution.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Starts a new round: subsequent submissions are keyed to `round`
    /// with wave ordinals restarting at 0.
    ///
    /// # Panics
    ///
    /// Panics if commands are still pending.
    pub fn begin_round(&mut self, round: u64) {
        assert!(
            self.pending.is_empty(),
            "begin_round with commands still pending"
        );
        self.round = round;
        self.waves.fill(0);
    }

    /// Executes every pending command, fanning independent unit chains
    /// across the worker pool. Buffers named by the commands are checked
    /// out of `pool` for the flush and restored afterwards.
    ///
    /// # Panics
    ///
    /// Panics if a pending command targets a unit with no lane, or
    /// contains a `Remap` (serial-only).
    pub fn flush<U: MvmUnit>(
        &mut self,
        lanes: &mut [Lane<'_, U>],
        pool: &mut BufferPool,
        ctx: &ExecCtx<'_>,
    ) -> Vec<Completion> {
        super::exec::flush_parallel(self, lanes, pool, ctx)
    }

    /// Executes every pending command serially, in ascending unit order,
    /// on the calling thread. Supports the full command vocabulary
    /// including `Remap` (spare units drawn from `backend`).
    ///
    /// # Panics
    ///
    /// Panics if a pending command targets a unit with no lane.
    pub fn flush_serial<B: MvmBackend>(
        &mut self,
        backend: &B,
        lanes: &mut [Lane<'_, B::Unit>],
        pool: &mut BufferPool,
        ctx: &ExecCtx<'_>,
    ) -> Vec<Completion> {
        super::exec::flush_serial(self, backend, lanes, pool, ctx)
    }
}
