//! Device-runtime layer: typed command queues over pooled buffers.
//!
//! The engine's stage modules drive every backend — ideal, OPCM and
//! fault-injected — through this one seam: they *submit* typed commands
//! ([`CommandKind`]) against unit indices and [`BufferHandle`]s, and the
//! [`CommandQueue`] executes the pending batch at explicit flush points.
//! This decouples round scheduling from device latency (probe traffic
//! rides in the same flush as solve MVMs instead of serializing after it)
//! and gives every executed command an exact [`Completion`] cost record,
//! so run totals are per-command sums rather than lump estimates.
//! `sophie-hw` re-exports this module and binds the paper's §IV-A cost
//! constants to the records.
//!
//! # Determinism contract
//!
//! * Commands execute in submission order per unit; one unit's chain
//!   never spans two workers within a flush.
//! * Completions are returned sorted by [`CmdKey`] `(round, wave, unit)`
//!   — a pure function of submission, never of worker scheduling.
//! * All randomness (threshold noise, probe vectors) derives from
//!   counter-based per-`(round, unit)` streams seeded here, so event
//!   streams and machine state are byte-identical at every
//!   `SOPHIE_THREADS` value.

mod buffer;
mod command;
mod exec;
mod timeline;

pub use buffer::{BufferHandle, BufferPool};
pub use command::{
    CmdKey, Command, CommandKind, CommandQueue, Completion, Lane, MvmDir, Src, ThresholdSpec,
};
pub use exec::ExecCtx;
pub use timeline::{NullTimeline, TimelineSink};

/// Flat index range of logical tile `(r, c)` in the `b²·t`-long offsets
/// buffer.
#[must_use]
pub fn vec_at(b: usize, t: usize, r: usize, c: usize) -> std::ops::Range<usize> {
    (r * b + c) * t..(r * b + c + 1) * t
}

/// Seed of the private noise stream used by unit `unit_index` during round
/// `round_index` (1-based; 0 is implicitly the serial setup stream of
/// `SmallRng::seed_from_u64(seed)`).
///
/// Derived purely from the job seed and the (round, unit) coordinates —
/// never from thread identity or execution order — which is what makes
/// engine traces bit-identical for every `SOPHIE_THREADS` setting. The
/// chained SplitMix64 finalizers decorrelate adjacent coordinates.
#[must_use]
pub fn noise_stream_seed(seed: u64, round_index: u64, unit_index: u64) -> u64 {
    fn mix(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    mix(mix(mix(seed.wrapping_add(0x9E37_79B9_7F4A_7C15)) ^ round_index) ^ unit_index)
}

/// The unit's private noise RNG for one round.
#[must_use]
pub fn noise_rng(seed: u64, round_index: u64, unit_index: u64) -> rand::rngs::SmallRng {
    use rand::SeedableRng;
    rand::rngs::SmallRng::seed_from_u64(noise_stream_seed(seed, round_index, unit_index))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{IdealBackend, MvmBackend};
    use sophie_linalg::Tile;

    fn ctx<'a>(tiles: &'a [Tile], zeros: &'a [f32], t: usize) -> ExecCtx<'a> {
        ExecCtx {
            tiles,
            thresholds: zeros,
            noise_scale: zeros,
            offsets: zeros,
            global: zeros,
            t,
            b: 1,
            seed: 0,
            probe_seed: 0,
            phi: 0.0,
            plan: sophie_linalg::KernelPlan::scalar(),
        }
    }

    #[test]
    fn submission_assigns_monotone_waves_per_unit() {
        let mut q = CommandQueue::new(2);
        q.begin_round(3);
        let a = q.submit(0, true, CommandKind::CollectFaults);
        let b = q.submit(1, false, CommandKind::CollectFaults);
        let c = q.submit(0, false, CommandKind::CollectFaults);
        assert_eq!((a.round, a.wave, a.unit), (3, 0, 0));
        assert_eq!((b.round, b.wave, b.unit), (3, 0, 1));
        assert_eq!((c.round, c.wave, c.unit), (3, 1, 0));
        assert_eq!(q.pending(), 3);
    }

    #[test]
    fn flush_executes_mvm_chain_and_attributes_costs() {
        let t = 2;
        let tiles = vec![Tile::from_vec(t, vec![1.0, 2.0, 3.0, 4.0]).unwrap()];
        let zeros = vec![0.0_f32; 4];
        let backend = IdealBackend::new();
        let mut unit = backend.unit(t);
        let mut pool = BufferPool::new();
        let x = pool.alloc(t);
        let y = pool.alloc(t);
        pool.get_mut(x).copy_from_slice(&[1.0, 1.0]);

        let mut q = CommandQueue::new(1);
        q.begin_round(1);
        q.submit(0, false, CommandKind::ProgramTile);
        q.submit(
            0,
            true,
            CommandKind::Mvm {
                dir: MvmDir::Forward,
                input: Src::Buf(x),
                output: y,
                quantize: true,
                save_partial: None,
                threshold: None,
            },
        );
        q.submit(0, false, CommandKind::CollectFaults);
        let c = ctx(&tiles, &zeros, t);
        let done = {
            let mut lanes = [Lane {
                unit_index: 0,
                unit: &mut unit,
            }];
            q.flush(&mut lanes, &mut pool, &c)
        };
        assert_eq!(done.len(), 3);
        assert_eq!(done[0].kind, "program_tile");
        assert_eq!(done[1].kind, "mvm_forward");
        assert_eq!(done[1].cost.tile_mvms_8bit, 1);
        assert_eq!(done[1].cost.adc_8bit_samples, t as u64);
        assert_eq!(done[1].cost.eo_input_bits, t as u64);
        assert_eq!(done[1].cost.noise_injections, 0);
        assert_eq!(done[1].macs, (t * t) as u64);
        assert_eq!(done[2].kind, "collect_faults");
        assert!(done[2].faults.is_empty());
        assert_eq!(pool.get(y), &[3.0, 7.0]);
        assert_eq!(q.pending(), 0);
    }

    #[test]
    fn probe_on_ideal_unit_has_zero_residual() {
        let t = 4;
        let tiles = vec![Tile::from_vec(t, (0..16).map(|i| i as f32).collect()).unwrap()];
        let zeros = vec![0.0_f32; t];
        let backend = IdealBackend::new();
        let mut unit = backend.unit(t);
        let mut pool = BufferPool::new();
        let mut q = CommandQueue::new(1);
        q.submit(0, false, CommandKind::ProgramTile);
        q.submit(0, false, CommandKind::Probe);
        let c = ctx(&tiles, &zeros, t);
        let done = {
            let mut lanes = [Lane {
                unit_index: 0,
                unit: &mut unit,
            }];
            q.flush_serial(&backend, &mut lanes, &mut pool, &c)
        };
        assert_eq!(done[0].kind, "program_tile");
        assert_eq!(done[0].cost.tiles_programmed, 1);
        assert_eq!(done[1].kind, "probe");
        assert_eq!(done[1].residual, Some(0.0));
        assert_eq!(done[1].cost.probe_mvms, 1);
    }

    #[test]
    fn completions_sort_by_round_wave_unit() {
        let a = CmdKey {
            round: 1,
            wave: 0,
            unit: 5,
        };
        let b = CmdKey {
            round: 1,
            wave: 1,
            unit: 0,
        };
        let c = CmdKey {
            round: 2,
            wave: 0,
            unit: 0,
        };
        assert!(a < b && b < c);
    }
}
