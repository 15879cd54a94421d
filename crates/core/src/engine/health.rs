//! Stage 3b — calibration probing and fault recovery.
//!
//! On fault-aware runs the monitor splits its work around the device
//! queue so probe traffic overlaps the solve MVMs: every
//! `check_interval`-th round it submits one `Probe` command per live pair
//! *into the same flush* as the round's local-iteration chains
//! ([`HealthMonitor::submit_probes`]), then — after the global
//! synchronization — walks the completed residuals in ascending pair
//! order and applies the [`RecoveryPolicy`] to the pairs that failed
//! ([`HealthMonitor::resolve`]): reprogram-with-retry, remap to a spare
//! array, or quarantine. Recovery itself runs as serial single-unit
//! mini-flushes on the driving thread (it needs backend access for
//! spares), so the emitted `FaultDetected` / `TileRecovered` /
//! `RecoveryExhausted` stream is bit-identical for every `SOPHIE_THREADS`
//! value.
//!
//! Every probe and reprogram arrives as a command completion carrying its
//! exact cost record, folded into the pair's
//! [`OpCounts`](sophie_solve::OpCounts) (`probe_mvms`,
//! `recovery_reprograms`, `units_remapped`, `pairs_quarantined`, plus the
//! underlying MVM/ADC/programming counters), so the recovery overhead
//! flows into the round's `ops_delta`, the timeline, and the `sophie-hw`
//! cost models.

use sophie_solve::{OpCounts, SolveEvent, SolveObserver};

use super::dispatch;
use super::state::MachineState;
use super::{sync, SophieSolver};
use crate::backend::MvmBackend;
use crate::health::{HealthConfig, RecoveryPolicy};
use crate::queue::{CommandKind, TimelineSink};

/// Per-run health-monitor state: the configuration and the spare-array
/// budget consumed so far.
#[derive(Debug)]
pub(super) struct HealthMonitor {
    config: HealthConfig,
    spares_used: usize,
}

impl HealthMonitor {
    pub fn new(config: HealthConfig) -> Self {
        HealthMonitor {
            config,
            spares_used: 0,
        }
    }

    /// The probe-vector stream seed (threaded into every flush context).
    pub fn probe_seed(&self) -> u64 {
        self.config.probe_seed
    }

    /// Whether round `round` (1-based) ends with a probe pass.
    pub fn due(&self, round: usize) -> bool {
        round.is_multiple_of(self.config.check_interval)
    }

    /// Submits one `Probe` command per live pair — including pairs not
    /// selected this round — into the pending flush, so calibration
    /// traffic executes alongside the in-flight solve MVMs instead of
    /// serializing after them.
    pub fn submit_probes<U>(&self, ms: &mut MachineState<U>) {
        let MachineState { states, queue, .. } = ms;
        for st in states.iter() {
            if !st.disabled {
                queue.submit(st.index, false, CommandKind::Probe);
            }
        }
    }

    /// Consumes the round's probe residuals (ascending pair order) and
    /// recovers the pairs whose residual exceeds the threshold.
    ///
    /// When any recovery changed the machine (fresh array contents or a
    /// quarantined pair), the affected partial sums have been refreshed
    /// from the synchronized global state and the offset vectors are
    /// regathered so the next round iterates against consistent state.
    #[allow(clippy::too_many_arguments)]
    pub fn resolve<B: MvmBackend>(
        &mut self,
        solver: &SophieSolver,
        backend: &B,
        ms: &mut MachineState<B::Unit>,
        round: usize,
        seed: u64,
        residuals: &[(usize, f64)],
        timeline: &mut dyn TimelineSink,
        observer: &mut dyn SolveObserver,
    ) {
        let mut machine_changed = false;
        for &(pair, residual) in residuals {
            if residual <= self.config.threshold {
                continue;
            }
            observer.on_event(&SolveEvent::FaultDetected {
                round,
                pair,
                residual,
            });
            if matches!(self.config.policy, RecoveryPolicy::DetectOnly) {
                continue;
            }
            machine_changed |=
                self.recover(solver, backend, ms, pair, round, seed, timeline, observer);
        }
        if machine_changed {
            dispatch::host_record(ms, round as u64, "recompute_offsets", timeline, |ms| {
                sync::recompute_offsets(solver, ms);
            });
        }
    }

    /// One recovery step: submit `cmd` plus a re-probe on the pair's unit
    /// and execute them as a serial mini-flush; returns the residual.
    #[allow(clippy::too_many_arguments)]
    fn step<B: MvmBackend>(
        &mut self,
        solver: &SophieSolver,
        backend: &B,
        ms: &mut MachineState<B::Unit>,
        pair: usize,
        cmd: CommandKind,
        seed: u64,
        timeline: &mut dyn TimelineSink,
    ) -> f64 {
        ms.queue.submit(pair, false, cmd);
        ms.queue.submit(pair, false, CommandKind::Probe);
        dispatch::flush_unit_serial(
            solver,
            backend,
            ms,
            pair,
            seed,
            self.config.probe_seed,
            timeline,
        )
        .expect("recovery mini-flush produced no probe residual")
    }

    /// Applies the recovery policy to one flagged pair; returns whether
    /// the machine state changed (partials refreshed or pair quarantined).
    #[allow(clippy::too_many_arguments)]
    fn recover<B: MvmBackend>(
        &mut self,
        solver: &SophieSolver,
        backend: &B,
        ms: &mut MachineState<B::Unit>,
        pair: usize,
        round: usize,
        seed: u64,
        timeline: &mut dyn TimelineSink,
        observer: &mut dyn SolveObserver,
    ) -> bool {
        let (reprogram_budget, try_spare, quarantine) = match self.config.policy {
            RecoveryPolicy::DetectOnly => unreachable!("handled by caller"),
            RecoveryPolicy::Reprogram { max_attempts } => (max_attempts, false, false),
            RecoveryPolicy::Remap {
                reprogram_attempts, ..
            } => (reprogram_attempts, true, false),
            RecoveryPolicy::Quarantine { reprogram_attempts } => (reprogram_attempts, false, true),
        };
        let max_spares = match self.config.policy {
            RecoveryPolicy::Remap { max_spares, .. } => max_spares,
            _ => 0,
        };

        let ops_before = ms.states[pair].ops;
        let mut attempts = 0_u32;
        let mut healthy = false;
        let mut remapped = false;

        // In-place reprogram clears drift, droop, and dropout (a fresh
        // OPCM write of the intended tile) but cannot cure stuck cells.
        for _ in 0..reprogram_budget {
            attempts += 1;
            let residual = self.step(
                solver,
                backend,
                ms,
                pair,
                CommandKind::Reprogram,
                seed,
                timeline,
            );
            if residual <= self.config.threshold {
                healthy = true;
                break;
            }
        }

        // Remap: swap in a spare physical array — the only cure for
        // stuck cells — and program it with the intended tile.
        if !healthy && try_spare && self.spares_used < max_spares {
            attempts += 1;
            remapped = true;
            self.spares_used += 1;
            let residual = self.step(
                solver,
                backend,
                ms,
                pair,
                CommandKind::Remap,
                seed,
                timeline,
            );
            healthy = residual <= self.config.threshold;
        }

        if healthy {
            // The array contents changed, so the pair's cached partial
            // sums are stale: recompute them from the synchronized global
            // state (counted like any other 8-bit pass).
            {
                let MachineState { states, queue, .. } = ms;
                dispatch::submit_partial_refresh(queue, &states[pair]);
            }
            dispatch::flush_unit_serial(
                solver,
                backend,
                ms,
                pair,
                seed,
                self.config.probe_seed,
                timeline,
            );
            observer.on_event(&SolveEvent::TileRecovered {
                round,
                pair,
                attempts,
                remapped,
                cost: ms.states[pair].ops.delta_since(&ops_before),
            });
            return true;
        }

        if quarantine {
            let MachineState { states, pool, .. } = ms;
            let st = &mut states[pair];
            st.disabled = true;
            pool.get_mut(st.partial_primary).fill(0.0);
            pool.get_mut(st.partial_partner).fill(0.0);
            st.ops.pairs_quarantined += 1;
            let mut cost = OpCounts::new();
            cost.pairs_quarantined = 1;
            timeline.host(round as u64, "quarantine", &cost);
        }
        observer.on_event(&SolveEvent::RecoveryExhausted {
            round,
            pair,
            attempts,
            quarantined: quarantine,
        });
        quarantine
    }
}
