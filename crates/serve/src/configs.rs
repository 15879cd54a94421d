//! JSON config overrides → the registry's typed config values.
//!
//! A `submit` frame may carry a `config` object; its fields override the
//! defaults of the named solver's concrete config type, and the result is
//! handed to [`SolverRegistry::build`] exactly like a native caller
//! would. Unknown fields are rejected (a typo must not silently run the
//! default), and field values are validated by the solver's own factory.
//! Job-level quantities (seed, iteration cap, deadline, target) are *not*
//! config fields — they arrive in the submit frame itself and map to the
//! [`SolveJob`](sophie_solve::SolveJob).

use std::sync::Arc;

use sophie_baselines::{BlsConfig, PtConfig, SaConfig, SbConfig, SbVariant};
use sophie_core::SophieConfig;
use sophie_hw::OpcmBackendConfig;
use sophie_pris::PrisJobConfig;
use sophie_solve::{SolveError, Solver, SolverRegistry};

use crate::error::{Result, ServeError};
use crate::json::Json;

/// Builds `solver` from `config` overrides (or its registered default
/// when `config` is `None`).
///
/// # Errors
///
/// [`ServeError::Protocol`] for unknown config fields or mistyped values;
/// [`ServeError::Solve`] for unknown solver names and factory rejections.
pub fn build_solver(
    registry: &SolverRegistry,
    solver: &str,
    config: Option<&Json>,
) -> Result<Arc<dyn Solver>> {
    let Some(config) = config else {
        return Ok(registry.build_default(solver)?);
    };
    let fields = Fields::new(solver, config)?;
    let built = match solver {
        "sa" => registry.build(solver, &sa_config(&fields)?),
        "sb" => registry.build(solver, &sb_config(&fields)?),
        "pt" => registry.build(solver, &pt_config(&fields)?),
        "bls" => registry.build(solver, &bls_config(&fields)?),
        "pris" => registry.build(solver, &pris_config(&fields)?),
        "sophie" => registry.build(solver, &sophie_config(&fields)?),
        "sophie-opcm" => registry.build(
            solver,
            &(sophie_config(&fields)?, OpcmBackendConfig::default()),
        ),
        other => {
            // Unknown name: surface the registry's UnknownSolver (with its
            // list of known names) rather than a generic protocol error.
            return Ok(registry.build_default(other)?);
        }
    };
    fields.finish()?;
    Ok(built?)
}

/// Tracks which config keys were consumed so leftovers can be rejected.
struct Fields<'a> {
    solver: &'a str,
    members: &'a [(String, Json)],
    used: std::cell::RefCell<Vec<bool>>,
}

impl<'a> Fields<'a> {
    fn new(solver: &'a str, config: &'a Json) -> Result<Self> {
        let members = config.as_obj().ok_or_else(|| ServeError::Protocol {
            message: "`config` must be an object".into(),
        })?;
        Ok(Fields {
            solver,
            members,
            used: std::cell::RefCell::new(vec![false; members.len()]),
        })
    }

    fn get(&self, key: &str) -> Option<&'a Json> {
        for (i, (k, v)) in self.members.iter().enumerate() {
            if k == key {
                self.used.borrow_mut()[i] = true;
                return Some(v);
            }
        }
        None
    }

    fn usize(&self, key: &str, default: usize) -> Result<usize> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .as_u64()
                .map(|n| n as usize)
                .ok_or_else(|| self.type_err(key, "a non-negative integer")),
        }
    }

    fn f64(&self, key: &str, default: f64) -> Result<f64> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.as_f64().ok_or_else(|| self.type_err(key, "a number")),
        }
    }

    fn bool(&self, key: &str, default: bool) -> Result<bool> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.as_bool().ok_or_else(|| self.type_err(key, "a boolean")),
        }
    }

    fn type_err(&self, key: &str, expected: &str) -> ServeError {
        ServeError::Protocol {
            message: format!(
                "config field `{key}` for solver `{}` must be {expected}",
                self.solver
            ),
        }
    }

    /// Errors if any supplied key was never consumed.
    fn finish(&self) -> Result<()> {
        let used = self.used.borrow();
        for (i, (k, _)) in self.members.iter().enumerate() {
            if !used[i] {
                return Err(ServeError::Protocol {
                    message: format!("unknown config field `{k}` for solver `{}`", self.solver),
                });
            }
        }
        Ok(())
    }
}

fn sa_config(f: &Fields<'_>) -> Result<SaConfig> {
    let d = SaConfig::default();
    Ok(SaConfig {
        sweeps: f.usize("sweeps", d.sweeps)?,
        t_initial: f.f64("t_initial", d.t_initial)?,
        t_final: f.f64("t_final", d.t_final)?,
        seed: d.seed, // job seed overrides; not a wire field
    })
}

fn sb_config(f: &Fields<'_>) -> Result<SbConfig> {
    let d = SbConfig::default();
    let variant = match f.get("variant") {
        None => d.variant,
        Some(v) => match v.as_str() {
            Some("ballistic") => SbVariant::Ballistic,
            Some("discrete") => SbVariant::Discrete,
            _ => {
                return Err(ServeError::Protocol {
                    message: "config field `variant` must be \"ballistic\" or \"discrete\"".into(),
                })
            }
        },
    };
    Ok(SbConfig {
        steps: f.usize("steps", d.steps)?,
        dt: f.f64("dt", d.dt)?,
        a0: f.f64("a0", d.a0)?,
        variant,
        seed: d.seed,
    })
}

fn pt_config(f: &Fields<'_>) -> Result<PtConfig> {
    let d = PtConfig::default();
    Ok(PtConfig {
        replicas: f.usize("replicas", d.replicas)?,
        t_min: f.f64("t_min", d.t_min)?,
        t_max: f.f64("t_max", d.t_max)?,
        sweeps_per_exchange: f.usize("sweeps_per_exchange", d.sweeps_per_exchange)?,
        exchanges: f.usize("exchanges", d.exchanges)?,
        seed: d.seed,
    })
}

fn bls_config(f: &Fields<'_>) -> Result<BlsConfig> {
    let d = BlsConfig::default();
    Ok(BlsConfig {
        rounds: f.usize("rounds", d.rounds)?,
        perturbation: f.usize("perturbation", d.perturbation)?,
        seed: d.seed,
    })
}

fn pris_config(f: &Fields<'_>) -> Result<PrisJobConfig> {
    let d = PrisJobConfig::default();
    Ok(PrisJobConfig {
        alpha: f.f64("alpha", d.alpha)?,
        iterations: f.usize("iterations", d.iterations)?,
        phi: f.f64("phi", d.phi)?,
    })
}

fn sophie_config(f: &Fields<'_>) -> Result<SophieConfig> {
    let d = SophieConfig::default();
    // `sparse_crossover` has no effect; it stays a wire field while the
    // benchmark's K512 requests send it.
    let sparse_crossover = match f.get("sparse_crossover") {
        None => d.sparse_crossover,
        Some(v) => Some(
            v.as_f64()
                .ok_or_else(|| f.type_err("sparse_crossover", "a number"))?,
        ),
    };
    Ok(SophieConfig {
        tile_size: f.usize("tile_size", d.tile_size)?,
        local_iters: f.usize("local_iters", d.local_iters)?,
        global_iters: f.usize("global_iters", d.global_iters)?,
        tile_fraction: f.f64("tile_fraction", d.tile_fraction)?,
        phi: f.f64("phi", d.phi)?,
        alpha: f.f64("alpha", d.alpha)?,
        stochastic_spin_update: f.bool("stochastic_spin_update", d.stochastic_spin_update)?,
        compute: d.compute,
        sparse_crossover,
    })
}

/// Rejects a `sophie` or `sophie-opcm` config on an instance of `nodes`
/// nodes whose `tile_size` is above `max_nodes`, the daemon's instance
/// node cap, or whose round would queue more than
/// [`SophieConfig::MAX_ROUND_STEPS`] chain steps (the engine's own rule,
/// [`SophieConfig::validate_for`]), before any preprocessing.
///
/// No admitted instance has more nodes, so a wider tile only adds
/// padding, and a tile of width `t` holds `t²` weights: a `tile_size` of
/// 100,000 asks for 40 GB before the job's first round. A mistyped field
/// is left to [`build_solver`].
///
/// # Errors
///
/// [`ServeError::Protocol`] naming `tile_size`, its value and the cap;
/// [`ServeError::Solve`] with the engine's [`SolveError::BadConfig`] for
/// an invalid config or an oversized round.
pub(crate) fn check_tile_size(
    solver: &str,
    config: Option<&Json>,
    nodes: usize,
    max_nodes: usize,
) -> Result<()> {
    if !matches!(solver, "sophie" | "sophie-opcm") {
        return Ok(());
    }
    let tile = config.and_then(|c| c.get("tile_size"));
    if let Some(tile) = tile
        .and_then(Json::as_u64)
        .filter(|&t| t > max_nodes as u64)
    {
        return Err(ServeError::Protocol {
            message: format!(
                "config field `tile_size` for solver `{solver}` is {tile}, above the \
                 instance node cap {max_nodes}"
            ),
        });
    }
    let parsed = match config {
        None => Ok(SophieConfig::default()),
        Some(c) => Fields::new(solver, c).and_then(|f| sophie_config(&f)),
    };
    let Ok(parsed) = parsed else {
        return Ok(());
    };
    parsed.validate_for(nodes).map_err(|e| {
        ServeError::Solve(SolveError::BadConfig {
            solver: solver.to_string(),
            message: e.to_string(),
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sophie::default_registry;

    #[test]
    fn default_and_overridden_builds_succeed_for_every_solver() {
        let reg = default_registry();
        for name in reg.names() {
            assert!(!build_solver(&reg, name, None).unwrap().name().is_empty());
        }
        let sa = Json::parse(r#"{"sweeps": 10, "t_initial": 2.0}"#).unwrap();
        assert!(build_solver(&reg, "sa", Some(&sa)).is_ok());
        let sb = Json::parse(r#"{"steps": 5, "variant": "ballistic"}"#).unwrap();
        assert!(build_solver(&reg, "sb", Some(&sb)).is_ok());
        let sophie = Json::parse(r#"{"global_iters": 3, "tile_size": 16}"#).unwrap();
        assert!(build_solver(&reg, "sophie", Some(&sophie)).is_ok());
        assert!(build_solver(&reg, "sophie-opcm", Some(&sophie)).is_ok());
        let pris = Json::parse(r#"{"iterations": 4}"#).unwrap();
        assert!(build_solver(&reg, "pris", Some(&pris)).is_ok());
        let pt = Json::parse(r#"{"replicas": 2, "exchanges": 3}"#).unwrap();
        assert!(build_solver(&reg, "pt", Some(&pt)).is_ok());
        let bls = Json::parse(r#"{"rounds": 2, "perturbation": 3}"#).unwrap();
        assert!(build_solver(&reg, "bls", Some(&bls)).is_ok());
    }

    #[test]
    fn unknown_fields_and_types_are_protocol_errors() {
        let reg = default_registry();
        let typo = Json::parse(r#"{"sweep": 10}"#).unwrap();
        match build_solver(&reg, "sa", Some(&typo)).map(|_| ()) {
            Err(ServeError::Protocol { message }) => {
                assert!(message.contains("sweep") && message.contains("sa"));
            }
            other => panic!("expected Protocol error, got {other:?}"),
        }
        let mistyped = Json::parse(r#"{"sweeps": "many"}"#).unwrap();
        assert!(matches!(
            build_solver(&reg, "sa", Some(&mistyped)),
            Err(ServeError::Protocol { .. })
        ));
        let not_obj = Json::parse("[1,2]").unwrap();
        assert!(matches!(
            build_solver(&reg, "sa", Some(&not_obj)),
            Err(ServeError::Protocol { .. })
        ));
    }

    #[test]
    fn unknown_solver_surfaces_registry_error() {
        let reg = default_registry();
        let cfg = Json::parse("{}").unwrap();
        match build_solver(&reg, "warp-drive", Some(&cfg)).map(|_| ()) {
            Err(ServeError::Solve(sophie_solve::SolveError::UnknownSolver { name, .. })) => {
                assert_eq!(name, "warp-drive");
            }
            other => panic!("expected UnknownSolver, got {other:?}"),
        }
    }

    #[test]
    fn sparse_crossover_is_still_accepted_and_validated() {
        // The benchmark's K512 submits still send it; it has no effect.
        let reg = default_registry();
        let cfg = Json::parse(r#"{"global_iters":100,"sparse_crossover":0.16}"#).unwrap();
        for solver in ["sophie", "sophie-opcm"] {
            assert!(build_solver(&reg, solver, Some(&cfg)).is_ok(), "{solver}");
        }
        let bad_theta = Json::parse(r#"{"sparse_crossover": -1.0}"#).unwrap();
        assert!(matches!(
            build_solver(&reg, "sophie", Some(&bad_theta)),
            Err(ServeError::Solve(_))
        ));
    }

    #[test]
    fn tile_size_above_the_node_cap_is_rejected() {
        let wide = Json::parse(r#"{"tile_size": 65}"#).unwrap();
        let at_cap = Json::parse(r#"{"tile_size": 64}"#).unwrap();
        for solver in ["sophie", "sophie-opcm"] {
            match check_tile_size(solver, Some(&wide), 20, 64) {
                Err(ServeError::Protocol { message }) => assert_eq!(
                    message,
                    format!(
                        "config field `tile_size` for solver `{solver}` is 65, above the \
                         instance node cap 64"
                    )
                ),
                other => panic!("{solver}: expected Protocol error, got {other:?}"),
            }
            assert!(check_tile_size(solver, Some(&at_cap), 20, 64).is_ok());
            assert!(check_tile_size(solver, None, 20, 64).is_ok());
        }
        // Other solvers have no tiles; a mistyped value is build_solver's.
        assert!(check_tile_size("sa", Some(&wide), 20, 64).is_ok());
        let mistyped = Json::parse(r#"{"tile_size": "wide"}"#).unwrap();
        assert!(check_tile_size("sophie", Some(&mistyped), 20, 64).is_ok());
    }

    #[test]
    fn rounds_above_the_step_limit_are_rejected() {
        let long = Json::parse(r#"{"tile_size": 8, "local_iters": 1000000000}"#).unwrap();
        let fine = Json::parse(r#"{"tile_size": 1, "local_iters": 1}"#).unwrap();
        for solver in ["sophie", "sophie-opcm"] {
            for (config, nodes) in [(Some(&long), 20), (Some(&fine), 1024), (None, 1 << 20)] {
                match check_tile_size(solver, config, nodes, usize::MAX) {
                    Err(ServeError::Solve(SolveError::BadConfig { message, .. })) => {
                        assert!(message.contains("local_iters"), "{message}");
                    }
                    other => panic!("{solver} on {nodes} nodes: got {other:?}"),
                }
            }
            assert!(check_tile_size(solver, Some(&fine), 511, usize::MAX).is_ok());
        }
    }

    #[test]
    fn removed_sophie_knobs_are_unknown_fields() {
        // `kernel`, `queue_depth` and `compute` were wire fields once; none
        // ever changed a result, and a config that still sends one must get
        // the typed unknown-field error rather than run silently.
        let reg = default_registry();
        for (field, value) in [
            ("kernel", r#""scalar""#),
            ("queue_depth", "4"),
            ("compute", r#""dense""#),
        ] {
            let cfg = Json::parse(&format!(r#"{{"{field}": {value}, "tile_size": 8}}"#)).unwrap();
            for solver in ["sophie", "sophie-opcm"] {
                match build_solver(&reg, solver, Some(&cfg)).map(|_| ()) {
                    Err(ServeError::Protocol { message }) => assert_eq!(
                        message,
                        format!("unknown config field `{field}` for solver `{solver}`")
                    ),
                    other => panic!("{solver} {field}: expected Protocol error, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn factory_validation_still_applies() {
        let reg = default_registry();
        // tile_size 0 is rejected by SophieConfig's own validation.
        let bad = Json::parse(r#"{"tile_size": 0}"#).unwrap();
        assert!(matches!(
            build_solver(&reg, "sophie", Some(&bad)),
            Err(ServeError::Solve(_))
        ));
    }
}
