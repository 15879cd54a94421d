//! `repro problems` — problem-compiler quality sweep.
//!
//! Exercises every front end of [`sophie::problems`] end-to-end: a seeded
//! instance per kind is compiled to an Ising job, solved by each sweep
//! solver through the workspace registry, and decoded back into domain
//! metrics (QUBO objective, cut weight, coloring conflicts, LDPC bit
//! errors). Results are upserted as a `problems` block into
//! `BENCH_sophie.json` (schema in EXPERIMENTS.md § "Problem compiler"),
//! preserving every other block byte-for-byte like `repro tune`.
//!
//! Kinds with a known-optimal objective (a proper coloring, a satisfied
//! codeword) run with an objective-domain target of `0.0` so the sweep
//! also records iterations-to-target — the problem-units target path the
//! serve layer uses.

use std::io;
use std::path::Path;

use sophie::problems::{
    ColoringProblem, LdpcProblem, MaxCutProblem, ProblemError, ProblemRun, ProblemSpec, QuboProblem,
};
use sophie_baselines::SaConfig;
use sophie_serve::Json;
use sophie_solve::JobBudget;

use crate::Fidelity;

/// Registry solvers the sweep runs each instance through.
pub const SWEEP_SOLVERS: [&str; 2] = ["sophie", "sa"];

/// Generator seed shared by every sweep instance.
const INSTANCE_SEED: u64 = 7;

/// One (instance, solver) cell of the sweep.
#[derive(Debug)]
pub struct ProblemCell {
    /// Front-end kind, one of [`sophie::problems::KINDS`].
    pub kind: &'static str,
    /// Human label carrying the instance size.
    pub label: String,
    /// Problem spins before the ancilla (one-hot bits, codeword+aux bits).
    pub spins: usize,
    /// Registry solver name.
    pub solver: &'static str,
    /// Solve seeds run.
    pub seeds: usize,
    /// Runs whose decoded solution was feasible in the problem domain.
    pub feasible_runs: usize,
    /// The best run (highest cut) across seeds.
    pub best: ProblemRun,
}

/// The sweep instances at a given fidelity, one per front end.
///
/// # Errors
///
/// Propagates generator validation errors (impossible at the pinned
/// parameters; surfaced rather than unwrapped so the CLI can report them).
pub fn sweep_specs(fidelity: Fidelity) -> Result<Vec<(String, ProblemSpec)>, ProblemError> {
    let specs = match fidelity {
        Fidelity::Fast => vec![
            (
                "qubo-24".to_string(),
                ProblemSpec::Qubo(QuboProblem::random(24, 0.3, INSTANCE_SEED)),
            ),
            (
                "max-cut-24".to_string(),
                ProblemSpec::MaxCut(MaxCutProblem::random(24, 72, INSTANCE_SEED)?),
            ),
            (
                "coloring-12x4".to_string(),
                ProblemSpec::Coloring(ColoringProblem::random(12, 24, 4, INSTANCE_SEED)?),
            ),
            (
                "ldpc-12".to_string(),
                ProblemSpec::Ldpc(LdpcProblem::random(12, 2, 3, 1, INSTANCE_SEED)?),
            ),
        ],
        Fidelity::Full => vec![
            (
                "qubo-64".to_string(),
                ProblemSpec::Qubo(QuboProblem::random(64, 0.25, INSTANCE_SEED)),
            ),
            (
                "max-cut-64".to_string(),
                ProblemSpec::MaxCut(MaxCutProblem::random(64, 512, INSTANCE_SEED)?),
            ),
            // Average degree 3: at degree 5 (60 edges) single-flip
            // annealing reliably strands one conflicting edge — fixing it
            // needs a Kempe-chain recoloring through states costing the
            // one-hot penalty A, which geometric cooling never re-accepts.
            (
                "coloring-24x4".to_string(),
                ProblemSpec::Coloring(ColoringProblem::random(24, 36, 4, INSTANCE_SEED)?),
            ),
            (
                "ldpc-24".to_string(),
                ProblemSpec::Ldpc(LdpcProblem::random(24, 2, 4, 1, INSTANCE_SEED)?),
            ),
        ],
    };
    Ok(specs)
}

/// Objective-domain target for kinds whose optimum is a known constant:
/// a proper coloring and a satisfied codeword both score exactly `0.0`.
fn objective_target(spec: &ProblemSpec) -> Option<f64> {
    match spec {
        ProblemSpec::Coloring(_) | ProblemSpec::Ldpc(_) => Some(0.0),
        ProblemSpec::Qubo(_) | ProblemSpec::MaxCut(_) => None,
    }
}

/// Runs the full sweep: every instance through every [`SWEEP_SOLVERS`]
/// entry at `fidelity.runs()` seeds.
///
/// # Errors
///
/// Propagates compile/solve/decode errors from the problem pipeline.
pub fn run_sweep(fidelity: Fidelity) -> Result<Vec<ProblemCell>, ProblemError> {
    let registry = sophie::default_registry();
    let seeds = fidelity.runs();
    // The registry defaults are tuned for raw MAX-CUT; the penalty
    // landscapes of the encoded kinds (one-hot coloring, parity LDPC)
    // need a longer anneal, so `sa` runs with an explicit sweep budget.
    let sa_config = SaConfig {
        sweeps: match fidelity {
            Fidelity::Fast => 4000,
            Fidelity::Full => 10_000,
        },
        ..SaConfig::default()
    };
    let mut cells = Vec::new();
    for (label, spec) in sweep_specs(fidelity)? {
        for solver in SWEEP_SOLVERS {
            let config: Option<&dyn std::any::Any> = match solver {
                "sa" => Some(&sa_config),
                _ => None,
            };
            let target = objective_target(&spec);
            let mut best: Option<ProblemRun> = None;
            let mut feasible_runs = 0;
            for seed in 0..seeds as u64 {
                let run = spec.solve_with(
                    &registry,
                    solver,
                    config,
                    seed,
                    JobBudget::default(),
                    target,
                )?;
                if run.decoded.feasible() {
                    feasible_runs += 1;
                }
                let better = best
                    .as_ref()
                    .is_none_or(|b| run.report.best_cut > b.report.best_cut);
                if better {
                    best = Some(run);
                }
            }
            let best = best.expect("seeds >= 1");
            cells.push(ProblemCell {
                kind: spec.kind(),
                label: label.clone(),
                spins: best.instance.num_problem_spins(),
                solver,
                seeds,
                feasible_runs,
                best,
            });
        }
    }
    Ok(cells)
}

/// The `problems` block as a JSON value.
#[must_use]
pub fn problems_block(cells: &[ProblemCell], fidelity: Fidelity) -> Json {
    let entries = cells
        .iter()
        .map(|c| {
            let report = &c.best.report;
            let mut entry = vec![
                ("kind", c.kind.into()),
                ("label", c.label.as_str().into()),
                ("spins", c.spins.into()),
                ("solver", c.solver.into()),
                ("seeds", c.seeds.into()),
                ("feasible_runs", c.feasible_runs.into()),
                ("best_cut", report.best_cut.into()),
                ("iterations_run", report.iterations_run.into()),
                ("decoded", c.best.decoded.json()),
            ];
            if let Some(iters) = report.iterations_to_target {
                entry.push(("iterations_to_target", iters.into()));
            }
            Json::obj(entry)
        })
        .collect();
    Json::obj([
        ("schema", "sophie-problems-v1".into()),
        ("fidelity", format!("{fidelity:?}").into()),
        ("entries", entries),
        (
            "note",
            "problem-compiler sweep: each front end compiled to an Ising job, solved \
             through the registry, decoded back to domain metrics. Coloring/LDPC run \
             with an objective-domain target of 0 (feasible optimum)."
                .into(),
        ),
    ])
}

/// Upserts the `problems` block into the summary document at `path`
/// ([`crate::micro::upsert_block`]).
///
/// # Errors
///
/// Propagates the I/O error if `path` cannot be written.
pub fn write_problems(path: &Path, cells: &[ProblemCell], fidelity: Fidelity) -> io::Result<()> {
    crate::micro::upsert_block(path, "problems", problems_block(cells, fidelity))
}

/// Prints the sweep table for humans (stderr, like `repro tune`).
pub fn print_report(cells: &[ProblemCell]) {
    for c in cells {
        let target = c
            .best
            .report
            .iterations_to_target
            .map_or(String::from("-"), |i| i.to_string());
        eprintln!(
            "  {:<14} {:<8} spins {:>4}  feasible {}/{}  best cut {:>10.2}  to-target {}",
            c.label, c.solver, c.spins, c.feasible_runs, c.seeds, c.best.report.best_cut, target
        );
        eprintln!("    decoded: {}", c.best.decoded.to_json());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_sweep_covers_every_kind_and_decodes_feasibly() {
        let cells = run_sweep(Fidelity::Fast).expect("sweep");
        assert_eq!(cells.len(), 4 * SWEEP_SOLVERS.len());
        for kind in sophie::problems::KINDS {
            assert!(cells.iter().any(|c| c.kind == kind), "missing {kind}");
        }
        // The fast instances are small enough that the tuned `sa` budget
        // reaches a feasible decode at least once. The `sophie` rows are
        // measured quality data (engine defaults are MAX-CUT-tuned), not
        // gated here.
        for c in cells.iter().filter(|c| c.solver == "sa") {
            assert!(
                c.feasible_runs > 0,
                "{} via {} never feasible",
                c.label,
                c.solver
            );
        }
    }

    #[test]
    fn block_has_schema_and_upsert_preserves_other_blocks() {
        let cells = run_sweep(Fidelity::Fast).expect("sweep");
        let block = problems_block(&cells, Fidelity::Fast);
        let Json::Obj(top) = &block else {
            panic!("block must be an object")
        };
        for key in ["schema", "fidelity", "entries", "note"] {
            assert!(top.iter().any(|(k, _)| k == key), "missing {key}");
        }

        let dir = std::env::temp_dir().join(format!("sophie-problems-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_sophie.json");
        std::fs::write(
            &path,
            "{\n  \"schema\": \"sophie-bench-v1\",\n  \"kernel_tune\": {\"host\": \"x\"}\n}\n",
        )
        .unwrap();
        write_problems(&path, &cells, Fidelity::Fast).unwrap();
        write_problems(&path, &cells, Fidelity::Fast).unwrap();
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let Json::Obj(top) = doc else { panic!() };
        assert!(top.iter().any(|(k, _)| k == "kernel_tune"));
        assert_eq!(top.iter().filter(|(k, _)| k == "problems").count(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
