//! The compiler's front door: one enum over every front end, dispatched
//! through the [`SolverRegistry`].

use std::any::Any;

use sophie_solve::{JobBudget, Json, NullObserver, SolveJob, SolveReport, SolverRegistry};

use crate::coloring::{ColoringProblem, ColoringSolution};
use crate::error::ProblemError;
use crate::instance::IsingInstance;
use crate::ldpc::{LdpcProblem, LdpcSolution};
use crate::maxcut::{MaxCutProblem, MaxCutSolution};
use crate::qubo::{QuboProblem, QuboSolution};

/// The front-end kinds the compiler supports, in the order
/// [`ProblemSpec::kind`] reports them — the capability list serve
/// advertises in `list-solvers`.
pub const KINDS: [&str; 4] = ["qubo", "max-cut", "coloring", "ldpc"];

/// A problem accepted by the compiler: any front end, uniformly
/// compilable to an [`IsingInstance`] and decodable from a solver's best
/// bits.
#[derive(Debug, Clone, PartialEq)]
pub enum ProblemSpec {
    /// Generic QUBO minimization.
    Qubo(QuboProblem),
    /// Weighted MAX-CUT (the substrate's native workload).
    MaxCut(MaxCutProblem),
    /// Graph coloring / antiferromagnetic Potts via one-hot encoding.
    Coloring(ColoringProblem),
    /// LDPC decoding as Ising energy minimization.
    Ldpc(LdpcProblem),
}

/// A solution mapped back to its problem domain, with quality metrics.
#[derive(Debug, Clone, PartialEq)]
pub enum Decoded {
    /// See [`QuboSolution`].
    Qubo(QuboSolution),
    /// See [`MaxCutSolution`].
    MaxCut(MaxCutSolution),
    /// See [`ColoringSolution`].
    Coloring(ColoringSolution),
    /// See [`LdpcSolution`].
    Ldpc(LdpcSolution),
}

/// The result of pushing one problem through compile → solve → decode.
#[derive(Debug, Clone)]
pub struct ProblemRun {
    /// The lowered instance the solver ran on.
    pub instance: IsingInstance,
    /// The solver's run summary (cut-domain).
    pub report: SolveReport,
    /// The decoded problem-domain solution.
    pub decoded: Decoded,
}

impl ProblemSpec {
    /// The front-end kind, one of [`KINDS`].
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            ProblemSpec::Qubo(_) => "qubo",
            ProblemSpec::MaxCut(_) => "max-cut",
            ProblemSpec::Coloring(_) => "coloring",
            ProblemSpec::Ldpc(_) => "ldpc",
        }
    }

    /// Lowers the problem to an [`IsingInstance`].
    ///
    /// # Errors
    ///
    /// [`ProblemError::Invalid`] if the lowering fails.
    pub fn compile(&self) -> Result<IsingInstance, ProblemError> {
        match self {
            ProblemSpec::Qubo(p) => p.compile(),
            ProblemSpec::MaxCut(p) => p.compile(),
            ProblemSpec::Coloring(p) => p.compile(),
            ProblemSpec::Ldpc(p) => p.compile(),
        }
    }

    /// Decodes a solver's best bits (graph order, ancilla included)
    /// back to the problem domain.
    ///
    /// # Errors
    ///
    /// [`ProblemError::Decode`] on a shape mismatch with the instance.
    pub fn decode(
        &self,
        instance: &IsingInstance,
        best_bits: &[bool],
    ) -> Result<Decoded, ProblemError> {
        Ok(match self {
            ProblemSpec::Qubo(p) => Decoded::Qubo(p.decode(instance, best_bits)?),
            ProblemSpec::MaxCut(p) => Decoded::MaxCut(p.decode(instance, best_bits)?),
            ProblemSpec::Coloring(p) => Decoded::Coloring(p.decode(instance, best_bits)?),
            ProblemSpec::Ldpc(p) => Decoded::Ldpc(p.decode(instance, best_bits)?),
        })
    }

    /// FNV-1a content digest of the problem's identity: the kind, the
    /// compiled instance's canonical bytes, and any decode-relevant state
    /// the instance alone does not determine (coloring shape, LDPC checks
    /// and channel words). Two specs with equal digests decode solver
    /// results identically, so the digest is safe to fold into
    /// content-addressed job keys.
    #[must_use]
    pub fn digest(&self, instance: &IsingInstance) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(PRIME);
            }
        };
        eat(self.kind().as_bytes());
        eat(&instance.canonical_bytes());
        match self {
            ProblemSpec::Qubo(_) | ProblemSpec::MaxCut(_) => {}
            ProblemSpec::Coloring(p) => {
                eat(&(p.num_nodes() as u64).to_le_bytes());
                eat(&(p.num_colors() as u64).to_le_bytes());
            }
            ProblemSpec::Ldpc(p) => {
                eat(&(p.code_length() as u64).to_le_bytes());
                for members in p.checks() {
                    eat(&(members.len() as u64).to_le_bytes());
                    for &i in members {
                        eat(&(i as u64).to_le_bytes());
                    }
                }
                for &r in p.received() {
                    eat(&[u8::from(r)]);
                }
                if let Some(c) = p.codeword() {
                    for &b in c {
                        eat(&[u8::from(b)]);
                    }
                }
            }
        }
        h
    }

    /// Compiles the problem, runs it on a registry solver, and decodes
    /// the winning state — the whole pipeline in one call.
    ///
    /// `config` picks the solver configuration (`None` uses the solver's
    /// default); `objective_target` is in the *problem's* units and is
    /// translated to a cut target via
    /// [`IsingInstance::cut_for_objective`].
    ///
    /// # Errors
    ///
    /// [`ProblemError`] for compile/decode failures, and
    /// [`ProblemError::Solve`] when the registry or solver fails.
    pub fn solve_with(
        &self,
        registry: &SolverRegistry,
        solver: &str,
        config: Option<&dyn Any>,
        seed: u64,
        budget: JobBudget,
        objective_target: Option<f64>,
    ) -> Result<ProblemRun, ProblemError> {
        let instance = self.compile()?;
        let solver = match config {
            Some(c) => registry.build(solver, c)?,
            None => registry.build_default(solver)?,
        };
        let job = SolveJob::new(instance.graph().clone(), seed)
            .with_target(objective_target.map(|o| instance.cut_for_objective(o)))
            .with_budget(budget);
        let report = solver.solve(&job, &mut NullObserver)?;
        if report.best_bits.is_empty() {
            return Err(ProblemError::Decode {
                message: format!(
                    "solver '{}' returned no best-state bits to decode",
                    report.solver
                ),
            });
        }
        let decoded = self.decode(&instance, &report.best_bits)?;
        Ok(ProblemRun {
            instance,
            report,
            decoded,
        })
    }
}

impl Decoded {
    /// Whether the solution satisfies its domain's hard constraints.
    /// Unconstrained domains (QUBO, MAX-CUT) are always feasible.
    #[must_use]
    pub fn feasible(&self) -> bool {
        match self {
            Decoded::Qubo(_) | Decoded::MaxCut(_) => true,
            Decoded::Coloring(s) => s.feasible,
            Decoded::Ldpc(s) => s.feasible,
        }
    }

    /// Summary-only JSON object: the `kind`, then scalar quality
    /// metrics, no assignment vectors — sized for result frames and bench
    /// blocks.
    #[must_use]
    pub fn json(&self) -> Json {
        match self {
            Decoded::Qubo(s) => {
                Json::obj([("kind", "qubo".into()), ("objective", s.objective.into())])
            }
            Decoded::MaxCut(s) => Json::obj([("kind", "max-cut".into()), ("cut", s.cut.into())]),
            Decoded::Coloring(s) => Json::obj([
                ("kind", "coloring".into()),
                ("conflicts", s.conflicts.into()),
                ("one_hot_violations", s.one_hot_violations.into()),
                ("feasible", s.feasible.into()),
            ]),
            Decoded::Ldpc(s) => Json::obj([
                ("kind", "ldpc".into()),
                ("unsatisfied_checks", s.unsatisfied_checks.into()),
                ("bit_errors", s.bit_errors.into()),
                ("bit_error_rate", s.bit_error_rate.into()),
                ("feasible", s.feasible.into()),
            ]),
        }
    }

    /// [`Self::json`] as one line of text.
    #[must_use]
    pub fn to_json(&self) -> String {
        self.json().to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn specs() -> Vec<ProblemSpec> {
        vec![
            ProblemSpec::Qubo(QuboProblem::random(8, 0.5, 1)),
            ProblemSpec::MaxCut(MaxCutProblem::random(8, 16, 2).unwrap()),
            ProblemSpec::Coloring(ColoringProblem::random(5, 7, 3, 3).unwrap()),
            ProblemSpec::Ldpc(LdpcProblem::random(6, 2, 3, 1, 4).unwrap()),
        ]
    }

    #[test]
    fn kinds_match_the_capability_list() {
        let kinds: Vec<&str> = specs().iter().map(ProblemSpec::kind).collect();
        assert_eq!(kinds, KINDS.to_vec());
    }

    #[test]
    fn every_kind_compiles_and_digests_deterministically() {
        for spec in specs() {
            let a = spec.compile().unwrap();
            let b = spec.compile().unwrap();
            assert_eq!(a.canonical_bytes(), b.canonical_bytes(), "{}", spec.kind());
            assert_eq!(spec.digest(&a), spec.digest(&b), "{}", spec.kind());
        }
    }

    #[test]
    fn digests_separate_kinds_and_contents() {
        let digests: Vec<u64> = specs()
            .iter()
            .map(|s| s.digest(&s.compile().unwrap()))
            .collect();
        let unique: std::collections::HashSet<u64> = digests.iter().copied().collect();
        assert_eq!(unique.len(), digests.len(), "kind digests collide");

        // Same lowered QUBO, different channel truth: LDPC digests differ
        // because decode metrics (BER) differ.
        let a = ProblemSpec::Ldpc(LdpcProblem::random(6, 2, 3, 1, 10).unwrap());
        let b = ProblemSpec::Ldpc(LdpcProblem::random(6, 2, 3, 1, 11).unwrap());
        assert_ne!(
            a.digest(&a.compile().unwrap()),
            b.digest(&b.compile().unwrap())
        );
    }

    /// Exact bytes for all four kinds: scalar metrics only, never the
    /// assignment vectors, and an unknown LDPC truth word as `null`.
    #[test]
    fn decoded_json_bytes_are_pinned() {
        let decoded = [
            Decoded::Qubo(QuboSolution {
                assignment: vec![true, false],
                objective: -3.5,
            }),
            Decoded::MaxCut(MaxCutSolution {
                partition: vec![true, false],
                cut: 0.1 + 0.2,
            }),
            Decoded::Coloring(ColoringSolution {
                colors: vec![0, 1, 2],
                one_hot_violations: 2,
                conflicts: 0.0,
                feasible: false,
            }),
            Decoded::Ldpc(LdpcSolution {
                decoded: vec![false; 6],
                unsatisfied_checks: 1,
                bit_errors: None,
                bit_error_rate: None,
                feasible: false,
            }),
            Decoded::Ldpc(LdpcSolution {
                decoded: vec![false; 6],
                unsatisfied_checks: 0,
                bit_errors: Some(3),
                bit_error_rate: Some(0.25),
                feasible: true,
            }),
        ];
        let got: Vec<String> = decoded.iter().map(Decoded::to_json).collect();
        assert_eq!(got, [
            "{\"kind\":\"qubo\",\"objective\":-3.5}",
            "{\"kind\":\"max-cut\",\"cut\":0.30000000000000004}",
            "{\"kind\":\"coloring\",\"conflicts\":0,\"one_hot_violations\":2,\"feasible\":false}",
            "{\"kind\":\"ldpc\",\"unsatisfied_checks\":1,\"bit_errors\":null,\"bit_error_rate\":null,\
            \"feasible\":false}",
            "{\"kind\":\"ldpc\",\"unsatisfied_checks\":0,\"bit_errors\":3,\"bit_error_rate\":0.25,\
            \"feasible\":true}",
        ]);
    }

    #[test]
    fn feasibility_tracks_domain_constraints() {
        // All-true bits: QUBO/MAX-CUT trivially feasible; a triangle
        // coloring where every node has every color is not.
        let spec = ProblemSpec::Coloring(
            ColoringProblem::new(3, 3, &[(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)]).unwrap(),
        );
        let inst = spec.compile().unwrap();
        let decoded = spec
            .decode(&inst, &vec![true; inst.graph().num_nodes()])
            .unwrap();
        assert!(!decoded.feasible());
    }
}
