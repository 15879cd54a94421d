//! Recorded digests of the SA, PT and BLS baselines' results.
//!
//! Each digest covers one solver on one graph kind, over budgets of 1, 7
//! and 60 sweeps (SA), exchange rounds (PT) or perturbation rounds (BLS)
//! and three seeds. It takes in everything a run reports through
//! `Solver::solve` (best-cut bits, best bits, the cut and activity traces,
//! the best and target iterations, the event stream) and the plain entry
//! point's own counts (SA's accepted flips and best sweep, PT's swaps,
//! BLS's moves).
//!
//! The graph kinds cover every path a flip gain can take: ±1, unit,
//! quarter and sixteenth weights (integer forms), a node with no edge
//! (whose gain is `-0.0`), a graph with no edge (whose cut stays `-0.0`
//! only while every gain is `-0.0`), and two graphs with no integer form,
//! one with a weight of 0.1 and an LDPC instance. A change that claims to keep every
//! bit must leave these digests unchanged. Set `SOPHIE_PRINT_DIGESTS=1` to
//! print them instead of checking.

mod common;

use std::sync::Arc;

use common::Fnv;
use sophie::baselines::local_search::search;
use sophie::baselines::sa::anneal;
use sophie::baselines::tempering::temper;
use sophie::baselines::{BlsConfig, BlsSolver, PtConfig, PtSolver, SaConfig, SaSolver};
use sophie::graph::generate::{gnm, presets, WeightDist};
use sophie::graph::{Graph, GraphBuilder};
use sophie::problems::{LdpcProblem, QuboProblem};
use sophie::solve::{EventLog, SolveJob, SolveReport, Solver};

const BUDGETS: [usize; 3] = [1, 7, 60];
const SEEDS: [u64; 3] = [0, 1, 2];

/// The graph kinds, by label.
fn graphs() -> Vec<(&'static str, Arc<Graph>)> {
    let qubo = QuboProblem::random(64, 0.25, 7).compile().unwrap();
    let ldpc = LdpcProblem::random(24, 2, 4, 1, 11)
        .unwrap()
        .compile()
        .unwrap();
    vec![
        ("K60", Arc::new(presets::k_graph(60, 1).unwrap())),
        ("qubo64", Arc::clone(qubo.graph())),
        (
            "gnm64",
            Arc::new(gnm(64, 256, WeightDist::Unit, 3).unwrap()),
        ),
        ("isolated", Arc::new(with_isolated_node())),
        ("edgeless", Arc::new(GraphBuilder::new(8).build().unwrap())),
        ("tenth", Arc::new(with_a_tenth())),
        ("ldpc24", Arc::clone(ldpc.graph())),
    ]
}

/// Quarter weights on 25 nodes, node 12 without an edge.
fn with_isolated_node() -> Graph {
    let base = gnm(24, 70, WeightDist::UniformInt { lo: -3, hi: 3 }, 5).unwrap();
    let shift = |u: usize| if u < 12 { u } else { u + 1 };
    let mut b = GraphBuilder::new(25);
    for e in base.edges() {
        b.add_edge(shift(e.u), shift(e.v), e.w / 4.0).unwrap();
    }
    let g = b.build().unwrap();
    assert_eq!(g.degree(12), 0);
    g
}

/// Unit weights but one 0.1: no common `2^-p` fits.
fn with_a_tenth() -> Graph {
    let base = gnm(40, 120, WeightDist::Unit, 9).unwrap();
    let mut b = GraphBuilder::new(40);
    for (i, e) in base.edges().enumerate() {
        b.add_edge(e.u, e.v, if i == 0 { 0.1 } else { e.w })
            .unwrap();
    }
    b.build().unwrap()
}

/// A target some runs reach and some do not: a tenth of the way from a
/// random state's expected cut towards `Σ|w|`.
fn target(g: &Graph) -> f64 {
    let total: f64 = g.edges().map(|e| e.w).sum();
    let abs: f64 = g.edges().map(|e| e.w.abs()).sum();
    total / 2.0 + 0.1 * abs
}

fn feed_report(h: &mut Fnv, r: &SolveReport) {
    h.feed(&r.best_cut.to_bits().to_le_bytes());
    h.feed(&(r.best_iteration as u64).to_le_bytes());
    h.feed(&(r.iterations_run as u64).to_le_bytes());
    h.feed(
        &r.iterations_to_target
            .map_or(u64::MAX, |i| i as u64)
            .to_le_bytes(),
    );
    h.feed(&(r.cut_trace.len() as u64).to_le_bytes());
    for c in &r.cut_trace {
        h.feed(&c.to_bits().to_le_bytes());
    }
    h.feed(&(r.activity_trace.len() as u64).to_le_bytes());
    for &a in &r.activity_trace {
        h.feed(&(a as u64).to_le_bytes());
    }
    let bits: Vec<u8> = r.best_bits.iter().map(|&b| u8::from(b)).collect();
    h.feed(&bits);
}

fn feed_spins(h: &mut Fnv, best_cut: f64, spins: &[i8]) {
    h.feed(&best_cut.to_bits().to_le_bytes());
    let bytes: Vec<u8> = spins.iter().map(|&s| s as u8).collect();
    h.feed(&bytes);
}

/// One run of `solver` at `budget` and `seed`, through both entry points.
fn feed_run(h: &mut Fnv, solver: &str, g: &Arc<Graph>, budget: usize, seed: u64) {
    let job = SolveJob::new(Arc::clone(g), seed).with_target(Some(target(g)));
    let mut log = EventLog::new();
    let report = match solver {
        "sa" => {
            let config = SaConfig {
                sweeps: budget,
                seed,
                ..SaConfig::default()
            };
            let out = anneal(g, &config);
            feed_spins(h, out.best_cut, &out.best_spins);
            h.feed(&out.accepted.to_le_bytes());
            h.feed(&out.attempts.to_le_bytes());
            h.feed(&(out.best_sweep as u64).to_le_bytes());
            SaSolver::new(config).unwrap().solve(&job, &mut log)
        }
        "pt" => {
            let config = PtConfig {
                exchanges: budget,
                seed,
                ..PtConfig::default()
            };
            let out = temper(g, &config);
            feed_spins(h, out.best_cut, &out.best_spins);
            h.feed(&out.swaps_accepted.to_le_bytes());
            h.feed(&out.swaps_attempted.to_le_bytes());
            PtSolver::new(config).unwrap().solve(&job, &mut log)
        }
        "bls" => {
            let config = BlsConfig {
                rounds: budget,
                seed,
                ..BlsConfig::default()
            };
            let out = search(g, &config);
            feed_spins(h, out.best_cut, &out.best_spins);
            h.feed(&out.moves.to_le_bytes());
            BlsSolver::new(config).unwrap().solve(&job, &mut log)
        }
        other => panic!("unknown solver {other}"),
    };
    feed_report(h, &report.unwrap());
    h.feed(&common::event_digest(log.events()).to_le_bytes());
}

/// Digests recorded before the baselines took their gains from
/// `sophie_graph::cut::FlipGains`, with every gain from `flip_gain`.
const GOLDEN: &[(&str, &str, u64)] = &[
    ("sa", "K60", 0x9c4f_a553_84c8_41c3),
    ("pt", "K60", 0xe022_a3e0_cc25_4fae),
    ("bls", "K60", 0xa9de_cbbd_bb4e_543c),
    ("sa", "qubo64", 0xbd2b_110d_9239_e350),
    ("pt", "qubo64", 0x8ae3_d432_741c_8027),
    ("bls", "qubo64", 0x1fbb_873b_8d17_8197),
    ("sa", "gnm64", 0x08f2_da82_300a_2147),
    ("pt", "gnm64", 0x3daa_1749_e8d5_ceda),
    ("bls", "gnm64", 0xceab_1d71_12e7_a660),
    ("sa", "isolated", 0xa478_5109_0711_fe17),
    ("pt", "isolated", 0x09a4_d25b_5988_8ce4),
    ("bls", "isolated", 0xba0e_5b0e_35bf_7f9c),
    ("sa", "edgeless", 0xb4dd_d0a0_7e34_a830),
    ("pt", "edgeless", 0x2908_2cae_fd5a_ea0d),
    ("bls", "edgeless", 0x591e_64e0_ccbc_54c7),
    ("sa", "tenth", 0x815e_aeee_170a_ab16),
    ("pt", "tenth", 0x6d4a_eb06_4b8a_83ab),
    ("bls", "tenth", 0x0f8d_462e_a3e4_b576),
    ("sa", "ldpc24", 0xd661_f602_4959_76d8),
    ("pt", "ldpc24", 0x624c_6881_ca71_e6e6),
    ("bls", "ldpc24", 0x61b9_f900_fff3_6089),
];

#[test]
fn baseline_results_match_recorded_digests() {
    let print = std::env::var_os("SOPHIE_PRINT_DIGESTS").is_some();
    let mut mismatches = Vec::new();
    for (label, g) in graphs() {
        for solver in ["sa", "pt", "bls"] {
            let mut h = Fnv::default();
            for budget in BUDGETS {
                for seed in SEEDS {
                    feed_run(&mut h, solver, &g, budget, seed);
                }
            }
            if print {
                println!("    (\"{solver}\", \"{label}\", {:#018x}),", h.0);
                continue;
            }
            let want = GOLDEN
                .iter()
                .find(|(s, l, _)| *s == solver && *l == label)
                .unwrap_or_else(|| panic!("no golden digest for {solver} on {label}"))
                .2;
            if h.0 != want {
                mismatches.push(format!("{solver} on {label}: {:#018x}", h.0));
            }
        }
    }
    assert!(mismatches.is_empty(), "digests moved: {mismatches:?}");
}

/// The graph kinds cover what the module docs say: five with an integer
/// form and two without, sixteenth weights and an ancilla in the lowered
/// QUBO, and a `-0.0` gain.
#[test]
fn graph_kinds_cover_both_gain_paths() {
    use sophie::graph::cut::{flip_gain, CutScorer};
    let kinds = graphs();
    let exact: Vec<bool> = kinds
        .iter()
        .map(|(_, g)| CutScorer::new(g).is_exact())
        .collect();
    assert_eq!(exact, [true, true, true, true, true, false, false]);
    let qubo = QuboProblem::random(64, 0.25, 7).compile().unwrap();
    assert!(qubo.ancilla().is_some(), "the lowered QUBO has an ancilla");
    assert!(qubo.graph().edges().any(|e| (e.w * 16.0) % 2.0 != 0.0));
    let (_, isolated) = &kinds[3];
    let spins = vec![1_i8; isolated.num_nodes()];
    assert!(flip_gain(isolated, &spins, 12).is_sign_negative());
    assert_eq!(flip_gain(isolated, &spins, 12), 0.0);
}
