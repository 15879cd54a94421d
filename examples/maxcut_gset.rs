//! GSET-style workload: SOPHIE vs software baselines on a G1-shaped graph.
//!
//! Regenerates a GSET-G1-shaped instance (800 nodes, 19 176 unit-weight
//! edges — drop a real GSET file on stdin to use it instead), then runs
//! the SOPHIE engine, plain PRIS, simulated annealing, discrete simulated
//! bifurcation, and breakout local search, reporting each solver's cut.
//!
//! Run with: `cargo run --release --example maxcut_gset [< G1.txt]`

use std::io::{IsTerminal, Read};
use std::sync::Arc;

use sophie::baselines::local_search::{search, BlsConfig};
use sophie::baselines::sa::{anneal, SaConfig};
use sophie::baselines::sb::{bifurcate, SbConfig};
use sophie::core::{SophieConfig, SophieSolver};
use sophie::graph::generate::presets;
use sophie::graph::{io, Graph, GraphStats};
use sophie::pris::{PrisJobConfig, PrisSolver};
use sophie::solve::{NullObserver, SolveJob, Solver};

fn load_graph() -> Result<Graph, Box<dyn std::error::Error>> {
    let stdin = std::io::stdin();
    if stdin.is_terminal() {
        Ok(presets::g1_like(1)?)
    } else {
        let mut text = String::new();
        stdin.lock().read_to_string(&mut text)?;
        Ok(io::parse_graph(&text)?)
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let graph = Arc::new(load_graph()?);
    println!("instance: {}", GraphStats::compute(&graph));
    let job = SolveJob::new(Arc::clone(&graph), 7);

    let mut results: Vec<(&str, f64)> = Vec::new();

    // SOPHIE's tiled engine at the paper's operating point.
    let config = SophieConfig {
        global_iters: 150,
        phi: 0.1,
        ..SophieConfig::default()
    };
    let solver = SophieSolver::from_graph(&graph, config)?;
    let sophie = solver.solve(&job, &mut NullObserver)?;
    results.push(("SOPHIE (tiled engine)", sophie.best_cut));

    // Original (untiled) PRIS.
    let pris = PrisSolver::new(
        PrisJobConfig {
            alpha: 0.0,
            iterations: 1500,
            phi: 0.1,
        },
        Arc::default(),
    )
    .solve(&job, &mut NullObserver)?;
    results.push(("PRIS (original)", pris.best_cut));

    results.push((
        "Simulated annealing",
        anneal(&graph, &SaConfig::default()).best_cut,
    ));
    results.push((
        "Discrete simulated bifurcation",
        bifurcate(&graph, &SbConfig::default()).best_cut,
    ));
    results.push((
        "Breakout local search",
        search(&graph, &BlsConfig::default()).best_cut,
    ));

    let best = results
        .iter()
        .map(|r| r.1)
        .fold(f64::NEG_INFINITY, f64::max);
    println!("\n{:<32} {:>10} {:>8}", "solver", "cut", "vs best");
    for (name, cut) in &results {
        println!("{name:<32} {cut:>10.1} {:>7.1}%", 100.0 * cut / best);
    }
    Ok(())
}
