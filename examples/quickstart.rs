//! Quickstart: solve a max-cut instance with the SOPHIE engine.
//!
//! Builds a K100-style complete graph with ±1 weights (the paper's small
//! benchmark), runs the tiled modified-PRIS engine, and compares the
//! result against a strong classical reference.
//!
//! Run with: `cargo run --release --example quickstart`

use std::sync::Arc;

use sophie::baselines::{best_known_cut, Effort};
use sophie::core::{SophieConfig, SophieSolver};
use sophie::graph::generate::presets;
use sophie::solve::{NullObserver, SolveJob, Solver};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The paper's K100 benchmark: complete graph, random ±1 weights.
    let graph = Arc::new(presets::k100(42)?);
    println!("graph: {graph}");

    // The paper's operating point: tile 64, 10 local iterations per global
    // iteration, stochastic spin update. K100 fits in two tile rows.
    let config = SophieConfig {
        tile_size: 64,
        local_iters: 10,
        global_iters: 300,
        tile_fraction: 1.0,
        phi: 0.1,
        alpha: 0.0,
        stochastic_spin_update: true,
        ..SophieConfig::default()
    };
    let solver = SophieSolver::from_graph(&graph, config)?;
    println!(
        "tiled into {} blocks → {} symmetric pairs (physical OPCM arrays)",
        solver.grid().blocks(),
        solver.num_pairs()
    );

    let reference = best_known_cut(&graph, Effort::Standard);
    let mut best = f64::NEG_INFINITY;
    for seed in 0..5 {
        let job = SolveJob::new(Arc::clone(&graph), seed).with_target(Some(0.95 * reference));
        let report = solver.solve(&job, &mut NullObserver)?;
        println!(
            "seed {seed}: best cut {:>7.1} ({:.1} % of reference){}",
            report.best_cut,
            100.0 * report.best_cut / reference,
            match report.iterations_to_target {
                Some(g) => format!(", reached 95 % after {g} global iterations"),
                None => String::new(),
            }
        );
        best = best.max(report.best_cut);
    }
    println!("reference (SB + local search): {reference:.1}");
    println!("SOPHIE best over 5 seeds:      {best:.1}");
    Ok(())
}
