//! Hardware-in-the-loop functional simulation.
//!
//! Runs the identical tiled algorithm on (a) the exact floating-point
//! backend and (b) the OPCM device model — quantized GST cells, analog
//! read noise, 8-bit partial-sum ADC — and shows how solution quality
//! holds up as the cells get coarser. This is the experiment that
//! justifies trusting an analog optical substrate with the algorithm.
//!
//! Run with: `cargo run --release --example hardware_sim`

use std::sync::Arc;

use sophie::core::{SophieConfig, SophieSolver};
use sophie::graph::generate::{gnm, WeightDist};
use sophie::hw::device::opcm::OpcmCellSpec;
use sophie::hw::{OpcmBackendConfig, SophieOpcm};
use sophie::solve::{NullObserver, SolveJob, Solver};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let graph = Arc::new(gnm(512, 4096, WeightDist::Unit, 3)?);
    let config = SophieConfig {
        tile_size: 64,
        global_iters: 150,
        phi: 0.1,
        ..SophieConfig::default()
    };
    // One preprocessed engine, shared by the ideal run and every device
    // model below.
    let engine = Arc::new(SophieSolver::from_graph(&graph, config)?);
    let runs = 3u64;

    let best_cut = |solver: &dyn Solver, seed: u64| {
        solver
            .solve(&SolveJob::new(Arc::clone(&graph), seed), &mut NullObserver)
            .expect("engine run")
            .best_cut
    };
    let best = |mk: &dyn Fn(u64) -> f64| (0..runs).map(mk).fold(f64::NEG_INFINITY, f64::max);

    let ideal = best(&|seed| best_cut(engine.as_ref(), seed));
    println!("{:<34} {:>9.1}", "ideal floating-point backend", ideal);

    for levels in [64u32, 16, 8, 4, 2] {
        let cut = best(&|seed| {
            let device = SophieOpcm::from_engine(
                Arc::clone(&engine),
                OpcmBackendConfig {
                    cell: OpcmCellSpec {
                        levels,
                        ..OpcmCellSpec::default()
                    },
                    read_noise: 0.01,
                    adc_bits: 8,
                    seed: seed * 17 + 1,
                    ..OpcmBackendConfig::default()
                },
            )
            .expect("valid backend config");
            best_cut(&device, seed)
        });
        println!(
            "OPCM backend, {levels:>2}-level cells      {cut:>9.1}  ({:.1} % of ideal)",
            100.0 * cut / ideal
        );
    }
    println!("\n(64-level ≈ 6-bit GST cells are the demonstrated state of the art [21];");
    println!(" the paper's design point loses almost nothing against exact arithmetic.)");
    Ok(())
}
