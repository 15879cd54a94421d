//! Kernel-choice independence of solver results.
//!
//! The kernel stack's determinism contract (see `sophie-linalg`'s
//! `kernel` module docs) promises that every kernel variant accumulates
//! in the same canonical order, so picking a different variant — by the
//! `SOPHIE_KERNEL` override or the fixed per-size rule — can never change
//! a single bit of solver output. This golden test pins that promise at
//! the level users observe it: the *entire* solve-event stream must be
//! byte-identical under `SOPHIE_KERNEL=scalar`, every other variant, and
//! the `KernelPlan::for_size` rule, at every `SOPHIE_THREADS` value. Each
//! run also checks that the override really resolved to the plan it
//! names, so a stale variant name cannot silently test `auto`.

use std::sync::{Arc, Mutex};

use sophie::core::observe::EventLog;
use sophie::core::{KernelPlan, SolveJob, Solver, SophieConfig, SophieSolver};
use sophie::graph::generate::{gnm, WeightDist};
use sophie::graph::Graph;

/// `SOPHIE_KERNEL`/`SOPHIE_THREADS` are process-global; serialize access.
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn with_env<T>(kernel: &str, threads: &str, f: impl FnOnce() -> T) -> T {
    std::env::set_var("SOPHIE_KERNEL", kernel);
    std::env::set_var("SOPHIE_THREADS", threads);
    let out = f();
    std::env::remove_var("SOPHIE_KERNEL");
    std::env::remove_var("SOPHIE_THREADS");
    out
}

/// n=100 at tile 64 gives a 2×2 grid whose edge tiles are trimmed to 36
/// used rows/columns — the stream only stays identical if the trimmed
/// fringe path is exact in every variant too.
fn test_instance() -> (Arc<Graph>, SophieSolver) {
    let g = Arc::new(gnm(100, 800, WeightDist::UniformInt { lo: -3, hi: 3 }, 5).unwrap());
    let cfg = SophieConfig {
        tile_size: 64,
        local_iters: 4,
        global_iters: 25,
        tile_fraction: 0.7,
        phi: 0.25,
        alpha: 0.1,
        ..SophieConfig::default()
    };
    let solver = SophieSolver::from_graph(&g, cfg).unwrap();
    (g, solver)
}

/// One observed run, returning the whole event stream rendered to JSONL
/// (byte comparison catches any divergence) plus the best cut.
///
/// # Panics
///
/// Panics unless the plan the run resolves is the one `kernel` names: the
/// variant pinned for both directions, or `KernelPlan::for_size` for
/// `"auto"`.
fn run_stream(solver: &SophieSolver, g: &Arc<Graph>, kernel: &str, threads: &str) -> (String, f64) {
    with_env(kernel, threads, || {
        let tile = solver.config().tile_size;
        let want = if kernel == "auto" {
            KernelPlan::for_size(tile).describe()
        } else {
            format!("fwd={kernel} trn={kernel}")
        };
        assert_eq!(
            KernelPlan::resolve(tile).describe(),
            want,
            "SOPHIE_KERNEL={kernel} did not resolve to the plan it names"
        );
        let mut log = EventLog::new();
        let outcome = solver
            .solve(&SolveJob::new(Arc::clone(g), 42), &mut log)
            .unwrap();
        let jsonl: Vec<String> = log.events().iter().map(|e| e.to_json()).collect();
        (jsonl.join("\n"), outcome.best_cut)
    })
}

#[test]
fn event_streams_are_byte_identical_across_kernels_and_threads() {
    let _guard = ENV_LOCK.lock().unwrap();
    let (g, solver) = test_instance();
    let (golden, golden_cut) = run_stream(&solver, &g, "scalar", "1");
    assert!(
        golden.contains("round_start"),
        "the run must actually emit events"
    );
    for kernel in ["scalar", "axpy", "b32u2", "auto"] {
        for threads in ["1", "4"] {
            let (stream, cut) = run_stream(&solver, &g, kernel, threads);
            assert_eq!(
                golden, stream,
                "stream diverged: kernel {kernel}, threads {threads}"
            );
            assert_eq!(golden_cut, cut);
        }
    }
}
