//! An engine whose round would queue more than
//! `SophieConfig::MAX_ROUND_STEPS` chain steps is refused before it
//! preprocesses or tiles anything.
//!
//! A counting global allocator totals the bytes this test binary
//! allocates, which holds this one test so no other test allocates while
//! it runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use sophie_core::{SophieConfig, SophieError, SophieSolver};
use sophie_graph::generate::{complete, WeightDist};
use sophie_linalg::Matrix;

struct CountingAlloc;

static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to the system allocator unchanged; the
// counter is only bookkeeping.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size.saturating_sub(layout.size()), Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `build`, asserting that it is refused on `local_iters` and that
/// it allocated no more than its error message needs: no transform, no
/// tile.
fn assert_refused_before_tiling(build: impl FnOnce() -> sophie_core::Result<SophieSolver>) {
    let before = ALLOCATED.load(Ordering::Relaxed);
    let result = build();
    let allocated = ALLOCATED.load(Ordering::Relaxed) - before;
    match result {
        Err(SophieError::BadConfig {
            field: "local_iters",
            message,
        }) => assert!(message.contains("steps per round"), "{message}"),
        Err(other) => panic!("expected the round-step bound, got {other}"),
        Ok(_) => panic!("an oversized round was accepted"),
    }
    assert!(
        allocated < 1024,
        "the refused build allocated {allocated} bytes"
    );
}

#[test]
fn oversized_rounds_are_refused_before_any_tile_is_built() {
    // K20 at tile 8 has 6 tile pairs: 10^9 local iterations would queue
    // 6 × 10^9 commands in one round.
    let k20 = complete(20, WeightDist::Unit, 0).unwrap();
    let long = SophieConfig {
        tile_size: 8,
        local_iters: 1_000_000_000,
        global_iters: 1,
        ..SophieConfig::default()
    };
    assert_refused_before_tiling(|| SophieSolver::from_graph(&k20, long.clone()));

    // 512 nodes at tile 1: 131,328 pairs, above the limit at one local
    // iteration; 511 nodes (130,816 pairs) fit.
    let c = Matrix::identity(512);
    let fine = SophieConfig {
        tile_size: 1,
        local_iters: 1,
        global_iters: 1,
        ..SophieConfig::default()
    };
    assert_refused_before_tiling(|| SophieSolver::from_transform(&c, fine.clone()));
    assert!(fine.validate_for(511).is_ok());
}
