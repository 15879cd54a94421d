//! The daemon's `stats` latency histograms hold constant memory however
//! many jobs finish.
//!
//! A counting global allocator tracks live heap bytes for this test
//! binary, which holds this one test so no other test allocates while it
//! runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use sophie_serve::{Json, Metrics};

struct CountingAlloc;

static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every call forwards to the system allocator unchanged; the
// counter is only bookkeeping.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn stats_memory_is_constant_over_a_million_recorded_jobs() {
    let metrics = Metrics::new();
    for solver in ["sa", "sophie"] {
        metrics.record_latency(solver, 1.0);
    }
    let before = LIVE_BYTES.load(Ordering::Relaxed);
    for i in 0..1_000_000_u32 {
        let solver = if i % 2 == 0 { "sa" } else { "sophie" };
        metrics.record_latency(solver, f64::from(i % 5_000) * 0.1 + 0.05);
    }
    let after = LIVE_BYTES.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "recording 10^6 latencies changed live heap by {} bytes",
        after - before
    );

    let stats = Json::parse(&Json::obj(metrics.snapshot(0)).to_string()).unwrap();
    let latency = stats.get("latency_ms").unwrap();
    for solver in ["sa", "sophie"] {
        assert_eq!(
            latency.get(solver).unwrap().get("count").unwrap().as_u64(),
            Some(500_001)
        );
    }
}
