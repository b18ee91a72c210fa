//! A warm launch allocates nothing per CTA.
//!
//! `Engine::run` keeps each thread's run state between launches and resets
//! it, keeping its buffers. Once one launch has grown those buffers, a
//! launch of 216 CTAs and one of 3,584 must make the same number of heap
//! allocations: what is left is per kernel and per report. This binary
//! holds one test so that nothing else runs while it counts.

use gpu_sim::{Engine, Footprint, GpuConfig, KernelLaunch, OpClass, UnitRuns, WorkUnit};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting this thread's allocations and
/// reallocations.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    // During thread teardown the counter is gone; nothing is counted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so the
// caller's guarantees pass through and `System`'s hold; the count touches
// only a const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// A decode-like grid of `ctas` one-unit CTAs, as the attention kernels
/// launch it: one run of identical units.
fn decode_grid(ctas: usize) -> KernelLaunch {
    let mut runs = UnitRuns::new();
    runs.push(WorkUnit::new(OpClass::Decode, 2e6, 4e6), ctas);
    KernelLaunch::from_runs("decode", Footprint::default(), runs)
}

/// Allocations made by running `kernel`, built before counting starts.
fn allocations(engine: &Engine, kernel: KernelLaunch) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    let report = engine.run_kernel(kernel).unwrap();
    let after = ALLOCATIONS.with(Cell::get);
    assert!(report.total_ctas > 0);
    after - before
}

#[test]
fn a_warm_launch_allocates_nothing_per_cta() {
    let engine = Engine::new(GpuConfig::a100_80gb());
    allocations(&engine, decode_grid(3584));
    let small = allocations(&engine, decode_grid(216));
    let large = allocations(&engine, decode_grid(3584));
    assert_eq!(
        small, large,
        "allocations in a warm launch: {small} for 216 CTAs, {large} for 3,584"
    );
}
