//! Fixtures shared by the allocation-discipline tests
//! (`tests/zero_alloc.rs` and `tests/zero_alloc_oracle.rs`): one counting
//! allocator and the sweep-storm shapes both files run.
//!
//! Each binary installs [`CountingAlloc`] as its own `#[global_allocator]`
//! and reads the count that fits what it measures: [`thread_allocations`]
//! when the measured work runs on the test's own thread (so neither
//! another test nor the harness's reporting thread can inflate a window),
//! [`process_allocations`] when the work spawns threads of its own.

// Each test binary compiles this module and uses one of the two counts.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use latr_arch::MachinePreset;
use latr_sim::{MICROSECOND, MILLISECOND};
use latr_workloads::SweepStorm;

/// Counts every allocation (`alloc`, `alloc_zeroed`, and growth via
/// `realloc`) routed through the global allocator, both for the
/// allocating thread and for the whole process.
pub struct CountingAlloc;

thread_local! {
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

static PROCESS_ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

fn count_one() {
    // `try_with`: a thread being torn down has no counter left to bump.
    let _ = THREAD_ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    PROCESS_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
}

/// Allocations made so far by the calling thread.
pub fn thread_allocations() -> u64 {
    THREAD_ALLOCATIONS.with(Cell::get)
}

/// Allocations made so far by every thread of the process.
pub fn process_allocations() -> u64 {
    PROCESS_ALLOCATIONS.load(Ordering::Relaxed)
}

// SAFETY: delegates every operation to `System` unchanged; the counters
// are a const-initialised thread-local `Cell` and a relaxed atomic,
// neither of which allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// The 16-core commodity box, every core publishing.
pub fn commodity_storm() -> SweepStorm {
    SweepStorm::new(16, 1_000_000)
}

/// The benchmark's `sweep-storm` shape: 4 publishers and 116 idle
/// sweepers on 120 cores, whose same-instant wakeups land 116 events in
/// one calendar bucket every round as the burst's phase drifts across
/// the ring.
pub fn large_storm() -> SweepStorm {
    SweepStorm::new(120, 1_000_000)
        .with_publishers(4)
        .with_sleep(MILLISECOND + 3 * MICROSECOND)
}

/// Both storms, each with the machine it runs on.
pub const STORMS: [(MachinePreset, fn() -> SweepStorm); 2] = [
    (MachinePreset::Commodity2S16C, commodity_storm),
    (MachinePreset::LargeNuma8S120C, large_storm),
];
