//! Fixtures shared by the allocation-discipline tests
//! (`tests/zero_alloc.rs` and `tests/zero_alloc_oracle.rs`): one counting
//! allocator and the sweep-storm shapes both files run.
//!
//! Each binary installs [`CountingAlloc`] as its own `#[global_allocator]`
//! and reads the count that fits what it measures: [`thread_allocations`]
//! when the measured work runs on the test's own thread (so neither
//! another test nor the harness's reporting thread can inflate a window),
//! [`process_allocations`] when the work spawns threads of its own. The
//! allocator counts bytes too, in the same two scopes: [`Bytes`] holds
//! the bytes allocated so far and the peak of the bytes live at once.

// Each test binary compiles this module and uses one of the two counts.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

use latr_arch::MachinePreset;
use latr_sim::{MICROSECOND, MILLISECOND};
use latr_workloads::SweepStorm;

/// Counts every allocation (`alloc`, `alloc_zeroed`, and growth via
/// `realloc`) routed through the global allocator, both for the
/// allocating thread and for the whole process, and the bytes they
/// take: an allocation's size, or a reallocation's change in size.
pub struct CountingAlloc;

/// Byte counts of one scope (a thread, or the process).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Bytes {
    /// Bytes allocated so far: every allocation's size plus every
    /// reallocation's growth; frees do not subtract.
    pub allocated: u64,
    /// The most bytes live at once (allocated and not yet freed, by this
    /// scope) since the last [`reset_thread_peak`] or
    /// [`reset_process_peak`]. A thread that frees another thread's
    /// allocation counts the free, so a thread's live bytes may dip
    /// below zero.
    pub peak_live: i64,
}

thread_local! {
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static THREAD_BYTES: Cell<u64> = const { Cell::new(0) };
    static THREAD_LIVE: Cell<i64> = const { Cell::new(0) };
    static THREAD_PEAK: Cell<i64> = const { Cell::new(0) };
}

static PROCESS_ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static PROCESS_BYTES: AtomicU64 = AtomicU64::new(0);
static PROCESS_LIVE: AtomicI64 = AtomicI64::new(0);
static PROCESS_PEAK: AtomicI64 = AtomicI64::new(0);

/// Records one allocation event that changes the live bytes by `delta`
/// (`counted`: whether it is an allocation, as a free is not).
fn record(counted: bool, delta: i64) {
    let grown = delta.max(0) as u64;
    // `try_with`: a thread being torn down has no counters left to bump.
    let _ = THREAD_LIVE.try_with(|live| {
        live.set(live.get() + delta);
        THREAD_PEAK.with(|peak| peak.set(peak.get().max(live.get())));
        THREAD_BYTES.with(|n| n.set(n.get() + grown));
        if counted {
            THREAD_ALLOCATIONS.with(|n| n.set(n.get() + 1));
        }
    });
    let live = PROCESS_LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
    PROCESS_PEAK.fetch_max(live, Ordering::Relaxed);
    PROCESS_BYTES.fetch_add(grown, Ordering::Relaxed);
    if counted {
        PROCESS_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Allocations made so far by the calling thread.
pub fn thread_allocations() -> u64 {
    THREAD_ALLOCATIONS.with(Cell::get)
}

/// Allocations made so far by every thread of the process.
pub fn process_allocations() -> u64 {
    PROCESS_ALLOCATIONS.load(Ordering::Relaxed)
}

/// The calling thread's byte counts.
pub fn thread_bytes() -> Bytes {
    Bytes {
        allocated: THREAD_BYTES.with(Cell::get),
        peak_live: THREAD_PEAK.with(Cell::get),
    }
}

/// The process's byte counts.
pub fn process_bytes() -> Bytes {
    Bytes {
        allocated: PROCESS_BYTES.load(Ordering::Relaxed),
        peak_live: PROCESS_PEAK.load(Ordering::Relaxed),
    }
}

/// Restarts the calling thread's peak at its live bytes now.
pub fn reset_thread_peak() {
    THREAD_PEAK.with(|peak| peak.set(THREAD_LIVE.with(Cell::get)));
}

/// Restarts the process's peak at its live bytes now.
pub fn reset_process_peak() {
    PROCESS_PEAK.store(PROCESS_LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

// SAFETY: delegates every operation to `System` unchanged; the counters
// are const-initialised thread-local `Cell`s and relaxed atomics, none of
// which allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(true, layout.size() as i64);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(true, layout.size() as i64);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(true, new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record(false, -(layout.size() as i64));
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
