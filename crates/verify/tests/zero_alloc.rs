//! The oracle's record path is allocation-free in steady state.
//!
//! Every observed event appends one record to a bounded history ring. A
//! record holds a stamp into a shared arena of clock snapshots, not a
//! copy of its context's vector clock. Once the ring is full the oldest
//! record is dropped and its snapshot released, so an event that touches
//! no other state — here, invalidating a page no TLB caches — must
//! allocate nothing. A counting global allocator pins that; this file
//! holds a single test so no other test thread allocates while it
//! counts. `tests/zero_alloc_oracle.rs` at the workspace root pins the
//! same for whole oracle-on machine runs, worker thread included.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts the bytes requested through the global allocator (`alloc`,
/// `alloc_zeroed`, and the new size of every `realloc`).
struct CountingAlloc;

static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation to `System` unchanged; the counter
// is a relaxed atomic with no other side effects.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

use latr_arch::CpuId;
use latr_mem::Vpn;
use latr_sim::Time;
use latr_verify::CoherenceOracle;

/// The history ring's capacity (`HISTORY_CAPACITY` in the oracle).
const RING: u64 = 4096;

#[test]
fn full_ring_records_uncached_invalidations_without_allocating() {
    // The 120-core preset's clock width: one component per core plus the
    // reclamation kthread.
    let mut oracle = CoherenceOracle::new(120);
    let cpu = CpuId(3);
    for vpn in 0..RING {
        oracle.note_invalidate(cpu, 0, Vpn(vpn), Time::ZERO);
    }
    let before = BYTES.load(Ordering::Relaxed);
    for vpn in RING..RING + 10_000 {
        oracle.note_invalidate(cpu, 0, Vpn(vpn), Time::ZERO);
    }
    let allocated = BYTES.load(Ordering::Relaxed) - before;
    assert_eq!(
        allocated, 0,
        "10,000 invalidations on a full ring allocated {allocated} bytes"
    );
    assert_eq!(oracle.events_observed(), RING + 10_000);
}
