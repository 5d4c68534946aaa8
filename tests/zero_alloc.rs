//! Steady-state allocation discipline on the fast engine (ISSUE 10).
//!
//! The hot-path optimisations only hold their speedups if the per-event
//! work is genuinely allocation-free once every pool and scratch buffer
//! has grown to its working size: the calendar slab reuses freed event
//! slots, the VMA trees and page-table nodes come from pools, sweep
//! relevance and reclaim batches reuse scratch vectors, and freed frames
//! round-trip through the frame-vec pool. This test pins that property
//! with a counting global allocator: two sweep-storm runs that differ
//! only in simulated duration must perform **exactly** the same number
//! of heap allocations — every allocation belongs to setup or warmup,
//! and the extra delivered events add zero. It
//! checks two machine shapes: the 16-core commodity box, and the
//! benchmark's 120-core storm, whose same-instant wakeup bursts are what
//! once grew calendar buckets.
//!
//! Tracing is off, matching the `BENCH_hotpath.json` configuration. Each
//! shape runs twice: with the coherence oracle off, and with it on. The
//! oracle's shadow TLBs, state table and clock snapshots reuse their
//! storage once grown, so its steady state must add no allocations
//! either.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocation (`alloc`, `alloc_zeroed`, and growth via
/// `realloc`) routed through the global allocator.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation to `System` unchanged; the counter
// is a relaxed atomic with no other side effects.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

use latr_arch::{MachinePreset, Topology};
use latr_core::LatrConfig;
use latr_kernel::{Machine, MachineConfig};
use latr_sim::{Nanos, QueueBackend, MICROSECOND, MILLISECOND};
use latr_workloads::{PolicyKind, SweepStorm};

/// A machine shape and the sweep storm it runs.
type Shape = (MachinePreset, fn() -> SweepStorm);

/// The 16-core commodity box, every core publishing.
fn commodity_storm() -> SweepStorm {
    SweepStorm::new(16, 1_000_000)
}

/// The benchmark's `sweep-storm` shape: 4 publishers and 116 idle
/// sweepers on 120 cores, whose same-instant wakeups land 116 events in
/// one calendar bucket every round as the burst's phase drifts across
/// the ring.
fn large_storm() -> SweepStorm {
    SweepStorm::new(120, 1_000_000)
        .with_publishers(4)
        .with_sleep(MILLISECOND + 3 * MICROSECOND)
}

const SHAPES: [Shape; 2] = [
    (MachinePreset::Commodity2S16C, commodity_storm),
    (MachinePreset::LargeNuma8S120C, large_storm),
];

/// Runs `shape`'s sweep storm for `duration`, with or without the
/// `oracle`, and returns the number of heap allocations performed *during
/// the run* (setup — `Machine::new` and the workload constructor — is
/// excluded; warmup is not, which is exactly why the short run is
/// subtracted).
fn allocations_during((preset, storm): Shape, oracle: bool, duration: Nanos) -> (u64, u64) {
    let mut config = MachineConfig::new(Topology::preset(preset));
    config.seed = 0x000a_110c;
    config.trace_capacity = 0;
    config.oracle = oracle;
    config.engine = QueueBackend::Fast;
    let mut machine = Machine::new(config);
    // Enough rounds that the storm is still publishing when the long
    // run ends: the extra window must contain real per-event work, not
    // idle ticks.
    let workload = Box::new(storm());
    let policy = PolicyKind::Latr(LatrConfig::default()).build();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    machine.run(workload, policy, duration);
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    (after - before, machine.events_delivered())
}

#[test]
fn sweep_storm_steady_state_allocates_nothing_per_event() {
    let short = 50 * MILLISECOND;
    let long = 250 * MILLISECOND;
    for shape in SHAPES {
        for oracle in [false, true] {
            let (short_allocs, short_events) = allocations_during(shape, oracle, short);
            let (long_allocs, long_events) = allocations_during(shape, oracle, long);
            assert!(
                long_events > short_events + 10_000,
                "{:?} (oracle {oracle}): the long run must actually deliver more \
                 events ({long_events} vs {short_events}) or the delta proves nothing",
                shape.0,
            );
            assert_eq!(
                long_allocs - short_allocs,
                0,
                "{:?} (oracle {oracle}): steady state must be allocation-free on \
                 the fast engine: {short_allocs} allocations in {short_events} \
                 events (warmup included) vs {long_allocs} in {long_events} — the \
                 extra {} events allocated {} times",
                shape.0,
                long_events - short_events,
                long_allocs - short_allocs,
            );
        }
    }
}
