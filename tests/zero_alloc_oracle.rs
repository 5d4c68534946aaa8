//! Steady-state allocation discipline of oracle-on runs, counted across
//! every thread of the process.
//!
//! With the coherence oracle on, `Machine::run` moves the oracle's shadow
//! state onto a worker thread, so a per-thread count (`tests/zero_alloc.rs`)
//! would see only the simulation's half of the run. Here a counting
//! global allocator counts every thread's allocations, and the binary
//! holds this single test so that no other test allocates in its
//! windows.
//!
//! The sweep storm runs on the 16-core commodity box and in the
//! benchmark's 120-core shape, each twice with the oracle on: two runs
//! that differ only in simulated duration must perform **exactly** the
//! same number of heap allocations. The worker's spawn and its note
//! batches belong to every run alike, and the shadow TLBs, state table
//! and clock slots reuse their storage once grown, so the extra events
//! of the long run, and the extra batches they fill, add none. A first,
//! discarded run takes the process's one-time initialisation out of the
//! windows.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocation (`alloc`, `alloc_zeroed`, and growth via
/// `realloc`) routed through the global allocator, on any thread.
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
use latr_kernel::{Machine, MachineConfig};
use latr_sim::{Nanos, MICROSECOND, MILLISECOND};
use latr_workloads::{PolicyKind, SweepStorm};

/// The 16-core commodity box, every core publishing.
fn commodity_storm() -> SweepStorm {
    SweepStorm::new(16, 1_000_000)
}

/// The benchmark's `sweep-storm` shape: 4 publishers and 116 idle
/// sweepers on 120 cores.
fn large_storm() -> SweepStorm {
    SweepStorm::new(120, 1_000_000)
        .with_publishers(4)
        .with_sleep(MILLISECOND + 3 * MICROSECOND)
}

/// Runs `storm` under Latr on `preset` with the oracle on for `duration`
/// and returns the allocations the run made, on every thread, and the
/// events it delivered. Set-up (`Machine::new` and the workload
/// constructor) is excluded; warmup is not, which is why the short run
/// is subtracted.
fn allocations_during(preset: MachinePreset, storm: SweepStorm, duration: Nanos) -> (u64, u64) {
    let mut config = MachineConfig::new(Topology::preset(preset));
    config.oracle = true;
    config.seed = 0x000a_110c;
    let mut machine = Machine::new(config);
    let policy = PolicyKind::latr_default().build();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    machine.run(Box::new(storm), policy, duration);
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert!(
        machine.oracle_violation().is_none(),
        "{:?}",
        machine.oracle_violation()
    );
    (after - before, machine.events_delivered())
}

#[test]
fn oracle_on_sweep_storms_allocate_nothing_per_event() {
    let (short, long) = (50 * MILLISECOND, 250 * MILLISECOND);
    allocations_during(MachinePreset::Commodity2S16C, commodity_storm(), short);
    for (preset, storm) in [
        (
            MachinePreset::Commodity2S16C,
            commodity_storm as fn() -> SweepStorm,
        ),
        (MachinePreset::LargeNuma8S120C, large_storm),
    ] {
        let (short_allocs, short_events) = allocations_during(preset, storm(), short);
        let (long_allocs, long_events) = allocations_during(preset, storm(), long);
        assert!(
            long_events > short_events + 10_000,
            "{preset:?}: the long run must deliver more events ({long_events} vs \
             {short_events}) or the delta proves nothing"
        );
        assert_eq!(
            long_allocs, short_allocs,
            "{preset:?} with the oracle on: {short_allocs} allocations in {short_events} \
             events (warmup included) vs {long_allocs} in {long_events}"
        );
    }
}
