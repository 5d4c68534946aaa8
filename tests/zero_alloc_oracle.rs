//! Steady-state allocation discipline of oracle-on runs, counted across
//! every thread of the process.
//!
//! With the coherence oracle on, `Machine::run` moves the oracle's shadow
//! state onto a worker thread, so a per-thread count (`tests/zero_alloc.rs`)
//! would see only the simulation's half of the run. Here a counting
//! global allocator counts every thread's allocations, and the binary
//! holds this single test so that no other test allocates in its
//! windows. The counting allocator and the storm shapes are the ones
//! `tests/zero_alloc.rs` uses (`tests/common/zero_alloc.rs`).
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

#[path = "common/zero_alloc.rs"]
mod fixtures;

use fixtures::{commodity_storm, process_allocations, CountingAlloc, STORMS};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

use latr_arch::{MachinePreset, Topology};
use latr_kernel::{Machine, MachineConfig};
use latr_sim::{Nanos, MILLISECOND};
use latr_workloads::{PolicyKind, SweepStorm};

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
    let before = process_allocations();
    machine.run(Box::new(storm), policy, duration);
    let after = process_allocations();
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
    for (preset, storm) in STORMS {
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
