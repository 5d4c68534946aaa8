//! Steady-state allocation discipline of the simulator.
//!
//! The hot-path optimisations only hold their speedups if the per-event
//! work is genuinely allocation-free once every pool and scratch buffer
//! has grown to its working size: the calendar slab reuses freed event
//! slots, the VMA trees take nodes from pools, page tables park emptied
//! leaves in a spare pool and stop growing at their peak leaf count, sweep
//! relevance and reclaim batches reuse scratch vectors, and staged
//! frames live in one reclaim FIFO that keeps its capacity. These tests
//! pin that property with a counting global allocator: two runs that
//! differ only in simulated duration must perform **exactly** the same
//! number of heap allocations — every allocation belongs to setup or
//! warmup, and the extra delivered events add zero.
//!
//! The sweep storm runs on two machine shapes: the 16-core commodity box,
//! and the benchmark's 120-core storm, whose same-instant wakeup bursts
//! are what once grew calendar buckets. The same storms with the
//! coherence oracle on are in `tests/zero_alloc_oracle.rs`: the oracle
//! runs on a worker thread during a run, which this file's per-thread
//! count cannot see. The serving workload runs in the benchmark's
//! shape under Latr, Linux and ABIS: thousands of packages released per
//! reclaim tick on one side, a synchronous IPI round per request on the
//! others. A fourth serving run puts Latr under
//! IPI faults, overflow storms and a stalled sweeper, so its fallback
//! rounds, retransmits and watchdog escalations run in the measured
//! window too. A Latr allocation storm under watermarks, a stalled
//! sweeper and repeated allocation bursts puts pressure expedition,
//! direct reclaim on allocation stalls and the min-watermark sync
//! fallback in the measured window.
//!
//! Tracing is off in those runs, matching the `BENCH_hotpath.json`
//! configuration. A last test turns the trace ring on for the 16-core
//! sweep storm and for Latr serving: a trace record is `Copy` and the
//! ring's slots are allocated when the machine is built, so recording
//! must allocate nothing either, even once the ring is full and each
//! push overwrites the oldest entry.
//!
//! Allocations are counted per thread (`tests/common/zero_alloc.rs`): the
//! simulator runs on the test's own thread, so neither another test nor
//! the harness's reporting thread can inflate a measured window. The rt
//! runtime's hot path and the oracle's record path, each driven in place
//! on the test's thread, are held to zero allocations too.
//!
//! Two footprint gates count bytes instead: set-up on the 120-core preset
//! allocates an exact byte count, and a sweep storm's idle sweepers
//! allocate no TLB arrays or state-queue slots, which are built on first
//! use.

#[path = "common/zero_alloc.rs"]
mod fixtures;

use fixtures::{
    commodity_storm, reset_thread_peak, thread_allocations as allocations, thread_bytes,
    CountingAlloc, STORMS,
};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

use latr_arch::{MachinePreset, Topology};
use latr_faults::FaultPlan;
use latr_kernel::{metrics, Machine, MachineConfig, Workload};
use latr_sim::{Nanos, MICROSECOND, MILLISECOND, SECOND};
use latr_workloads::{AllocStorm, ArrivalProcess, PolicyKind, ServingWorkload, SweepStorm};

/// The benchmark's serving shape: 120 workers in 24 processes with
/// bursty arrivals, admitting more requests than either run can serve,
/// so the extra window is all request traffic.
fn serving() -> ServingWorkload {
    ServingWorkload::new(120, 24, 1_000_000).with_arrivals(ArrivalProcess::Bursty {
        period: 4 * MILLISECOND,
        on_pct: 25,
        factor: 2.0,
    })
}

/// The serving bench's `latr+ipi-chaos` plan (dropped and delayed IPIs
/// under queue-overflow storms, which force the fallback rounds the
/// faults bite on) with its second storm moved inside the measured
/// window, plus a sweeper stalled for the whole run. IPI faults alone
/// never fire the sweep watchdog; the stall makes it escalate every
/// state that names the stalled core, each a targeted IPI round.
fn ipi_chaos_with_stall() -> FaultPlan {
    FaultPlan::default()
        .with_ipi_drop(0.25)
        .with_ipi_delay(0.25, 200 * MICROSECOND)
        .with_storm(2 * MILLISECOND, 10 * MILLISECOND)
        .with_storm(60 * MILLISECOND, 10 * MILLISECOND)
        .with_stall(1, 2 * MILLISECOND, 200 * MILLISECOND)
}

/// Runs `workload` under `policy` on `preset` for `duration`, with the
/// oracle off and with or without a fault plan, and returns the number of heap
/// allocations performed *during the run* (setup — `Machine::new` and
/// the workload constructor — is excluded; warmup is not, which is
/// exactly why the short run is subtracted) and the events delivered.
fn allocations_during(
    preset: MachinePreset,
    workload: Box<dyn Workload>,
    policy: PolicyKind,
    faults: Option<FaultPlan>,
    duration: Nanos,
) -> (u64, u64) {
    let mut config = MachineConfig::new(Topology::preset(preset));
    config.oracle = false;
    config.faults = faults;
    let (allocs, machine) = run_counted(config, workload, policy, duration);
    (allocs, machine.events_delivered())
}

/// Runs `workload` under `policy` on a machine built from `config` (with
/// the fixed seed) for `duration`, and returns the heap allocations
/// performed during the run and the machine.
fn run_counted(
    mut config: MachineConfig,
    workload: Box<dyn Workload>,
    policy: PolicyKind,
    duration: Nanos,
) -> (u64, Machine) {
    config.seed = 0x000a_110c;
    let mut machine = Machine::new(config);
    let policy = policy.build();
    let before = allocations();
    machine.run(workload, policy, duration);
    let after = allocations();
    (after - before, machine)
}

/// Asserts that the run from `short` to `long` adds real work and at most
/// one allocation per `events_per_allocation` extra events (`u64::MAX`:
/// none at all).
fn assert_steady_state(
    what: &str,
    short: (u64, u64),
    long: (u64, u64),
    events_per_allocation: u64,
) {
    let ((short_allocs, short_events), (long_allocs, long_events)) = (short, long);
    assert!(
        long_events > short_events + 10_000,
        "{what}: the long run must actually deliver more events \
         ({long_events} vs {short_events}) or the delta proves nothing",
    );
    // Both runs replay the same prefix, so the long one allocates at
    // least as often as the short one.
    let extra_allocs = long_allocs.checked_sub(short_allocs).unwrap_or_else(|| {
        panic!(
            "{what}: the short run allocated more ({short_allocs}) than the long \
             one ({long_allocs})"
        )
    });
    let extra_events = long_events - short_events;
    assert!(
        extra_allocs <= extra_events / events_per_allocation,
        "{what}: steady state may allocate at most once \
         per {events_per_allocation} events: {short_allocs} allocations in \
         {short_events} events (warmup included) vs {long_allocs} in \
         {long_events} — the extra {extra_events} events allocated \
         {extra_allocs} times",
    );
}

#[test]
fn sweep_storm_steady_state_allocates_nothing_per_event() {
    let short = 50 * MILLISECOND;
    let long = 250 * MILLISECOND;
    for (preset, storm) in STORMS {
        // Enough rounds that the storm is still publishing when the long
        // run ends: the extra window must contain real per-event work,
        // not idle ticks.
        let latr = PolicyKind::latr_default();
        let run = |d| allocations_during(preset, Box::new(storm()), latr, None, d);
        assert_steady_state(&format!("{preset:?}"), run(short), run(long), u64::MAX);
    }
}

/// Unlike the storm's, the serving steady state is only approached: the
/// bursty open-loop arrivals keep setting new peaks — a deeper blocked-VA
/// list in some address space, more reclaim packages staged at once —
/// and each new peak doubles one vector. That growth is logarithmic in
/// run length, so the serving runs get a budget of one allocation per
/// 10,000 extra events instead of none. Per-request allocation, which
/// this guards against, costs hundreds per 10,000 events. Under chaos the
/// watchdog's in-flight rounds (each holding a pooled page list) climb to
/// their peak for tens of milliseconds after the stall begins, so that
/// run warms up for 40 ms instead of 20.
#[test]
fn serving_steady_state_allocates_nothing_per_request() {
    let calm = (20 * MILLISECOND, 60 * MILLISECOND);
    for (name, policy, faults, (short, long)) in [
        ("Latr", PolicyKind::latr_default(), None, calm),
        ("Linux", PolicyKind::Linux, None, calm),
        ("ABIS", PolicyKind::Abis, None, calm),
        (
            "Latr with ipi-chaos and a stalled sweeper",
            PolicyKind::latr_default(),
            Some(ipi_chaos_with_stall()),
            (40 * MILLISECOND, 120 * MILLISECOND),
        ),
    ] {
        let preset = MachinePreset::LargeNuma8S120C;
        let run = |d| {
            let faults = faults.clone();
            allocations_during(preset, Box::new(serving()), policy, faults, d)
        };
        assert_steady_state(
            &format!("serving under {name}"),
            run(short),
            run(long),
            10_000,
        );
    }
}

/// A Latr allocation storm that keeps squeezing memory: 16 tasks churn
/// 4-page mappings on 256-frame nodes with low/min watermarks of 72/16,
/// core 3's sweeps stay stalled, and every 5 ms both nodes lose 15 frames
/// to a 3 ms allocation burst. The measured window from 20 to 60 ms must
/// contain pressure expedition, the min-watermark sync fallback and
/// allocation stalls that direct reclaim satisfied (a stall whose retry
/// succeeds), and it gets serving's budget of one allocation per 10,000
/// extra events.
#[test]
fn pressure_storm_steady_state_allocates_nothing_per_event() {
    let run = |duration| {
        let mut config = MachineConfig::new(Topology::preset(MachinePreset::Commodity2S16C))
            .with_watermarks(72, 16);
        config.frames_per_node = 256;
        config.oracle = false;
        let mut plan = FaultPlan::default().with_stall(3, MILLISECOND, SECOND);
        for k in 0..20 {
            let at = 1_500_000 + k * 5 * MILLISECOND;
            plan =
                plan.with_burst(0, at, 3 * MILLISECOND, 15)
                    .with_burst(1, at, 3 * MILLISECOND, 15);
        }
        config.faults = Some(plan);
        let storm = AllocStorm::new(16, 1_000_000, 4, 2);
        run_counted(
            config,
            Box::new(storm),
            PolicyKind::latr_default(),
            duration,
        )
    };
    let (short, long) = (run(20 * MILLISECOND), run(60 * MILLISECOND));
    let grew = |counter| long.1.stats.counter(counter) > short.1.stats.counter(counter);
    let satisfied =
        |m: &Machine| m.stats.counter(metrics::ALLOC_STALLS) - m.stats.counter(metrics::OOM_EVENTS);
    assert!(
        grew(metrics::LATR_EXPEDITED_SWEEPS),
        "no expedition in the window"
    );
    assert!(
        grew(metrics::LATR_PRESSURE_SYNC_ENTERS),
        "no pressure sync in the window"
    );
    assert!(
        satisfied(&long.1) > satisfied(&short.1),
        "no stall in the window was satisfied by direct reclaim"
    );
    assert_steady_state(
        "Latr pressure storm",
        (short.0, short.1.events_delivered()),
        (long.0, long.1.events_delivered()),
        10_000,
    );
}

/// Trace ring slots for the traced runs. Every run fills them, so each
/// push in a measured window overwrites the oldest entry.
const TRACE_SLOTS: usize = 4096;

/// The sweep storm and Latr serving again, with the trace ring on. The
/// storm gets its untraced budget of no allocation at all, and serving
/// its one per 10,000 extra events.
#[test]
fn traced_runs_allocate_nothing_per_event() {
    let traced = |preset, workload: Box<dyn Workload>, duration| {
        let mut config = MachineConfig::new(Topology::preset(preset));
        config.oracle = false;
        config.trace_capacity = TRACE_SLOTS;
        let latr = PolicyKind::latr_default();
        let (allocs, machine) = run_counted(config, workload, latr, duration);
        assert_eq!(machine.trace.len(), TRACE_SLOTS, "the trace ring must fill");
        (allocs, machine.events_delivered())
    };
    let storm = |d| {
        traced(
            MachinePreset::Commodity2S16C,
            Box::new(commodity_storm()),
            d,
        )
    };
    assert_steady_state(
        "traced 16-core sweep storm",
        storm(50 * MILLISECOND),
        storm(250 * MILLISECOND),
        u64::MAX,
    );
    let serving = |d| traced(MachinePreset::LargeNuma8S120C, Box::new(serving()), d);
    assert_steady_state(
        "traced serving under Latr",
        serving(20 * MILLISECOND),
        serving(60 * MILLISECOND),
        10_000,
    );
}

/// The rt runtime's hot path in steady state: `publish` (once with
/// an excluded core in its mask, and once more on a full queue so it
/// returns `PublishError`), `sweep_into`, `min_live_tick` on the masked
/// path an exclusion forces, and `SoftTlb` ticks applying point
/// invalidations. Once the scratch buffers and maps have reached their
/// working size, a round allocates nothing.
#[test]
fn rt_hot_path_allocates_nothing_in_steady_state() {
    use latr_arch::CpuMask;
    use latr_core::rt::{PublishError, RtInvalidation, RtRegistry, SoftTlb, SoftTlbTable};
    use std::sync::Arc;

    const SLOTS: usize = 4;
    let registry = Arc::new(RtRegistry::new(4, SLOTS));
    // Core 3 is dead: publishes drop its bit and the live frontier scan
    // takes the masked path.
    assert!(registry.exclude_core(3));
    let table = Arc::new(SoftTlbTable::new(Arc::clone(&registry)));
    let mut tlbs: Vec<SoftTlb> = (0..3)
        .map(|c| SoftTlb::new(c, Arc::clone(&table)))
        .collect();
    for key in 0..8 {
        table.map_key(key, key);
    }
    let mut out = Vec::new();
    let targets = CpuMask::from_words([0b1110, 0, 0, 0]);
    let mut round = |r: u64| {
        // Core 0 fills its queue for cores 1-3 and overflows once.
        for i in 0..=SLOTS as u64 {
            let inv = RtInvalidation {
                mm: r,
                start: i << 12,
                end: (i + 1) << 12,
            };
            let published = registry.publish(0, inv, targets);
            assert_eq!(published.err(), (i == SLOTS as u64).then_some(PublishError));
        }
        // Core 1 lazily unmaps a key cores 0 and 2 cached.
        let key = r % 8;
        tlbs[0].lookup(key);
        tlbs[2].lookup(key);
        table
            .unmap_lazy(1, key)
            .expect("core 1's queue drains every round");
        table.map_key(key, key);
        out.clear();
        registry.sweep_into(2, &mut out);
        for tlb in &mut tlbs {
            tlb.tick();
        }
        registry.min_live_tick()
    };
    for r in 0..100 {
        round(r);
    }
    let before = allocations();
    let overflows = registry.overflows();
    for r in 100..1_100 {
        round(r);
    }
    let allocated = allocations() - before;
    assert_eq!(
        registry.overflows() - overflows,
        1_000,
        "every round overflows once"
    );
    assert!(registry.is_excluded(3));
    assert_eq!(
        allocated, 0,
        "1,000 steady-state rt rounds allocated {allocated} times"
    );
}

/// The oracle's record path, driven in place: every observed event
/// appends one record to a bounded history ring. A record holds a stamp
/// into a shared arena of clock snapshots, not a copy of its context's
/// vector clock. Once the ring is full the oldest record is dropped and
/// its snapshot released, so an event that touches no other state — here,
/// invalidating a page no TLB caches — must allocate nothing.
#[test]
fn full_oracle_ring_records_uncached_invalidations_without_allocating() {
    use latr_arch::CpuId;
    use latr_mem::Vpn;
    use latr_sim::Time;
    use latr_verify::{CoherenceOracle, Note};

    /// The history ring's capacity (`HISTORY_CAPACITY` in the oracle).
    const RING: u64 = 4096;

    // The 120-core preset's clock width: one component per core plus the
    // reclamation kthread.
    let mut oracle = CoherenceOracle::new(120);
    let cpu = CpuId(3);
    for vpn in 0..RING {
        oracle.note(
            Time::ZERO,
            Note::Invalidate {
                cpu,
                pcid: 0,
                vpn: Vpn(vpn),
            },
            None,
        );
    }
    let before = allocations();
    for vpn in RING..RING + 10_000 {
        oracle.note(
            Time::ZERO,
            Note::Invalidate {
                cpu,
                pcid: 0,
                vpn: Vpn(vpn),
            },
            None,
        );
    }
    let allocated = allocations() - before;
    assert_eq!(
        allocated, 0,
        "10,000 invalidations on a full ring allocated {allocated} times"
    );
    assert_eq!(oracle.events_observed(), RING + 10_000);
}

/// The bytes that set-up allocates in the benchmark's configuration on the
/// 120-core preset (oracle and trace ring off): `Machine::new` plus the
/// default Latr policy's build. Derived once by running this test with
/// the constant at 0 and reading the failure message. Every core's TLB
/// levels and state queue are built on first use, so none of this is
/// per-core TLB or queue storage: a 64/512-entry TLB's first insert
/// allocates 9,728 B, which for 120 cores would be 1,167,360 B alone.
const SET_UP_BYTES_120C: u64 = 79_760;

#[test]
fn set_up_allocates_the_counted_bytes() {
    let mut config = MachineConfig::new(Topology::preset(MachinePreset::LargeNuma8S120C));
    config.oracle = false;
    config.trace_capacity = 0;
    let before = thread_bytes().allocated;
    let machine = Machine::new(config);
    let policy = PolicyKind::latr_default().build();
    let allocated = thread_bytes().allocated - before;
    drop((machine, policy));
    assert_eq!(allocated, SET_UP_BYTES_120C, "set-up bytes moved");
}

/// Run-phase bytes of a 4-publisher sweep storm of 50 rounds on 8 sockets
/// of 2 and of 15 cores (16 and 120 cores with the same TLB shapes and
/// nodes), derived once as [`SET_UP_BYTES_120C`] is.
const STORM_RUN_BYTES: [(u16, u64); 2] = [(2, 199_712), (15, 233_376)];

/// What an extra core may add to the storm's run-phase bytes: its
/// per-core bookkeeping, namely a state-queue header (80 B) and a
/// pending-sweep row (32 B), its task and task slot, and its share of the
/// event calendar's growth, whose vectors double. Building one idle
/// sweeper's 64/1024-entry TLB (18,304 B) or one state queue's 64 slots
/// (5,640 B) would exceed it.
const PER_CORE_BOOKKEEPING: u64 = 512;

/// Idle sweepers allocate no TLB or state-queue storage: they sweep
/// every publish and are flushed when their task exits, but never fill a
/// TLB entry or publish a state, so 104 more of them add only their
/// bookkeeping to the run's bytes, and to its peak of live bytes (the
/// heap's share of the benchmark's `peak_rss_mib`).
#[test]
fn idle_sweepers_allocate_no_tlb_or_queue_storage() {
    let run_bytes = |cores_per_socket: u16| {
        let topology = Topology::new(8, cores_per_socket);
        let cores = topology.num_cpus() as u64;
        let mut config = MachineConfig::new(topology);
        config.oracle = false;
        config.trace_capacity = 0;
        config.seed = 7;
        let mut machine = Machine::new(config);
        let policy = PolicyKind::latr_default().build();
        let storm = SweepStorm::new(cores as usize, 50).with_publishers(4);
        reset_thread_peak();
        let before = thread_bytes();
        machine.run(Box::new(storm), policy, SECOND);
        let after = thread_bytes();
        let peak_growth = u64::try_from(after.peak_live - before.peak_live)
            .expect("a peak never falls below the live bytes it was reset to");
        (cores, after.allocated - before.allocated, peak_growth)
    };
    let runs = STORM_RUN_BYTES.map(|(per_socket, _)| run_bytes(per_socket));
    for ((per_socket, want), (cores, got, _)) in STORM_RUN_BYTES.into_iter().zip(runs) {
        assert_eq!(
            got, want,
            "run-phase bytes at {cores} cores ({per_socket} per socket)"
        );
    }
    let [(few, few_bytes, few_peak), (many, many_bytes, many_peak)] = runs;
    for (what, few_cores_bytes, many_cores_bytes) in [
        ("allocated", few_bytes, many_bytes),
        ("peak live", few_peak, many_peak),
    ] {
        let per_core = many_cores_bytes.saturating_sub(few_cores_bytes) / (many - few);
        assert!(
            per_core < PER_CORE_BOOKKEEPING,
            "each idle sweeper added {per_core} B to the run's {what} bytes"
        );
    }
}
