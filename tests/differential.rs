//! The differential suite: the pending-bitmap sweep against its
//! executable spec, the full scan of every core's queue (§4.1).
//!
//! In the dev profile `LatrPolicy::sweep` checks every sweep against the
//! full scan: each queue the pending bitmap let it skip must be one the
//! full scan would leave untouched, so hits, cost, trace, oracle calls
//! and retirements agree at every sweep, not just in the end-of-run
//! fingerprint. This suite drives that check through the shapes where a
//! fast-path shortcut would fall out of step, with tracing and the
//! coherence oracle on, and asserts every run oracle-clean. (The event
//! queue's spec, the binary heap, is checked per operation by
//! `latr-sim`'s `backends_agree_on_random_interleavings`.)
//!
//! Coverage: every fault-plan class from `tests/chaos.rs` (drop, delay,
//! stall, jitter, miss, storm, and the mixed soup), the pressure, serving
//! and watchdog shapes, and 100 proptest cases over random seeds, shapes
//! and plans.

#[path = "common/plans.rs"]
mod plans;

use latr_arch::{MachinePreset, Topology};
use latr_core::LatrConfig;
use latr_faults::FaultPlan;
use latr_kernel::{Machine, MachineConfig, Workload};
use latr_sim::{MILLISECOND, SECOND};
use latr_workloads::{ArrivalProcess, ChaosShare, PolicyKind, ServingWorkload, SweepStorm};
use proptest::prelude::*;

/// Runs `config` under `latr` with every sweep checked against the full
/// scan, and asserts the run oracle-clean.
///
/// # Panics
///
/// Panics in a release build: the per-sweep check compiles away there,
/// and this suite would pass without comparing anything.
fn run_checked(config: MachineConfig, latr: LatrConfig, workload: Box<dyn Workload>) -> Machine {
    if !cfg!(debug_assertions) {
        panic!("the differential suite needs debug assertions (the dev profile)");
    }
    assert!(
        config.oracle,
        "the differential suite runs under the oracle"
    );
    let mut machine = Machine::new(config);
    machine.run(workload, PolicyKind::Latr(latr).build(), SECOND);
    if let Some(v) = machine.oracle_violation() {
        panic!("oracle violation: {v}");
    }
    machine
}

/// [`run_checked`] on a traced machine over `topology`.
fn run_traced(
    topology: Topology,
    seed: u64,
    plan: Option<FaultPlan>,
    latr: LatrConfig,
    workload: Box<dyn Workload>,
) -> Machine {
    let mut config = MachineConfig::new(topology);
    config.seed = seed;
    config.trace_capacity = 8192;
    config.faults = plan;
    run_checked(config, latr, workload)
}

fn commodity16() -> Topology {
    Topology::preset(MachinePreset::Commodity2S16C)
}

#[test]
fn sweep_storm_matches_the_full_scan_spec() {
    let m = run_traced(
        commodity16(),
        0x5EED_0001,
        None,
        LatrConfig::default(),
        Box::new(SweepStorm::new(16, 8)),
    );
    assert!(
        m.stats.counter(latr_kernel::metrics::LATR_SWEEP_HITS) > 0,
        "the comparison must actually have exercised the sweep fast path"
    );
}

#[test]
fn sweep_storm_is_identical_at_120_cores() {
    let _ = run_traced(
        Topology::preset(MachinePreset::LargeNuma8S120C),
        0x5EED_0002,
        None,
        LatrConfig::default(),
        Box::new(SweepStorm::new(120, 3)),
    );
}

#[test]
fn sparse_publisher_storm_is_identical_in_bench_configuration() {
    // The shape `BENCH_hotpath.json` measures: 4 publishers among many
    // sweepers, tracing off (the oracle stays on: it only observes). The
    // bench never runs in the dev profile, so this keeps its shape under
    // the per-sweep check.
    for (topology, cores) in [
        (Topology::preset(MachinePreset::Commodity2S16C), 16),
        (Topology::preset(MachinePreset::LargeNuma8S120C), 120),
    ] {
        let mut config = MachineConfig::new(topology);
        config.seed = 0x5EED_0004;
        config.trace_capacity = 0;
        let m = run_checked(
            config,
            LatrConfig::default(),
            Box::new(SweepStorm::new(cores, 4).with_publishers(4)),
        );
        assert_eq!(
            m.stats.counter(latr_kernel::metrics::WORK_UNITS),
            4 * 4,
            "all four publishers must finish their rounds at {cores} cores"
        );
    }
}

#[test]
fn overflow_pressure_matches_the_full_scan_spec() {
    // Zero inter-round sleep on a 4-slot queue drives the overflow→IPI
    // fallback and the adaptive hysteresis, so sweeps meet queues that
    // overflowed and drained between them.
    let cfg = LatrConfig {
        states_per_core: 4,
        ..LatrConfig::default()
    };
    let m = run_traced(
        commodity16(),
        0x5EED_0003,
        None,
        cfg,
        Box::new(SweepStorm::new(8, 30).with_sleep(0)),
    );
    assert!(
        m.stats.counter(latr_kernel::metrics::LATR_FALLBACK_IPIS) > 0,
        "the comparison must actually have exercised the fallback path"
    );
}

#[test]
fn chaos_share_matches_the_full_scan_spec() {
    let _ = run_traced(
        commodity16(),
        0xCAFE,
        None,
        LatrConfig::default(),
        Box::new(ChaosShare::new(4, 24)),
    );
}

/// Every fault-plan class exercised by `tests/chaos.rs`: fault injection
/// perturbs event timing and sweep schedules, so it is exactly where a
/// fast-path shortcut would fall out of step.
#[test]
fn chaos_plans_match_the_full_scan_spec() {
    for plan in plans::all() {
        let _ = run_traced(
            commodity16(),
            0x5007,
            Some(plan),
            LatrConfig::default(),
            Box::new(ChaosShare::new(4, 24)),
        );
    }
}

/// The PR-8 pressure-soup shape: the full mixed fault soup on top of
/// tight per-node watermarks, so allocation-storm escalation, debt
/// parking and expedited sweeps all fire while IPIs drop and ticks miss.
#[test]
fn pressure_soup_matches_the_full_scan_spec() {
    let plan = plans::soup();
    let latr = LatrConfig {
        states_per_core: 4,
        ..LatrConfig::default()
    };
    let mut config = MachineConfig::new(commodity16());
    config.seed = 0x50DA;
    config.trace_capacity = 8192;
    config.faults = Some(plan);
    // Watermarks high enough to trip under the storm's held frames.
    config.frames_per_node = 1 << 10;
    config = MachineConfig {
        low_watermark_frames: 256,
        min_watermark_frames: 64,
        ..config
    };
    let _ = run_checked(config, latr, Box::new(SweepStorm::new(8, 20).with_sleep(0)));
}

#[test]
fn watchdog_escalation_matches_the_full_scan_spec() {
    // A stalled core forces the watchdog's targeted-IPI escalation — a
    // sweep-adjacent path with its own cost accounting.
    let plan = plans::sweep_stall();
    let cfg = LatrConfig {
        watchdog_ticks: 4,
        ..LatrConfig::default()
    };
    let m = run_traced(
        commodity16(),
        0x57A11,
        Some(plan),
        cfg,
        Box::new(ChaosShare::new(4, 24)),
    );
    assert!(
        m.stats
            .counter(latr_kernel::metrics::LATR_WATCHDOG_ESCALATIONS)
            > 0,
        "the comparison must actually have exercised the watchdog"
    );
}

#[test]
fn serving_matches_the_full_scan_spec() {
    // The open-loop serving workload behind `BENCH_serving.json`:
    // Poisson arrivals across shared mms, one mmap/touch/munmap cycle
    // per request. Requests straddle cores sharing an mm, so sweep
    // relevance, PCID grouping and page-cache reuse all meet the check.
    let m = run_traced(
        commodity16(),
        0x5EED_0005,
        None,
        LatrConfig::default(),
        Box::new(ServingWorkload::new(16, 4, 12)),
    );
    assert_eq!(
        m.stats.counter(latr_kernel::metrics::WORK_UNITS),
        16 * 12,
        "every admitted request must complete on the serving shape"
    );
}

#[test]
fn bursty_serving_under_chaos_matches_the_full_scan_spec() {
    // Bursty arrivals pile same-instant admissions onto shared mms
    // while IPIs drop and an overflow storm forces the fallback path —
    // the harshest serving shape the bench measures.
    let plan = FaultPlan::default()
        .with_ipi_drop(0.25)
        .with_ipi_delay(0.25, 200_000)
        .with_tick_miss(0.20)
        .with_storm(2 * MILLISECOND, 10 * MILLISECOND);
    let workload = ServingWorkload::new(16, 4, 10).with_arrivals(ArrivalProcess::Bursty {
        period: 4 * MILLISECOND,
        on_pct: 25,
        factor: 2.0,
    });
    let m = run_traced(
        commodity16(),
        0x5EED_0006,
        Some(plan),
        LatrConfig::default(),
        Box::new(workload),
    );
    // Every admitted request completes and lands one latency sample,
    // bursts and dropped IPIs notwithstanding.
    assert!(
        m.stats
            .histogram(latr_kernel::metrics::SERVING_REQUEST_NS)
            .is_some_and(|h| h.summary().count == 16 * 10),
        "every admitted request must complete and be sampled"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100))]

    /// 100 random (seed, shape, plan) tuples, every sweep of each
    /// checked against the full scan, every run oracle-clean.
    #[test]
    fn engines_agree_on_random_storms_and_plans(
        seed in any::<u64>(),
        cores in 2u16..10,
        rounds in 1u16..6,
        fault_mix in 0u16..900,
    ) {
        // One draw decodes into two independent 0..30% probabilities.
        let (drop_pct, miss_pct) = (fault_mix % 30, fault_mix / 30);
        let plan = FaultPlan::default()
            .with_ipi_drop(f64::from(drop_pct) / 100.0)
            .with_tick_miss(f64::from(miss_pct) / 100.0);
        let cores = usize::from(cores);
        let rounds = u32::from(rounds);
        let _ = run_traced(
            commodity16(),
            seed,
            Some(plan),
            LatrConfig::default(),
            Box::new(SweepStorm::new(cores, rounds)),
        );
    }
}
