//! The allocation-storm pressure benchmark behind `BENCH_pressure.json`
//! (DESIGN.md §14, EXPERIMENTS.md "Allocation storms").
//!
//! Three arms run the identical seeded storm — [`AllocStorm`] plus a
//! fault plan of sweep stalls, allocation bursts, and a watermark flap —
//! and differ only in the TLB-coherence policy:
//!
//! * **linux** — synchronous IPI shootdowns: frees return frames
//!   immediately, so reclamation debt never accumulates (the baseline
//!   lazy coherence has to be measured against);
//! * **latr-bare** — Latr with escalation disabled
//!   ([`LatrConfig::without_escalation`]): watermark pressure is
//!   *observed* but nothing reacts, so parked frames pile up behind the
//!   stalled sweepers until the free lists empty;
//! * **latr-escalation** — the full policy: low-watermark expedited
//!   sweeps, per-tick expedition under sustained pressure, and the
//!   min-watermark sync fallback.
//!
//! The headline the committed JSON must show: `latr-bare` is driven
//! through its min watermark (and, at full scale, to OOM) by a storm
//! that `latr-escalation` sustains without a single allocation stall.

use latr_arch::{MachinePreset, Topology};
use latr_core::LatrConfig;
use latr_faults::FaultPlan;
use latr_kernel::{metrics, Machine, MachineConfig};
use latr_sim::SECOND;
use latr_workloads::{AllocStorm, PolicyKind};

use crate::bench::Report;
use crate::report::{each, fnv1a, row, Object, Rows};

/// Shape of one benchmark run (scaled down by `--quick` for CI).
#[derive(Clone, Copy, Debug)]
struct StormShape {
    /// Cores (== storm tasks).
    cores: usize,
    /// Map/touch/unmap rounds per task.
    rounds: u32,
    /// Pages per mapping.
    pages: u64,
    /// Held-mapping window depth.
    hold: usize,
    /// Physical frames per NUMA node.
    frames_per_node: u64,
    /// Low watermark (frames, per node).
    low_watermark: u64,
    /// Min watermark (frames, per node).
    min_watermark: u64,
    /// RNG seed for the machine.
    seed: u64,
}

/// Runs every arm of the storm at full or `--quick` shape.
pub(crate) fn run(quick: bool) -> Report {
    let shape = storm_shape(quick);
    let points = each(
        arms(),
        |(arm, policy)| run_pressure_point(arm, policy, &shape),
        arm_row,
    );
    let why = "the pressure gate did not hold (bare-lazy must breach its min watermark; \
               escalation must sustain the storm stall-free)";
    let document = pressure_json(&points, &shape, quick);
    Report::new(document, pressure_passed(&points), why)
}

/// The storm's shape. Full scale is the paper's 8-socket, 120-core
/// machine, sized so the storm's held working set plus parked frames
/// squeezes every node through its low watermark; `--quick` is the CI
/// shape, two sockets and 16 cores with the same storm signature in a
/// fraction of the wall time.
fn storm_shape(quick: bool) -> StormShape {
    let (cores, frames_per_node, low_watermark, min_watermark) = if quick {
        (16, 224, 72, 16)
    } else {
        (120, 256, 96, 24)
    };
    StormShape {
        cores,
        rounds: 24,
        pages: 4,
        hold: 2,
        frames_per_node,
        low_watermark,
        min_watermark,
        seed: 42,
    }
}

/// The seeded fault plan for a shape: sweep stalls on every tenth core
/// (gates stop clearing naturally — the escalation IPIs' reason to
/// exist), allocation bursts on half the nodes, and one watermark flap.
/// All sites are pure functions of simulated time, so every arm sees
/// the identical storm. No reclaim-kthread stalls and no IPI faults:
/// the expedite tick bound is part of what the suite asserts.
fn pressure_plan(shape: &StormShape) -> FaultPlan {
    let nodes = if shape.cores > 16 { 8u8 } else { 2 };
    let burst = shape.frames_per_node / 5;
    let mut plan = FaultPlan::default().with_flap(3_000_000, 2_000_000, shape.min_watermark / 2);
    for (i, node) in (0..nodes).step_by(2).enumerate() {
        plan = plan.with_burst(node, 2_200_000 + 200_000 * i as u64, 3_000_000, burst);
    }
    let step = if shape.cores >= 40 { 10 } else { 5 };
    for c in (0..shape.cores as u16).step_by(step) {
        plan = plan.with_stall(c, 1_200_000, 4_000_000);
    }
    plan
}

/// One arm's results.
#[derive(Clone, Debug)]
struct PressurePoint {
    /// Arm name (`linux`, `latr-bare`, `latr-escalation`).
    arm: &'static str,
    /// Lowest any node's free list got (frames).
    min_free: u64,
    /// Low-watermark crossings (edge events).
    low_events: u64,
    /// Min-watermark crossings (edge events).
    min_events: u64,
    /// Allocation stalls (direct-reclaim entries).
    alloc_stalls: u64,
    /// Allocations that failed even after direct reclaim.
    oom_events: u64,
    /// Alloc-stall latency percentiles (ns; 0 when no stalls).
    stall_p50_ns: u64,
    /// 99th percentile stall (ns).
    stall_p99_ns: u64,
    /// 99.9th percentile stall (ns).
    stall_p999_ns: u64,
    /// Pressure-expedited sweep escalations.
    expedited_sweeps: u64,
    /// IPIs those escalations cost.
    expedited_ipis: u64,
    /// Worst pressure-expedite release latency (ns).
    expedite_latency_max_ns: u64,
    /// Min-watermark forced entries into sync mode.
    pressure_sync_enters: u64,
    /// Package-ticks overdue frames sat gated (reclamation debt held up).
    gate_held: u64,
    /// Frames released through lazy reclamation.
    released_frames: u64,
    /// Oracle verdict: true = no coherence violation observed.
    oracle_clean: bool,
    /// Frames still allocated at the end (must be 0).
    leaked: usize,
    /// FNV-1a of the machine fingerprint — identical across reruns of
    /// the arm.
    fingerprint: u64,
}

/// Runs one arm of the storm and collects its point.
fn run_pressure_point(arm: &'static str, policy: PolicyKind, shape: &StormShape) -> PressurePoint {
    let preset = if shape.cores > 16 {
        MachinePreset::LargeNuma8S120C
    } else {
        MachinePreset::Commodity2S16C
    };
    let mut config = MachineConfig::new(Topology::preset(preset))
        .with_watermarks(shape.low_watermark, shape.min_watermark);
    config.frames_per_node = shape.frames_per_node;
    config.seed = shape.seed;
    config.faults = Some(pressure_plan(shape));
    let mut machine = Machine::new(config);
    machine.run(
        Box::new(AllocStorm::new(
            shape.cores,
            shape.rounds,
            shape.pages,
            shape.hold,
        )),
        policy.build(),
        SECOND,
    );
    let stall_hist = machine.stats.histogram(metrics::ALLOC_STALL_NS);
    let expedite_hist = machine.stats.histogram(metrics::LATR_EXPEDITE_LATENCY_NS);
    PressurePoint {
        arm,
        min_free: machine.frames.min_free(),
        low_events: machine.stats.counter(metrics::MEM_PRESSURE_LOW_EVENTS),
        min_events: machine.stats.counter(metrics::MEM_PRESSURE_MIN_EVENTS),
        alloc_stalls: machine.stats.counter(metrics::ALLOC_STALLS),
        oom_events: machine.stats.counter(metrics::OOM_EVENTS),
        stall_p50_ns: stall_hist.map_or(0, |h| h.percentile(0.50)),
        stall_p99_ns: stall_hist.map_or(0, |h| h.percentile(0.99)),
        stall_p999_ns: stall_hist.map_or(0, |h| h.percentile(0.999)),
        expedited_sweeps: machine.stats.counter(metrics::LATR_EXPEDITED_SWEEPS),
        expedited_ipis: machine.stats.counter(metrics::LATR_EXPEDITED_IPIS),
        expedite_latency_max_ns: expedite_hist.map_or(0, |h| h.summary().max),
        pressure_sync_enters: machine.stats.counter(metrics::LATR_PRESSURE_SYNC_ENTERS),
        gate_held: machine.stats.counter(metrics::LATR_GATE_HELD),
        released_frames: machine.stats.counter(metrics::LATR_RECLAIM_RELEASED_FRAMES),
        oracle_clean: machine.oracle_violation().is_none(),
        leaked: machine.frames.allocated_count(),
        fingerprint: fnv1a(&machine.fingerprint()),
    }
}

/// The three arms, by name and policy.
fn arms() -> [(&'static str, PolicyKind); 3] {
    [
        ("linux", PolicyKind::Linux),
        (
            "latr-bare",
            PolicyKind::Latr(LatrConfig::default().without_escalation()),
        ),
        ("latr-escalation", PolicyKind::Latr(LatrConfig::default())),
    ]
}

/// The gate the CI smoke job (and the full run) enforces:
///
/// * every arm oracle-clean, nothing leaked;
/// * the storm is real — `latr-bare` breaches its min watermark;
/// * escalation sustains it — not one allocation stall, not one OOM,
///   and fewer gate-held package-ticks than bare by an order of
///   magnitude. (`min_free > 0` is asserted at full scale by
///   `tests/pressure.rs`; on the 2-node quick machine cross-node
///   fallback can momentarily drain a node even under a healthy
///   policy, so the smoke gate sticks to the stall/OOM claim.)
fn pressure_passed(points: &[PressurePoint]) -> bool {
    let all_safe = points.iter().all(|p| p.oracle_clean && p.leaked == 0);
    let Some(bare) = points.iter().find(|p| p.arm == "latr-bare") else {
        return false;
    };
    let Some(full) = points.iter().find(|p| p.arm == "latr-escalation") else {
        return false;
    };
    all_safe
        && bare.min_events > 0
        && full.alloc_stalls == 0
        && full.oom_events == 0
        && full.expedited_sweeps > 0
        && full.gate_held <= bare.gate_held / 10
}

/// One arm's row of the document.
fn arm_row(p: &PressurePoint) -> Object {
    row!(p; arm, min_free, low_events, min_events, alloc_stalls, oom_events, stall_p50_ns,
            stall_p99_ns, stall_p999_ns, expedited_sweeps, expedited_ipis,
            expedite_latency_max_ns, pressure_sync_enters, gate_held, released_frames,
            oracle_clean, leaked, fingerprint: hex)
}

/// The arms as the `BENCH_pressure.json` document.
fn pressure_json(points: &[PressurePoint], shape: &StormShape, quick: bool) -> Object {
    Object::new()
        .field("bench", "pressure")
        .field(
            "workload",
            "seeded allocation storm under sweep stalls, bursts, and a watermark flap",
        )
        .field("quick", quick)
        .field(
            "shape",
            row!(shape; cores, rounds, pages, hold, frames_per_node, low_watermark,
                 min_watermark, seed),
        )
        .field("passed", pressure_passed(points))
        .field("arms", Rows::of(points, arm_row))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_bench_passes_and_is_deterministic() {
        let shape = storm_shape(true);
        let points: Vec<_> = arms()
            .into_iter()
            .map(|(arm, policy)| run_pressure_point(arm, policy, &shape))
            .collect();
        assert!(
            pressure_passed(&points),
            "quick pressure bench must pass its own gate: {points:#?}"
        );
        let again = run_pressure_point(
            "latr-escalation",
            PolicyKind::Latr(LatrConfig::default()),
            &shape,
        );
        let first = points.iter().find(|p| p.arm == "latr-escalation").unwrap();
        assert_eq!(first.fingerprint, again.fingerprint, "rerun must replay");
    }
}
