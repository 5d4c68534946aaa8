//! The hot-path benchmark behind `BENCH_hotpath.json`.
//!
//! Measures the simulator's two hot loops — the calendar event queue and
//! the pending-bitmap Latr sweep — end-to-end on the sweep-heavy
//! [`SweepStorm`] workload at 16, 64 and 120 simulated cores, and renders
//! the result as the `BENCH_hotpath.json` schema EXPERIMENTS.md
//! documents. Each point's counted work (ticks, events, ops and the
//! [`Machine::fingerprint`] hash) is exact on every host, and a unit test
//! checks it against the committed file; the wall clock beside it is
//! reported, not gated.

use latr_arch::{MachinePreset, Topology};
use latr_core::LatrConfig;
use latr_kernel::{metrics, Machine, MachineConfig};
use latr_sim::SECOND;
use latr_workloads::{PolicyKind, SweepStorm};

use crate::bench::Report;
use crate::report::{each, fnv1a, host_cpus, row, time, Float, Object, Rows, Spread};

/// One sweep-storm run's counted work: identical on every host.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Counted {
    /// Simulated cores.
    cores: usize,
    /// Scheduler ticks simulated.
    sim_ticks: u64,
    /// Events the queue delivered.
    events: u64,
    /// Workload operations completed (munmap rounds).
    ops: u64,
    /// FNV-1a hash of the run's full fingerprint.
    fingerprint: u64,
}

/// One machine-size measurement.
struct HotpathPoint {
    /// The run's counted work.
    counted: Counted,
    /// Wall-clock ns per build-and-run of the machine.
    wall_ns: Spread,
}

/// Runs every shape; panics if two timed repetitions of a point diverge.
pub(crate) fn run(quick: bool) -> Report {
    let points = each(
        hotpath_shapes(),
        |(topology, cores)| run_hotpath_point(&topology, cores, quick),
        point_row,
    );
    Report {
        document: hotpath_json(&points, quick),
        failure: None,
    }
}

/// The machine sizes `BENCH_hotpath.json` reports.
fn hotpath_shapes() -> [(Topology, usize); 3] {
    [
        (Topology::preset(MachinePreset::Commodity2S16C), 16),
        (Topology::new(4, 16), 64),
        (Topology::preset(MachinePreset::LargeNuma8S120C), 120),
    ]
}

/// Rounds per publisher for a shape: enough sim time that the per-tick
/// sweep cost dominates setup, so every point runs for milliseconds. One
/// size serves `--quick` too, which keeps every run's counted work the
/// committed file's.
fn hotpath_rounds(cores: usize) -> u32 {
    match cores {
        0..=16 => 1000,
        17..=64 => 600,
        _ => 400,
    }
}

/// Builds the sweep-storm machine for a shape, runs it and counts its work.
fn sweep_storm(topology: &Topology, cores: usize) -> Counted {
    let mut config = MachineConfig::new(topology.clone());
    config.seed = 0xB3 ^ cores as u64;
    // Tracing and the coherence oracle off: both are pure observers
    // with per-event costs that would drown the hot loops being measured
    // (the differential suite runs them instead).
    config.trace_capacity = 0;
    config.oracle = false;
    let mut machine = Machine::new(config);
    machine.run(
        // A fixed set of 4 cores unmap while the rest tick and sweep.
        // Sparse publishing is where laziness pays: most per-tick queue
        // visits find nothing, which the pending bitmap skips and a full
        // scan would pay for on every one of the `cores` queues.
        Box::new(SweepStorm::new(cores, hotpath_rounds(cores)).with_publishers(cores.min(4))),
        PolicyKind::Latr(LatrConfig::default()).build(),
        10 * SECOND,
    );
    Counted {
        cores,
        sim_ticks: machine.stats.counter(metrics::SCHED_TICKS),
        events: machine.events_delivered(),
        ops: machine.stats.counter(metrics::WORK_UNITS),
        fingerprint: fnv1a(&machine.fingerprint()),
    }
}

/// Times the sweep storm, one build-and-run per batch. Every repetition
/// must count the same work, so a divergence panics.
fn run_hotpath_point(topology: &Topology, cores: usize, quick: bool) -> HotpathPoint {
    let mut first = None;
    let wall_ns = time(quick, 1, || {
        let counted = sweep_storm(topology, cores);
        assert_eq!(
            *first.get_or_insert(counted),
            counted,
            "{cores} cores diverged between repetitions"
        );
    });
    HotpathPoint {
        counted: first.expect("time runs at least once"),
        wall_ns,
    }
}

/// The exact part of a point's row: its shape and counted work.
fn counted_row(c: &Counted) -> Object {
    row!(c; cores, sim_ticks, events, ops, fingerprint: hex)
}

/// One point's row of the document: the counted work, the wall time, and
/// the ticks and ops per second of its median.
fn point_row(p: &HotpathPoint) -> Object {
    let per_sec = |n: u64| Float(n as f64 * 1e9 / p.wall_ns.median, 1);
    counted_row(&p.counted)
        .field("wall_ns", p.wall_ns)
        .field("ticks_per_sec", per_sec(p.counted.sim_ticks))
        .field("ops_per_sec", per_sec(p.counted.ops))
}

/// The measurement set as the `BENCH_hotpath.json` document.
fn hotpath_json(points: &[HotpathPoint], quick: bool) -> Object {
    Object::new()
        .field("bench", "hotpath")
        .field("workload", "sweep-storm")
        .field("quick", quick)
        .field("host_cpus", host_cpus())
        .field("points", Rows::of(points, point_row))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Json;

    /// The gate on the hot path: every shape's counted work equals the
    /// committed file's, field for field. A change that moves it
    /// regenerates the file and says why.
    #[test]
    fn counted_work_matches_the_committed_file() {
        let committed = include_str!("../../../BENCH_hotpath.json");
        for (topology, cores) in hotpath_shapes() {
            let json = counted_row(&sweep_storm(&topology, cores)).json();
            let want = json.strip_suffix('}').expect("an object ends in a brace");
            assert!(
                committed.lines().any(|l| l.trim_start().starts_with(want)),
                "{cores} cores counted {json}, not the committed BENCH_hotpath.json row"
            );
        }
    }
}
