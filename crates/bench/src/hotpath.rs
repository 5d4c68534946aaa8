//! The hot-path benchmark runner behind `BENCH_hotpath.json`.
//!
//! Measures the simulator's two hot loops — the calendar event queue and
//! the pending-bitmap Latr sweep — end-to-end on the sweep-heavy
//! [`SweepStorm`] workload at 16, 64 and 120 simulated cores, and renders
//! the result as the `BENCH_hotpath.json` schema EXPERIMENTS.md
//! documents. Each point's [`Machine::fingerprint`] hash pins the
//! simulated run the wall clock was taken on.

use std::time::Instant;

use latr_arch::{MachinePreset, Topology};
use latr_core::LatrConfig;
use latr_kernel::{metrics, Machine, MachineConfig};
use latr_sim::SECOND;
use latr_workloads::{PolicyKind, SweepStorm};

use crate::report::{fnv1a, rows, Object};

/// One machine-size measurement.
#[derive(Clone, Debug, Default)]
pub struct HotpathPoint {
    /// Simulated cores.
    pub cores: usize,
    /// Wall-clock nanoseconds for the whole run.
    pub wall_ns: u128,
    /// Scheduler ticks simulated.
    pub sim_ticks: u64,
    /// Events the queue delivered.
    pub events: u64,
    /// Workload operations completed (munmap rounds).
    pub ops: u64,
    /// `sim_ticks` per wall-clock second — the sweep-path figure of merit.
    pub ticks_per_sec: f64,
    /// `ops` per wall-clock second.
    pub ops_per_sec: f64,
    /// FNV-1a hash of the run's full fingerprint.
    pub fingerprint: u64,
}

/// The machine sizes `BENCH_hotpath.json` reports.
pub fn hotpath_shapes() -> [(Topology, usize); 3] {
    [
        (Topology::preset(MachinePreset::Commodity2S16C), 16),
        (Topology::new(4, 16), 64),
        (Topology::preset(MachinePreset::LargeNuma8S120C), 120),
    ]
}

/// Publishers per shape: a fixed set of 4 cores unmap while the rest
/// tick and sweep. Sparse publishing is where laziness pays — most
/// per-tick queue visits find nothing, which the pending bitmap skips
/// and a full scan would pay for on every one of the `cores` queues.
pub fn hotpath_publishers(cores: usize) -> usize {
    cores.min(4)
}

/// Rounds per publisher for a shape: enough sim time that the per-tick
/// sweep cost dominates setup, trimmed in `--quick` mode. Full-mode
/// counts are sized so every point still runs for tens of milliseconds
/// per repetition — below that the small deltas at small core counts
/// drown in timer and scheduler noise.
pub fn hotpath_rounds(cores: usize, quick: bool) -> u32 {
    let full = match cores {
        0..=16 => 1000,
        17..=64 => 600,
        _ => 400,
    };
    if quick {
        // A quarter of the full count keeps quick runs in the same
        // throughput regime as the committed numbers (run-time startup
        // is still amortized), which is what lets the CI regression
        // guard compare quick ticks/sec against the committed file.
        (full / 4).max(2)
    } else {
        full
    }
}

/// Runs the sweep storm and measures it.
///
/// Each point is run [`HOTPATH_REPS`] times and the fastest wall clock
/// is kept — the standard best-of-N discipline. A single sample of a
/// few-millisecond run mostly measures the *host*: first-touch page
/// faults on the machine's freshly-allocated arrays and whatever else
/// the OS scheduler is doing, noise larger than the differences under
/// test. Every repetition must produce a bit-identical
/// fingerprint, so best-of-N cannot hide nondeterminism.
///
/// # Panics
///
/// Panics if two repetitions of the same configuration diverge.
pub fn run_hotpath_point(topology: Topology, cores: usize, rounds: u32, seed: u64) -> HotpathPoint {
    let reps: Vec<HotpathPoint> = (0..HOTPATH_REPS)
        .map(|_| {
            let mut config = MachineConfig::new(topology.clone());
            config.seed = seed;
            // Tracing and the coherence oracle off: both are pure observers
            // with per-event costs that would drown the hot loops being
            // measured (the differential suite runs them instead).
            config.trace_capacity = 0;
            config.oracle = false;
            let mut machine = Machine::new(config);
            let start = Instant::now();
            machine.run(
                Box::new(SweepStorm::new(cores, rounds).with_publishers(hotpath_publishers(cores))),
                PolicyKind::Latr(LatrConfig::default()).build(),
                10 * SECOND,
            );
            let wall = start.elapsed().as_nanos().max(1);
            let sim_ticks = machine.stats.counter(metrics::SCHED_TICKS);
            let ops = machine.stats.counter(metrics::WORK_UNITS);
            let per_sec = |n: u64| n as f64 * 1e9 / wall as f64;
            HotpathPoint {
                cores,
                wall_ns: wall,
                sim_ticks,
                events: machine.events_delivered(),
                ops,
                ticks_per_sec: per_sec(sim_ticks),
                ops_per_sec: per_sec(ops),
                fingerprint: fnv1a(&machine.fingerprint()),
            }
        })
        .collect();
    assert!(
        reps.windows(2)
            .all(|w| w[0].fingerprint == w[1].fingerprint),
        "{cores} cores diverged between repetitions"
    );
    // The first of the fastest, as a strict best-so-far scan would keep.
    reps.into_iter()
        .min_by_key(|p| p.wall_ns)
        .expect("HOTPATH_REPS > 0")
}

/// Repetitions per measured point (best wall clock wins).
pub const HOTPATH_REPS: u32 = 5;

/// Renders the measurement set as the `BENCH_hotpath.json` document.
pub fn hotpath_json(points: &[HotpathPoint], quick: bool) -> String {
    Object::new()
        .field("bench", "hotpath")
        .field("workload", "sweep-storm")
        .field("quick", quick)
        .field(
            "points",
            rows!(points; cores, wall_ns, sim_ticks, events, ops, ticks_per_sec: 1,
                          ops_per_sec: 1, fingerprint: hex),
        )
        .render()
}

/// Extracts `(cores, ticks_per_sec)` for every point of a committed
/// `BENCH_hotpath.json` document, line by line: [`hotpath_json`] prints
/// one point per line.
pub fn committed_ticks(json: &str) -> Vec<(usize, f64)> {
    let field = |line: &str, key: &str| -> Option<f64> {
        let tail = &line[line.find(key)? + key.len()..];
        let tail = tail.trim_start_matches([':', ' ']);
        let end = tail
            .find(|c: char| !c.is_ascii_digit() && c != '.' && c != '-')
            .unwrap_or(tail.len());
        tail[..end].parse().ok()
    };
    json.lines()
        .filter_map(|l| {
            Some((
                field(l, "\"cores\"")? as usize,
                field(l, "\"ticks_per_sec\"")?,
            ))
        })
        .collect()
}

/// The CI bench-regression guard: compares freshly measured points
/// against the committed numbers and returns one message per
/// point whose ticks/sec fell more than `tolerance` (a fraction, e.g.
/// `0.2`) below the committed value. Missing committed points are
/// skipped — the guard checks for regressions, not schema drift.
pub fn guard_failures(
    committed: &[(usize, f64)],
    points: &[HotpathPoint],
    tolerance: f64,
) -> Vec<String> {
    let mut out = Vec::new();
    for p in points {
        if let Some(&(_, baseline)) = committed.iter().find(|(c, _)| *c == p.cores) {
            let floor = baseline * (1.0 - tolerance);
            if p.ticks_per_sec < floor {
                out.push(format!(
                    "{} cores: {:.0} ticks/sec is more than {:.0}% below the \
                     committed {:.0} (floor {:.0})",
                    p.cores,
                    p.ticks_per_sec,
                    tolerance * 100.0,
                    baseline,
                    floor,
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(cores: usize, ticks_per_sec: f64) -> HotpathPoint {
        HotpathPoint {
            cores,
            ticks_per_sec,
            ..HotpathPoint::default()
        }
    }

    #[test]
    fn guard_round_trips_through_the_json_and_flags_regressions() {
        let committed = [point(16, 1000.0), point(120, 3000.0)];
        let parsed = committed_ticks(&hotpath_json(&committed, false));
        assert_eq!(parsed, vec![(16, 1000.0), (120, 3000.0)]);

        // Within tolerance (and above) passes; a >20% drop fails.
        let fresh_ok = [point(16, 850.0), point(120, 3100.0)];
        assert!(guard_failures(&parsed, &fresh_ok, 0.2).is_empty());
        let fresh_bad = [point(16, 799.0), point(120, 3100.0)];
        let failures = guard_failures(&parsed, &fresh_bad, 0.2);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("16 cores"), "{failures:?}");
        // A shape absent from the committed file is not a failure.
        let fresh_extra = [point(64, 1.0)];
        assert!(guard_failures(&parsed, &fresh_extra, 0.2).is_empty());
    }

    #[test]
    fn a_small_point_runs_every_round() {
        let p = run_hotpath_point(Topology::new(2, 2), 4, 3, 42);
        assert_eq!(p.ops, 4 * 3);
        assert!(p.sim_ticks > 0);
    }
}
