//! The open-loop tail-latency benchmark behind `BENCH_serving.json`
//! (PR 10).
//!
//! Runs [`latr_workloads::ServingWorkload`] on the 120-core preset under
//! each TLB-coherence policy (Linux, ABIS, Latr) plus Latr under two
//! fault plans (degraded mode as a first-class curve, not a footnote),
//! and reports the p50/p99/p999 of the request- and shootdown-latency
//! histograms. Requests arrive on an open loop — a worker stalled in a
//! synchronous shootdown keeps accumulating queueing delay — so the tail
//! percentiles, not the mean, are where the policies separate.
//!
//! Before the full-size measurement, every variant is gated: a small run
//! is repeated on the fast and `reference` engines and must produce
//! bit-identical [`Machine::fingerprint`]s (the PR-4 pattern — a fast
//! engine that changes the simulation disqualifies itself).

use std::time::Instant;

use latr_arch::{MachinePreset, Topology};
use latr_core::LatrConfig;
use latr_faults::FaultPlan;
use latr_kernel::{metrics, Machine, MachineConfig};
use latr_sim::{QueueBackend, Summary, MILLISECOND, SECOND};
use latr_workloads::{ArrivalProcess, PolicyKind, ServingWorkload};

use crate::report::{engine_label, fingerprints_agree, fnv1a, rows, Hex, Object, Rows, ENGINES};

/// Which policy (and faults) one serving curve runs under.
#[derive(Clone, Debug)]
pub struct ServingVariant {
    /// Curve label: `"linux"`, `"abis"`, `"latr"`, `"latr+ipi-chaos"`,
    /// `"latr+sweep-chaos"`.
    pub label: &'static str,
    /// The TLB-coherence policy.
    pub policy: PolicyKind,
    /// Fault plan for the degraded-mode curves.
    pub faults: Option<FaultPlan>,
}

/// The benchmark's shape: the paper's 8-socket, 120-core machine.
pub fn serving_shape() -> (Topology, usize) {
    (Topology::preset(MachinePreset::LargeNuma8S120C), 120)
}

/// Worker processes: 24 address spaces × 5 worker threads each — many
/// mms for the per-`(mm, tick)` sweep grouping, few enough workers per
/// mm that `mmap_sem` contention stays Apache-shaped.
pub const SERVING_PROCS: usize = 24;

/// Requests each worker admits. Full mode totals 120 × 8400 = 1,008,000
/// simulated connections per policy; quick mode trims to a smoke run.
pub fn serving_requests_per_worker(quick: bool) -> u64 {
    if quick {
        50
    } else {
        8_400
    }
}

/// The measured curves: three clean policies plus Latr under two fault
/// plans — dropped/delayed IPIs (stressing the watchdog and retry
/// paths) and missed ticks + a stalled sweeper (stressing the gated
/// reclamation and escalation paths).
pub fn serving_variants() -> Vec<ServingVariant> {
    vec![
        ServingVariant {
            label: "linux",
            policy: PolicyKind::Linux,
            faults: None,
        },
        ServingVariant {
            label: "abis",
            policy: PolicyKind::Abis,
            faults: None,
        },
        ServingVariant {
            label: "latr",
            policy: PolicyKind::latr_default(),
            faults: None,
        },
        ServingVariant {
            label: "latr+ipi-chaos",
            policy: PolicyKind::latr_default(),
            // Overflow storms force publishes onto the fallback IPI path,
            // where the drops and delays then bite (a pure IPI plan is
            // inert for Latr — lazy sweeps send none).
            faults: Some(
                FaultPlan::default()
                    .with_ipi_drop(0.25)
                    .with_ipi_delay(0.25, 200_000)
                    .with_storm(2 * MILLISECOND, 10 * MILLISECOND)
                    .with_storm(100 * MILLISECOND, 150 * MILLISECOND),
            ),
        },
        ServingVariant {
            label: "latr+sweep-chaos",
            policy: PolicyKind::latr_default(),
            faults: Some(FaultPlan::default().with_tick_miss(0.30).with_stall(
                1,
                MILLISECOND,
                8 * MILLISECOND,
            )),
        },
    ]
}

/// One variant × engine measurement.
#[derive(Clone, Debug, Default)]
pub struct ServingPoint {
    /// Variant label (see [`serving_variants`]).
    pub label: String,
    /// Engine label: `"fast"` or `"reference"`.
    pub engine: String,
    /// Simulated cores.
    pub cores: usize,
    /// Requests served.
    pub requests: u64,
    /// Wall-clock nanoseconds for the run.
    pub wall_ns: u128,
    /// Events the queue delivered.
    pub events: u64,
    /// Request latency (arrival → munmap completion, ns).
    pub request_ns: Option<Summary>,
    /// Remote-shootdown wait (sync rounds only, ns).
    pub shootdown_ns: Option<Summary>,
    /// `munmap()` syscall latency (ns).
    pub munmap_ns: Option<Summary>,
    /// FNV-1a of the full fingerprint, for the cross-engine gate.
    pub fingerprint: u64,
}

/// Runs one serving curve on the chosen engine. The `Reference` engine
/// also runs the reference (scan-every-queue) Latr sweep, measuring the
/// full PR-4 baseline stack, exactly as the hotpath bench does.
pub fn run_serving_point(
    backend: QueueBackend,
    variant: &ServingVariant,
    requests_per_worker: u64,
    seed: u64,
) -> ServingPoint {
    let (topology, cores) = serving_shape();
    let mut config = MachineConfig::new(topology);
    config.seed = seed;
    config.trace_capacity = 0;
    config.oracle = false;
    config.engine = backend;
    config.faults = variant.faults.clone();
    let policy = match variant.policy {
        PolicyKind::Latr(_) => PolicyKind::Latr(LatrConfig {
            reference_sweep: backend == QueueBackend::Reference,
            ..LatrConfig::default()
        }),
        other => other,
    };
    let workload = ServingWorkload::new(cores, SERVING_PROCS, requests_per_worker)
        .with_arrivals(ArrivalProcess::Bursty {
            period: 4 * MILLISECOND,
            on_pct: 25,
            factor: 2.0,
        })
        .with_seed(seed ^ 0x5e21);
    let mut machine = Machine::new(config);
    let start = Instant::now();
    machine.run(Box::new(workload), policy.build(), 60 * SECOND);
    let wall = start.elapsed().as_nanos().max(1);
    let summary = |name: &str| machine.stats.histogram(name).map(|h| h.summary());
    ServingPoint {
        label: variant.label.to_string(),
        engine: engine_label(backend).to_string(),
        cores,
        requests: machine.stats.counter(metrics::WORK_UNITS),
        wall_ns: wall,
        events: machine.events_delivered(),
        request_ns: summary(metrics::SERVING_REQUEST_NS),
        shootdown_ns: summary(metrics::SHOOTDOWN_NS),
        munmap_ns: summary(metrics::MUNMAP_NS),
        fingerprint: fnv1a(&machine.fingerprint()),
    }
}

/// The cross-engine gate runs for `variant`: the same quick-size run on
/// every engine, which must fingerprint identically
/// ([`fingerprints_agree`]).
pub fn run_serving_gate(variant: &ServingVariant, seed: u64) -> Vec<ServingPoint> {
    ENGINES
        .iter()
        .map(|&e| run_serving_point(e, variant, serving_requests_per_worker(true), seed))
        .collect()
}

/// Renders the gate runs (grouped by variant, as [`run_serving_gate`]
/// returns them) and the curves as the `BENCH_serving.json` document.
pub fn serving_json(gates: &[ServingPoint], curves: &[ServingPoint], quick: bool) -> String {
    let (_, cores) = serving_shape();
    let by_label = |p: &ServingPoint| (p.label.clone(), p.fingerprint);
    let gate_rows = gates.chunk_by(|a, b| a.label == b.label).map(|runs| {
        let row = Object::new()
            .field("label", &runs[0].label)
            .field("fingerprints_match", fingerprints_agree(runs, by_label));
        row.fields(runs.iter().map(|p| (p.engine.clone(), Hex(p.fingerprint))))
    });
    Object::new()
        .field("bench", "serving")
        .field("workload", "serving-open-loop")
        .field("quick", quick)
        .field("cores", cores)
        .field("procs", SERVING_PROCS)
        .field(
            "requests_per_policy",
            cores as u64 * serving_requests_per_worker(quick),
        )
        .field("gates", Rows(gate_rows.collect()))
        .field(
            "curves",
            rows!(curves; label, engine, requests, wall_ns, events, request_ns, shootdown_ns,
                          munmap_ns, fingerprint: hex),
        )
        .field("gates_passed", fingerprints_agree(gates, by_label))
        .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variants_cover_policies_and_chaos() {
        let vs = serving_variants();
        assert_eq!(vs.len(), 5);
        assert_eq!(vs.iter().filter(|v| v.faults.is_some()).count(), 2);
        let labels: Vec<_> = vs.iter().map(|v| v.label).collect();
        assert!(labels.contains(&"linux"));
        assert!(labels.contains(&"abis"));
        assert!(labels.contains(&"latr"));
    }

    fn gate_run(engine: &str, fingerprint: u64) -> ServingPoint {
        let (label, engine) = ("latr".to_string(), engine.to_string());
        ServingPoint {
            label,
            engine,
            fingerprint,
            ..ServingPoint::default()
        }
    }

    #[test]
    fn gate_detects_divergence() {
        let agree = [gate_run("fast", 7), gate_run("reference", 7)];
        let json = serving_json(&agree, &agree[..1], true);
        assert!(json.contains("\"fingerprints_match\": true, \"fast\": \"0000000000000007\""));
        assert!(json.contains("\"gates_passed\": true"));
        let diverged = [gate_run("fast", 7), gate_run("reference", 8)];
        assert!(serving_json(&diverged, &[], true).contains("\"gates_passed\": false"));
    }
}
