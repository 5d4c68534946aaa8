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
//! under the `latr-verify` coherence oracle must end with no violation
//! (a curve from an incoherent simulation disqualifies itself).

use std::time::Instant;

use latr_arch::{MachinePreset, Topology};
use latr_faults::FaultPlan;
use latr_kernel::{metrics, Machine, MachineConfig};
use latr_sim::{Summary, MILLISECOND, SECOND};
use latr_workloads::{ArrivalProcess, PolicyKind, ServingWorkload};

use crate::report::{fnv1a, rows, Object};

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
/// plans — dropped/delayed IPIs under overflow storms (reaching the IPI
/// retry and fallback-IPI paths; no sweeper stalls, so the watchdog never
/// escalates) and missed ticks + a stalled sweeper (reaching gated
/// reclamation and watchdog escalation).
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

/// One variant's measurement.
#[derive(Clone, Debug, Default)]
pub struct ServingPoint {
    /// Variant label (see [`serving_variants`]).
    pub label: String,
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
    /// FNV-1a of the full fingerprint.
    pub fingerprint: u64,
    /// Whether the run ended with no coherence-oracle violation; `None`
    /// when the oracle was off.
    pub oracle_clean: Option<bool>,
}

/// Runs one serving curve, with the coherence oracle on or off.
pub fn run_serving_point(
    variant: &ServingVariant,
    requests_per_worker: u64,
    seed: u64,
    oracle: bool,
) -> ServingPoint {
    let (topology, cores) = serving_shape();
    let mut config = MachineConfig::new(topology);
    config.seed = seed;
    config.trace_capacity = 0;
    config.oracle = oracle;
    config.faults = variant.faults.clone();
    let workload = ServingWorkload::new(cores, SERVING_PROCS, requests_per_worker)
        .with_arrivals(ArrivalProcess::Bursty {
            period: 4 * MILLISECOND,
            on_pct: 25,
            factor: 2.0,
        })
        .with_seed(seed ^ 0x5e21);
    let mut machine = Machine::new(config);
    let start = Instant::now();
    machine.run(Box::new(workload), variant.policy.build(), 60 * SECOND);
    let wall = start.elapsed().as_nanos().max(1);
    let summary = |name: &str| machine.stats.histogram(name).map(|h| h.summary());
    ServingPoint {
        label: variant.label.to_string(),
        cores,
        requests: machine.stats.counter(metrics::WORK_UNITS),
        wall_ns: wall,
        events: machine.events_delivered(),
        request_ns: summary(metrics::SERVING_REQUEST_NS),
        shootdown_ns: summary(metrics::SHOOTDOWN_NS),
        munmap_ns: summary(metrics::MUNMAP_NS),
        fingerprint: fnv1a(&machine.fingerprint()),
        oracle_clean: oracle.then(|| machine.oracle_violation().is_none()),
    }
}

/// The gate run for `variant`: the quick-size run under the coherence
/// oracle, which must end clean.
pub fn run_serving_gate(variant: &ServingVariant, seed: u64) -> ServingPoint {
    run_serving_point(variant, serving_requests_per_worker(true), seed, true)
}

/// Whether every gate run ended oracle-clean.
pub fn gates_passed(gates: &[ServingPoint]) -> bool {
    gates.iter().all(|g| g.oracle_clean == Some(true))
}

/// Renders the gate runs and the curves as the `BENCH_serving.json`
/// document.
pub fn serving_json(gates: &[ServingPoint], curves: &[ServingPoint], quick: bool) -> String {
    let (_, cores) = serving_shape();
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
        .field("gates", rows!(gates; label, oracle_clean, fingerprint: hex))
        .field(
            "curves",
            rows!(curves; label, requests, wall_ns, events, request_ns, shootdown_ns,
                          munmap_ns, fingerprint: hex),
        )
        .field("gates_passed", gates_passed(gates))
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

    fn gate_run(label: &str, oracle_clean: bool) -> ServingPoint {
        ServingPoint {
            label: label.to_string(),
            fingerprint: 7,
            oracle_clean: Some(oracle_clean),
            ..ServingPoint::default()
        }
    }

    #[test]
    fn gate_detects_an_oracle_violation() {
        let clean = [gate_run("linux", true), gate_run("latr", true)];
        let json = serving_json(&clean, &clean[..1], true);
        assert!(json.contains(
            "{\"label\": \"latr\", \"oracle_clean\": true, \"fingerprint\": \"0000000000000007\"}"
        ));
        assert!(json.contains("\"gates_passed\": true"));
        let violated = [gate_run("linux", true), gate_run("latr", false)];
        assert!(serving_json(&violated, &[], true).contains("\"gates_passed\": false"));
        // A run with the oracle off proves nothing.
        let unchecked = [ServingPoint::default()];
        assert!(!gates_passed(&unchecked));
    }
}
