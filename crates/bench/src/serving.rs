//! The open-loop tail-latency benchmark behind `BENCH_serving.json`.
//!
//! Runs [`latr_workloads::ServingWorkload`] on the 120-core preset under
//! each TLB-coherence policy (Linux, ABIS, Latr) plus Latr under two
//! fault plans (degraded mode as a first-class curve, not a footnote),
//! and reports the p50/p99/p999 of the request- and shootdown-latency
//! histograms. Requests arrive on an open loop — a worker stalled in a
//! synchronous shootdown keeps accumulating queueing delay — so the tail
//! percentiles, not the mean, are where the policies separate.
//!
//! Every curve runs under the `latr-verify` coherence oracle, which
//! checks it on a worker thread beside the simulation, and each row
//! records whether the run ended with no violation: a curve from an
//! incoherent simulation disqualifies itself, and the bench fails.

use std::time::Instant;

use latr_arch::{MachinePreset, Topology};
use latr_faults::FaultPlan;
use latr_kernel::{metrics, Machine, MachineConfig};
use latr_sim::{Summary, MILLISECOND, SECOND};
use latr_workloads::{ArrivalProcess, PolicyKind, ServingWorkload};

use crate::bench::Report;
use crate::report::{each, fnv1a, row, Object, Rows};

/// Which policy (and faults) one serving curve runs under.
#[derive(Clone, Debug)]
struct ServingVariant {
    /// Curve label: `"linux"`, `"abis"`, `"latr"`, `"latr+ipi-chaos"`,
    /// `"latr+sweep-chaos"`.
    label: &'static str,
    /// The TLB-coherence policy.
    policy: PolicyKind,
    /// Fault plan for the degraded-mode curves.
    faults: Option<FaultPlan>,
}

/// Seed of every run.
const SEED: u64 = 0xC0FF;

/// Runs every variant's curve under the oracle.
pub(crate) fn run(quick: bool) -> Report {
    let curves = each(
        &serving_variants(),
        |v| run_serving_point(v, serving_requests_per_worker(quick), SEED),
        curve_row,
    );
    let why = "a curve drew a coherence-oracle violation";
    let document = serving_json(&curves, quick);
    Report::new(document, all_clean(&curves), why)
}

/// Cores of the benchmark's machine: the paper's 8-socket, 120-core
/// preset.
const CORES: usize = 120;

/// Worker processes: 24 address spaces × 5 worker threads each — many
/// mms for the per-`(mm, tick)` sweep grouping, few enough workers per
/// mm that `mmap_sem` contention stays Apache-shaped.
const SERVING_PROCS: usize = 24;

/// Requests each worker admits. Full mode totals 120 × 8400 = 1,008,000
/// simulated connections per policy; quick mode trims to a smoke run.
fn serving_requests_per_worker(quick: bool) -> u64 {
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
fn serving_variants() -> Vec<ServingVariant> {
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
struct ServingPoint {
    /// Variant label (see [`serving_variants`]).
    label: &'static str,
    /// Requests served.
    requests: u64,
    /// Wall-clock nanoseconds for the run.
    wall_ns: u128,
    /// Events the queue delivered.
    events: u64,
    /// Request latency (arrival → munmap completion, ns).
    request_ns: Option<Summary>,
    /// Remote-shootdown wait (sync rounds only, ns).
    shootdown_ns: Option<Summary>,
    /// `munmap()` syscall latency (ns).
    munmap_ns: Option<Summary>,
    /// Whether the run ended with no coherence-oracle violation.
    oracle_clean: bool,
    /// FNV-1a of the full fingerprint.
    fingerprint: u64,
}

/// Runs one serving curve under the coherence oracle.
fn run_serving_point(
    variant: &ServingVariant,
    requests_per_worker: u64,
    seed: u64,
) -> ServingPoint {
    let mut config = MachineConfig::new(Topology::preset(MachinePreset::LargeNuma8S120C));
    config.seed = seed;
    config.trace_capacity = 0;
    config.oracle = true;
    config.faults = variant.faults.clone();
    let workload = ServingWorkload::new(CORES, SERVING_PROCS, requests_per_worker)
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
        label: variant.label,
        requests: machine.stats.counter(metrics::WORK_UNITS),
        wall_ns: wall,
        events: machine.events_delivered(),
        request_ns: summary(metrics::SERVING_REQUEST_NS),
        shootdown_ns: summary(metrics::SHOOTDOWN_NS),
        munmap_ns: summary(metrics::MUNMAP_NS),
        oracle_clean: machine.oracle_violation().is_none(),
        fingerprint: fnv1a(&machine.fingerprint()),
    }
}

/// Whether every curve ended oracle-clean.
fn all_clean(curves: &[ServingPoint]) -> bool {
    curves.iter().all(|c| c.oracle_clean)
}

/// A curve's row.
fn curve_row(p: &ServingPoint) -> Object {
    row!(p; label, requests, wall_ns, events, request_ns, shootdown_ns, munmap_ns,
            oracle_clean, fingerprint: hex)
}

/// The curves as the `BENCH_serving.json` document.
fn serving_json(curves: &[ServingPoint], quick: bool) -> Object {
    Object::new()
        .field("bench", "serving")
        .field("workload", "serving-open-loop")
        .field("quick", quick)
        .field("cores", CORES)
        .field("procs", SERVING_PROCS)
        .field(
            "requests_per_policy",
            CORES as u64 * serving_requests_per_worker(quick),
        )
        .field("curves", Rows::of(curves, curve_row))
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

    fn curve(label: &'static str, oracle_clean: bool) -> ServingPoint {
        ServingPoint {
            label,
            fingerprint: 7,
            oracle_clean,
            ..ServingPoint::default()
        }
    }

    #[test]
    fn a_curve_with_an_oracle_violation_fails_the_bench() {
        let clean = [curve("linux", true), curve("latr", true)];
        let json = serving_json(&clean, true).render();
        assert!(
            json.contains("\"oracle_clean\": true, \"fingerprint\": \"0000000000000007\"}"),
            "{json}"
        );
        assert!(all_clean(&clean));
        let violated = [curve("linux", true), curve("latr", false)];
        assert!(serving_json(&violated, true)
            .render()
            .contains("\"oracle_clean\": false"));
        assert!(!all_clean(&violated));
    }
}
