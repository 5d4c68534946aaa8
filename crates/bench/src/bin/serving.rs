//! Open-loop serving tail latency under every policy → `BENCH_serving.json`.
//!
//! Runs the open-loop serving workload (Poisson/bursty arrivals across
//! 24 processes on the 120-core preset, one mmap/touch/munmap cycle per
//! request) under Linux, ABIS, and Latr, plus Latr under two fault
//! plans, and reports the p50/p99/p999 request- and shootdown-latency
//! percentiles. Every variant is first gated by a small run repeated on
//! the fast and `reference` engines, which must fingerprint identically —
//! a divergent engine disqualifies the curves.
//!
//! ```sh
//! cargo run --release -p latr-bench --bin serving           # ~1M requests/policy
//! cargo run --release -p latr-bench --bin serving -- --quick
//! ```
//!
//! Exits non-zero if any cross-engine gate fails.

use latr_bench::print_title;
use latr_bench::report::fingerprints_agree;
use latr_bench::serving::{
    run_serving_gate, run_serving_point, serving_json, serving_requests_per_worker,
    serving_variants,
};
use latr_sim::QueueBackend;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let seed = 0xC0FF;
    print_title("Serving tail latency — open loop, 120 cores, per-policy percentiles");

    let variants = serving_variants();
    println!("cross-engine fingerprint gates (small runs):");
    let mut gates = Vec::new();
    for v in &variants {
        let runs = run_serving_gate(v, seed);
        let agree = fingerprints_agree(&runs, |p| (&p.label, p.fingerprint));
        println!(
            "  {:<18} {}",
            v.label,
            if agree { "ok" } else { "DIVERGED" }
        );
        gates.extend(runs);
    }

    println!();
    println!(
        "{:<18} {:>10} {:>12} {:>10} {:>10} {:>10} {:>12}",
        "variant", "requests", "wall (ms)", "p50 (us)", "p99 (us)", "p999 (us)", "events"
    );
    let mut curves = Vec::new();
    for v in &variants {
        let p = run_serving_point(
            QueueBackend::Fast,
            v,
            serving_requests_per_worker(quick),
            seed,
        );
        let us = |n: u64| n as f64 / 1e3;
        let s = p.request_ns.expect("requests served");
        println!(
            "{:<18} {:>10} {:>12.1} {:>10.1} {:>10.1} {:>10.1} {:>12}",
            p.label,
            p.requests,
            p.wall_ns as f64 / 1e6,
            us(s.p50),
            us(s.p99),
            us(s.p999),
            p.events,
        );
        curves.push(p);
    }

    let all_passed = fingerprints_agree(&gates, |p| (&p.label, p.fingerprint));
    println!();
    println!(
        "gates: {}",
        if all_passed {
            "fingerprints identical on both engines for every variant"
        } else {
            "DIVERGED — see the differential suite"
        }
    );

    let json = serving_json(&gates, &curves, quick);
    std::fs::write("BENCH_serving.json", &json).expect("write BENCH_serving.json");
    println!("wrote BENCH_serving.json");

    if !all_passed {
        std::process::exit(1);
    }
}
