//! Open-loop serving tail latency under every policy → `BENCH_serving.json`.
//!
//! Runs the open-loop serving workload (Poisson/bursty arrivals across
//! 24 processes on the 120-core preset, one mmap/touch/munmap cycle per
//! request) under Linux, ABIS, and Latr, plus Latr under two fault
//! plans, and reports the p50/p99/p999 request- and shootdown-latency
//! percentiles. Every variant is first gated by a small run under the
//! coherence oracle, which must end without a violation — an incoherent
//! simulation disqualifies the curves.
//!
//! ```sh
//! cargo run --release -p latr-bench --bin serving           # ~1M requests/policy
//! cargo run --release -p latr-bench --bin serving -- --quick
//! ```
//!
//! Exits non-zero if any gate run draws an oracle violation.

use latr_bench::print_title;
use latr_bench::serving::{
    gates_passed, run_serving_gate, run_serving_point, serving_json, serving_requests_per_worker,
    serving_variants,
};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let seed = 0xC0FF;
    print_title("Serving tail latency — open loop, 120 cores, per-policy percentiles");

    let variants = serving_variants();
    println!("oracle gates (small runs):");
    let gates: Vec<_> = variants
        .iter()
        .map(|v| {
            let g = run_serving_gate(v, seed);
            let verdict = if g.oracle_clean == Some(true) {
                "clean"
            } else {
                "VIOLATION"
            };
            println!("  {:<18} {verdict}", v.label);
            g
        })
        .collect();

    println!();
    println!(
        "{:<18} {:>10} {:>12} {:>10} {:>10} {:>10} {:>12}",
        "variant", "requests", "wall (ms)", "p50 (us)", "p99 (us)", "p999 (us)", "events"
    );
    let mut curves = Vec::new();
    for v in &variants {
        let p = run_serving_point(v, serving_requests_per_worker(quick), seed, false);
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

    let all_passed = gates_passed(&gates);
    println!();
    println!(
        "gates: {}",
        if all_passed {
            "every variant oracle-clean"
        } else {
            "ORACLE VIOLATION — see the gate lines above"
        }
    );

    let json = serving_json(&gates, &curves, quick);
    std::fs::write("BENCH_serving.json", &json).expect("write BENCH_serving.json");
    println!("wrote BENCH_serving.json");

    if !all_passed {
        std::process::exit(1);
    }
}
