//! Real-thread scaling benchmark: the lock-free rt runtime at 4–120 OS
//! threads, emitted as `BENCH_rt_scale.json`.
//!
//! Runs the munmap-heavy soft-TLB loop of [`latr_bench::rt_scale`] on the
//! rt runtime stack (pending-row sweep, sharded reclaimer, cached
//! frontier) and on a synchronous mailbox "IPI" baseline, and writes the
//! measurements to `BENCH_rt_scale.json` in the current directory. See
//! EXPERIMENTS.md ("rt scaling") for how to read the file.
//!
//! ```sh
//! cargo run --release -p latr-bench --bin rt_scale           # full run
//! cargo run --release -p latr-bench --bin rt_scale -- --quick
//! ```
//!
//! Exits non-zero if any point trips the reclamation canary (an item
//! collected before every core swept past its due tick): an unsafe run
//! disqualifies every speedup number in it.

use latr_bench::print_title;
use latr_bench::report::ratios;
use latr_bench::rt_scale::{
    canary_passed, rt_scale_duration, rt_scale_json, rt_scale_threads, run_rt_scale_point,
    RtScalePoint, ScaleEngine,
};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    print_title("rt scaling — real threads, lazy runtime vs sync-IPI baseline");
    println!(
        "{:<15} {:>8} {:>13} {:>10} {:>12} {:>12} {:>10} {:>7}",
        "engine", "threads", "ops/sec", "unmaps", "sweep p50", "sweep p99", "lag", "canary"
    );

    let mut points = Vec::new();
    for threads in rt_scale_threads(quick) {
        for engine in ScaleEngine::all() {
            let p = run_rt_scale_point(engine, threads, rt_scale_duration(quick, threads));
            println!(
                "{:<15} {:>8} {:>13.0} {:>10} {:>10}ns {:>10}ns {:>10.2} {:>7}",
                p.engine,
                p.threads,
                p.ops_per_sec,
                p.unmaps,
                p.sweep_p50_ns,
                p.sweep_p99_ns,
                p.reclaim_lag_ticks,
                if p.canary_ok { "ok" } else { "FAIL" },
            );
            points.push(p);
        }
    }

    println!();
    let key = |p: &RtScalePoint| (p.engine, p.threads, p.ops_per_sec);
    for (threads, r) in ratios(&points, "lazy-sharded", "sync-ipi", key) {
        println!("lazy vs sync-IPI at {threads:>3} threads: {r:.2}x (ops/sec)");
    }

    let json = rt_scale_json(&points, quick);
    std::fs::write("BENCH_rt_scale.json", &json).expect("write BENCH_rt_scale.json");
    println!("\nwrote BENCH_rt_scale.json");

    if !canary_passed(&points) {
        eprintln!(
            "CANARY VIOLATED: an item was reclaimed before its grace elapsed — run is unsafe"
        );
        std::process::exit(2);
    }
}
