//! Memory-pressure resilience under allocation storms, emitted as
//! `BENCH_pressure.json`.
//!
//! Runs the identical seeded storm — [`latr_bench::pressure`]'s
//! [`AllocStorm`] churn sharpened by sweep stalls, allocation bursts and
//! a watermark flap — through three coherence policies: synchronous
//! Linux shootdowns, Latr with escalation disabled, and the full Latr
//! pressure path (expedited sweeps + min-watermark sync fallback). See
//! EXPERIMENTS.md ("Allocation storms") for how to read the output.
//!
//! ```sh
//! cargo run --release -p latr-bench --bin pressure           # 120 cores
//! cargo run --release -p latr-bench --bin pressure -- --quick # 16-core CI smoke
//! ```
//!
//! Exits non-zero unless every arm is oracle-clean and leak-free, the
//! bare-lazy arm is driven through its min watermark, and the
//! escalating arm sustains the same storm with zero allocation stalls —
//! the claim the committed JSON exists to document.
//!
//! [`AllocStorm`]: latr_workloads::AllocStorm

use latr_bench::pressure::{
    full_shape, pressure_json, pressure_passed, quick_shape, run_pressure_bench,
};
use latr_bench::print_title;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let shape = if quick { quick_shape() } else { full_shape() };
    print_title("memory pressure — allocation storm vs watermark escalation");
    println!(
        "storm: {} cores, {} rounds x {} pages (hold {}), {} frames/node, low/min {}/{}",
        shape.cores,
        shape.rounds,
        shape.pages,
        shape.hold,
        shape.frames_per_node,
        shape.low_watermark,
        shape.min_watermark
    );
    println!(
        "{:<16} {:>8} {:>8} {:>8} {:>7} {:>5} {:>10} {:>10} {:>9} {:>7}",
        "arm",
        "min_free",
        "low_ev",
        "min_ev",
        "stalls",
        "oom",
        "exp_sweeps",
        "gate_held",
        "released",
        "oracle"
    );
    let points = run_pressure_bench(&shape);
    for p in &points {
        println!(
            "{:<16} {:>8} {:>8} {:>8} {:>7} {:>5} {:>10} {:>10} {:>9} {:>7}",
            p.arm,
            p.min_free,
            p.low_events,
            p.min_events,
            p.alloc_stalls,
            p.oom_events,
            p.expedited_sweeps,
            p.gate_held,
            p.released_frames,
            if p.oracle_clean { "clean" } else { "VIOLATED" }
        );
    }
    let json = pressure_json(&points, &shape, quick);
    std::fs::write("BENCH_pressure.json", &json).expect("write BENCH_pressure.json");
    println!("\nwrote BENCH_pressure.json");
    if !pressure_passed(&points) {
        eprintln!(
            "FAIL: the pressure gate did not hold (bare-lazy must breach its min \
             watermark; escalation must sustain the storm stall-free) — see \
             BENCH_pressure.json"
        );
        std::process::exit(1);
    }
    println!("escalation sustained the storm bare-lazy could not — gate passed");
}
