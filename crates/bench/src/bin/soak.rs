//! Robustness soak: the lock-free rt runtime surviving injected thread
//! faults for minutes, emitted as `BENCH_soak.json`.
//!
//! Runs the munmap-heavy soft-TLB loop of [`latr_bench::soak`] on the rt
//! runtime stack (pending-row sweep, sharded reclaimer, cached frontier)
//! at 16, 64 and 120 real threads while a seeded [`ThreadFaultInjector`]
//! stalls sweepers, drops wakeups, suppresses announces, and kills two
//! threads per shape — one by panic mid-sweep, one silently. See EXPERIMENTS.md
//! ("Soak") for how to read the output file.
//!
//! ```sh
//! cargo run --release -p latr-bench --bin soak           # full run
//! cargo run --release -p latr-bench --bin soak -- --quick
//! ```
//!
//! Exits non-zero if any point trips the ground-truth reclamation canary,
//! leaves a fired thread death unrecovered past the watchdog bound, or
//! ends with a live core stuck in exclusion.
//!
//! [`ThreadFaultInjector`]: latr_faults::ThreadFaultInjector

use latr_bench::print_title;
use latr_bench::soak::{
    run_soak_point, soak_duration, soak_json, soak_passed, soak_plan, soak_threads,
};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    print_title("rt robustness soak — thread faults, panic fences, watchdog recovery");
    println!(
        "{:<10} {:>8} {:>10} {:>9} {:>7} {:>9} {:>10} {:>9} {:>7}",
        "engine",
        "threads",
        "rounds",
        "lag p99",
        "deaths",
        "recovery",
        "rejoins",
        "reaped",
        "canary"
    );

    let mut points = Vec::new();
    for threads in soak_threads(quick) {
        let p = run_soak_point(
            threads,
            soak_duration(quick),
            soak_plan(threads),
            0xA5_0AC + threads as u64,
        );
        println!(
            "{:<10} {:>8} {:>10} {:>9} {:>3}/{:<3} {:>7.0}ms {:>10} {:>9} {:>7}",
            p.engine,
            p.threads,
            p.rounds,
            p.reclaim_lag_p99,
            p.deaths_recovered,
            p.deaths_fired,
            p.max_recovery_ms,
            p.frontier_stall_recoveries,
            p.reaped_states,
            if p.canary_ok { "ok" } else { "FAIL" },
        );
        points.push(p);
    }

    let json = soak_json(&points, quick);
    std::fs::write("BENCH_soak.json", &json).expect("write BENCH_soak.json");
    println!("\nwrote BENCH_soak.json");

    if !soak_passed(&points) {
        eprintln!(
            "SOAK FAILED: canary trip, unrecovered thread death, or stuck exclusion — see \
             BENCH_soak.json"
        );
        std::process::exit(2);
    }
}
