//! End-to-end hot-path benchmark on the sweep-heavy workload, emitted as
//! `BENCH_hotpath.json`.
//!
//! Runs [`latr_workloads::SweepStorm`] at 16, 64 and 120 simulated cores
//! — the calendar event queue and the pending-bitmap sweep under load —
//! and writes the measurements (ticks/sec, ops/sec, fingerprint) to
//! `BENCH_hotpath.json` in the current directory. See EXPERIMENTS.md for
//! how to read the file.
//!
//! ```sh
//! cargo run --release -p latr-bench --bin hotpath          # full run
//! cargo run --release -p latr-bench --bin hotpath -- --quick
//! cargo run --release -p latr-bench --bin hotpath -- --quick --guard BENCH_hotpath.json
//! ```
//!
//! Panics if two best-of-N repetitions of a point diverge. With
//! `--guard <path>`, exits non-zero if any freshly measured point's
//! ticks/sec fell more than 20% below the committed file at `<path>`
//! (read before the fresh results overwrite it) — the CI
//! bench-regression guard.

use latr_bench::hotpath::{
    committed_ticks, guard_failures, hotpath_json, hotpath_rounds, hotpath_shapes,
    run_hotpath_point,
};
use latr_bench::print_title;

/// Fractional ticks/sec drop below the committed file that fails the
/// `--guard` check.
const GUARD_TOLERANCE: f64 = 0.2;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    // Read the committed baseline up front: the fresh run overwrites
    // BENCH_hotpath.json, which is the usual `--guard` argument.
    let committed: Option<Vec<(usize, f64)>> = std::env::args()
        .skip_while(|a| a != "--guard")
        .nth(1)
        .map(|path| {
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("read guard baseline {path}: {e}"));
            let baseline = committed_ticks(&text);
            assert!(!baseline.is_empty(), "no points in {path}");
            baseline
        });
    print_title("Hot-path throughput (sweep storm)");
    println!(
        "{:>6} {:>12} {:>14} {:>14} {:>12}",
        "cores", "wall (ms)", "ticks/sec", "ops/sec", "events"
    );

    let mut points = Vec::new();
    for (topology, cores) in hotpath_shapes() {
        let rounds = hotpath_rounds(cores, quick);
        let p = run_hotpath_point(topology, cores, rounds, 0xB3 ^ cores as u64);
        println!(
            "{:>6} {:>12.2} {:>14.0} {:>14.0} {:>12}",
            p.cores,
            p.wall_ns as f64 / 1e6,
            p.ticks_per_sec,
            p.ops_per_sec,
            p.events,
        );
        points.push(p);
    }

    let json = hotpath_json(&points, quick);
    std::fs::write("BENCH_hotpath.json", &json).expect("write BENCH_hotpath.json");
    println!("wrote BENCH_hotpath.json");

    if let Some(baseline) = committed {
        let failures = guard_failures(&baseline, &points, GUARD_TOLERANCE);
        if failures.is_empty() {
            println!(
                "regression guard: all points within {:.0}% of the committed baseline",
                GUARD_TOLERANCE * 100.0
            );
        } else {
            for f in &failures {
                eprintln!("regression guard: {f}");
            }
            std::process::exit(1);
        }
    }
}
