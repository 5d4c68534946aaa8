//! # latr-bench — the benchmark harness
//!
//! Binaries that re-run the paper's evaluation (§6) and the repository's
//! own benches on the simulated machines, plus criterion microbenches.
//! The paper's tables and figures are one table of experiments in
//! [`paper`], run by the `paper` binary; each other binary writes one
//! committed `BENCH_*.json`.
//!
//! | Binary | Reproduces |
//! |---|---|
//! | `paper`     | every §6 table and figure, by name (see [`paper`]) → `results/<name>.txt` |
//! | `hotpath`   | sweep-storm simulator throughput at 16/64/120 cores → `BENCH_hotpath.json` |
//! | `serving`   | open-loop tail latency per policy (+ chaos) → `BENCH_serving.json` |
//! | `rt_scale`  | real-thread rt scaling, the rt runtime stack vs sync-IPI → `BENCH_rt_scale.json` |
//! | `soak`      | the rt runtime stack under injected thread faults → `BENCH_soak.json` |
//! | `pressure`  | allocation storms vs watermark escalation → `BENCH_pressure.json` |
//!
//! Run with `cargo run --release -p latr-bench --bin <name>`; pass
//! `--quick` for a shorter, less smooth run.
//!
//! | Shared module | Used by |
//! |---|---|
//! | `report`  | every `BENCH_*.json` emitter: JSON writer, FNV-1a, percentiles, ratios |
//! | `rt_loop` | `rt_scale` and `soak`: the one real-thread worker loop (pending-row sweep, sharded reclaimer) and its canary |

pub mod hotpath;
pub mod paper;
pub mod pressure;
pub mod report;
pub mod rt_loop;
pub mod rt_scale;
pub mod serving;
pub mod soak;

/// Prints a separator + title for a table.
pub fn print_title(title: &str) {
    println!("\n=== {title} ===");
}
