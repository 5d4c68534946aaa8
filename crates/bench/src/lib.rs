//! # latr-bench — the benchmark harness
//!
//! Two binaries re-run the paper's evaluation (§6) and the repository's
//! own benches on the simulated machines and real threads. Each binary
//! runs one table of named entries: [`paper`]'s experiments print the
//! paper's tables and figures, [`bench`](mod@bench)'s benches each write
//! one committed `BENCH_<name>.json`.
//!
//! | Binary | Entries | Output |
//! |---|---|---|
//! | `paper` | every §6 table and figure (see [`paper`]) | `results/<name>.txt` |
//! | `bench` | `hotpath` sweep-storm simulator throughput at 16/64/120 cores | `BENCH_hotpath.json` |
//! | | `micro` ns per operation: the rt Table 5 rows, simulator hot paths and substrates | `BENCH_micro.json` |
//! | | `serving` open-loop tail latency per policy (+ chaos) | `BENCH_serving.json` |
//! | | `pressure` allocation storms vs watermark escalation | `BENCH_pressure.json` |
//! | | `rt_scale` real-thread rt scaling, the rt runtime stack vs sync-IPI | `BENCH_rt_scale.json` |
//! | | `soak` the rt runtime stack under injected thread faults | `BENCH_soak.json` |
//!
//! Run with `cargo run --release -p latr-bench --bin <paper|bench> --
//! [--quick] [NAME...]`; `--quick` gives a shorter, less smooth run.
//!
//! | Shared module | Used by |
//! |---|---|
//! | `report`  | every bench: the JSON writer, FNV-1a, percentiles, per-point progress rows; `hotpath` and `micro`: the wall-clock timer |
//! | `rt_loop` | `rt_scale` and `soak`: the one real-thread worker loop (pending-row sweep, sharded reclaimer) and its canary |

pub mod bench;
mod hotpath;
mod micro;
pub mod paper;
mod pressure;
mod report;
mod rt_loop;
mod rt_scale;
mod serving;
mod soak;

/// A binary's table entry: an experiment's or a bench's name and runner.
type Entry<A, R> = (&'static str, fn(A) -> R);

/// Parses `[--quick] [NAME...]` against `table`: whether `--quick` was
/// given, and the named entries in argument order (every entry when no
/// name is given). An unknown name or flag returns the usage text of
/// `synopsis`, which lists the names.
fn parse<A, R>(
    synopsis: &str,
    table: &[Entry<A, R>],
    args: &[String],
) -> Result<(bool, Vec<Entry<A, R>>), String> {
    let mut quick = false;
    let mut chosen = Vec::new();
    for arg in args {
        if arg == "--quick" {
            quick = true;
        } else if let Some(entry) = table.iter().find(|(name, _)| name == arg) {
            chosen.push(*entry);
        } else {
            let names: Vec<_> = table.iter().map(|(name, _)| *name).collect();
            let names = names.join(" ");
            return Err(format!(
                "unknown name or flag `{arg}`\nusage: {synopsis}\nnames: {names}"
            ));
        }
    }
    if chosen.is_empty() {
        chosen = table.to_vec();
    }
    Ok((quick, chosen))
}
