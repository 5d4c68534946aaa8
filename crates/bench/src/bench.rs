//! The repository's own benches beyond the paper, as one table.
//!
//! The `bench` binary runs the entries of `BENCHES` by name:
//!
//! ```sh
//! cargo run --release -p latr-bench --bin bench                   # every bench
//! cargo run --release -p latr-bench --bin bench -- --quick serving
//! cargo run --release -p latr-bench --bin bench -- --quick --guard BENCH_hotpath.json hotpath
//! ```
//!
//! Each entry prints each point's JSON row as it finishes and writes the
//! document to `BENCH_<name>.json` in the current directory (EXPERIMENTS.md
//! reads every file). A bench whose pass predicate fails still writes its
//! file, and the run exits 1. `--guard PATH` fails `hotpath` if any
//! point's ticks/sec falls more than 20 % below the committed file at
//! PATH, read before the run overwrites it.

use crate::report::Object;
use crate::{hotpath, pressure, rt_scale, serving, soak, Entry};

/// What one bench hands back: its document and, if its pass predicate
/// failed, why.
pub(crate) struct Report {
    /// The `BENCH_<name>.json` document.
    pub(crate) document: Object,
    /// Why the run failed, or `None` if it passed.
    pub(crate) failure: Option<String>,
}

impl Report {
    /// `document`, failed for `why` unless `passed`.
    pub(crate) fn new(document: Object, passed: bool, why: &str) -> Self {
        let failure = (!passed).then(|| why.to_string());
        Report { document, failure }
    }
}

/// Every bench, in the order a bare `bench` runs them: its name (the stem
/// of its `BENCH_*.json` file) and the function that runs it at full
/// (`false`) or `--quick` (`true`) size.
const BENCHES: [Entry<bool, Report>; 5] = [
    ("hotpath", hotpath::run),
    ("serving", serving::run),
    ("pressure", pressure::run),
    ("rt_scale", rt_scale::run),
    ("soak", soak::run),
];

const SYNOPSIS: &str = "bench [--quick] [--guard PATH] [NAME...]";

/// Runs `bench [--quick] [--guard PATH] [NAME...]`: the named benches in
/// argument order, or every bench when no name is given. An unknown name
/// or flag runs nothing and returns the usage text, which lists the
/// names; a failed bench (or guard) returns the names that failed.
pub fn run(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    // A `--guard` with no PATH stays behind as an unknown flag.
    let guard_path = args
        .iter()
        .position(|a| a == "--guard")
        .filter(|&i| i + 1 < args.len())
        .map(|i| {
            args.remove(i);
            args.remove(i)
        });
    let (quick, chosen) = crate::parse(SYNOPSIS, &BENCHES, &args)?;
    // Read the baseline first: the fresh run overwrites BENCH_hotpath.json,
    // which is the usual `--guard` argument.
    let baseline = match guard_path {
        Some(path) => {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("read guard baseline {path}: {e}"))?;
            let baseline = hotpath::committed_ticks(&text);
            if baseline.is_empty() {
                return Err(format!("no points in guard baseline {path}"));
            }
            Some(baseline)
        }
        None => None,
    };
    let mut failed = Vec::new();
    for (name, bench) in chosen {
        println!("== {name}{}", if quick { " (quick)" } else { "" });
        let report = bench(quick);
        let json = report.document.render();
        let path = format!("BENCH_{name}.json");
        std::fs::write(&path, &json).map_err(|e| format!("write {path}: {e}"))?;
        println!("wrote {path}");
        let guard = baseline.as_deref().filter(|_| name == "hotpath");
        if let Some(why) = report.failure.or_else(|| hotpath::guard(guard?, &json)) {
            eprintln!("{name} FAILED: {why}");
            failed.push(name);
        }
    }
    if failed.is_empty() {
        Ok(())
    } else {
        Err(format!("failed: {}", failed.join(" ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_names_and_flags_list_the_benches() {
        for args in [
            &["--quick", "fig6"][..],
            &["--full"],
            &["hotpath", "--guard"],
        ] {
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            let err = run(&args).unwrap_err();
            assert!(err.contains(args.last().unwrap().as_str()), "{err}");
            assert!(err.contains(SYNOPSIS), "{err}");
            assert!(BENCHES.iter().all(|(name, _)| err.contains(name)), "{err}");
        }
    }
}
