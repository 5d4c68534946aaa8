//! The repository's own benches beyond the paper, as one table.
//!
//! The `bench` binary runs the entries of `BENCHES` by name:
//!
//! ```sh
//! cargo run --release -p latr-bench --bin bench                   # every bench
//! cargo run --release -p latr-bench --bin bench -- --quick hotpath micro
//! ```
//!
//! Each entry prints each point's JSON row as it finishes and writes the
//! document to `BENCH_<name>.json` in the current directory (EXPERIMENTS.md
//! reads every file). A bench whose pass predicate fails still writes its
//! file, and the run exits 1.

use crate::report::Object;
use crate::{hotpath, micro, pressure, rt_scale, serving, soak, Entry};

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
const BENCHES: [Entry<bool, Report>; 6] = [
    ("hotpath", hotpath::run),
    ("micro", micro::run),
    ("serving", serving::run),
    ("pressure", pressure::run),
    ("rt_scale", rt_scale::run),
    ("soak", soak::run),
];

const SYNOPSIS: &str = "bench [--quick] [NAME...]";

/// Runs `bench [--quick] [NAME...]`: the named benches in argument order,
/// or every bench when no name is given. An unknown name or flag runs
/// nothing and returns the usage text, which lists the names; a failed
/// bench returns the names that failed.
pub fn run(args: &[String]) -> Result<(), String> {
    let (quick, chosen) = crate::parse(SYNOPSIS, &BENCHES, args)?;
    let mut failed = Vec::new();
    for (name, bench) in chosen {
        println!("== {name}{}", if quick { " (quick)" } else { "" });
        let report = bench(quick);
        let path = format!("BENCH_{name}.json");
        std::fs::write(&path, report.document.render())
            .map_err(|e| format!("write {path}: {e}"))?;
        println!("wrote {path}");
        if let Some(why) = report.failure {
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
        // `--guard PATH` is gone: the flag runs nothing, like any other.
        for (args, unknown) in [
            (&["--quick", "fig6"][..], "`fig6`"),
            (&["--full"], "`--full`"),
            (&["hotpath", "--guard", "BENCH_hotpath.json"], "`--guard`"),
        ] {
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            let err = run(&args).unwrap_err();
            assert!(err.contains(unknown), "{err}");
            assert!(err.contains(SYNOPSIS), "{err}");
            assert!(BENCHES.iter().all(|(name, _)| err.contains(name)), "{err}");
        }
    }
}
