//! `bench [--quick] [NAME...]`: the repository's own
//! benches by name, each writing `BENCH_<name>.json`. See
//! [`latr_bench::bench`].

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match latr_bench::bench::run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(why) => {
            eprintln!("{why}");
            ExitCode::FAILURE
        }
    }
}
