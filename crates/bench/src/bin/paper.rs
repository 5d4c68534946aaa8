//! Every table and figure of the paper's evaluation (§6), by name.
//!
//! ```sh
//! cargo run --release -p latr-bench --bin paper -- [--quick] [NAME...]
//! ```
//!
//! With no NAME it runs every experiment; an unknown NAME or flag exits
//! non-zero and lists the names. See [`latr_bench::paper`].

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match latr_bench::paper::run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(usage) => {
            eprintln!("{usage}");
            ExitCode::FAILURE
        }
    }
}
