//! The repository benchmark: four simulator workloads, end-to-end host and
//! simulated metrics, a correctness gate, and a traced pass that prices
//! each layer at its public boundary. README.md describes the workloads,
//! the metrics and a baseline.
//!
//! ```text
//! benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//! benchmark --repeat-check [--workload NAME] [--seed N]
//! ```
//!
//! Without `--workload` every workload runs. Each repetition runs in a
//! child process of its own, one at a time: `DEFAULT_REPS` of them, or
//! with `--seconds` as many as fit. With one workload the last
//! line of stdout is a JSON object with `correct`, `attempted`, `failed`
//! and `metrics`: the end-to-end metrics, or with `--trace 1` the
//! per-layer ones.

mod catalog;
mod rep;
#[cfg(test)]
mod tests;
mod timed;
mod workloads;

use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use catalog::{LayerInput, END_TO_END, PER_LAYER, SIMULATED};
use rep::{Pass, Rep};
use timed::{Hook, REPLAY};

const DEFAULT_SEED: u64 = 0xC0FF;
const DEFAULT_REPS: usize = 5;
/// Under a time budget: at least this many untraced repetitions (one when
/// a traced pass shares the budget), and at most `MAX_REPS`.
const MIN_REPS: usize = 3;
const MAX_REPS: usize = 60;

/// Reported values that depend on the host; every other value a child
/// reports is simulated and repeats exactly for a seed.
const HOST_KEYS: [&str; 3] = ["wall_ns", "setup_ns", "peak_rss_kib"];

#[derive(Debug)]
struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    repeat_check: bool,
    child: Option<Pass>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        repeat_check: false,
        child: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--repeat-check" {
            out.repeat_check = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                if value != "all" && !workloads::NAMES.contains(&value.as_str()) {
                    return Err(format!(
                        "unknown workload {value}; one of {}",
                        workloads::NAMES.join(", ")
                    ));
                }
                out.workloads = vec![value.clone()];
            }
            "--seed" => {
                out.seed = match value.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => value.parse(),
                }
                .map_err(|_| bad())?;
            }
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad());
                }
                out.seconds = Some(s);
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                };
            }
            "--child" => out.child = Some(Pass::parse(value).ok_or_else(bad)?),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    if out.workloads.is_empty() || out.workloads[0] == "all" {
        out.workloads = workloads::NAMES.iter().map(|s| s.to_string()).collect();
    }
    if out.child.is_some() && out.workloads.len() != 1 {
        return Err("--child runs exactly one --workload".to_string());
    }
    Ok(out)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            eprintln!(
                "usage: benchmark [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] \
                 [--repeat-check]"
            );
            return ExitCode::from(2);
        }
    };
    if let Some(pass) = args.child {
        let rep = rep::run(&args.workloads[0], args.seed, pass);
        println!("{}", rep.to_line());
        return exit_code(rep.failures.is_empty());
    }
    if args.repeat_check {
        return exit_code(repeat_check(&args));
    }
    let budget = match args.seconds {
        Some(s) => Budget::Seconds(s / args.workloads.len() as f64),
        None => Budget::Reps(DEFAULT_REPS),
    };
    let mut runs = Vec::new();
    for w in &args.workloads {
        let m = measure(w, args.seed, budget, args.trace);
        print!("{}", report(&m));
        runs.push(m);
    }
    if runs.len() > 1 {
        print!("{}", summary(&runs));
    } else {
        println!("{}", result_json(&runs[0]));
    }
    exit_code(runs.iter().all(|m| m.failures.is_empty()))
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// How many untraced repetitions to run.
#[derive(Clone, Copy, Debug)]
enum Budget {
    Reps(usize),
    /// As many as fit in this many seconds: at least `MIN_REPS` (one beside
    /// a traced pass), at most `MAX_REPS`.
    Seconds(f64),
}

/// Everything measured on one workload.
#[derive(Debug)]
struct Measured {
    workload: String,
    seed: u64,
    plain: Vec<Rep>,
    traced: Option<Rep>,
    twin: Option<Rep>,
    /// Every failed check, from the children and across them.
    failures: Vec<String>,
}

impl Measured {
    /// Median of an end-to-end value over the untraced repetitions.
    fn median_of(&self, f: impl Fn(&Rep) -> f64) -> f64 {
        let mut v: Vec<f64> = self.plain.iter().map(f).collect();
        median(&mut v)
    }

    fn layer_input(&self) -> Option<LayerInput<'_>> {
        Some(LayerInput {
            traced: self.traced.as_ref()?,
            plain_wall_ns: self.median_of(|r| r.get("wall_ns")),
            twin: self.twin.as_ref(),
        })
    }

    fn attempted(&self) -> u64 {
        let reps = self.plain.iter().chain(&self.traced).chain(&self.twin);
        reps.map(|r| r.get("ops") as u64).sum::<u64>().max(1)
    }
}

/// Runs one child and parses its report. The child inherits stderr;
/// `output` waits for it to exit.
fn spawn(workload: &str, seed: u64, pass: Pass) -> Rep {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return failed_rep(format!("cannot find own executable: {e}")),
    };
    let out = Command::new(exe)
        .args(["--child", pass.name(), "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output();
    let out = match out {
        Ok(out) => out,
        Err(e) => return failed_rep(format!("cannot start child: {e}")),
    };
    let stdout = String::from_utf8_lossy(&out.stdout);
    match stdout.lines().rev().find_map(Rep::parse) {
        Some(rep) => rep,
        None => failed_rep(format!(
            "{} child exited ({}) without a report",
            pass.name(),
            out.status
        )),
    }
}

fn failed_rep(why: String) -> Rep {
    Rep {
        failures: vec![why],
        ..Rep::default()
    }
}

/// Measures one workload: the traced pass and the oracle twin first when
/// tracing, then untraced repetitions until the budget is spent.
fn measure(workload: &str, seed: u64, budget: Budget, trace: bool) -> Measured {
    let start = Instant::now();
    let oracle = workloads::inputs(workload, seed).is_some_and(|i| i.config.oracle);
    let mut m = Measured {
        workload: workload.to_string(),
        seed,
        plain: Vec::new(),
        traced: trace.then(|| spawn(workload, seed, Pass::Traced)),
        twin: (trace && oracle).then(|| spawn(workload, seed, Pass::Twin)),
        failures: Vec::new(),
    };
    let min_reps = if trace { 1 } else { MIN_REPS };
    loop {
        let rep_start = Instant::now();
        m.plain.push(spawn(workload, seed, Pass::Plain));
        let n = m.plain.len();
        let more = match budget {
            Budget::Reps(reps) => n < reps,
            Budget::Seconds(s) => {
                let next_end = start.elapsed().as_secs_f64() + rep_start.elapsed().as_secs_f64();
                n < min_reps || (n < MAX_REPS && next_end <= s)
            }
        };
        if !more {
            break;
        }
    }
    // Every repetition, the traced pass and the oracle-off twin must run
    // the same simulation: the wrappers and the oracle only observe.
    let expected = m.plain[0].fingerprint.clone();
    let passes = (m.plain.iter().map(|r| ("plain", r)))
        .chain(m.traced.iter().map(|r| ("traced", r)))
        .chain(m.twin.iter().map(|r| ("twin", r)));
    let mut failures = Vec::new();
    for (name, r) in passes {
        failures.extend(r.failures.iter().map(|f| format!("{name}: {f}")));
        if r.fingerprint != expected {
            failures.push(format!(
                "{name} fingerprint {} differs from {expected}",
                r.fingerprint
            ));
        }
    }
    m.failures = failures;
    m
}

/// The end-to-end table of one workload, plus the per-layer table when
/// traced.
fn report(m: &Measured) -> String {
    let mut out = String::new();
    let first = &m.plain[0];
    let _ = writeln!(
        out,
        "\n== {} (seed {:#x}): {} untraced reps, {} events, fingerprint {}",
        m.workload,
        m.seed,
        m.plain.len(),
        first.get("events"),
        first.fingerprint
    );
    let _ = writeln!(
        out,
        "{:<26} {:>6} {:>12} {:>12} {:>12}  samples",
        "metric", "unit", "median", "q1", "q3"
    );
    for metric in &END_TO_END {
        let mut v: Vec<f64> = m.plain.iter().map(|r| metric.value(r)).collect();
        let (q1, med, q3) = quartiles(&mut v);
        let _ = writeln!(
            out,
            "{:<26} {:>6} {med:>12.4} {q1:>12.4} {q3:>12.4}  {} reps",
            metric.name,
            metric.unit,
            v.len()
        );
    }
    for (name, hist, pct) in SIMULATED {
        let count = first.get(&format!("{hist}.count"));
        if count > 0.0 {
            let v = first.get(&format!("{hist}.{pct}")) / 1e3;
            let _ = writeln!(
                out,
                "{name:<26} {:>6} {v:>12.4} {:>25}  n={count}",
                "us", ""
            );
        } else {
            let _ = writeln!(out, "{name:<26} {:>6} {:>12}", "us", "null");
        }
    }
    let _ = writeln!(
        out,
        "ops {}  ops_failed {}",
        first.get("ops"),
        m.plain.iter().map(|r| r.get("ops_failed")).sum::<f64>()
    );
    if let Some(input) = m.layer_input() {
        out.push_str(&layer_table(input.traced));
        let _ = writeln!(out, "\nper-layer metrics (traced pass)");
        for metric in &PER_LAYER {
            let _ = writeln!(
                out,
                "  {:<36} {:>16.4} {:<7} {} is better",
                metric.name,
                metric.value(&input),
                metric.unit,
                metric.better.name()
            );
        }
    }
    for f in &m.failures {
        let _ = writeln!(out, "FAILED: {f}");
    }
    out
}

/// Where the traced pass's wall time went, hook by hook.
fn layer_table(t: &Rep) -> String {
    let mut out = String::new();
    let wall = t.get("wall_ns").max(1.0);
    let _ = writeln!(
        out,
        "\n{:<32} {:>12} {:>11} {:>7} {:>9} {:>9}",
        "traced pass: layer / hook", "calls", "self ms", "share", "p50 ns", "p99 ns"
    );
    let mut row = |name: &str, calls: f64, self_ns: f64, p50: f64, p99: f64| {
        let _ = writeln!(
            out,
            "{name:<32} {calls:>12} {:>11.1} {:>6.1}% {:>9.0} {:>9.0}",
            self_ns / 1e6,
            100.0 * self_ns / wall,
            p50,
            p99
        );
    };
    for hook in Hook::ALL {
        let name = hook.name();
        let calls = t.get(&format!("{name}.calls"));
        if calls > 0.0 {
            let get = |k: &str| t.get(&format!("{name}.{k}"));
            row(name, calls, get("self_ns"), get("p50_ns"), get("p99_ns"));
        }
    }
    let replay = format!("{REPLAY} (replay)");
    let get = |k: &str| t.get(&format!("replay.{k}"));
    row(
        &replay,
        get("samples"),
        get("total_ns"),
        get("p50_ns"),
        get("p99_ns"),
    );
    let machine_self = wall - t.get("hooks_ns") - get("total_ns");
    row(
        "machine self (kernel + sim)",
        t.get("events"),
        machine_self,
        0.0,
        0.0,
    );
    out
}

/// One row per workload: each end-to-end median.
fn summary(runs: &[Measured]) -> String {
    let mut out = String::from("\n== summary (medians)\n");
    let _ = write!(out, "{:<22}", "workload");
    for metric in &END_TO_END {
        let _ = write!(out, " {:>20}", format!("{} ({})", metric.name, metric.unit));
    }
    let _ = writeln!(out, " {:>8}", "correct");
    for m in runs {
        let _ = write!(out, "{:<22}", m.workload);
        for metric in &END_TO_END {
            let _ = write!(out, " {:>20.4}", m.median_of(|r| metric.value(r)));
        }
        let _ = writeln!(out, " {:>8}", m.failures.is_empty());
    }
    out
}

/// The result line: the per-layer metrics of a traced run, otherwise the
/// end-to-end ones.
fn result_json(m: &Measured) -> String {
    let correct = m.failures.is_empty();
    let attempted = m.attempted();
    let failed = if correct { 0 } else { attempted };
    let mut metrics = Vec::new();
    match m.layer_input() {
        Some(input) => {
            for metric in &PER_LAYER {
                metrics.push((metric.name, metric.value(&input), metric.unit));
            }
        }
        None => {
            for metric in &END_TO_END {
                metrics.push((metric.name, m.median_of(|r| metric.value(r)), metric.unit));
            }
        }
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Runs every requested workload twice and compares: host medians within
/// their bounds, every simulated value, count and fingerprint identical.
fn repeat_check(args: &Args) -> bool {
    let mut sets: Vec<Vec<Measured>> = Vec::new();
    for set in 1..=2 {
        println!("\n##### repeat-check: set {set} of 2");
        let runs: Vec<Measured> = args
            .workloads
            .iter()
            .map(|w| {
                let m = measure(w, args.seed, Budget::Reps(DEFAULT_REPS), false);
                print!("{}", report(&m));
                m
            })
            .collect();
        sets.push(runs);
    }
    let mut problems = Vec::new();
    for (a, b) in sets[0].iter().zip(&sets[1]) {
        let w = &a.workload;
        problems.extend(
            a.failures
                .iter()
                .chain(&b.failures)
                .map(|f| format!("{w}: {f}")),
        );
        if a.plain[0].fingerprint != b.plain[0].fingerprint {
            problems.push(format!("{w}: fingerprints differ between sets"));
        }
        for metric in &END_TO_END {
            let (ma, mb) = (
                a.median_of(|r| metric.value(r)),
                b.median_of(|r| metric.value(r)),
            );
            let change = (mb - ma).abs() / ma;
            if change > metric.bound {
                problems.push(format!(
                    "{w}: {} median moved {:.1}% ({ma:.4} -> {mb:.4}), bound {:.0}%",
                    metric.name,
                    100.0 * change,
                    100.0 * metric.bound
                ));
            }
        }
        let (sa, sb) = (simulated(&a.plain[0]), simulated(&b.plain[0]));
        let keys: std::collections::BTreeSet<&str> = sa.keys().chain(sb.keys()).copied().collect();
        for key in keys {
            if sa.get(key) != sb.get(key) {
                problems.push(format!(
                    "{w}: simulated value {key} differs: {:?} vs {:?}",
                    sa.get(key),
                    sb.get(key),
                ));
            }
        }
    }
    println!("\n##### repeat-check");
    for p in &problems {
        println!("FAILED: {p}");
    }
    if problems.is_empty() {
        println!("passed: host medians within bounds; simulated values and fingerprints identical");
    }
    problems.is_empty()
}

/// Every value of a report that does not depend on the host.
fn simulated(rep: &Rep) -> std::collections::BTreeMap<&str, f64> {
    (rep.values.iter())
        .filter(|(k, _)| !HOST_KEYS.contains(&k.as_str()))
        .map(|(k, v)| (k.as_str(), *v))
        .collect()
}

/// The median of `v` (sorted in place).
pub fn median(v: &mut [f64]) -> f64 {
    quartiles(v).1
}

/// First quartile, median and third quartile of `v` (sorted in place), by
/// the same exclusive method as Python's `statistics.quantiles(n=4)`.
pub fn quartiles(v: &mut [f64]) -> (f64, f64, f64) {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => return (0.0, 0.0, 0.0),
        1 => return (v[0], v[0], v[0]),
        _ => {}
    }
    let q = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}
