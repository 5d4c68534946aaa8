//! The paper's evaluation (§6) as one table of experiments.
//!
//! The `paper` binary runs the entries of `EXPERIMENTS` by name:
//!
//! ```sh
//! cargo run --release -p latr-bench --bin paper                  # every experiment
//! cargo run --release -p latr-bench --bin paper -- fig6_munmap_cores ablations
//! cargo run --release -p latr-bench --bin paper -- --quick       # shorter, less smooth
//! ```
//!
//! Each entry re-runs one table or figure on the simulated machines and
//! prints the rows the paper reports, then one `oracle:` line: every run
//! behind it keeps the coherence oracle on, and the line reads
//! `oracle: clean (N runs)` or names the first violation, which makes the
//! binary exit 1. Every experiment runs in simulated time only, so its
//! output is deterministic: `results/<name>.txt` holds each entry's
//! full-scale output, and CI diffs the two.
//!
//! | Name | Reproduces |
//! |---|---|
//! | `fig6_munmap_cores`  | Fig. 6 — munmap & shootdown latency vs cores (2-socket) |
//! | `fig7_munmap_large`  | Fig. 7 — same on the 8-socket, 120-core machine |
//! | `fig8_munmap_pages`  | Fig. 8 — munmap latency vs page count |
//! | `fig9_apache`        | Figs. 1 & 9 — Apache throughput + shootdown rate |
//! | `fig10_parsec`       | Fig. 10 — PARSEC normalized runtime + shootdown rate |
//! | `fig11_numa`         | Fig. 11 — AutoNUMA normalized runtime + migrations |
//! | `fig12_overhead`     | Fig. 12 — overhead with few shootdowns |
//! | `table4_cache`       | Table 4 — LLC miss ratios Linux vs Latr |
//! | `table5_breakdown`   | Table 5 — per-operation cost breakdown |
//! | `memory_overhead`    | §6.4 — peak memory parked on the lazy lists |
//! | `timelines`          | Figs. 2 & 3 — munmap / AutoNUMA event timelines |
//! | `ablations`          | §4.1/§4.5/§8 design-choice ablations |

use std::cell::RefCell;

use latr_arch::{MachinePreset, Topology};
use latr_core::LatrConfig;
use latr_faults::FaultPlan;
use latr_kernel::{metrics, Machine, MachineConfig, NumaConfig, Workload};
use latr_sim::{Nanos, MILLISECOND, SECOND};
use latr_workloads::{
    ApacheWorkload, ExperimentResult, MigrationProfile, MigrationWorkload, MunmapMicrobench,
    ParsecProfile, ParsecWorkload, PolicyKind,
};

use crate::Entry;

/// Scale factors for a run: `--quick` trades smoothness for speed.
#[derive(Clone, Copy, Debug)]
struct RunScale {
    /// Microbenchmark iterations per data point.
    micro_iters: u64,
    /// Apache measurement window (ns).
    apache_window: Nanos,
    /// Fixed-work iterations per task for PARSEC workloads.
    fixed_iters: u64,
    /// Fixed-work iterations per task for the AutoNUMA workloads — these
    /// need several full scan passes before migrations flow.
    numa_iters: u64,
    /// munmap rounds per §6.4 memory-utilization point.
    parked_iters: u64,
}

impl RunScale {
    /// Full-fidelity scale (the default; `results/` holds its output).
    const FULL: RunScale = RunScale {
        micro_iters: 300,
        apache_window: 400 * MILLISECOND,
        fixed_iters: 400,
        numa_iters: 3_200,
        parked_iters: 600,
    };

    /// Reduced scale for smoke runs.
    const QUICK: RunScale = RunScale {
        micro_iters: 60,
        apache_window: 120 * MILLISECOND,
        fixed_iters: 120,
        numa_iters: 1_600,
        parked_iters: 150,
    };
}

/// Every paper experiment, in the order a bare `paper` runs them: its
/// name (the stem of its `results/` file) and the function that runs and
/// prints it.
const EXPERIMENTS: [Entry<RunScale, ()>; 12] = [
    ("fig6_munmap_cores", fig6),
    ("fig7_munmap_large", fig7),
    ("fig8_munmap_pages", fig8),
    ("fig9_apache", fig9),
    ("fig10_parsec", fig10),
    ("fig11_numa", fig11),
    ("fig12_overhead", fig12),
    ("table4_cache", table4),
    ("table5_breakdown", table5),
    ("memory_overhead", memory_overhead),
    ("timelines", timelines),
    ("ablations", ablations),
];

/// Runs `paper [--quick] [NAME...]`: the named experiments in argument
/// order, or every experiment when no name is given. An unknown name or
/// flag runs nothing and returns the usage text, which lists the names;
/// an oracle violation returns the experiments that drew one.
pub fn run(args: &[String]) -> Result<(), String> {
    let (quick, chosen) = crate::parse("paper [--quick] [NAME...]", &EXPERIMENTS, args)?;
    let scale = if quick {
        RunScale::QUICK
    } else {
        RunScale::FULL
    };
    let mut violated = Vec::new();
    for (name, experiment) in chosen {
        experiment(scale);
        let verdicts = VERDICTS.take();
        match verdicts.iter().find_map(|v| v.as_ref().err()) {
            None => println!("oracle: clean ({} runs)", verdicts.len()),
            Some(violation) => {
                println!("oracle: {violation}");
                violated.push(name);
            }
        }
    }
    if violated.is_empty() {
        Ok(())
    } else {
        Err(format!("oracle violation in: {}", violated.join(" ")))
    }
}

thread_local! {
    /// The oracle verdicts of the running experiment's runs so far.
    static VERDICTS: RefCell<Vec<Result<(), String>>> = const { RefCell::new(Vec::new()) };
}

/// [`latr_workloads::run_experiment`], with the run's oracle verdict
/// added to the running experiment's. Every paper run goes through here.
fn run_experiment(
    config: MachineConfig,
    policy: PolicyKind,
    workload: Box<dyn Workload>,
    limit: Nanos,
) -> (ExperimentResult, Machine) {
    let (res, machine) = latr_workloads::run_experiment(config, policy, workload, limit);
    VERDICTS.with_borrow_mut(|v| v.extend(res.oracle.clone()));
    (res, machine)
}

/// Prints a separator + title for a table.
fn print_title(title: &str) {
    println!("\n=== {title} ===");
}

/// The 2-socket, 16-core machine most experiments run on.
fn commodity() -> MachineConfig {
    MachineConfig::new(Topology::preset(MachinePreset::Commodity2S16C))
}

/// Runs the same work on `config` under Linux, then under Latr's
/// defaults, for at most `limit` simulated ns each.
fn linux_then_latr<W: Workload>(
    config: MachineConfig,
    workload: impl Fn() -> W,
    limit: Nanos,
) -> [ExperimentResult; 2] {
    [PolicyKind::Linux, PolicyKind::latr_default()]
        .map(|policy| run_experiment(config.clone(), policy, Box::new(workload()), limit).0)
}

/// Peak memory parked on Latr's lazy-reclamation lists, in KiB.
fn peak_parked_kib(machine: &Machine) -> u64 {
    let peak = machine
        .stats
        .histogram(metrics::LATR_PARKED_BYTES)
        .map_or(0, |h| h.max());
    peak / 1024
}

/// Mean munmap latency and remote-shootdown wait of one Figs. 6–8 point.
#[derive(Debug)]
struct LatencyPoint {
    /// Mean munmap latency in µs.
    munmap_us: f64,
    /// Mean remote-shootdown wait in µs (0 for lazy policies).
    shootdown_us: f64,
}

/// The x axis of a Figs. 6–8 sweep: its column header and the
/// `(cores, pages)` munmap shape it runs at each x.
type Axis = (&'static str, fn(u64) -> (usize, u64));

/// x cores sharing one page.
const CORES: Axis = ("cores", |cores| (cores as usize, 1));

/// x pages unmapped on 16 cores.
const PAGES: Axis = ("pages", |pages| (16, pages));

/// Runs the munmap microbenchmark once per x, at the `(cores, pages)`
/// that `shape` gives for it.
fn munmap_sweep(
    preset: MachinePreset,
    policy: PolicyKind,
    shape: fn(u64) -> (usize, u64),
    xs: &[u64],
    iters: u64,
) -> Vec<LatencyPoint> {
    xs.iter()
        .map(|&x| {
            let (cores, pages) = shape(x);
            let (res, _) = run_experiment(
                MachineConfig::new(Topology::preset(preset)),
                policy,
                Box::new(MunmapMicrobench::new(cores, pages, iters)),
                60 * SECOND,
            );
            LatencyPoint {
                munmap_us: res.munmap_ns.map_or(0.0, |s| s.mean) / 1_000.0,
                shootdown_us: res.shootdown_wait_ns.map_or(0.0, |s| s.mean) / 1_000.0,
            }
        })
        .collect()
}

/// Prints a Figs. 6–8 table: Linux's munmap and shootdown latency, Latr's
/// munmap latency and its saving at each x.
fn munmap_table(preset: MachinePreset, (label, shape): Axis, xs: &[u64], iters: u64) {
    let linux = munmap_sweep(preset, PolicyKind::Linux, shape, xs, iters);
    let latr = munmap_sweep(preset, PolicyKind::latr_default(), shape, xs, iters);
    println!(
        "{:<7} {:>16} {:>20} {:>16} {:>10}",
        label, "linux munmap(µs)", "linux shootdown(µs)", "latr munmap(µs)", "saving"
    );
    for ((x, l), t) in xs.iter().zip(&linux).zip(&latr) {
        println!(
            "{:<7} {:>16.2} {:>20.2} {:>16.2} {:>9.1}%",
            x,
            l.munmap_us,
            l.shootdown_us,
            t.munmap_us,
            (1.0 - t.munmap_us / l.munmap_us) * 100.0
        );
    }
}

/// Fig. 6: the cost of an `munmap()` of one page shared by 1–16 cores on
/// the 2-socket machine, plus the TLB-shootdown share.
///
/// Paper: shootdowns account for up to 71.6 % of munmap; Latr improves
/// munmap latency by up to 70.8 %.
fn fig6(scale: RunScale) {
    print_title("Figure 6 — munmap cost vs cores (2-socket, 16-core)");
    let cores = [1, 2, 4, 6, 8, 10, 12, 14, 16];
    munmap_table(
        MachinePreset::Commodity2S16C,
        CORES,
        &cores,
        scale.micro_iters,
    );
    println!("\npaper: Linux ≈8 µs at 16 cores, Latr −70.8%");
}

/// Fig. 7: the same on the 8-socket, 120-core machine.
///
/// Paper: Linux exceeds 120 µs at 120 cores (shootdown ≈82 µs, 69.3 %);
/// Latr stays under 40 µs (−66.7 %).
fn fig7(scale: RunScale) {
    print_title("Figure 7 — munmap cost vs cores (8-socket, 120-core)");
    let cores = [2, 15, 30, 45, 60, 75, 90, 105, 120];
    let iters = scale.micro_iters.min(120);
    munmap_table(MachinePreset::LargeNuma8S120C, CORES, &cores, iters);
    println!("\npaper: Linux >120 µs at 120 cores, Latr <40 µs (−66.7%)");
}

/// Fig. 8: munmap cost with an increasing number of pages on 16 cores.
///
/// Paper: Latr's benefit shrinks from 70.8 % at one page to 7.5 % at 512
/// pages as PTE work amortizes the shootdown; Linux full-flushes above 32
/// pages, which also bounds the overhead.
fn fig8(scale: RunScale) {
    print_title("Figure 8 — munmap cost vs pages (16 cores)");
    let pages = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512];
    let iters = (scale.micro_iters / 2).max(20);
    munmap_table(MachinePreset::Commodity2S16C, PAGES, &pages, iters);
    println!("\npaper: −70.8% at 1 page shrinking to −7.5% at 512 pages");
}

/// Figs. 1 & 9: Apache requests/second and TLB shootdowns/second vs
/// worker cores, under Linux, ABIS and Latr.
///
/// Paper: Latr +59.9 % over Linux and +37.9 % over ABIS at 12 cores,
/// while handling 46.3 % more shootdowns; ABIS loses to Linux below ~8
/// cores from access-bit overhead and wins above.
fn fig9(scale: RunScale) {
    print_title("Figures 1 & 9 — Apache throughput and shootdown rate");
    let cores = [1usize, 2, 4, 6, 8, 10, 12];
    let [linux, abis, latr] = [
        PolicyKind::Linux,
        PolicyKind::Abis,
        PolicyKind::latr_default(),
    ]
    .map(|policy| {
        cores.map(|n| {
            let workload = Box::new(ApacheWorkload::new(n));
            run_experiment(commodity(), policy, workload, scale.apache_window).0
        })
    });
    println!(
        "{:<7} {:>12} {:>12} {:>12}   {:>12} {:>12} {:>12}",
        "cores", "linux req/s", "abis req/s", "latr req/s", "linux sd/s", "abis sd/s", "latr sd/s"
    );
    for (i, n) in cores.iter().enumerate() {
        println!(
            "{:<7} {:>12.0} {:>12.0} {:>12.0}   {:>12.0} {:>12.0} {:>12.0}",
            n,
            linux[i].throughput,
            abis[i].throughput,
            latr[i].throughput,
            linux[i].shootdowns_per_sec,
            abis[i].shootdowns_per_sec,
            latr[i].shootdowns_per_sec
        );
    }
    let last = cores.len() - 1;
    let (l, a, t) = (&linux[last], &abis[last], &latr[last]);
    println!(
        "\nat {} cores: latr vs linux {:+.1}%, latr vs abis {:+.1}%, shootdowns {:+.1}%",
        cores[last],
        (t.throughput / l.throughput - 1.0) * 100.0,
        (t.throughput / a.throughput - 1.0) * 100.0,
        (t.shootdowns_per_sec / l.shootdowns_per_sec - 1.0) * 100.0,
    );
    println!("paper: +59.9% vs Linux, +37.9% vs ABIS, +46.3% shootdowns handled");
}

/// One Figs. 10–12 row: the same work under Linux and under Latr.
#[derive(Debug)]
struct NormalizedRow {
    /// Benchmark name.
    name: &'static str,
    /// Latr completion time / Linux completion time.
    normalized_runtime: f64,
    /// Shootdowns (or migrations) per second under Linux.
    rate_linux: f64,
    /// The same rate under Latr.
    rate_latr: f64,
}

impl NormalizedRow {
    /// A fixed-work row: Latr's completion time over Linux's, and `rate`
    /// under each.
    fn fixed_work(
        name: &'static str,
        [linux, latr]: [ExperimentResult; 2],
        rate: fn(&ExperimentResult) -> f64,
    ) -> Self {
        NormalizedRow {
            name,
            normalized_runtime: latr.duration_ns as f64 / linux.duration_ns as f64,
            rate_linux: rate(&linux),
            rate_latr: rate(&latr),
        }
    }
}

/// A PARSEC profile on 16 cores, compared by completion time.
fn parsec_row(profile: ParsecProfile, iters: u64) -> NormalizedRow {
    let runs = linux_then_latr(
        commodity(),
        || ParsecWorkload::new(profile, 16, iters),
        120 * SECOND,
    );
    NormalizedRow::fixed_work(profile.name, runs, |r| r.shootdowns_per_sec)
}

/// Prints a Figs. 10–12 table; `unit` names the rate columns.
fn normalized_table(rows: &[NormalizedRow], label: &str, name_w: usize, unit: &str, rate_w: usize) {
    println!(
        "{label:<name_w$} {:>18} {:>rate_w$} {:>rate_w$}",
        "normalized runtime",
        format!("linux {unit}"),
        format!("latr {unit}")
    );
    for r in rows {
        println!(
            "{:<name_w$} {:>18.3} {:>rate_w$.0} {:>rate_w$.0}",
            r.name, r.normalized_runtime, r.rate_linux, r.rate_latr
        );
    }
}

/// Fig. 10: normalized runtime and shootdown rate for the PARSEC suite at
/// 16 cores.
///
/// Paper: up to 9.6 % improvement (dedup), at most 1.7 % overhead
/// (canneal), 1.5 % average improvement.
fn fig10(scale: RunScale) {
    print_title("Figure 10 — PARSEC normalized runtime (latr / linux, 16 cores)");
    let rows: Vec<_> = ParsecProfile::all()
        .into_iter()
        .map(|profile| parsec_row(profile, scale.fixed_iters))
        .collect();
    normalized_table(&rows, "benchmark", 15, "sd/s", 16);
    let product: f64 = rows.iter().map(|r| r.normalized_runtime).product();
    let geo = product.powf(1.0 / rows.len() as f64);
    println!("\ngeometric mean: {geo:.3}  (paper: ≈0.985 — 1.5% average improvement)");
}

/// Fig. 11: impact of NUMA balancing — normalized runtime and page
/// migrations per second for five applications at 16 cores.
///
/// Paper: up to 5.7 % improvement (graph500), larger improvements with
/// more migrations; per-migration shootdown share is 5.8–21.1 %.
fn fig11(scale: RunScale) {
    print_title("Figure 11 — AutoNUMA normalized runtime (latr / linux, 16 cores)");
    let rows: Vec<_> = MigrationProfile::all()
        .into_iter()
        .map(|profile| {
            let runs = linux_then_latr(
                profile.machine_config(Topology::preset(MachinePreset::Commodity2S16C)),
                || MigrationWorkload::new(profile, 16, scale.numa_iters),
                120 * SECOND,
            );
            NormalizedRow::fixed_work(profile.name, runs, |r| r.migrations_per_sec)
        })
        .collect();
    normalized_table(&rows, "application", 15, "migr/s", 18);
    println!("\npaper: graph500 −5.7%; improvement grows with migration rate");
}

/// Fig. 12: Latr's overhead on applications with few TLB shootdowns —
/// the single-core web server, compared by throughput (inverted into a
/// runtime-equivalent ratio), and low-shootdown PARSEC benchmarks.
///
/// Paper: at most 1.7 % overhead (canneal); some workloads improve
/// slightly.
fn fig12(scale: RunScale) {
    print_title("Figure 12 — overhead with few shootdowns (latr / linux)");
    let [linux, latr] =
        linux_then_latr(commodity(), || ApacheWorkload::new(1), scale.apache_window);
    let mut rows = vec![NormalizedRow {
        name: "apache",
        normalized_runtime: linux.throughput / latr.throughput,
        rate_linux: linux.shootdowns_per_sec,
        rate_latr: latr.shootdowns_per_sec,
    }];
    for profile in ParsecProfile::low_shootdown() {
        rows.push(parsec_row(profile, scale.fixed_iters / 2));
    }
    normalized_table(&rows, "configuration", 18, "sd/s", 14);
    println!("\npaper: ≤1.7% overhead across the suite");
}

/// Table 4: LLC miss ratios for Apache at 1/6/12 cores and five PARSEC
/// benchmarks at 16 cores, Linux vs Latr.
///
/// Paper: Latr's miss ratios are very close to (or better than) Linux's —
/// removed IPI handlers reduce pollution; the Latr states occupy <1 % of
/// the LLC. Relative changes span −3.27 %..+0.84 %.
fn table4(scale: RunScale) {
    print_title("Table 4 — LLC miss ratios");
    println!(
        "{:<16} {:>12} {:>12} {:>16}",
        "application", "linux", "latr", "relative change"
    );
    let with_llc = |base_miss_ratio| MachineConfig {
        llc_base_miss_ratio: base_miss_ratio,
        ..commodity()
    };
    let apache = [(1usize, 0.0608), (6, 0.0160), (12, 0.0123)].map(|(cores, llc)| {
        let runs = linux_then_latr(
            with_llc(llc),
            || ApacheWorkload::new(cores),
            scale.apache_window,
        );
        (format!("apache({cores})"), runs)
    });
    let parsec = ["canneal", "dedup", "ferret", "streamcluster", "swaptions"].map(|name| {
        let profile = ParsecProfile::by_name(name).expect("known profile");
        let runs = linux_then_latr(
            with_llc(profile.llc_miss),
            || ParsecWorkload::new(profile, 16, scale.fixed_iters / 2),
            120 * SECOND,
        );
        (format!("{name}(16)"), runs)
    });
    for (name, [linux, latr]) in apache.into_iter().chain(parsec) {
        let (linux, latr) = (linux.llc_miss_ratio, latr.llc_miss_ratio);
        println!(
            "{:<16} {:>11.2}% {:>11.2}% {:>15.2}%",
            name,
            linux * 100.0,
            latr * 100.0,
            (latr / linux - 1.0) * 100.0
        );
    }
    println!("\npaper: changes between −3.27% and +0.84%");
}

/// Table 5: a breakdown of operations in Latr compared to Linux when
/// running the Apache benchmark on 12 cores.
///
/// Paper: saving a Latr state 132.3 ns; a single state sweep 158.0 ns; a
/// single Linux shootdown 1594.2 ns — Latr reduces the time for a
/// shootdown by up to 81.8 %. The real-thread `latr_core::rt` costs of
/// the same operations are `bench micro`'s rows
/// `rt_publish_and_drain_3_sweeps` (a save plus the three sweeps that
/// clear it), `rt_sweep_one_hit` and `sync_shootdown_baseline`
/// (`crates/bench/src/micro.rs`).
fn table5(scale: RunScale) {
    print_title("Table 5 — breakdown of operations (Apache on 12 cores)");
    let [linux, latr] =
        linux_then_latr(commodity(), || ApacheWorkload::new(12), scale.apache_window);
    let model = latr_arch::CostModel::calibrated();
    let linux_shootdown_cpu =
        model.ipi_send(1) + model.interrupt_overhead + model.invlpg + model.ack(1);

    println!("simulated (calibrated cost model):");
    println!(
        "  saving a Latr state          {:>8} ns   (paper: 132.3 ns)",
        model.latr_state_save
    );
    println!(
        "  single state sweep (hit)     {:>8} ns   (paper: 158.0 ns)",
        model.latr_sweep_hit
    );
    println!(
        "  single Linux TLB shootdown   {:>8} ns   (paper: 1594.2 ns)",
        linux_shootdown_cpu
    );
    println!(
        "  reduction                    {:>7.1} %   (paper: 81.8 %)",
        (1.0 - (model.latr_state_save + model.latr_sweep_hit) as f64 / linux_shootdown_cpu as f64)
            * 100.0
    );
    println!(
        "  linux shootdown wait (measured in-run): mean {:.0} ns",
        linux.shootdown_wait_ns.map_or(0.0, |s| s.mean)
    );
    println!(
        "  latr shootdowns handled      {:>8.0} /s (states saved + fallback rounds)",
        latr.shootdowns_per_sec
    );
    println!("  latr fallback IPI rounds     {:>8}", latr.latr_fallbacks);
}

/// §6.4 "Memory utilization": how much physical memory Latr parks on its
/// lazy-reclamation lists at peak.
///
/// Paper: from 1.5–3 MB (a single shared page) up to a bounded 21 MB (512
/// pages per munmap on 16 cores), always released within 2 ms — "smaller
/// than 0.03 % of the RAM available in current servers".
fn memory_overhead(scale: RunScale) {
    println!("=== §6.4 — Latr lazy-list memory utilization (peak parked) ===");
    println!(
        "{:<8} {:<8} {:>18} {:>16} {:>14}",
        "cores", "pages", "peak parked (KiB)", "deferred frames", "fallback IPIs"
    );
    for (cores, pages) in [(2usize, 1u64), (16, 1), (16, 64), (16, 256), (16, 512)] {
        // Zero inter-round gap: maximum munmap pressure on the lazy lists.
        let workload = MunmapMicrobench::new(cores, pages, scale.parked_iters).with_gap(0);
        let (_, machine) = run_experiment(
            commodity(),
            PolicyKind::latr_default(),
            Box::new(workload),
            60 * SECOND,
        );
        println!(
            "{:<8} {:<8} {:>18} {:>16} {:>14}",
            cores,
            pages,
            peak_parked_kib(&machine),
            machine.stats.counter(metrics::LATR_DEFERRED_FRAMES),
            machine.stats.counter(metrics::LATR_FALLBACK_IPIS)
        );
    }
    println!(
        "\npaper: 1.5–3 MB for single pages, bounded by ≈21 MB at 512 pages,\n\
         all released within 2 ms (two scheduler ticks)"
    );
}

/// Prints `title` and the trace ring of one run, and returns the machine.
fn traced_run(
    title: &str,
    config: MachineConfig,
    policy: PolicyKind,
    workload: Box<dyn Workload>,
) -> Machine {
    println!("\n=== {title} ===");
    let (_, machine) = run_experiment(config, policy, workload, SECOND);
    for entry in machine.trace.iter() {
        println!("{entry}");
    }
    machine
}

/// Figs. 2 & 3: the event timelines of an munmap (Linux vs Latr) and an
/// AutoNUMA hint-unmap, regenerated from the simulator's trace ring —
/// plus a chaos timeline showing the sweep watchdog escalating a stalled
/// sweeper (DESIGN.md §9).
fn timelines(_: RunScale) {
    let traced = |trace_capacity| MachineConfig {
        trace_capacity,
        ..commodity()
    };
    let numa = || MachineConfig {
        numa: NumaConfig {
            enabled: true,
            scan_period: MILLISECOND,
            pages_per_scan: 2,
            fault_retry: MILLISECOND / 10,
        },
        ..traced(40)
    };
    // A multi-millisecond gap between the two rounds keeps the run alive
    // across scheduler ticks, so the lazy sweeps and the background
    // reclamation appear on the trace.
    let munmap = || Box::new(MunmapMicrobench::new(3, 1, 2).with_gap(3 * MILLISECOND));
    let graph500 = MigrationProfile::by_name("graph500").expect("known profile");
    let hint_unmap = || Box::new(MigrationWorkload::new(graph500, 4, 40));
    let runs: [(_, _, _, Box<dyn Workload>); 4] = [
        (
            "Fig. 2a — munmap under Linux (IPIs + ACK wait)",
            traced(40),
            PolicyKind::Linux,
            munmap(),
        ),
        (
            "Fig. 2b — munmap under Latr (state save, lazy sweep)",
            traced(40),
            PolicyKind::latr_default(),
            munmap(),
        ),
        (
            "Fig. 3a — AutoNUMA hint-unmap under Linux",
            numa(),
            PolicyKind::Linux,
            hint_unmap(),
        ),
        (
            "Fig. 3b — AutoNUMA hint-unmap under Latr",
            numa(),
            PolicyKind::latr_default(),
            hint_unmap(),
        ),
    ];
    for (title, config, policy, workload) in runs {
        if traced_run(title, config, policy, workload).trace.is_empty() {
            println!("(no IPI traffic — the lazy path leaves no synchronous events)");
        }
    }

    // Core 1's sweeps stall: the published state's bit never clears on its
    // own, the watchdog escalates with a targeted IPI, and reclamation
    // still completes within its bound.
    let config = MachineConfig {
        faults: Some(FaultPlan::default().with_stall(1, MILLISECOND, 12 * MILLISECOND)),
        ..traced(60)
    };
    let cfg = LatrConfig {
        watchdog_ticks: 3,
        ..LatrConfig::default()
    };
    // Enough rounds that the run outlives the 3-tick watchdog deadline of
    // the states the stall leaves pending.
    let machine = traced_run(
        "Chaos — stalled sweeper, watchdog escalation",
        config,
        PolicyKind::Latr(cfg),
        Box::new(MunmapMicrobench::new(3, 1, 6).with_gap(2 * MILLISECOND)),
    );
    print_degradation_summary(&machine);
}

/// Design-choice ablations called out in §4.1, §4.5 and §8:
///
/// 1. **States per core** (16/32/64/128) vs the fallback-IPI rate under a
///    publish burst — "Latr creates a trade-off between the number of
///    per-core Latr states and the cost of state sweeps" (§8).
/// 2. **Sweep trigger**: tick-only vs tick + context switch (§4.1), on the
///    context-switch-heavy canneal profile.
/// 3. **Reclamation delay**: 1/2/4 scheduler ticks vs parked memory (§6.4
///    bounds the overhead at ≈21 MB per interval).
/// 4. **PCID** on/off (§4.5) on canneal.
/// 5. **Sweep watchdog** on/off under an injected sweeper stall (§9 of
///    DESIGN.md): bounded vs unbounded reclaim latency, same safety.
fn ablations(_: RunScale) {
    let canneal_ms = |config, policy, iters| {
        let profile = ParsecProfile::by_name("canneal").expect("known profile");
        let workload = Box::new(ParsecWorkload::new(profile, 16, iters));
        let (res, _) = run_experiment(config, policy, workload, 60 * SECOND);
        res.duration_ns as f64 / 1e6
    };

    println!("=== Ablation 1: states per core vs fallback IPIs (publish burst) ===");
    println!(
        "{:<16} {:>16} {:>16}",
        "states/core", "states saved", "fallback rounds"
    );
    for states in [16usize, 32, 64, 128] {
        let cfg = LatrConfig {
            states_per_core: states,
            ..LatrConfig::default()
        };
        // A zero-gap burst publishes much faster than sweeps retire.
        let wl = MunmapMicrobench::new(2, 1, 400).with_gap(0);
        let (_, machine) = run_experiment(
            commodity(),
            PolicyKind::Latr(cfg),
            Box::new(wl),
            10 * SECOND,
        );
        println!(
            "{:<16} {:>16} {:>16}",
            states,
            machine.stats.counter(metrics::LATR_STATES_SAVED),
            machine.stats.counter(metrics::LATR_FALLBACK_IPIS)
        );
    }

    println!("\n=== Ablation 2: sweep on context switch (canneal, 16 cores) ===");
    for (label, on) in [("tick + context switch", true), ("tick only", false)] {
        let cfg = LatrConfig {
            sweep_on_context_switch: on,
            ..LatrConfig::default()
        };
        let ms = canneal_ms(commodity(), PolicyKind::Latr(cfg), 200);
        println!("{label:<24} runtime {ms:>9.2} ms");
    }

    println!("\n=== Ablation 3: reclamation delay (ticks) vs parked memory ===");
    println!(
        "{:<8} {:>18} {:>18} {:>14}",
        "ticks", "deferred frames", "peak parked (KiB)", "leaked frames"
    );
    for ticks in [1u32, 2, 4] {
        let cfg = LatrConfig {
            reclaim_ticks: ticks,
            ..LatrConfig::default()
        };
        let (_, machine) = run_experiment(
            commodity(),
            PolicyKind::Latr(cfg),
            Box::new(ApacheWorkload::new(8)),
            200 * MILLISECOND,
        );
        // Frames still held by the shared page cache are resident file
        // pages, not leaks.
        let leaked = machine.frames.allocated_count() - machine.page_cache.resident_pages();
        println!(
            "{:<8} {:>18} {:>18} {:>14}",
            ticks,
            machine.stats.counter(metrics::LATR_DEFERRED_FRAMES),
            peak_parked_kib(&machine),
            leaked
        );
    }

    println!("\n=== Ablation 4: PCID on/off (§4.5, canneal — context-switch heavy) ===");
    for (label, pcid_enabled) in [("pcid off (Linux 4.10)", false), ("pcid on", true)] {
        let config = MachineConfig {
            pcid_enabled,
            ..commodity()
        };
        let ms = canneal_ms(config, PolicyKind::latr_default(), 300);
        println!(
            "{label:<24} runtime {ms:>9.2} ms  (PCID avoids the TLB flush on every context switch)"
        );
    }

    println!("\n=== Ablation 5: sweep watchdog on/off under a stalled sweeper ===");
    // Core 1's sweeps stop for 20 ms while munmaps keep publishing states
    // that name it; one run in ten also drops the IPI that would recover
    // a synchronous fallback round.
    let plan =
        FaultPlan::default()
            .with_ipi_drop(0.10)
            .with_stall(1, MILLISECOND, 20 * MILLISECOND);
    for (label, watchdog_ticks) in [("watchdog on (4 ticks)", 4u32), ("watchdog off", 0)] {
        let cfg = LatrConfig {
            watchdog_ticks,
            ..LatrConfig::default()
        };
        let config = MachineConfig {
            faults: Some(plan.clone()),
            ..commodity()
        };
        let wl = MunmapMicrobench::new(4, 1, 200).with_gap(50_000);
        let (_, machine) = run_experiment(config, PolicyKind::Latr(cfg), Box::new(wl), SECOND);
        println!("{label}:");
        print_degradation_summary(&machine);
    }
}

/// Prints the fault-injection and graceful-degradation counters of a
/// finished run: what the injector did to the machine, and what the sweep
/// watchdog and adaptive IPI fallback did about it. Zero everywhere on a
/// healthy run — the degradation machinery is calibrated never to engage
/// without faults.
fn print_degradation_summary(machine: &Machine) {
    let c = |name: &str| machine.stats.counter(name);
    println!(
        "  injected   ipi dropped {} / delayed {}  ticks missed {} / jittered {}  \
         sweep stalls {}  forced overflows {}",
        c(metrics::FAULTS_IPI_DROPPED),
        c(metrics::FAULTS_IPI_DELAYED),
        c(metrics::FAULTS_TICKS_MISSED),
        c(metrics::FAULTS_TICK_JITTER),
        c(metrics::FAULTS_SWEEP_STALLS),
        c(metrics::FAULTS_FORCED_OVERFLOWS),
    );
    println!(
        "  recovered  ipi retries {}  watchdog escalations {} (targeted ipis {})  \
         adaptive enters {} / exits {} (sync ops {})",
        c(metrics::IPI_RETRIES),
        c(metrics::LATR_WATCHDOG_ESCALATIONS),
        c(metrics::LATR_WATCHDOG_IPIS),
        c(metrics::LATR_ADAPTIVE_ENTERS),
        c(metrics::LATR_ADAPTIVE_EXITS),
        c(metrics::LATR_ADAPTIVE_SYNC_OPS),
    );
    println!(
        "  reclaimed  {} of {} deferred frames during the run{}",
        c(metrics::LATR_RECLAIM_RELEASED_FRAMES),
        c(metrics::LATR_DEFERRED_FRAMES),
        match machine.stats.histogram(metrics::LATR_RECLAIM_LATENCY_NS) {
            Some(h) => format!("; latency ns {}", h.summary()),
            None => String::new(),
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn experiments_match_the_results_files() {
        let results = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
        let stems: BTreeSet<String> = std::fs::read_dir(results)
            .expect("results/ exists")
            .map(|entry| entry.expect("readable entry").path())
            .filter(|path| path.extension().is_some_and(|ext| ext == "txt"))
            .map(|path| path.file_stem().unwrap().to_string_lossy().into_owned())
            .collect();
        let names: BTreeSet<String> = EXPERIMENTS.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names, stems);
    }

    #[test]
    fn scales_parse() {
        let parse = |args: &[&str]| {
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            let (quick, chosen) = crate::parse("paper", &EXPERIMENTS, &args).unwrap();
            (
                quick,
                chosen.iter().map(|(name, _)| *name).collect::<Vec<_>>(),
            )
        };
        let (quick, all) = parse(&[]);
        assert!(!quick);
        assert_eq!(all.len(), EXPERIMENTS.len());
        assert_eq!(
            parse(&["--quick", "fig9_apache"]),
            (true, vec!["fig9_apache"])
        );
        let (full, quick) = (RunScale::FULL, RunScale::QUICK);
        assert!(quick.micro_iters < full.micro_iters);
        assert!(quick.apache_window < full.apache_window);
        assert!(quick.fixed_iters < full.fixed_iters);
        assert!(quick.numa_iters < full.numa_iters);
        assert!(quick.parked_iters < full.parked_iters);
    }

    #[test]
    fn unknown_names_and_flags_list_the_experiments() {
        for arg in ["fig13", "--full"] {
            let err = run(&["--quick".into(), arg.into()]).unwrap_err();
            assert!(err.contains(arg), "{err}");
            assert!(EXPERIMENTS.iter().all(|(name, _)| err.contains(name)));
        }
    }

    #[test]
    fn fig6_shapes_hold_at_tiny_scale() {
        let cores = [1, 2, 4, 6, 8, 10, 12, 14, 16];
        let sweep =
            |policy| munmap_sweep(MachinePreset::Commodity2S16C, policy, CORES.1, &cores, 25);
        let linux = sweep(PolicyKind::Linux);
        let latr = sweep(PolicyKind::latr_default());
        assert_eq!(linux.len(), 9);
        // Linux grows with cores; Latr stays below it at 16 cores.
        assert!(linux.last().unwrap().munmap_us > linux[0].munmap_us);
        assert!(latr.last().unwrap().munmap_us < linux.last().unwrap().munmap_us * 0.5);
    }

    #[test]
    fn degradation_summary_reports_injected_faults() {
        let config = MachineConfig {
            faults: Some(FaultPlan::default().with_tick_miss(0.3)),
            ..commodity()
        };
        let (_, machine) = run_experiment(
            config,
            PolicyKind::latr_default(),
            Box::new(MunmapMicrobench::new(2, 1, 5).with_gap(MILLISECOND)),
            SECOND,
        );
        assert!(machine.stats.counter(metrics::FAULTS_TICKS_MISSED) > 0);
        // Exercise the formatting paths too.
        print_degradation_summary(&machine);
    }
}
