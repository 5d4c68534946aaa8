//! # latr-bench — the benchmark harness
//!
//! One binary per table/figure of the paper's evaluation (§6). Each binary
//! re-runs the corresponding experiment on the simulated machines and
//! prints the same rows/series the paper reports. Shared experiment
//! runners live here so the binaries stay thin and the integration tests
//! can exercise the exact code the figures come from.
//!
//! | Binary | Reproduces |
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
//! | `timelines`          | Figs. 2 & 3 — munmap / AutoNUMA event timelines |
//! | `ablations`          | §4.1/§8 design-choice ablations |
//! | `hotpath`            | fast vs `reference` engine throughput → `BENCH_hotpath.json` |
//! | `serving`            | open-loop tail latency per policy (+ chaos) → `BENCH_serving.json` |
//! | `rt_scale`           | real-thread rt scaling, lazy vs sync-IPI → `BENCH_rt_scale.json` |
//! | `soak`               | real-thread robustness soak under injected faults → `BENCH_soak.json` |
//! | `pressure`           | allocation storms vs watermark escalation → `BENCH_pressure.json` |
//!
//! Run with `cargo run --release -p latr-bench --bin <name>`; pass
//! `--quick` for a shorter, less smooth sweep.
//!
//! | Shared module | Used by |
//! |---|---|
//! | `report`  | every `BENCH_*.json` emitter: JSON writer, FNV-1a, fingerprint gate, ratios |
//! | `rt_loop` | `rt_scale` and `soak`: the one real-thread worker loop and its canary |

pub mod hotpath;
pub mod pressure;
pub mod report;
pub mod rt_loop;
pub mod rt_scale;
pub mod serving;
pub mod soak;

use latr_arch::{MachinePreset, Topology};
use latr_kernel::{metrics, Machine, MachineConfig};
use latr_sim::{Nanos, MILLISECOND, SECOND};
use latr_workloads::{
    run_experiment, ApacheWorkload, ExperimentResult, MigrationProfile, MigrationWorkload,
    MunmapMicrobench, ParsecProfile, ParsecWorkload, PolicyKind,
};

/// Scale factors for a run: `--quick` trades smoothness for speed.
#[derive(Clone, Copy, Debug)]
pub struct RunScale {
    /// Microbenchmark iterations per data point.
    pub micro_iters: u64,
    /// Apache measurement window (ns).
    pub apache_window: Nanos,
    /// Fixed-work iterations per task for PARSEC workloads.
    pub fixed_iters: u64,
    /// Fixed-work iterations per task for the AutoNUMA workloads — these
    /// need several full scan passes before migrations flow.
    pub numa_iters: u64,
}

impl RunScale {
    /// Full-fidelity scale (the default).
    pub fn full() -> Self {
        RunScale {
            micro_iters: 300,
            apache_window: 400 * MILLISECOND,
            fixed_iters: 400,
            numa_iters: 3_200,
        }
    }

    /// Reduced scale for smoke runs.
    pub fn quick() -> Self {
        RunScale {
            micro_iters: 60,
            apache_window: 120 * MILLISECOND,
            fixed_iters: 120,
            numa_iters: 1_600,
        }
    }

    /// Parses `--quick` from the process arguments.
    pub fn from_args() -> Self {
        if std::env::args().any(|a| a == "--quick") {
            Self::quick()
        } else {
            Self::full()
        }
    }
}

/// One (policy, munmap latency, shootdown wait) measurement.
#[derive(Clone, Copy, Debug)]
pub struct LatencyPoint {
    /// Independent variable (cores or pages).
    pub x: u64,
    /// Mean munmap latency in µs.
    pub munmap_us: f64,
    /// Mean remote-shootdown wait in µs (0 for lazy policies).
    pub shootdown_us: f64,
}

fn microbench_point(
    preset: MachinePreset,
    policy: PolicyKind,
    sharers: usize,
    pages: u64,
    iters: u64,
) -> LatencyPoint {
    let (res, _) = run_experiment(
        MachineConfig::new(Topology::preset(preset)),
        policy,
        Box::new(MunmapMicrobench::new(sharers, pages, iters)),
        60 * SECOND,
    );
    LatencyPoint {
        x: sharers as u64,
        munmap_us: res.munmap_ns.map_or(0.0, |s| s.mean) / 1_000.0,
        shootdown_us: res.shootdown_wait_ns.map_or(0.0, |s| s.mean) / 1_000.0,
    }
}

/// Fig. 6: munmap cost for one page, 1–16 cores, 2-socket machine.
pub fn fig6_points(policy: PolicyKind, scale: RunScale) -> Vec<LatencyPoint> {
    [1usize, 2, 4, 6, 8, 10, 12, 14, 16]
        .iter()
        .map(|&cores| {
            microbench_point(
                MachinePreset::Commodity2S16C,
                policy,
                cores,
                1,
                scale.micro_iters,
            )
        })
        .collect()
}

/// Fig. 7: munmap cost for one page on the 8-socket, 120-core machine.
pub fn fig7_points(policy: PolicyKind, scale: RunScale) -> Vec<LatencyPoint> {
    [2usize, 15, 30, 45, 60, 75, 90, 105, 120]
        .iter()
        .map(|&cores| {
            microbench_point(
                MachinePreset::LargeNuma8S120C,
                policy,
                cores,
                1,
                scale.micro_iters.min(120),
            )
        })
        .collect()
}

/// Fig. 8: munmap cost vs page count on 16 cores.
pub fn fig8_points(policy: PolicyKind, scale: RunScale) -> Vec<LatencyPoint> {
    [1u64, 2, 4, 8, 16, 32, 64, 128, 256, 512]
        .iter()
        .map(|&pages| {
            let mut p = microbench_point(
                MachinePreset::Commodity2S16C,
                policy,
                16,
                pages,
                (scale.micro_iters / 2).max(20),
            );
            p.x = pages;
            p
        })
        .collect()
}

/// One Apache measurement.
#[derive(Clone, Copy, Debug)]
pub struct ApachePoint {
    /// Worker cores.
    pub cores: usize,
    /// Requests per second.
    pub requests_per_sec: f64,
    /// Shootdowns handled per second.
    pub shootdowns_per_sec: f64,
}

/// Figs. 1/9: Apache throughput and shootdown rate vs worker cores.
pub fn fig9_points(policy: PolicyKind, scale: RunScale) -> Vec<ApachePoint> {
    [1usize, 2, 4, 6, 8, 10, 12]
        .iter()
        .map(|&cores| {
            let (res, _) = run_experiment(
                MachineConfig::new(Topology::preset(MachinePreset::Commodity2S16C)),
                policy,
                Box::new(ApacheWorkload::new(cores)),
                scale.apache_window,
            );
            ApachePoint {
                cores,
                requests_per_sec: res.throughput,
                shootdowns_per_sec: res.shootdowns_per_sec,
            }
        })
        .collect()
}

/// One fixed-work comparison row (Fig. 10/11/12).
#[derive(Clone, Debug)]
pub struct NormalizedRow {
    /// Benchmark name.
    pub name: &'static str,
    /// Latr completion time / Linux completion time.
    pub normalized_runtime: f64,
    /// Shootdowns (or migrations) per second under Linux.
    pub rate_linux: f64,
    /// The same rate under Latr.
    pub rate_latr: f64,
}

/// Fig. 10: the PARSEC suite at 16 cores.
pub fn fig10_rows(scale: RunScale) -> Vec<NormalizedRow> {
    ParsecProfile::all()
        .into_iter()
        .map(|profile| parsec_row(profile, 16, scale.fixed_iters))
        .collect()
}

fn parsec_row(profile: ParsecProfile, cores: usize, iters: u64) -> NormalizedRow {
    let run = |policy: PolicyKind| -> (u64, f64) {
        let (res, _) = run_experiment(
            MachineConfig::new(Topology::preset(MachinePreset::Commodity2S16C)),
            policy,
            Box::new(ParsecWorkload::new(profile, cores, iters)),
            120 * SECOND,
        );
        (res.duration_ns, res.shootdowns_per_sec)
    };
    let (t_linux, rate_linux) = run(PolicyKind::Linux);
    let (t_latr, rate_latr) = run(PolicyKind::latr_default());
    NormalizedRow {
        name: profile.name,
        normalized_runtime: t_latr as f64 / t_linux as f64,
        rate_linux,
        rate_latr,
    }
}

/// Fig. 11: the AutoNUMA applications at 16 cores. The rate columns are
/// migrations per second.
pub fn fig11_rows(scale: RunScale) -> Vec<NormalizedRow> {
    MigrationProfile::all()
        .into_iter()
        .map(|profile| {
            let run = |policy: PolicyKind| -> (u64, f64) {
                let config =
                    profile.machine_config(Topology::preset(MachinePreset::Commodity2S16C));
                let (res, _) = run_experiment(
                    config,
                    policy,
                    Box::new(MigrationWorkload::new(profile, 16, scale.numa_iters)),
                    120 * SECOND,
                );
                (res.duration_ns, res.migrations_per_sec)
            };
            let (t_linux, rate_linux) = run(PolicyKind::Linux);
            let (t_latr, rate_latr) = run(PolicyKind::latr_default());
            NormalizedRow {
                name: profile.name,
                normalized_runtime: t_latr as f64 / t_linux as f64,
                rate_linux,
                rate_latr,
            }
        })
        .collect()
}

/// Fig. 12: low-shootdown configurations. Web servers are compared by
/// throughput (inverted into a runtime-equivalent ratio); PARSEC profiles
/// by completion time.
pub fn fig12_rows(scale: RunScale) -> Vec<NormalizedRow> {
    let mut rows = Vec::new();
    for (name, cores) in [("nginx", 1usize), ("apache", 1usize)] {
        let run = |policy: PolicyKind| -> (f64, f64) {
            let (res, _) = run_experiment(
                MachineConfig::new(Topology::preset(MachinePreset::Commodity2S16C)),
                policy,
                Box::new(ApacheWorkload::new(cores)),
                scale.apache_window,
            );
            (res.throughput, res.shootdowns_per_sec)
        };
        let (thr_linux, rate_linux) = run(PolicyKind::Linux);
        let (thr_latr, rate_latr) = run(PolicyKind::latr_default());
        rows.push(NormalizedRow {
            name,
            // Throughput ratio inverted = normalized runtime.
            normalized_runtime: thr_linux / thr_latr,
            rate_linux,
            rate_latr,
        });
    }
    for profile in ParsecProfile::low_shootdown() {
        rows.push(parsec_row(profile, 16, scale.fixed_iters / 2));
    }
    rows
}

/// One Table 4 row: LLC miss ratios under both policies.
#[derive(Clone, Debug)]
pub struct CacheRow {
    /// Configuration label, e.g. "apache(12)".
    pub name: String,
    /// Linux LLC miss ratio.
    pub linux: f64,
    /// Latr LLC miss ratio.
    pub latr: f64,
}

impl CacheRow {
    /// Relative change Latr vs Linux in percent.
    pub fn relative_change_pct(&self) -> f64 {
        (self.latr / self.linux - 1.0) * 100.0
    }
}

/// Table 4: LLC miss ratios for Apache at 1/6/12 cores and five PARSEC
/// benchmarks at 16 cores.
pub fn table4_rows(scale: RunScale) -> Vec<CacheRow> {
    let mut rows = Vec::new();
    for cores in [1usize, 6, 12] {
        let run = |policy: PolicyKind| -> f64 {
            let mut config = MachineConfig::new(Topology::preset(MachinePreset::Commodity2S16C));
            config.llc_base_miss_ratio = match cores {
                1 => 0.0608,
                6 => 0.0160,
                _ => 0.0123,
            };
            let (res, _) = run_experiment(
                config,
                policy,
                Box::new(ApacheWorkload::new(cores)),
                scale.apache_window,
            );
            res.llc_miss_ratio
        };
        rows.push(CacheRow {
            name: format!("apache({cores})"),
            linux: run(PolicyKind::Linux),
            latr: run(PolicyKind::latr_default()),
        });
    }
    for name in ["canneal", "dedup", "ferret", "streamcluster", "swaptions"] {
        let profile = ParsecProfile::by_name(name).expect("known profile");
        let run = |policy: PolicyKind| -> f64 {
            let mut config = MachineConfig::new(Topology::preset(MachinePreset::Commodity2S16C));
            config.llc_base_miss_ratio = profile.llc_miss;
            let (res, _) = run_experiment(
                config,
                policy,
                Box::new(ParsecWorkload::new(profile, 16, scale.fixed_iters / 2)),
                120 * SECOND,
            );
            res.llc_miss_ratio
        };
        rows.push(CacheRow {
            name: format!("{name}(16)"),
            linux: run(PolicyKind::Linux),
            latr: run(PolicyKind::latr_default()),
        });
    }
    rows
}

/// Runs Apache at 12 cores under `policy` and returns the experiment
/// result (used by Table 5 and the ablations).
pub fn apache12(policy: PolicyKind, scale: RunScale) -> ExperimentResult {
    let (res, _) = run_experiment(
        MachineConfig::new(Topology::preset(MachinePreset::Commodity2S16C)),
        policy,
        Box::new(ApacheWorkload::new(12)),
        scale.apache_window,
    );
    res
}

/// Prints a separator + title for a table.
pub fn print_title(title: &str) {
    println!("\n=== {title} ===");
}

/// Prints the fault-injection and graceful-degradation counters of a
/// finished run: what the injector did to the machine, and what the sweep
/// watchdog and adaptive IPI fallback did about it. Zero everywhere on a
/// healthy run — the degradation machinery is calibrated never to engage
/// without faults.
pub fn print_degradation_summary(machine: &Machine) {
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

    #[test]
    fn scales_parse() {
        let f = RunScale::full();
        let q = RunScale::quick();
        assert!(q.micro_iters < f.micro_iters);
        assert!(q.apache_window < f.apache_window);
    }

    #[test]
    fn fig6_shapes_hold_at_tiny_scale() {
        let scale = RunScale {
            micro_iters: 25,
            apache_window: 50 * MILLISECOND,
            fixed_iters: 40,
            numa_iters: 100,
        };
        let linux = fig6_points(PolicyKind::Linux, scale);
        let latr = fig6_points(PolicyKind::latr_default(), scale);
        assert_eq!(linux.len(), 9);
        // Linux grows with cores; Latr stays below it at 16 cores.
        assert!(linux.last().unwrap().munmap_us > linux[0].munmap_us);
        assert!(latr.last().unwrap().munmap_us < linux.last().unwrap().munmap_us * 0.5);
    }

    #[test]
    fn degradation_summary_reports_injected_faults() {
        let mut config = MachineConfig::new(Topology::preset(MachinePreset::Commodity2S16C));
        config.faults = Some(latr_faults::FaultPlan::default().with_tick_miss(0.3));
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

    #[test]
    fn cache_row_relative_change() {
        let r = CacheRow {
            name: "x".into(),
            linux: 0.10,
            latr: 0.09,
        };
        assert!((r.relative_change_pct() + 10.0).abs() < 1e-9);
    }
}
