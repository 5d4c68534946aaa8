//! Design-choice ablations called out in §4.1, §4.5 and §8:
//!
//! 1. **States per core** (16/32/64/128) vs the fallback-IPI rate under a
//!    publish burst — "Latr creates a trade-off between the number of
//!    per-core Latr states and the cost of state sweeps" (§8).
//! 2. **Sweep trigger**: tick-only vs tick + context switch (§4.1), on the
//!    context-switch-heavy canneal profile.
//! 3. **Reclamation delay**: 1/2/4 scheduler ticks vs parked memory (§6.4
//!    bounds the overhead at ≈21 MB per interval).
//! 4. **PCID** on/off (§4.5) on Apache at 12 cores.
//! 5. **Sweep watchdog** on/off under an injected sweeper stall (§9 of
//!    DESIGN.md): bounded vs unbounded reclaim latency, same safety.

use latr_arch::{MachinePreset, Topology};
use latr_bench::print_degradation_summary;
use latr_core::LatrConfig;
use latr_faults::FaultPlan;
use latr_kernel::{metrics, MachineConfig};
use latr_sim::{MILLISECOND, SECOND};
use latr_workloads::{
    run_experiment, ApacheWorkload, MunmapMicrobench, ParsecProfile, ParsecWorkload, PolicyKind,
};

fn config() -> MachineConfig {
    MachineConfig::new(Topology::preset(MachinePreset::Commodity2S16C))
}

fn main() {
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
        let (_, machine) =
            run_experiment(config(), PolicyKind::Latr(cfg), Box::new(wl), 10 * SECOND);
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
        let profile = ParsecProfile::by_name("canneal").unwrap();
        let (res, _) = run_experiment(
            config(),
            PolicyKind::Latr(cfg),
            Box::new(ParsecWorkload::new(profile, 16, 200)),
            60 * SECOND,
        );
        println!(
            "{label:<24} runtime {:>9.2} ms",
            res.duration_ns as f64 / 1e6
        );
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
            config(),
            PolicyKind::Latr(cfg),
            Box::new(ApacheWorkload::new(8)),
            200 * MILLISECOND,
        );
        let peak_parked = machine
            .stats
            .histogram(metrics::LATR_PARKED_BYTES)
            .map_or(0, |h| h.max());
        // Frames still held by the shared page cache are resident file
        // pages, not leaks.
        let leaked = machine.frames.allocated_count() - machine.page_cache.resident_pages();
        println!(
            "{:<8} {:>18} {:>18} {:>14}",
            ticks,
            machine.stats.counter(metrics::LATR_DEFERRED_FRAMES),
            peak_parked / 1024,
            leaked
        );
    }

    println!("\n=== Ablation 4: PCID on/off (§4.5, canneal — context-switch heavy) ===");
    for (label, pcid) in [("pcid off (Linux 4.10)", false), ("pcid on", true)] {
        let mut cfg = config();
        cfg.pcid_enabled = pcid;
        let profile = ParsecProfile::by_name("canneal").unwrap();
        let (res, _) = run_experiment(
            cfg,
            PolicyKind::latr_default(),
            Box::new(ParsecWorkload::new(profile, 16, 300)),
            60 * SECOND,
        );
        println!(
            "{label:<24} runtime {:>9.2} ms  (PCID avoids the TLB flush on every context switch)",
            res.duration_ns as f64 / 1e6
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
        let mut machine_config = config();
        machine_config.faults = Some(plan.clone());
        let wl = MunmapMicrobench::new(4, 1, 200).with_gap(50_000);
        let (_, machine) =
            run_experiment(machine_config, PolicyKind::Latr(cfg), Box::new(wl), SECOND);
        println!("{label}:");
        print_degradation_summary(&machine);
    }
}
