//! §6.4 "Memory utilization": how much physical memory Latr parks on its
//! lazy-reclamation lists at peak.
//!
//! Paper result: from 1.5–3 MB (a single shared page) up to a bounded
//! 21 MB (512 pages per munmap on 16 cores), always released within 2 ms —
//! "smaller than 0.03% of the RAM available in current servers".

use latr_arch::{MachinePreset, Topology};
use latr_kernel::{metrics, MachineConfig};
use latr_sim::SECOND;
use latr_workloads::{run_experiment, MunmapMicrobench, PolicyKind};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let iters = if quick { 150 } else { 600 };
    println!("=== §6.4 — Latr lazy-list memory utilization (peak parked) ===");
    println!(
        "{:<8} {:<8} {:>18} {:>16} {:>14}",
        "cores", "pages", "peak parked (KiB)", "deferred frames", "fallback IPIs"
    );
    for (cores, pages) in [(2usize, 1u64), (16, 1), (16, 64), (16, 256), (16, 512)] {
        let config = MachineConfig::new(Topology::preset(MachinePreset::Commodity2S16C));
        // Zero inter-round gap: maximum munmap pressure on the lazy lists.
        let workload = MunmapMicrobench::new(cores, pages, iters).with_gap(0);
        let (_, machine) = run_experiment(
            config,
            PolicyKind::latr_default(),
            Box::new(workload),
            60 * SECOND,
        );
        let peak = machine
            .stats
            .histogram(metrics::LATR_PARKED_BYTES)
            .map_or(0, |h| h.max());
        println!(
            "{:<8} {:<8} {:>18} {:>16} {:>14}",
            cores,
            pages,
            peak / 1024,
            machine.stats.counter(metrics::LATR_DEFERRED_FRAMES),
            machine.stats.counter(metrics::LATR_FALLBACK_IPIS)
        );
    }
    println!(
        "\npaper: 1.5–3 MB for single pages, bounded by ≈21 MB at 512 pages,\n\
         all released within 2 ms (two scheduler ticks)"
    );
}
