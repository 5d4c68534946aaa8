//! One-call experiment runner shared by benches, examples and tests.

use latr_core::{LatrConfig, LatrPolicy};
use latr_kernel::{metrics, AbisPolicy, LinuxPolicy, Machine, MachineConfig, TlbPolicy, Workload};
use latr_sim::{Nanos, Summary};

/// Which TLB-coherence policy to run an experiment under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PolicyKind {
    /// Stock Linux 4.10 synchronous IPI shootdowns.
    Linux,
    /// ABIS access-bit tracking (Amit, ATC'17).
    Abis,
    /// Latr with the given configuration.
    Latr(LatrConfig),
}

impl PolicyKind {
    /// Latr with the paper-default configuration.
    pub fn latr_default() -> Self {
        PolicyKind::Latr(LatrConfig::default())
    }

    /// Instantiates the policy object.
    pub fn build(self) -> Box<dyn TlbPolicy> {
        match self {
            PolicyKind::Linux => Box::new(LinuxPolicy::new()),
            PolicyKind::Abis => Box::new(AbisPolicy::new()),
            PolicyKind::Latr(cfg) => Box::new(LatrPolicy::new(cfg)),
        }
    }

    /// Short label for tables.
    pub fn label(&self) -> &'static str {
        match self {
            PolicyKind::Linux => "linux",
            PolicyKind::Abis => "abis",
            PolicyKind::Latr(_) => "latr",
        }
    }
}

/// The distilled result of one experiment run.
#[derive(Clone, Debug)]
pub struct ExperimentResult {
    /// Which policy ran.
    pub policy: &'static str,
    /// Simulated wall-clock the run covered (ns).
    pub duration_ns: u64,
    /// Workload-defined completed units (requests, iterations).
    pub work_units: u64,
    /// Work units per simulated second.
    pub throughput: f64,
    /// Remote-invalidation rounds per simulated second — for Latr this
    /// counts lazily published states plus fallback IPI rounds, i.e. "TLB
    /// shootdowns handled" as Fig. 1/9 plot them.
    pub shootdowns_per_sec: f64,
    /// Page migrations per simulated second (Fig. 11).
    pub migrations_per_sec: f64,
    /// `munmap()` latency distribution, if any were issued.
    pub munmap_ns: Option<Summary>,
    /// Remote-shootdown wait distribution (sync policies only).
    pub shootdown_wait_ns: Option<Summary>,
    /// LLC miss ratio over the run (Table 4).
    pub llc_miss_ratio: f64,
    /// IPIs actually sent (Latr: only fallbacks).
    pub ipis_sent: u64,
    /// Latr fallback shootdown rounds (0 for other policies).
    pub latr_fallbacks: u64,
}

/// Runs `workload` on a fresh machine under `policy` for `duration`
/// simulated nanoseconds and distills the result.
pub fn run_experiment(
    mut config: MachineConfig,
    policy: PolicyKind,
    workload: Box<dyn Workload>,
    duration: Nanos,
) -> (ExperimentResult, Machine) {
    // Make runs comparable across policies: identical seed and topology.
    config.seed ^= 0x5eed;
    let mut machine = Machine::new(config);
    let start = machine.now();
    machine.run(workload, policy.build(), duration);
    let elapsed = (machine.now() - start).max(1);
    let secs = elapsed as f64 / 1e9;

    let sync_shootdowns = machine.stats.counter(metrics::SHOOTDOWNS);
    let lazy_shootdowns = machine.stats.counter(metrics::LATR_STATES_SAVED);
    let work_units = machine.stats.counter(metrics::WORK_UNITS);
    let result = ExperimentResult {
        policy: policy.label(),
        duration_ns: elapsed,
        work_units,
        throughput: work_units as f64 / secs,
        shootdowns_per_sec: (sync_shootdowns + lazy_shootdowns) as f64 / secs,
        migrations_per_sec: machine.stats.counter(metrics::MIGRATIONS) as f64 / secs,
        munmap_ns: machine
            .stats
            .histogram(metrics::MUNMAP_NS)
            .map(|h| h.summary()),
        shootdown_wait_ns: machine
            .stats
            .histogram(metrics::SHOOTDOWN_NS)
            .map(|h| h.summary()),
        llc_miss_ratio: machine.llc.stats().miss_ratio(),
        ipis_sent: machine.stats.counter(metrics::IPIS_SENT),
        latr_fallbacks: machine.stats.counter(metrics::LATR_FALLBACK_IPIS),
    };
    (result, machine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use latr_arch::{MachinePreset, Topology};

    #[test]
    fn policy_kinds_build() {
        assert_eq!(PolicyKind::Linux.build().name(), "linux");
        assert_eq!(PolicyKind::Abis.build().name(), "abis");
        assert_eq!(PolicyKind::latr_default().build().name(), "latr");
        assert_eq!(PolicyKind::latr_default().label(), "latr");
    }

    #[test]
    fn run_experiment_produces_throughput() {
        let wl = crate::MunmapMicrobench::new(2, 1, 5);
        let (res, machine) = run_experiment(
            MachineConfig::new(Topology::preset(MachinePreset::Commodity2S16C)),
            PolicyKind::Linux,
            Box::new(wl),
            latr_sim::SECOND,
        );
        assert_eq!(res.policy, "linux");
        assert_eq!(res.work_units, 5);
        assert!(res.throughput > 0.0);
        assert!(res.munmap_ns.is_some());
        assert_eq!(machine.check_reclamation_invariant(), None);
    }
}
