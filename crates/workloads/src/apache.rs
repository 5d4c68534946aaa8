//! The Apache web-server model (§6.2.2, Figs. 1 and 9).
//!
//! "To serve an individual request, Apache `mmap()`s the requested file to
//! serve a request and `munmap()`s the file after the request has been
//! served. This behavior generates many TLB shootdowns due to the frequent
//! unmapping of (potentially) shared pages."
//!
//! Each worker core runs a closed loop: parse the request (compute), map
//! the 10 KB page-cache file (3 pages), touch it to build the response,
//! send (compute), unmap. All workers are threads of one process (Apache's
//! `mpm_event`), so they share one address space — which is exactly why
//! the munmap-held `mmap_sem` plus the synchronous shootdown wait caps
//! Linux's throughput beyond 6 cores while Latr keeps scaling.

use latr_arch::CpuId;
use latr_kernel::{metrics, Machine, Op, OpResult, TaskId, Workload};
use latr_mem::{FileId, VaRange};
use latr_sim::Nanos;

/// Per-request phases of one worker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    Parse,
    Map,
    Touch(u64),
    Send,
    Unmap,
}

/// The Fig. 1/9 Apache workload.
#[derive(Debug)]
pub struct ApacheWorkload {
    workers: usize,
    file_pages: u64,
    parse_ns: Nanos,
    send_ns: Nanos,
    file: Option<FileId>,
    phase: Vec<Phase>,
    mapped: Vec<Option<VaRange>>,
}

impl ApacheWorkload {
    /// A server with `workers` worker cores serving a 10 KB static page
    /// (3 pages).
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "need at least one worker");
        ApacheWorkload {
            workers,
            file_pages: 3,
            // Request parsing + response construction + socket handling,
            // calibrated so the unconstrained per-request service time is
            // ≈ 75 µs (Latr reaches ≈ 150 k req/s on 12 cores, Fig. 9).
            parse_ns: 22_000,
            send_ns: 38_000,
            file: None,
            phase: Vec::new(),
            mapped: Vec::new(),
        }
    }

    /// Overrides the compute portion of a request (ablations).
    pub fn with_compute(mut self, parse_ns: Nanos, send_ns: Nanos) -> Self {
        self.parse_ns = parse_ns;
        self.send_ns = send_ns;
        self
    }

    /// Number of worker cores.
    pub fn workers(&self) -> usize {
        self.workers
    }
}

impl Workload for ApacheWorkload {
    fn name(&self) -> &str {
        "apache"
    }

    fn setup(&mut self, machine: &mut Machine) {
        // One process (mpm_event), one worker thread pinned per core.
        let mm = machine.create_process();
        for c in 0..self.workers {
            machine.spawn_task(mm, CpuId(c as u16));
        }
        self.file = Some(machine.register_file(self.file_pages));
        self.phase = vec![Phase::Parse; self.workers];
        self.mapped = vec![None; self.workers];
    }

    fn next_op(&mut self, _machine: &mut Machine, task: TaskId) -> Op {
        let i = task.index();
        match self.phase[i] {
            Phase::Parse => {
                self.phase[i] = Phase::Map;
                Op::Compute(self.parse_ns)
            }
            Phase::Map => {
                self.phase[i] = Phase::Touch(0);
                Op::MmapFile {
                    file: self.file.expect("setup ran"),
                    offset: 0,
                    pages: self.file_pages,
                }
            }
            Phase::Touch(n) => {
                let range = self.mapped[i].expect("mapped before touch");
                self.phase[i] = if n + 1 < self.file_pages {
                    Phase::Touch(n + 1)
                } else {
                    Phase::Send
                };
                Op::Access {
                    vpn: range.start.offset(n),
                    write: false,
                }
            }
            Phase::Send => {
                self.phase[i] = Phase::Unmap;
                Op::Compute(self.send_ns)
            }
            Phase::Unmap => {
                self.phase[i] = Phase::Parse;
                Op::Munmap {
                    range: self.mapped[i].take().expect("mapped before unmap"),
                }
            }
        }
    }

    fn on_op_complete(&mut self, machine: &mut Machine, task: TaskId, result: OpResult) {
        let i = task.index();
        match result.op {
            Op::MmapFile { .. } => {
                self.mapped[i] = machine.task(task).last_mmap;
            }
            Op::Munmap { .. } => {
                // One request served end to end.
                machine.stats.inc(metrics::id::WORK_UNITS);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{run_experiment, PolicyKind};
    use latr_arch::{MachinePreset, Topology};
    use latr_kernel::MachineConfig;
    use latr_sim::MILLISECOND;

    fn throughput(policy: PolicyKind, workers: usize) -> crate::ExperimentResult {
        let (res, machine) = run_experiment(
            MachineConfig::new(Topology::preset(MachinePreset::Commodity2S16C)),
            policy,
            Box::new(ApacheWorkload::new(workers)),
            400 * MILLISECOND,
        );
        assert_eq!(machine.check_reclamation_invariant(), None);
        res
    }

    #[test]
    fn serves_requests_on_one_core() {
        let res = throughput(PolicyKind::Linux, 1);
        assert!(res.work_units > 1000, "served {}", res.work_units);
        // Single worker: no remote cores, no shootdowns.
        assert_eq!(res.ipis_sent, 0);
    }

    #[test]
    fn fig9_linux_stops_scaling_after_6_cores() {
        let at6 = throughput(PolicyKind::Linux, 6).throughput;
        let at12 = throughput(PolicyKind::Linux, 12).throughput;
        assert!(
            at12 < at6 * 1.35,
            "Linux must flatten: 6 cores {at6:.0}/s vs 12 cores {at12:.0}/s"
        );
    }

    #[test]
    fn fig9_latr_keeps_scaling_and_beats_linux() {
        let linux12 = throughput(PolicyKind::Linux, 12).throughput;
        let latr6 = throughput(PolicyKind::latr_default(), 6).throughput;
        let latr12 = throughput(PolicyKind::latr_default(), 12).throughput;
        assert!(
            latr12 > latr6 * 1.5,
            "Latr must keep scaling: {latr6:.0} -> {latr12:.0}"
        );
        let gain = latr12 / linux12 - 1.0;
        assert!(
            gain > 0.35,
            "Latr vs Linux at 12 cores: +{:.0}% (paper: +59.9%)",
            gain * 100.0
        );
    }

    #[test]
    fn fig9_latr_handles_more_shootdowns_than_linux() {
        let linux = throughput(PolicyKind::Linux, 12);
        let latr = throughput(PolicyKind::latr_default(), 12);
        assert!(
            latr.shootdowns_per_sec > linux.shootdowns_per_sec * 1.2,
            "latr {:.0}/s vs linux {:.0}/s (paper: +46.3%)",
            latr.shootdowns_per_sec,
            linux.shootdowns_per_sec
        );
    }

    #[test]
    fn fig9_abis_crosses_linux_at_higher_core_counts() {
        let linux4 = throughput(PolicyKind::Linux, 4).throughput;
        let abis4 = throughput(PolicyKind::Abis, 4).throughput;
        let linux12 = throughput(PolicyKind::Linux, 12).throughput;
        let abis12 = throughput(PolicyKind::Abis, 12).throughput;
        assert!(
            abis4 < linux4,
            "ABIS tracking overhead should lose at 4 cores: {abis4:.0} vs {linux4:.0}"
        );
        assert!(
            abis12 > linux12,
            "ABIS should win at 12 cores: {abis12:.0} vs {linux12:.0}"
        );
    }

    #[test]
    fn fig9_latr_beats_abis() {
        let abis12 = throughput(PolicyKind::Abis, 12).throughput;
        let latr12 = throughput(PolicyKind::latr_default(), 12).throughput;
        let gain = latr12 / abis12 - 1.0;
        assert!(
            gain > 0.15,
            "Latr vs ABIS at 12 cores: +{:.0}% (paper: +37.9%)",
            gain * 100.0
        );
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        let _ = ApacheWorkload::new(0);
    }
}
