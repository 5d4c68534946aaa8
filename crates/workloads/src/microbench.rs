//! The munmap microbenchmark (§6.2.1, Figs. 6, 7 and 8).
//!
//! "We devise a microbenchmark that shares a set of pages between a
//! specified number of cores. A subsequent call to `munmap()` on this set
//! of pages will then force a TLB shootdown on the participating cores."
//!
//! Task 0 maps the pages; every participating core (including task 0)
//! touches all of them so its TLB genuinely caches the translations; task
//! 0 then unmaps. The machine's `munmap_ns` / `shootdown_ns` histograms
//! are the measurements the figures plot.

use latr_arch::CpuId;
use latr_kernel::{metrics, Machine, Op, OpResult, TaskId, Workload};
use latr_mem::VaRange;
use latr_sim::Nanos;

const POLL: Nanos = 2_000;

/// The Fig. 6/7/8 microbenchmark workload.
#[derive(Debug)]
pub struct MunmapMicrobench {
    sharers: usize,
    pages: u64,
    iterations: u64,
    gap: Nanos,
    round: u64,
    mapped: Option<VaRange>,
    unmap_issued: bool,
    gap_pending: bool,
    touch_progress: Vec<u64>,
    touched_round: Vec<u64>,
}

impl MunmapMicrobench {
    /// A benchmark sharing `pages` pages across `sharers` cores for
    /// `iterations` map/touch/unmap rounds.
    ///
    /// # Panics
    ///
    /// Panics if `sharers` or `pages` is zero.
    pub fn new(sharers: usize, pages: u64, iterations: u64) -> Self {
        assert!(
            sharers > 0 && pages > 0,
            "need at least one sharer and page"
        );
        MunmapMicrobench {
            sharers,
            pages,
            iterations,
            // Inter-iteration setup time of the measurement harness; also
            // keeps the publish rate below 64 states per scheduler tick so
            // the lazy path (not the IPI fallback) is what gets measured.
            gap: 18_000,
            round: 0,
            mapped: None,
            unmap_issued: false,
            gap_pending: false,
            touch_progress: vec![0; sharers],
            touched_round: vec![0; sharers],
        }
    }

    /// Overrides the inter-iteration gap (ns). A zero gap turns the
    /// benchmark into a publish-rate stress test that exercises Latr's
    /// fallback-IPI path.
    pub fn with_gap(mut self, gap: Nanos) -> Self {
        self.gap = gap;
        self
    }

    fn all_touched(&self) -> bool {
        self.touched_round
            .iter()
            .enumerate()
            .all(|(i, &r)| r > self.round || self.touch_progress[i] >= self.pages)
    }
}

impl Workload for MunmapMicrobench {
    fn name(&self) -> &str {
        "munmap-microbench"
    }

    fn setup(&mut self, machine: &mut Machine) {
        let mm = machine.create_process();
        for c in 0..self.sharers {
            machine.spawn_task(mm, CpuId(c as u16));
        }
    }

    fn next_op(&mut self, machine: &mut Machine, task: TaskId) -> Op {
        if self.round >= self.iterations {
            return Op::Exit;
        }
        let i = task.index();
        let Some(range) = self.mapped else {
            return if i == 0 {
                if self.gap_pending {
                    self.gap_pending = false;
                    return Op::Sleep(self.gap.max(1));
                }
                Op::MmapAnon { pages: self.pages }
            } else {
                Op::Sleep(POLL)
            };
        };
        // A mapping exists for the current round.
        if self.touched_round[i] <= self.round && self.touch_progress[i] < self.pages {
            let vpn = range.start.offset(self.touch_progress[i]);
            return Op::Access { vpn, write: true };
        }
        if i == 0 {
            if self.all_touched() && !self.unmap_issued {
                self.unmap_issued = true;
                return Op::Munmap { range };
            }
            return Op::Sleep(POLL);
        }
        let _ = machine;
        Op::Sleep(POLL)
    }

    fn on_op_complete(&mut self, machine: &mut Machine, task: TaskId, result: OpResult) {
        let i = task.index();
        match result.op {
            Op::MmapAnon { .. } => {
                self.mapped = machine.task(task).last_mmap;
                for p in &mut self.touch_progress {
                    *p = 0;
                }
            }
            Op::Access { .. } => {
                self.touch_progress[i] += 1;
                if self.touch_progress[i] >= self.pages {
                    self.touched_round[i] = self.round + 1;
                }
            }
            Op::Munmap { .. } => {
                machine.stats.inc(metrics::id::WORK_UNITS);
                self.round += 1;
                self.mapped = None;
                self.unmap_issued = false;
                self.gap_pending = true;
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
    use latr_sim::{MICROSECOND, SECOND};

    fn run(policy: PolicyKind, sharers: usize, pages: u64, iters: u64) -> crate::ExperimentResult {
        let (res, machine) = run_experiment(
            MachineConfig::new(Topology::preset(MachinePreset::Commodity2S16C)),
            policy,
            Box::new(MunmapMicrobench::new(sharers, pages, iters)),
            10 * SECOND,
        );
        assert_eq!(machine.check_reclamation_invariant(), None);
        res
    }

    #[test]
    fn completes_every_iteration() {
        let res = run(PolicyKind::Linux, 4, 2, 20);
        assert_eq!(res.work_units, 20);
        assert_eq!(res.munmap_ns.unwrap().count, 20);
    }

    #[test]
    fn fig6_anchor_linux_16_cores_about_8us() {
        let res = run(PolicyKind::Linux, 16, 1, 150);
        let mean = res.munmap_ns.unwrap().mean;
        assert!(
            (6.0 * MICROSECOND as f64..10.5 * MICROSECOND as f64).contains(&mean),
            "Linux 16-core munmap {mean:.0}ns, expected ≈ 8 µs"
        );
        // Shootdown is the dominant share (paper: up to 71.6%).
        let wait = res.shootdown_wait_ns.unwrap().mean;
        assert!(
            wait / mean > 0.5,
            "shootdown share {:.2} too small",
            wait / mean
        );
    }

    #[test]
    fn fig6_anchor_latr_16_cores_about_2p4us() {
        let res = run(PolicyKind::latr_default(), 16, 1, 150);
        let mean = res.munmap_ns.unwrap().mean;
        assert!(
            (1.2 * MICROSECOND as f64..3.6 * MICROSECOND as f64).contains(&mean),
            "Latr 16-core munmap {mean:.0}ns, expected ≈ 2.4 µs"
        );
        assert_eq!(res.ipis_sent, 0, "no fallbacks expected at this rate");
    }

    #[test]
    fn fig6_latr_improvement_is_about_70_percent() {
        let linux = run(PolicyKind::Linux, 16, 1, 150);
        let latr = run(PolicyKind::latr_default(), 16, 1, 150);
        let improvement = 1.0 - latr.munmap_ns.unwrap().mean / linux.munmap_ns.unwrap().mean;
        assert!(
            (0.55..0.85).contains(&improvement),
            "improvement {improvement:.2}, paper reports 70.8%"
        );
    }

    #[test]
    fn fig8_shootdown_impact_shrinks_with_page_count() {
        let linux_small = run(PolicyKind::Linux, 16, 1, 60);
        let latr_small = run(PolicyKind::latr_default(), 16, 1, 60);
        let linux_big = run(PolicyKind::Linux, 16, 256, 30);
        let latr_big = run(PolicyKind::latr_default(), 16, 256, 30);
        let gain_small =
            1.0 - latr_small.munmap_ns.unwrap().mean / linux_small.munmap_ns.unwrap().mean;
        let gain_big = 1.0 - latr_big.munmap_ns.unwrap().mean / linux_big.munmap_ns.unwrap().mean;
        assert!(
            gain_big < gain_small,
            "benefit must shrink with pages: {gain_small:.2} -> {gain_big:.2}"
        );
        assert!(gain_big > 0.0, "Latr should still win at 256 pages");
    }

    #[test]
    fn fig7_large_numa_machine_anchors() {
        let (linux, _) = run_experiment(
            MachineConfig::new(Topology::preset(MachinePreset::LargeNuma8S120C)),
            PolicyKind::Linux,
            Box::new(MunmapMicrobench::new(120, 1, 40)),
            10 * SECOND,
        );
        let mean = linux.munmap_ns.unwrap().mean;
        assert!(
            mean > 100.0 * MICROSECOND as f64,
            "Linux 120-core munmap {mean:.0}ns, paper reports >120 µs"
        );
        let (latr, _) = run_experiment(
            MachineConfig::new(Topology::preset(MachinePreset::LargeNuma8S120C)),
            PolicyKind::latr_default(),
            Box::new(MunmapMicrobench::new(120, 1, 40)),
            10 * SECOND,
        );
        let latr_mean = latr.munmap_ns.unwrap().mean;
        assert!(
            latr_mean < 45.0 * MICROSECOND as f64,
            "Latr 120-core munmap {latr_mean:.0}ns, paper reports <40 µs"
        );
        let improvement = 1.0 - latr_mean / mean;
        assert!(
            improvement > 0.55,
            "improvement {improvement:.2}, paper reports 66.7%"
        );
    }

    #[test]
    #[should_panic(expected = "at least one sharer")]
    fn zero_sharers_panics() {
        let _ = MunmapMicrobench::new(0, 1, 1);
    }
}
