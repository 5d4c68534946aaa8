//! The sweep-heavy workload behind the hot-path benchmarks (ISSUE 4).
//!
//! Every core runs an independent map→touch→unmap→sleep loop against one
//! shared address space, so each `munmap` publishes a Latr state naming
//! every other core and each scheduler tick sweeps a mix of hit and
//! empty queues. The per-round sleep spreads the rounds across many
//! ticks: with `cores` cores the reference sweep performs
//! O(cores²·slots) slot probes per tick interval, which is exactly the
//! simulator overhead the pending-bitmap fast path removes — making this
//! the workload `BENCH_hotpath.json`'s ticks/sec comparison runs at 16,
//! 64 and 120 cores.

use latr_arch::CpuId;
use latr_kernel::{metrics, Machine, Op, OpResult, TaskId, Workload};
use latr_sim::{Nanos, MILLISECOND};

/// The sweep-storm workload: per-core map/touch/unmap/sleep rounds
/// against one shared mm.
#[derive(Debug)]
pub struct SweepStorm {
    cores: usize,
    publishers: usize,
    rounds: u32,
    sleep: Nanos,
    progress: Vec<u32>,
    phase: Vec<u8>,
    linger: Vec<u32>,
}

impl SweepStorm {
    /// A storm over `cores` cores, each performing `rounds`
    /// map/touch/unmap rounds with a one-tick sleep between rounds.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    pub fn new(cores: usize, rounds: u32) -> Self {
        assert!(cores > 0, "need at least one core");
        SweepStorm {
            cores,
            publishers: cores,
            rounds,
            // One scheduler tick: each round's state is swept (and the
            // queues drained) before the next publish, keeping the run
            // sweep-dominated rather than overflow-dominated.
            sleep: MILLISECOND,
            progress: vec![0; cores],
            phase: vec![0; cores],
            // A few ticks of linger after the last round lets the lazy
            // reclamation finish before the tasks exit.
            linger: vec![4; cores],
        }
    }

    /// Overrides the inter-round sleep (ns). Shorter sleeps raise publish
    /// pressure; zero degenerates into the overflow-fallback stress.
    pub fn with_sleep(mut self, sleep: Nanos) -> Self {
        self.sleep = sleep;
        self
    }

    /// Restricts publishing to the first `publishers` cores; the rest
    /// sleep through the run, ticking and sweeping but never mapping.
    /// This is the shape where laziness pays: with few publishers and
    /// many sweepers, most per-tick queue visits find nothing, which the
    /// pending bitmap skips and the reference scan pays for — the
    /// asymmetry `BENCH_hotpath.json`'s 120-core point measures.
    ///
    /// # Panics
    ///
    /// Panics if `publishers` is zero or exceeds the core count.
    pub fn with_publishers(mut self, publishers: usize) -> Self {
        assert!(
            publishers > 0 && publishers <= self.cores,
            "publishers must be in 1..=cores"
        );
        self.publishers = publishers;
        self
    }
}

impl Workload for SweepStorm {
    fn name(&self) -> &str {
        "sweep-storm"
    }

    fn setup(&mut self, machine: &mut Machine) {
        let mm = machine.create_process();
        for c in 0..self.cores {
            machine.spawn_task(mm, CpuId(c as u16));
        }
    }

    fn next_op(&mut self, machine: &mut Machine, task: TaskId) -> Op {
        let i = task.index();
        if i >= self.publishers {
            // A pure sweeper: sleeps tick to tick until every publisher
            // has finished its rounds, then lingers like one so lazy
            // reclamation drains while the machine is still live.
            let done = self.progress[..self.publishers]
                .iter()
                .all(|&p| p >= self.rounds);
            if !done {
                return Op::Sleep(self.sleep.max(MILLISECOND));
            }
        }
        if i >= self.publishers || self.progress[i] >= self.rounds {
            if self.linger[i] > 0 {
                self.linger[i] -= 1;
                return Op::Sleep(self.sleep.max(MILLISECOND));
            }
            return Op::Exit;
        }
        match self.phase[i] {
            0 => {
                self.phase[i] = 1;
                Op::MmapAnon { pages: 1 }
            }
            1 => {
                self.phase[i] = 2;
                let r = machine.task(task).last_mmap.unwrap();
                Op::Access {
                    vpn: r.start,
                    write: true,
                }
            }
            2 => {
                self.phase[i] = 3;
                let r = machine.task(task).last_mmap.unwrap();
                Op::Munmap { range: r }
            }
            _ => {
                self.phase[i] = 0;
                self.progress[i] += 1;
                Op::Sleep(self.sleep.max(1))
            }
        }
    }

    fn on_op_complete(&mut self, machine: &mut Machine, _task: TaskId, result: OpResult) {
        if matches!(result.op, Op::Munmap { .. }) {
            machine.stats.inc(metrics::id::WORK_UNITS);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{run_experiment, PolicyKind};
    use latr_arch::{MachinePreset, Topology};
    use latr_kernel::MachineConfig;
    use latr_sim::SECOND;

    #[test]
    fn completes_every_round_on_every_core() {
        let (res, machine) = run_experiment(
            MachineConfig::new(Topology::preset(MachinePreset::Commodity2S16C)),
            PolicyKind::latr_default(),
            Box::new(SweepStorm::new(8, 5)),
            SECOND,
        );
        assert_eq!(res.work_units, 8 * 5);
        assert_eq!(machine.check_reclamation_invariant(), None);
        assert_eq!(machine.check_mapping_coherence(), None);
    }

    #[test]
    fn storm_is_sweep_dominated_not_overflow_dominated() {
        let (_, machine) = run_experiment(
            MachineConfig::new(Topology::preset(MachinePreset::Commodity2S16C)),
            PolicyKind::latr_default(),
            Box::new(SweepStorm::new(16, 10)),
            SECOND,
        );
        assert!(
            machine.stats.counter(metrics::LATR_SWEEP_HITS) > 0,
            "states must be picked up by sweeps"
        );
        assert_eq!(
            machine.stats.counter(metrics::LATR_FALLBACK_IPIS),
            0,
            "one publish per tick per core must not overflow 64 slots"
        );
    }

    #[test]
    fn sparse_publishers_complete_while_sweepers_sleep() {
        let (res, machine) = run_experiment(
            MachineConfig::new(Topology::preset(MachinePreset::Commodity2S16C)),
            PolicyKind::latr_default(),
            Box::new(SweepStorm::new(16, 6).with_publishers(4)),
            SECOND,
        );
        // Only the four publisher cores produce work units.
        assert_eq!(res.work_units, 4 * 6);
        assert!(machine.stats.counter(metrics::LATR_SWEEP_HITS) > 0);
        assert_eq!(machine.check_reclamation_invariant(), None);
        assert_eq!(machine.check_mapping_coherence(), None);
        assert_eq!(machine.frames.allocated_count(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_panics() {
        let _ = SweepStorm::new(0, 1);
    }

    #[test]
    #[should_panic(expected = "publishers must be in 1..=cores")]
    fn too_many_publishers_panics() {
        let _ = SweepStorm::new(4, 1).with_publishers(5);
    }
}
