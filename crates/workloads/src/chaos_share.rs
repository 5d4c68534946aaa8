//! The cross-core sharing workload behind the chaos and differential
//! suites.
//!
//! Every task maps, writes, reads a neighbour's live page (planting
//! remote TLB entries that sweeps must clear), occasionally `mprotect`s
//! (an always-synchronous shootdown, keeping real IPI traffic flowing
//! for the fault-injection drop/delay/retry paths), then unmaps and
//! computes. After its rounds it lingers across scheduler ticks so
//! published states retire and reclamation completes while the machine
//! is still live.
//!
//! `tests/chaos.rs` runs this under every `latr_faults::FaultPlan`
//! class; `tests/differential.rs` replays the same plans with every Latr
//! sweep checked against the full scan.

use latr_arch::CpuId;
use latr_kernel::{Machine, Op, OpResult, TaskId, Workload};
use latr_mem::{Prot, VaRange};
use latr_sim::MILLISECOND;

/// Cross-core churn on one shared address space.
#[derive(Debug)]
pub struct ChaosShare {
    cores: usize,
    rounds: u32,
    step: Vec<u8>,
    done_rounds: Vec<u32>,
    linger: Vec<u8>,
    current: Vec<Option<VaRange>>,
}

impl ChaosShare {
    /// A workload of `cores` tasks each running `rounds` rounds of the
    /// map/write/peek/mprotect/unmap/compute cycle.
    pub fn new(cores: usize, rounds: u32) -> Self {
        ChaosShare {
            cores,
            rounds,
            step: vec![0; cores],
            done_rounds: vec![0; cores],
            linger: vec![0; cores],
            current: vec![None; cores],
        }
    }
}

impl Workload for ChaosShare {
    fn name(&self) -> &str {
        "chaos-share"
    }

    fn setup(&mut self, machine: &mut Machine) {
        let mm = machine.create_process();
        for c in 0..self.cores {
            machine.spawn_task(mm, CpuId(c as u16));
        }
    }

    fn next_op(&mut self, machine: &mut Machine, task: TaskId) -> Op {
        let _ = machine;
        let i = task.index();
        if self.done_rounds[i] >= self.rounds {
            // Linger long enough for two-tick reclamation (plus watchdog
            // escalations) to finish while other cores still tick.
            if self.linger[i] >= 14 {
                return Op::Exit;
            }
            self.linger[i] += 1;
            return Op::Sleep(MILLISECOND);
        }
        let step = self.step[i];
        self.step[i] = (step + 1) % 6;
        match step {
            0 => Op::MmapAnon { pages: 2 },
            1 => match self.current[i] {
                Some(r) => Op::Access {
                    vpn: r.start,
                    write: true,
                },
                None => Op::Sleep(5_000),
            },
            2 => {
                // Read a neighbour's live page: the cross-core TLB entry
                // is what makes sweeps — and faults in them — matter.
                let n = (i + 1) % self.cores;
                match self.current[n] {
                    Some(r) => Op::Access {
                        vpn: r.start,
                        write: false,
                    },
                    None => Op::Sleep(5_000),
                }
            }
            3 => match self.current[i] {
                Some(r) if self.done_rounds[i] % 3 == (i as u32) % 3 => Op::Mprotect {
                    range: r,
                    prot: Prot::READ_WRITE,
                },
                _ => Op::Compute(20_000),
            },
            4 => match self.current[i].take() {
                Some(r) => Op::Munmap { range: r },
                None => Op::Sleep(5_000),
            },
            _ => {
                self.done_rounds[i] += 1;
                Op::Compute(250_000)
            }
        }
    }

    fn on_op_complete(&mut self, machine: &mut Machine, task: TaskId, result: OpResult) {
        if let Op::MmapAnon { .. } = result.op {
            self.current[task.index()] = machine.task(task).last_mmap;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PolicyKind;
    use latr_arch::{MachinePreset, Topology};
    use latr_kernel::MachineConfig;
    use latr_sim::SECOND;

    #[test]
    fn completes_and_stays_coherent() {
        let mut config = MachineConfig::new(Topology::preset(MachinePreset::Commodity2S16C));
        config.seed = 11;
        let mut machine = Machine::new(config);
        machine.run(
            Box::new(ChaosShare::new(4, 8)),
            PolicyKind::latr_default().build(),
            SECOND,
        );
        assert_eq!(machine.check_reclamation_invariant(), None);
        assert_eq!(machine.check_mapping_coherence(), None);
        assert_eq!(machine.frames.allocated_count(), 0);
    }
}
