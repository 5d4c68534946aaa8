//! Direct behavioural tests of the machine's concurrency plumbing:
//! interrupt time-debt, `mmap_sem` serialization, page-cache refcounting,
//! the always-synchronous `mprotect`, and PCID-preserved TLBs.

use latr_arch::{CpuId, MachinePreset, Topology, PCID_NONE};
use latr_core::LatrConfig;
use latr_kernel::{metrics, Machine, MachineConfig, Op, OpResult, TaskId, Workload};
use latr_mem::{Prot, VaRange};
use latr_sim::{Nanos, SECOND};
use latr_workloads::PolicyKind;

fn machine() -> Machine {
    Machine::new(MachineConfig::new(Topology::preset(
        MachinePreset::Commodity2S16C,
    )))
}

/// Core 1 computes a fixed-length op while core 0 storms it with
/// shootdown IPIs; the op must take longer than its nominal cost by the
/// injected handler time.
#[test]
fn interrupt_debt_stretches_the_interrupted_op() {
    struct DebtProbe {
        step0: usize,
        victim: Option<VaRange>,
        compute_latency: Option<Nanos>,
        issued_compute: bool,
    }
    impl Workload for DebtProbe {
        fn setup(&mut self, machine: &mut Machine) {
            let mm = machine.create_process();
            machine.spawn_task(mm, CpuId(0));
            machine.spawn_task(mm, CpuId(1));
        }
        fn next_op(&mut self, machine: &mut Machine, task: TaskId) -> Op {
            if task.index() == 1 {
                // One long compute; measure its stretch.
                if self.issued_compute {
                    return Op::Exit;
                }
                if let Some(r) = self.victim {
                    self.issued_compute = true;
                    // Touch first so the shootdowns actually target us.
                    let _ = r;
                    return Op::Compute(200_000);
                }
                return Op::Sleep(1_000);
            }
            self.step0 += 1;
            match self.step0 {
                1..=60 => {
                    // Map/touch/unmap churn: every munmap IPIs core 1.
                    match self.step0 % 3 {
                        1 => Op::MmapAnon { pages: 1 },
                        2 => Op::Access {
                            vpn: machine.task(task).last_mmap.expect("mapped").start,
                            write: true,
                        },
                        _ => Op::Munmap {
                            range: machine.task(task).last_mmap.expect("mapped"),
                        },
                    }
                }
                _ => Op::Exit,
            }
        }
        fn on_op_complete(&mut self, machine: &mut Machine, task: TaskId, result: OpResult) {
            match result.op {
                Op::MmapAnon { .. } if task.index() == 0 => {
                    self.victim = machine.task(task).last_mmap;
                }
                Op::Compute(nominal) if task.index() == 1 => {
                    assert!(result.latency >= nominal);
                    self.compute_latency = Some(result.latency);
                }
                _ => {}
            }
        }
    }
    let mut m = machine();
    let (w, _) = m.run(
        Box::new(DebtProbe {
            step0: 0,
            victim: None,
            compute_latency: None,
            issued_compute: false,
        }),
        PolicyKind::Linux.build(),
        SECOND,
    );
    let any: Box<dyn std::any::Any> = w;
    let w = any.downcast::<DebtProbe>().expect("same type");
    let latency = w.compute_latency.expect("compute ran");
    assert!(
        latency > 200_000 + 2_000,
        "IPI handlers must steal visible time: {latency}ns for a 200µs op \
         ({} IPIs handled)",
        m.stats.counter(metrics::IPIS_HANDLED)
    );
    assert!(m.stats.counter(metrics::IPIS_HANDLED) > 0);
}

/// Two tasks of one process munmap concurrently: the `mmap_sem` serializes
/// them, visible as lock waits.
#[test]
fn mmap_sem_serializes_writers() {
    struct TwoUnmappers {
        rounds: [u32; 2],
        mapped: [Option<VaRange>; 2],
    }
    impl Workload for TwoUnmappers {
        fn setup(&mut self, machine: &mut Machine) {
            let mm = machine.create_process();
            machine.spawn_task(mm, CpuId(0));
            machine.spawn_task(mm, CpuId(1));
        }
        fn next_op(&mut self, machine: &mut Machine, task: TaskId) -> Op {
            let i = task.index();
            if self.rounds[i] >= 50 {
                return Op::Exit;
            }
            match self.mapped[i].take() {
                None => Op::MmapAnon { pages: 1 },
                Some(r) => {
                    self.rounds[i] += 1;
                    let _ = machine;
                    Op::Munmap { range: r }
                }
            }
        }
        fn on_op_complete(&mut self, machine: &mut Machine, task: TaskId, result: OpResult) {
            if let Op::MmapAnon { .. } = result.op {
                self.mapped[task.index()] = machine.task(task).last_mmap;
            }
        }
    }
    let mut m = machine();
    m.run(
        Box::new(TwoUnmappers {
            rounds: [0; 2],
            mapped: [None; 2],
        }),
        PolicyKind::Linux.build(),
        SECOND,
    );
    assert!(
        m.stats.counter(metrics::MMAP_SEM_WAITS) > 0,
        "interleaved unmaps of one mm must contend on mmap_sem"
    );
    assert_eq!(m.check_reclamation_invariant(), None);
}

/// File-backed frames survive munmap: the page cache keeps its reference.
#[test]
fn page_cache_retains_file_frames_across_unmap() {
    struct FileMapper {
        step: usize,
        file: Option<latr_mem::FileId>,
    }
    impl Workload for FileMapper {
        fn setup(&mut self, machine: &mut Machine) {
            let mm = machine.create_process();
            machine.spawn_task(mm, CpuId(0));
            self.file = Some(machine.register_file(3));
        }
        fn next_op(&mut self, machine: &mut Machine, task: TaskId) -> Op {
            self.step += 1;
            match self.step {
                1 => Op::MmapFile {
                    file: self.file.expect("registered"),
                    offset: 0,
                    pages: 3,
                },
                2 => Op::AccessBatch {
                    range: machine.task(task).last_mmap.expect("mapped"),
                    accesses: 8,
                    write: false,
                },
                3 => Op::Munmap {
                    range: machine.task(task).last_mmap.expect("mapped"),
                },
                _ => Op::Exit,
            }
        }
        fn on_op_complete(&mut self, machine: &mut Machine, _task: TaskId, result: OpResult) {
            if let Op::Munmap { .. } = result.op {
                // Mapping reference dropped, cache reference remains.
                assert_eq!(machine.page_cache.resident_pages(), 3);
                assert_eq!(machine.frames.allocated_count(), 3);
            }
        }
    }
    let mut m = machine();
    m.run(
        Box::new(FileMapper {
            step: 0,
            file: None,
        }),
        PolicyKind::Linux.build(),
        SECOND,
    );
    assert_eq!(m.page_cache.resident_pages(), 3);
}

/// `mprotect` must shoot down synchronously even under Latr (Table 1).
#[test]
fn mprotect_is_synchronous_under_latr() {
    struct Protector {
        step: usize,
        sharer_touched: bool,
    }
    impl Workload for Protector {
        fn setup(&mut self, machine: &mut Machine) {
            let mm = machine.create_process();
            machine.spawn_task(mm, CpuId(0));
            machine.spawn_task(mm, CpuId(1));
        }
        fn next_op(&mut self, machine: &mut Machine, task: TaskId) -> Op {
            if task.index() == 1 {
                return match machine.task(TaskId(0)).last_mmap {
                    Some(r) if !self.sharer_touched => {
                        self.sharer_touched = true;
                        Op::Access {
                            vpn: r.start,
                            write: true,
                        }
                    }
                    _ if self.step >= 3 => Op::Exit,
                    _ => Op::Sleep(3_000),
                };
            }
            if machine.task(task).last_mmap.is_some() && !self.sharer_touched {
                return Op::Sleep(1_000);
            }
            self.step += 1;
            match self.step {
                1 => Op::MmapAnon { pages: 2 },
                2 => Op::Access {
                    vpn: machine.task(task).last_mmap.expect("mapped").start,
                    write: true,
                },
                3 => Op::Mprotect {
                    range: machine.task(task).last_mmap.expect("mapped"),
                    prot: Prot::READ,
                },
                _ => Op::Exit,
            }
        }
    }
    let mut m = machine();
    m.run(
        Box::new(Protector {
            step: 0,
            sharer_touched: false,
        }),
        PolicyKind::Latr(LatrConfig::default()).build(),
        SECOND,
    );
    assert!(
        m.stats.counter(metrics::IPIS_SENT) >= 1,
        "permission changes cannot be lazy (Table 1)"
    );
    assert_eq!(m.stats.counter(metrics::LATR_FALLBACK_IPIS), 0);
    assert_eq!(m.check_mapping_coherence(), None);
}

/// With PCIDs enabled a voluntary context switch keeps the TLB warm
/// (§4.5); without them the CR3 write flushes everything.
#[test]
fn pcid_preserves_tlb_across_context_switch() {
    struct YieldProbe {
        step: usize,
        hit_after_yield: Option<bool>,
    }
    impl Workload for YieldProbe {
        fn setup(&mut self, machine: &mut Machine) {
            let mm = machine.create_process();
            machine.spawn_task(mm, CpuId(0));
        }
        fn next_op(&mut self, machine: &mut Machine, task: TaskId) -> Op {
            self.step += 1;
            match self.step {
                1 => Op::MmapAnon { pages: 1 },
                2 => Op::Access {
                    vpn: machine.task(task).last_mmap.expect("mapped").start,
                    write: true,
                },
                3 => Op::Yield,
                4 => {
                    let vpn = machine.task(task).last_mmap.expect("mapped").start;
                    let pcid = machine.mm(machine.task(task).mm).pcid;
                    self.hit_after_yield = Some(machine.cores[0].tlb.peek(pcid, vpn.0).is_some());
                    Op::Exit
                }
                _ => Op::Exit,
            }
        }
    }
    for (pcid_enabled, expect_hit) in [(false, false), (true, true)] {
        let mut config = MachineConfig::new(Topology::preset(MachinePreset::Commodity2S16C));
        config.pcid_enabled = pcid_enabled;
        let mut m = Machine::new(config);
        let (w, _) = m.run(
            Box::new(YieldProbe {
                step: 0,
                hit_after_yield: None,
            }),
            PolicyKind::Latr(LatrConfig::default()).build(),
            SECOND,
        );
        let any: Box<dyn std::any::Any> = w;
        let w = any.downcast::<YieldProbe>().expect("same type");
        assert_eq!(
            w.hit_after_yield,
            Some(expect_hit),
            "pcid_enabled={pcid_enabled}"
        );
        // PCID_NONE is only used when PCIDs are off.
        let expected_pcid_none = !pcid_enabled;
        assert_eq!(
            m.mm(latr_mem::MmId(0)).pcid == PCID_NONE,
            expected_pcid_none
        );
    }
}
