//! §7 "Tickless Kernel": with `CONFIG_NO_HZ`, idle cores skip their
//! scheduler ticks. Latr stays correct because an idle core is in no
//! `mm_cpumask` — no state ever names it — and its TLB was flushed on the
//! way to idle.

use latr_arch::{CpuId, MachinePreset, Topology};
use latr_core::LatrConfig;
use latr_kernel::{metrics, Machine, MachineConfig, Op, TaskId, Workload};
use latr_sim::{MILLISECOND, SECOND};
use latr_workloads::PolicyKind;

/// Four busy cores on a 16-core machine; the other twelve stay idle.
struct FourBusyCores {
    remaining: Vec<u32>,
}

impl Workload for FourBusyCores {
    fn setup(&mut self, machine: &mut Machine) {
        let mm = machine.create_process();
        for c in 0..4 {
            machine.spawn_task(mm, CpuId(c));
        }
        self.remaining = vec![200; 4];
    }

    fn next_op(&mut self, machine: &mut Machine, task: TaskId) -> Op {
        let _ = machine;
        let i = task.index();
        if self.remaining[i] == 0 {
            return Op::Exit;
        }
        self.remaining[i] -= 1;
        // Cycle (descending): map -> touch -> unmap -> compute.
        match self.remaining[i] % 4 {
            3 => Op::MmapAnon { pages: 2 },
            2 => match machine_last(machine, task) {
                Some(r) => Op::Access {
                    vpn: r.start,
                    write: true,
                },
                None => Op::Compute(1_000),
            },
            1 => match machine_last(machine, task) {
                Some(r) => Op::Munmap { range: r },
                None => Op::Compute(1_000),
            },
            _ => Op::Compute(50_000),
        }
    }
}

fn machine_last(machine: &Machine, task: TaskId) -> Option<latr_mem::VaRange> {
    machine.task(task).last_mmap
}

fn run(tickless: bool) -> Machine {
    let mut config = MachineConfig::new(Topology::preset(MachinePreset::Commodity2S16C));
    config.tickless = tickless;
    let mut machine = Machine::new(config);
    machine.run(
        Box::new(FourBusyCores { remaining: vec![] }),
        PolicyKind::Latr(LatrConfig::default()).build(),
        SECOND,
    );
    machine
}

#[test]
fn idle_cores_skip_ticks_when_tickless() {
    let ticking = run(false);
    let tickless = run(true);
    assert!(
        tickless.stats.counter(metrics::TICKS_SKIPPED_IDLE) > 0,
        "12 idle cores must skip ticks"
    );
    assert!(
        tickless.stats.counter(metrics::SCHED_TICKS) < ticking.stats.counter(metrics::SCHED_TICKS),
        "tickless must deliver fewer real ticks: {} vs {}",
        tickless.stats.counter(metrics::SCHED_TICKS),
        ticking.stats.counter(metrics::SCHED_TICKS)
    );
}

#[test]
fn tickless_preserves_correctness_and_laziness() {
    let m = run(true);
    assert_eq!(m.check_reclamation_invariant(), None);
    assert_eq!(m.check_mapping_coherence(), None);
    assert_eq!(m.frames.allocated_count(), 0);
    // Still fully lazy: the busy cores' ticks carry the sweeps.
    assert_eq!(m.stats.counter(metrics::IPIS_SENT), 0);
    assert!(m.stats.counter(metrics::LATR_STATES_SAVED) > 0);
}

#[test]
fn tickless_work_matches_ticking_work() {
    let a = run(false);
    let b = run(true);
    // Same program, same per-task op counts: the mode must not change
    // what executes, only where ticks fire.
    assert_eq!(
        a.stats.counter(metrics::LATR_STATES_SAVED),
        b.stats.counter(metrics::LATR_STATES_SAVED)
    );
    assert_eq!(a.stats.counter(metrics::SEGFAULTS), 0);
    assert_eq!(b.stats.counter(metrics::SEGFAULTS), 0);
}

#[test]
fn reclamation_deadline_still_met_with_tickless() {
    // Even with most cores tickless-idle, the 2-tick deadline is computed
    // on wall-clock ticks of *busy* cores: frames must be free shortly
    // after the lazy window.
    let mut config = MachineConfig::new(Topology::preset(MachinePreset::Commodity2S16C));
    config.tickless = true;

    struct OneShot {
        step: usize,
        victim: Option<latr_mem::VaRange>,
    }
    impl Workload for OneShot {
        fn setup(&mut self, machine: &mut Machine) {
            let mm = machine.create_process();
            machine.spawn_task(mm, CpuId(0));
            machine.spawn_task(mm, CpuId(1));
        }
        fn next_op(&mut self, machine: &mut Machine, task: TaskId) -> Op {
            if task.index() == 1 {
                // Keep the second core busy so its ticks run.
                return if self.step > 6 {
                    Op::Exit
                } else {
                    Op::Compute(MILLISECOND)
                };
            }
            self.step += 1;
            match self.step {
                1 => Op::MmapAnon { pages: 1 },
                2 => Op::Access {
                    vpn: self.victim.or(machine.task(task).last_mmap).unwrap().start,
                    write: true,
                },
                3 => Op::Munmap {
                    range: machine.task(task).last_mmap.unwrap(),
                },
                4..=7 => Op::Sleep(MILLISECOND),
                _ => Op::Exit,
            }
        }
        fn on_op_complete(
            &mut self,
            machine: &mut Machine,
            task: TaskId,
            result: latr_kernel::OpResult,
        ) {
            if let Op::MmapAnon { .. } = result.op {
                self.victim = machine.task(task).last_mmap;
            }
            if let Op::Munmap { .. } = result.op {
                // Frame must still be parked right after the lazy munmap.
                assert_eq!(machine.frames.allocated_count(), 1);
            }
            if matches!(result.op, Op::Sleep(_)) && self.step == 7 {
                // Several ticks later the lazy list has drained.
                assert_eq!(
                    machine.frames.allocated_count(),
                    0,
                    "frame must be reclaimed within the deadline"
                );
            }
        }
    }
    let mut machine = Machine::new(config);
    machine.run(
        Box::new(OneShot {
            step: 0,
            victim: None,
        }),
        PolicyKind::Latr(LatrConfig::default()).build(),
        SECOND,
    );
    assert_eq!(machine.check_reclamation_invariant(), None);
}
