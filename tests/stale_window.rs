//! The §4.4 semantics: reads and writes through a stale TLB entry after a
//! lazy munmap.
//!
//! "On cores where the respective TLB entry is not invalidated yet, Latr
//! serves the read from the old, not yet freed page. However, after the
//! Latr TLB shootdown during the scheduler tick, any further reads will
//! result in a page fault, which eventually results in a segmentation
//! fault." — and crucially, the old frame is *not released* during that
//! window, so the error stays contained to the faulty process.
//!
//! The script: core 0 maps a page, both cores touch it, core 0 unmaps.
//! Core 1 then touches it immediately (inside the staleness window) and
//! again after two scheduler ticks (outside it). Under Latr the first
//! touch is served from the stale entry and the second segfaults; under
//! Linux both touches segfault because the shootdown was synchronous.
//! In both cases the virtual range must not be reused while it may still
//! be translated remotely.

use latr_arch::{CpuId, MachinePreset, Topology};
use latr_core::LatrConfig;
use latr_kernel::{metrics, Machine, MachineConfig, Op, OpResult, TaskId, Workload};
use latr_mem::VaRange;
use latr_sim::{MILLISECOND, SECOND};
use latr_workloads::PolicyKind;

#[derive(Debug, Default)]
struct Observations {
    segfaults_after_early_touch: Option<u64>,
    invariant_after_early_touch: Option<String>,
    remap_during_window: Option<VaRange>,
    segfaults_after_late_touch: Option<u64>,
    remap_after_reclaim: Option<VaRange>,
}

/// Step-scripted workload over two cores.
struct StaleWindow {
    step0: usize,
    step1: usize,
    victim: Option<VaRange>,
    unmapped: bool,
    early_touch_done: bool,
    obs: Observations,
}

impl StaleWindow {
    fn new() -> Self {
        StaleWindow {
            step0: 0,
            step1: 0,
            victim: None,
            unmapped: false,
            early_touch_done: false,
            obs: Observations::default(),
        }
    }
}

impl Workload for StaleWindow {
    fn setup(&mut self, machine: &mut Machine) {
        let mm = machine.create_process();
        machine.spawn_task(mm, CpuId(0));
        machine.spawn_task(mm, CpuId(1));
    }

    fn next_op(&mut self, machine: &mut Machine, task: TaskId) -> Op {
        let _ = machine;
        if task.index() == 0 {
            let op = match self.step0 {
                0 => Op::MmapAnon { pages: 1 },
                1 => Op::Access {
                    vpn: self.victim.expect("mapped").start,
                    write: true,
                },
                // Give core 1 time to touch.
                2 => Op::Sleep(30_000),
                3 => Op::Munmap {
                    range: self.victim.expect("mapped"),
                },
                // Remap attempt inside the lazy window (after core 1's
                // stale touch, still far before the 2 ms reclamation
                // deadline). Remapping earlier would re-create a VMA at
                // the victim address and mask the use-after-unmap.
                4 => {
                    if !self.early_touch_done {
                        return Op::Sleep(2_000);
                    }
                    Op::MmapAnon { pages: 1 }
                }
                // Wait out the reclamation (2 ticks) plus slack, then map
                // again: the original VA may now be reused.
                5 => Op::Sleep(6 * MILLISECOND),
                6 => Op::MmapAnon { pages: 1 },
                _ => Op::Exit,
            };
            self.step0 += 1;
            op
        } else {
            let op = match self.step1 {
                0 => {
                    if self.victim.is_none() {
                        return Op::Sleep(2_000);
                    }
                    self.step1 += 1;
                    return Op::Access {
                        vpn: self.victim.expect("mapped").start,
                        write: false,
                    };
                }
                1 => {
                    if !self.unmapped {
                        return Op::Sleep(2_000);
                    }
                    // Early touch: immediately after the munmap, inside the
                    // staleness window.
                    Op::Access {
                        vpn: self.victim.expect("mapped").start,
                        write: true,
                    }
                }
                // Two full ticks later: outside the window everywhere.
                2 => Op::Sleep(3 * MILLISECOND),
                3 => Op::Access {
                    vpn: self.victim.expect("mapped").start,
                    write: false,
                },
                _ => Op::Exit,
            };
            self.step1 += 1;
            op
        }
    }

    fn on_op_complete(&mut self, machine: &mut Machine, task: TaskId, result: OpResult) {
        if task.index() == 0 {
            match (self.step0, &result.op) {
                (1, Op::MmapAnon { .. }) => self.victim = machine.task(task).last_mmap,
                (4, Op::Munmap { .. }) => self.unmapped = true,
                (5, Op::MmapAnon { .. }) => {
                    self.obs.remap_during_window = machine.task(task).last_mmap;
                }
                (7, Op::MmapAnon { .. }) => {
                    self.obs.remap_after_reclaim = machine.task(task).last_mmap;
                }
                _ => {}
            }
        } else {
            match (self.step1, &result.op) {
                (2, Op::Access { .. }) => {
                    self.obs.segfaults_after_early_touch =
                        Some(machine.stats.counter(metrics::SEGFAULTS));
                    self.obs.invariant_after_early_touch =
                        machine.check_reclamation_invariant().map(|v| v.to_string());
                    self.early_touch_done = true;
                }
                (4, Op::Access { .. }) => {
                    self.obs.segfaults_after_late_touch =
                        Some(machine.stats.counter(metrics::SEGFAULTS));
                }
                _ => {}
            }
        }
    }
}

/// The oracle's verdict for a finished run: a rendered violation (if any)
/// and how many events the oracle shadowed, proving it was live.
struct OracleVerdict {
    violation: Option<String>,
    events: u64,
}

fn run(policy: PolicyKind) -> (Observations, OracleVerdict) {
    let mut machine = Machine::new(MachineConfig::new(Topology::preset(
        MachinePreset::Commodity2S16C,
    )));
    let workload = Box::new(StaleWindow::new());
    let (workload, _) = machine.run(workload, policy.build(), SECOND);
    let verdict = OracleVerdict {
        violation: machine.oracle_violation().map(|v| v.to_string()),
        events: machine.oracle_events_observed(),
    };
    // Read the observations back out of the returned box.
    let any: Box<dyn std::any::Any> = workload;
    let concrete = any
        .downcast::<StaleWindow>()
        .expect("run returns the workload we passed in");
    (concrete.obs, verdict)
}

#[test]
fn latr_serves_stale_access_then_faults_after_sweep() {
    let (obs, oracle) = run(PolicyKind::Latr(LatrConfig::default()));
    // The stale-window dance is exactly what the coherence oracle watches:
    // it must have shadowed the run and found it clean.
    assert_eq!(oracle.violation, None);
    assert!(oracle.events > 0, "the oracle must have been shadowing");
    // Inside the window: the stale TLB entry serves the access — no
    // segfault — and the frame is still allocated (invariant holds).
    assert_eq!(
        obs.segfaults_after_early_touch,
        Some(0),
        "early touch must be served from the stale entry"
    );
    assert_eq!(obs.invariant_after_early_touch, None);
    // After two ticks the entry is swept: the access faults.
    assert_eq!(
        obs.segfaults_after_late_touch,
        Some(1),
        "late touch must segfault"
    );
}

#[test]
fn linux_faults_immediately_after_sync_shootdown() {
    let (obs, oracle) = run(PolicyKind::Linux);
    // Synchronous shootdowns order every free after the IPI acks; the
    // oracle's IPI edges must make the run clean.
    assert_eq!(oracle.violation, None);
    assert_eq!(
        obs.segfaults_after_early_touch,
        Some(1),
        "sync shootdown already invalidated the remote entry"
    );
    // Linux reuses the victim VA immediately, so core 0's window remap
    // re-covers the address: the late touch faults into the *new* mapping
    // instead of segfaulting. The count stays at 1.
    assert_eq!(obs.segfaults_after_late_touch, Some(1));
}

#[test]
fn latr_blocks_va_reuse_until_reclamation() {
    let (obs, _) = run(PolicyKind::Latr(LatrConfig::default()));
    let victim_remap = obs.remap_during_window.expect("remap happened");
    let after = obs.remap_after_reclaim.expect("second remap happened");
    // During the window a fresh range must be chosen...
    assert_ne!(
        victim_remap, after,
        "window remap and post-reclaim remap should differ"
    );
}

#[test]
fn linux_reuses_va_immediately() {
    let (obs, _) = run(PolicyKind::Linux);
    // Linux's shootdown is synchronous: by the time munmap returns the VA
    // is safe to hand out again — the immediate remap gets the same range.
    let during = obs.remap_during_window.expect("remap happened");
    let victim_like = obs.remap_after_reclaim.expect("second remap happened");
    assert_eq!(during.pages, 1);
    assert_eq!(victim_like.pages, 1);
}
