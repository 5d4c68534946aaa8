//! The coherence oracle's acceptance test: a deliberately broken policy
//! must be *caught*, and the correct one must run clean under the exact
//! same workload.
//!
//! `LatrConfig { reclaim_ticks: 0, .. }` removes the §4.2 two-tick grace
//! period: munmapped frames are handed back to the allocator at the very
//! next background reclamation tick, while the per-core sweeps that clear
//! remote TLB entries run on *staggered* scheduler ticks that may not
//! have fired yet. The oracle's vector clocks see a free that is not
//! ordered after the remote fill by any publish/sweep/IPI edge and flag
//! it, naming both racing events in the trace.

use latr_arch::{CpuId, MachinePreset, Topology};
use latr_core::LatrConfig;
use latr_kernel::{Machine, MachineConfig, Op, OpResult, TaskId, Workload};
use latr_mem::VaRange;
use latr_sim::{MILLISECOND, SECOND};
use latr_verify::ViolationKind;
use latr_workloads::PolicyKind;

/// Core 0 maps a page, core 1 fills its TLB from it and then *computes*
/// (no context switch, hence no sweep) straight through the race window.
/// Core 0 unmaps at ~100 µs — after core 1's first staggered scheduler
/// tick (62.5 µs on the 16-core preset) so the publish is still pending
/// when the background reclamation tick fires at 1 ms, but core 1's next
/// sweep only comes at 1.0625 ms. With `reclaim_ticks: 0` the frame is
/// freed in that 62.5 µs gap while core 1 still translates to it.
struct WindowRace {
    step0: usize,
    victim: Option<VaRange>,
    sharer_touched: bool,
}

impl WindowRace {
    fn new() -> Self {
        WindowRace {
            step0: 0,
            victim: None,
            sharer_touched: false,
        }
    }
}

impl Workload for WindowRace {
    fn setup(&mut self, machine: &mut Machine) {
        let mm = machine.create_process();
        machine.spawn_task(mm, CpuId(0));
        machine.spawn_task(mm, CpuId(1));
    }

    fn next_op(&mut self, machine: &mut Machine, task: TaskId) -> Op {
        let _ = machine;
        if task.index() == 1 {
            return match self.victim {
                Some(r) if !self.sharer_touched => {
                    self.sharer_touched = true;
                    Op::Access {
                        vpn: r.start,
                        write: false,
                    }
                }
                // Stay on-CPU across the reclamation tick: sleeping would
                // context-switch, and Latr sweeps on context switches.
                Some(_) => Op::Compute(3 * MILLISECOND),
                None => Op::Sleep(2_000),
            };
        }
        if self.victim.is_some() && !self.sharer_touched {
            return Op::Sleep(1_000);
        }
        self.step0 += 1;
        match self.step0 {
            1 => Op::MmapAnon { pages: 1 },
            2 => Op::Access {
                vpn: self.victim.expect("mapped").start,
                write: true,
            },
            // Put the munmap past core 1's first scheduler tick so its
            // publish stays pending until core 1's *next* tick at 1.0625 ms.
            3 => Op::Sleep(100_000),
            4 => Op::Munmap {
                range: self.victim.expect("mapped"),
            },
            // Outlive the reclamation tick so process teardown doesn't
            // disturb the race being observed.
            5 => Op::Sleep(5 * MILLISECOND),
            _ => Op::Exit,
        }
    }

    fn on_op_complete(&mut self, machine: &mut Machine, task: TaskId, result: OpResult) {
        if task.index() != 0 {
            return;
        }
        if let Op::MmapAnon { .. } = result.op {
            self.victim = machine.task(task).last_mmap;
        }
    }
}

fn run(config: LatrConfig) -> Machine {
    let mut machine = Machine::new(MachineConfig::new(Topology::preset(
        MachinePreset::Commodity2S16C,
    )));
    machine.run(
        Box::new(WindowRace::new()),
        PolicyKind::Latr(config).build(),
        SECOND,
    );
    machine
}

#[test]
fn broken_policy_with_no_grace_period_is_caught() {
    // `without_degradation()` also drops the sweep gate on reclamation
    // packages — with it on, even `reclaim_ticks: 0` is safe (the package
    // waits for the state's bitmask to clear), and this negative control
    // needs the bare, genuinely broken mechanism.
    let machine = run(LatrConfig {
        reclaim_ticks: 0,
        ..LatrConfig::default()
    }
    .without_degradation());
    let violation = machine
        .oracle_violation()
        .expect("reclaim_ticks = 0 frees inside the staleness window; the oracle must fire");
    assert_eq!(
        violation.kind,
        ViolationKind::FreedWhileCached,
        "wrong classification:\n{violation}"
    );
    // The trace must name the racing parties: the stale core...
    assert!(
        violation.headline.contains("cpu1"),
        "headline should name the caching core: {}",
        violation.headline
    );
    let rendered = violation.to_string();
    // ...the fill that created the stale entry, and the publish the free
    // failed to wait out.
    assert!(
        rendered.contains("TLB fill"),
        "trace should include the racing fill:\n{rendered}"
    );
    assert!(
        rendered.contains("publish free state"),
        "trace should include the publish:\n{rendered}"
    );
    assert!(
        rendered.contains("race:"),
        "trace should end with a happens-before verdict:\n{rendered}"
    );
}

#[test]
fn default_grace_period_is_oracle_clean_on_the_same_workload() {
    let machine = run(LatrConfig::default());
    if let Some(v) = machine.oracle_violation() {
        panic!("two-tick reclamation must satisfy the invariant, got:\n{v}");
    }
    assert!(
        machine.oracle_events_observed() > 0,
        "the oracle must actually have been shadowing the run"
    );
}

#[test]
fn gate_alone_keeps_the_zero_grace_window_safe_and_is_counted() {
    // The same zero-grace configuration as the negative control above,
    // but with the sweep gate left on and the watchdog disabled: the
    // *only* thing standing between the free and the stale TLB entry is
    // the covering state's cpu bitmask. That must be (a) safe and
    // (b) visible — a package overdue at a reclaim tick but still held
    // by its gate counts toward LATR_GATE_HELD even when no watchdog
    // will ever escalate it. Before the accounting fix, `watchdog_ticks:
    // 0` silently zeroed this counter and the degradation telemetry
    // claimed the gate never did any work.
    let machine = run(LatrConfig {
        reclaim_ticks: 0,
        watchdog_ticks: 0,
        ..LatrConfig::default()
    });
    if let Some(v) = machine.oracle_violation() {
        panic!("the gate alone must close the staleness window, got:\n{v}");
    }
    assert!(
        machine.oracle_events_observed() > 0,
        "the oracle must actually have been shadowing the run"
    );
    assert!(
        machine.stats.counter(latr_kernel::metrics::LATR_GATE_HELD) > 0,
        "the gate held an overdue package across a tick; the degradation \
         counters must say so even with the watchdog off"
    );
    assert_eq!(
        machine
            .stats
            .counter(latr_kernel::metrics::LATR_WATCHDOG_ESCALATIONS),
        0,
        "no watchdog may have helped: this run proves the gate alone"
    );
}

#[test]
fn run_experiment_carries_the_first_violation() {
    let broken = LatrConfig {
        reclaim_ticks: 0,
        ..LatrConfig::default()
    }
    .without_degradation();
    let (res, _) = latr_workloads::run_experiment(
        MachineConfig::new(Topology::preset(MachinePreset::Commodity2S16C)),
        PolicyKind::Latr(broken),
        Box::new(WindowRace::new()),
        SECOND,
    );
    let violation = res
        .oracle
        .expect("MachineConfig::new keeps the oracle on")
        .expect_err("the verdict carries the race the oracle caught");
    assert!(
        violation.contains("frame freed while cached"),
        "{violation}"
    );
}

/// One task alone in its address space maps two pages, writes both (each
/// fill caches its own frame in the core's TLB), then dedups the pair:
/// the merge write-protects both pages with single-page invalidations
/// (`INVLPG`, `Machine::tlb_invalidate`) and, with no other core in the
/// mm, frees the odd page's duplicate frame at once. Nothing else
/// uncached that frame before its free.
struct DedupAlone {
    step: usize,
    pair: Option<VaRange>,
}

impl Workload for DedupAlone {
    fn setup(&mut self, machine: &mut Machine) {
        let mm = machine.create_process();
        machine.spawn_task(mm, CpuId(0));
    }

    fn next_op(&mut self, _: &mut Machine, _: TaskId) -> Op {
        self.step += 1;
        let pair = || self.pair.expect("mapped");
        match self.step {
            1 => Op::MmapAnon { pages: 2 },
            2 => Op::Access {
                vpn: pair().start,
                write: true,
            },
            3 => Op::Access {
                vpn: pair().start.offset(1),
                write: true,
            },
            4 => Op::Dedup { range: pair() },
            _ => Op::Exit,
        }
    }

    fn on_op_complete(&mut self, machine: &mut Machine, task: TaskId, result: OpResult) {
        if let Op::MmapAnon { .. } = result.op {
            self.pair = machine.task(task).last_mmap;
        }
    }
}

/// A frame freed after only the kernel's single-page invalidation
/// uncached it leaves the oracle clean under every policy. An oracle that
/// missed `INVLPG` would still see the frame cached at its free.
#[test]
fn a_frame_freed_after_a_single_page_invalidation_is_clean() {
    for policy in [PolicyKind::Linux, PolicyKind::latr_default()] {
        let policy = policy.build();
        let name = policy.name();
        let mut machine = Machine::new(MachineConfig::new(Topology::preset(
            MachinePreset::Commodity2S16C,
        )));
        machine.run(
            Box::new(DedupAlone {
                step: 0,
                pair: None,
            }),
            policy,
            SECOND,
        );
        if let Some(v) = machine.oracle_violation() {
            panic!("{name}: the INVLPG uncached the frame before its free, got:\n{v}");
        }
        assert_eq!(
            machine.stats.counter(latr_kernel::metrics::DEDUP_MERGES),
            1,
            "the pair was merged and its duplicate frame freed"
        );
    }
}
