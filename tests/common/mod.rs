//! Shared fixtures for the integration tests: the scripted two-core
//! workload that drives one Table 1 operation at a time, and the op
//! scripts for every Table 1 class. `tests/table1_ops.rs` asserts their
//! semantics; `tests/golden_traces.rs` pins their full fingerprints
//! under every policy.

use latr_arch::{CpuId, MachinePreset, Topology};
use latr_kernel::{Machine, MachineConfig, Op, OpResult, TaskId, Workload};
use latr_mem::{Prot, VaRange};
use latr_sim::MILLISECOND;

/// Runs a fixed op script on task 0 (cpu0) while a sharer task on cpu1
/// touches the victim range between script steps, so remote TLB entries
/// genuinely exist when the operation fires.
pub struct Scripted {
    script: Vec<ScriptStep>,
    pos: usize,
    victim: Option<VaRange>,
    sharer_touched: bool,
    lingering: u32,
}

/// One step of a [`Scripted`] run.
pub enum ScriptStep {
    /// Map the victim range.
    Map(u64),
    /// Run this op against the victim range.
    OnVictim(fn(VaRange) -> Op),
    /// Plain op.
    Fixed(Op),
}

impl Scripted {
    /// A two-core run of `script`.
    pub fn new(script: Vec<ScriptStep>) -> Self {
        Scripted {
            script,
            pos: 0,
            victim: None,
            sharer_touched: false,
            lingering: 6,
        }
    }
}

impl Workload for Scripted {
    fn setup(&mut self, machine: &mut Machine) {
        let mm = machine.create_process();
        machine.spawn_task(mm, CpuId(0));
        machine.spawn_task(mm, CpuId(1));
    }

    fn next_op(&mut self, _machine: &mut Machine, task: TaskId) -> Op {
        if task.index() == 1 {
            // The sharer: touch the victim once it exists, then idle (but
            // stay alive so the mm_cpumask keeps both cores).
            return match self.victim {
                Some(r) if !self.sharer_touched => {
                    self.sharer_touched = true;
                    Op::AccessBatch {
                        range: r,
                        accesses: (r.pages as u32).max(1) * 2,
                        write: false,
                    }
                }
                _ if self.pos >= self.script.len() => Op::Exit,
                _ => Op::Sleep(5_000),
            };
        }
        // Task 0 waits for the sharer before running the interesting ops.
        if self.victim.is_some() && !self.sharer_touched {
            return Op::Sleep(2_000);
        }
        let Some(step) = self.script.get(self.pos) else {
            if self.lingering > 0 {
                self.lingering -= 1;
                return Op::Sleep(MILLISECOND);
            }
            return Op::Exit;
        };
        self.pos += 1;
        match step {
            ScriptStep::Map(pages) => Op::MmapAnon { pages: *pages },
            ScriptStep::OnVictim(f) => f(self.victim.expect("victim mapped")),
            ScriptStep::Fixed(op) => *op,
        }
    }

    fn on_op_complete(&mut self, machine: &mut Machine, task: TaskId, result: OpResult) {
        if task.index() == 0 {
            if let Op::MmapAnon { .. } = result.op {
                if self.victim.is_none() {
                    self.victim = machine.task(task).last_mmap;
                }
            }
        }
    }
}

/// The 16-core machine the Table 1 scripts run on, with a short NUMA
/// fault retry so compaction's blocked hint faults resolve quickly.
pub fn table1_config() -> MachineConfig {
    let mut config = MachineConfig::new(Topology::preset(MachinePreset::Commodity2S16C));
    config.numa.fault_retry = MILLISECOND / 10;
    config
}

/// Writes every page of `range` twice over.
pub fn touch_all(range: VaRange) -> Op {
    Op::AccessBatch {
        range,
        accesses: range.pages as u32 * 2,
        write: true,
    }
}

/// Free class: `madvise` then `munmap` of a range both cores cached,
/// wide enough (40 pages) to cross the 33-page full-flush threshold.
pub fn free_script() -> Vec<ScriptStep> {
    vec![
        ScriptStep::Map(40),
        ScriptStep::OnVictim(touch_all),
        ScriptStep::OnVictim(|r| Op::MadviseFree { range: r }),
        ScriptStep::OnVictim(touch_all), // refault the freed pages
        ScriptStep::OnVictim(|r| Op::Munmap { range: r }),
    ]
}

/// Permission class: write-protect a range both cores cached.
pub fn mprotect_script() -> Vec<ScriptStep> {
    vec![
        ScriptStep::Map(4),
        ScriptStep::OnVictim(touch_all),
        ScriptStep::OnVictim(|r| Op::Mprotect {
            range: r,
            prot: Prot::READ,
        }),
    ]
}

/// Migration class: swap a range out, then touch it back in.
pub fn swap_script() -> Vec<ScriptStep> {
    vec![
        ScriptStep::Map(8),
        ScriptStep::OnVictim(touch_all),
        ScriptStep::OnVictim(|r| Op::SwapOut { range: r }),
        ScriptStep::OnVictim(touch_all), // swap back in
    ]
}

/// Migration class: KSM-style dedup, then a write that re-breaks sharing.
pub fn dedup_script() -> Vec<ScriptStep> {
    vec![
        ScriptStep::Map(8),
        ScriptStep::OnVictim(touch_all),
        ScriptStep::OnVictim(|r| Op::Dedup { range: r }),
        // Writing re-breaks the sharing via CoW.
        ScriptStep::OnVictim(|r| Op::Access {
            vpn: r.start.offset(1),
            write: true,
        }),
    ]
}

/// Migration class: compaction's lazy hint-unmaps, then the migrating
/// touches.
pub fn compact_script() -> Vec<ScriptStep> {
    vec![
        ScriptStep::Map(6),
        ScriptStep::OnVictim(touch_all),
        ScriptStep::OnVictim(|r| Op::Compact { range: r }),
        // Wait for the lazy unmap to land, then touch to trigger the
        // migrations.
        ScriptStep::Fixed(Op::Sleep(3 * MILLISECOND)),
        ScriptStep::OnVictim(touch_all),
        ScriptStep::Fixed(Op::Sleep(3 * MILLISECOND)),
        ScriptStep::OnVictim(touch_all),
    ]
}

/// Remap class: `mremap` a range both cores cached, wide enough (36
/// pages) to cross the 33-page full-flush threshold.
pub fn mremap_script() -> Vec<ScriptStep> {
    vec![
        ScriptStep::Map(36),
        ScriptStep::OnVictim(touch_all),
        ScriptStep::OnVictim(|r| Op::Mremap { range: r }),
    ]
}

/// Ownership class: `fork`, then a parent write that breaks CoW.
pub fn fork_script() -> Vec<ScriptStep> {
    vec![
        ScriptStep::Map(4),
        ScriptStep::OnVictim(touch_all),
        ScriptStep::Fixed(Op::Fork),
        // Parent writes after the fork: CoW break.
        ScriptStep::OnVictim(|r| Op::Access {
            vpn: r.start,
            write: true,
        }),
    ]
}
