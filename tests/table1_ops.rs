//! Table 1 coverage: every virtual-address operation class the paper
//! enumerates, with its lazy-able / synchronous classification.
//!
//! | class | operation | lazy possible |
//! |---|---|---|
//! | Free | munmap, madvise | ✓ |
//! | Migration | AutoNUMA, page swap, dedup, compaction | ✓ |
//! | Permission | mprotect | – |
//! | Ownership | CoW (fork) | – |
//! | Remap | mremap | – |
//!
//! Each scenario runs under both Linux and Latr and checks (a) the
//! operation's semantics, (b) the shootdown classification (lazy ops send
//! no IPIs under Latr; sync ops shoot down under every policy), and (c)
//! the reclamation invariant.

mod common;

use common::{
    compact_script, dedup_script, fork_script, free_script, mprotect_script, mremap_script,
    swap_script, table1_config, touch_all, ScriptStep, Scripted,
};
use latr_arch::{CpuId, MachinePreset, Topology};
use latr_core::LatrConfig;
use latr_kernel::{metrics, Machine, MachineConfig, Op, OpResult, TaskId, Workload};
use latr_mem::{MmId, VaRange};
use latr_sim::SECOND;
use latr_workloads::PolicyKind;

fn run(policy: PolicyKind, script: Vec<ScriptStep>) -> Machine {
    let mut machine = Machine::new(table1_config());
    machine.run(Box::new(Scripted::new(script)), policy.build(), 2 * SECOND);
    assert_eq!(machine.check_reclamation_invariant(), None);
    assert_eq!(machine.check_mapping_coherence(), None);
    machine
}

// ---- Free class: madvise + munmap ---------------------------------------------------

#[test]
fn free_ops_shoot_down_under_linux() {
    let m = run(PolicyKind::Linux, free_script());
    assert!(m.stats.counter(metrics::SHOOTDOWNS) >= 1);
    assert_eq!(m.stats.histogram(metrics::MADVISE_NS).unwrap().count(), 1);
    assert_eq!(m.stats.histogram(metrics::MUNMAP_NS).unwrap().count(), 1);
    assert_eq!(m.frames.allocated_count(), 0);
}

#[test]
fn free_ops_are_lazy_under_latr() {
    let m = run(PolicyKind::Latr(LatrConfig::default()), free_script());
    assert_eq!(
        m.stats.counter(metrics::IPIS_SENT),
        0,
        "munmap and madvise are lazy-able operations (Table 1)"
    );
    assert!(m.stats.counter(metrics::LATR_STATES_SAVED) >= 1);
    assert_eq!(m.frames.allocated_count(), 0);
}

// ---- Permission class: mprotect -----------------------------------------------------

#[test]
fn mprotect_is_synchronous_under_every_policy() {
    for policy in [
        PolicyKind::Linux,
        PolicyKind::Abis,
        PolicyKind::Latr(LatrConfig::default()),
    ] {
        let m = run(policy, mprotect_script());
        assert!(
            m.stats.counter(metrics::IPIS_SENT) >= 1,
            "{}: mprotect must shoot down synchronously (Table 1)",
            policy.label()
        );
        assert_eq!(
            m.stats.counter(metrics::LATR_STATES_SAVED),
            0,
            "{}",
            policy.label()
        );
    }
}

// ---- Migration class: page swap -------------------------------------------------

#[test]
fn swap_out_and_in_roundtrip() {
    let m = run(PolicyKind::Linux, swap_script());
    assert_eq!(m.stats.counter(metrics::SWAP_OUTS), 8);
    assert!(
        m.stats.counter(metrics::SWAP_INS) >= 1,
        "re-touching must swap pages back in"
    );
    assert!(m.stats.counter(metrics::SHOOTDOWNS) >= 1);
}

#[test]
fn swap_is_lazy_under_latr() {
    let m = run(PolicyKind::Latr(LatrConfig::default()), swap_script());
    assert_eq!(m.stats.counter(metrics::SWAP_OUTS), 8);
    assert_eq!(
        m.stats.counter(metrics::IPIS_SENT),
        0,
        "page swap is a lazy-able operation (Table 1)"
    );
    assert!(m.stats.counter(metrics::LATR_STATES_SAVED) >= 1);
    assert_eq!(m.frames.allocated_count(), 0);
}

// ---- Migration class: deduplication ----------------------------------------------

#[test]
fn dedup_merges_pairs_and_cow_unshares() {
    let m = run(PolicyKind::Linux, dedup_script());
    assert_eq!(
        m.stats.counter(metrics::DEDUP_MERGES),
        4,
        "8 pages = 4 pairs"
    );
    assert!(
        m.stats.counter(metrics::COW_BREAKS) >= 1,
        "writing a merged page must copy-on-write"
    );
}

#[test]
fn dedup_duplicate_frames_free_lazily_under_latr() {
    let m = run(PolicyKind::Latr(LatrConfig::default()), dedup_script());
    assert_eq!(m.stats.counter(metrics::DEDUP_MERGES), 4);
    assert_eq!(
        m.stats.counter(metrics::IPIS_SENT),
        0,
        "the merge/free phase is lazy-able (Table 1)"
    );
    assert_eq!(m.frames.allocated_count(), 0, "duplicates reclaimed");
}

// ---- Migration class: compaction --------------------------------------------------

#[test]
fn compaction_migrates_pages_to_fresh_frames() {
    for policy in [PolicyKind::Linux, PolicyKind::Latr(LatrConfig::default())] {
        let m = run(policy, compact_script());
        assert_eq!(
            m.stats.counter(metrics::COMPACT_PAGES),
            6,
            "{}",
            policy.label()
        );
        assert!(
            m.stats.counter(metrics::MIGRATIONS) >= 3,
            "{}: compaction must migrate pages, got {}",
            policy.label(),
            m.stats.counter(metrics::MIGRATIONS)
        );
    }
}

#[test]
fn compaction_hint_unmaps_are_lazy_under_latr() {
    let m = run(PolicyKind::Latr(LatrConfig::default()), compact_script());
    assert_eq!(
        m.stats.counter(metrics::IPIS_SENT),
        0,
        "compaction rides the lazy migration path (§7)"
    );
    assert!(m.stats.counter(metrics::LATR_STATES_SAVED) >= 6);
}

#[test]
fn an_access_blocked_on_a_lazy_hint_unmap_completes() {
    // Single accesses right after compaction: once cpu0 has swept the
    // lazy hint-unmap but cpu1 has not, the hint fault must wait (§4.4);
    // the blocked access then completes like any other op.
    // The pause places the compaction so that one of the accesses faults
    // between the two cores' sweeps.
    let mut script = vec![
        ScriptStep::Map(1),
        ScriptStep::OnVictim(touch_all),
        ScriptStep::Fixed(Op::Sleep(100_000)),
        ScriptStep::OnVictim(|r| Op::Compact { range: r }),
    ];
    for _ in 0..600 {
        script.push(ScriptStep::OnVictim(|r| Op::Access {
            vpn: r.start,
            write: false,
        }));
        script.push(ScriptStep::Fixed(Op::Sleep(3_000)));
    }
    let m = run(PolicyKind::Latr(LatrConfig::default()), script);
    assert_eq!(m.stats.counter(metrics::HINT_FAULTS), 1);
    assert_eq!(m.stats.counter(metrics::MIGRATIONS), 1);
}

// ---- Remap class: mremap -----------------------------------------------------------

#[test]
fn mremap_moves_the_mapping_and_is_synchronous_everywhere() {
    for policy in [PolicyKind::Linux, PolicyKind::Latr(LatrConfig::default())] {
        let m = run(policy, mremap_script());
        assert_eq!(m.stats.counter(metrics::MREMAPS), 1, "{}", policy.label());
        assert!(
            m.stats.counter(metrics::IPIS_SENT) >= 1,
            "{}: mremap must shoot down synchronously (Table 1)",
            policy.label()
        );
        assert_eq!(
            m.stats.counter(metrics::LATR_FALLBACK_IPIS),
            0,
            "{}: the sync round is by classification, not queue overflow",
            policy.label()
        );
    }
}

// ---- Ownership class: fork / CoW ---------------------------------------------------

#[test]
fn fork_write_protects_and_cow_breaks_on_write() {
    for policy in [PolicyKind::Linux, PolicyKind::Latr(LatrConfig::default())] {
        let m = run(policy, fork_script());
        assert_eq!(m.stats.counter(metrics::FORKS), 1, "{}", policy.label());
        assert!(
            m.stats.counter(metrics::COW_BREAKS) >= 1,
            "{}: parent write after fork must CoW",
            policy.label()
        );
        assert!(
            m.stats.counter(metrics::IPIS_SENT) >= 1,
            "{}: the fork write-protect is an ownership change (Table 1)",
            policy.label()
        );
        // The forked (never-scheduled) child is reaped at shutdown.
        assert_eq!(m.frames.allocated_count(), 0, "{}", policy.label());
        assert_eq!(m.num_mms(), 2);
    }
}

#[test]
fn forked_child_shares_frames_until_write() {
    // Single-core variant so we can inspect sharing directly.
    struct ForkInspect {
        step: usize,
        victim: Option<VaRange>,
        shared_refcount: Option<u32>,
    }
    impl Workload for ForkInspect {
        fn setup(&mut self, machine: &mut Machine) {
            let mm = machine.create_process();
            machine.spawn_task(mm, CpuId(0));
        }
        fn next_op(&mut self, machine: &mut Machine, _task: TaskId) -> Op {
            let _ = machine;
            self.step += 1;
            match self.step {
                1 => Op::MmapAnon { pages: 2 },
                2 => touch_all(self.victim.expect("mapped")),
                3 => Op::Fork,
                _ => Op::Exit,
            }
        }
        fn on_op_complete(&mut self, machine: &mut Machine, task: TaskId, result: OpResult) {
            match result.op {
                Op::MmapAnon { .. } => self.victim = machine.task(task).last_mmap,
                Op::Fork => {
                    let mm: MmId = machine.task(task).mm;
                    let vpn = self.victim.expect("mapped").start;
                    let pte = machine.mm(mm).page_table.lookup(vpn).expect("mapped");
                    assert!(!pte.flags.writable, "parent page must be read-only");
                    self.shared_refcount = Some(machine.frames.refcount(pte.pfn));
                }
                _ => {}
            }
        }
    }
    let mut machine = Machine::new(MachineConfig::new(Topology::preset(
        MachinePreset::Commodity2S16C,
    )));
    let (workload, _) = machine.run(
        Box::new(ForkInspect {
            step: 0,
            victim: None,
            shared_refcount: None,
        }),
        PolicyKind::Linux.build(),
        SECOND,
    );
    let any: Box<dyn std::any::Any> = workload;
    let w = any.downcast::<ForkInspect>().expect("same type");
    assert_eq!(
        w.shared_refcount,
        Some(2),
        "parent and child share each frame after fork"
    );
}
