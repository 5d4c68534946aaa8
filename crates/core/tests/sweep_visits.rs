//! Property tests for the fast sweep's visit set and its one-pass walk.
//!
//! The pending-bitmap sweep is only correct if, for *any* interleaving of
//! publishes, sweeps, out-of-band mask clears and retirements, a CPU's
//! bitmap row covers every queue the reference full scan would find
//! relevant — bits may be stale-set (a visit that finds nothing) but never
//! stale-clear (a missed invalidation). The live out-of-band clears are
//! the sweep watchdog's and memory pressure's escalations and
//! `on_sync_complete`; `StateQueue::clear_cpu_everywhere` has no caller
//! outside tests and stands in for all of them here, including the one
//! shape they never leave behind: an emptied state still active.
//!
//! On the same op streams, `StateQueue::sweep_cpu` is checked against the
//! two-pass sweep it replaced (gather and clear, then `retire_completed`
//! only if the visit found a hit) on cloned queues: same hits in the same
//! order, same queue contents afterwards, and the same slot for the next
//! publish. The two differ in one place by design: `sweep_cpu` also
//! retires on a hitless visit, so an emptied state left active by
//! `clear_cpu_everywhere` retires at the next visit of its queue rather
//! than at the next visit with a hit. No live path leaves such a state
//! (they all retire what they empty), so simulator runs cannot tell the
//! two apart; `hitless_visit_retires_an_emptied_leftover` pins the
//! difference and the property test allows exactly it. End to end, the
//! same agreement is checked at every sweep of every dev-profile machine
//! run (`LatrPolicy`'s per-sweep full-scan check), which
//! `tests/differential.rs` at the workspace root drives through its
//! shapes.

use latr_arch::{CpuId, CpuMask};
use latr_core::{LatrState, PendingSweepMap, StateKind, StateQueue, SweepHit};
use latr_mem::{MmId, VaRange, Vpn};
use latr_sim::Time;
use proptest::prelude::*;
use std::collections::BTreeSet;

const NCPUS: usize = 8;
const SLOTS: usize = 4; // tiny queues make overflow + reuse frequent

#[derive(Debug, Clone)]
enum Op {
    /// CPU `publisher` publishes a state targeting the CPUs in the
    /// bitmask (bit i = CPU i), as a Free or Migration state.
    Publish {
        publisher: u16,
        targets: u8,
        migration: bool,
    },
    /// CPU sweeps: visit the queues in its pending row, clear its bit.
    Sweep(u16),
    /// Out-of-band clear of one CPU's bit everywhere (the escalation and
    /// sync-completion clears, in bulk). Creates stale-set pending bits
    /// and, unlike the live paths, leaves emptied states active.
    ClearEverywhere(u16),
    /// Retire completed states in one queue (the escalation and
    /// sync-completion retire path).
    Retire(u16),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    let cpu = 0u16..NCPUS as u16;
    let publish =
        (cpu.clone(), 0u16..256, 0u16..2).prop_map(|(publisher, targets, migration)| Op::Publish {
            publisher,
            targets: targets as u8,
            migration: migration == 1,
        });
    // The vendored prop_oneof! has no weight syntax; repeating the arms
    // biases toward publish/sweep so interleavings stay dense.
    prop::collection::vec(
        prop_oneof![
            publish.clone(),
            publish.clone(),
            publish,
            cpu.clone().prop_map(Op::Sweep),
            cpu.clone().prop_map(Op::Sweep),
            cpu.clone().prop_map(Op::Sweep),
            cpu.clone().prop_map(Op::ClearEverywhere),
            cpu.prop_map(Op::Retire),
        ],
        0..300,
    )
}

/// The queues the reference full scan would find relevant for `cpu`.
fn reference_visit_set(queues: &[StateQueue], cpu: CpuId) -> BTreeSet<usize> {
    queues
        .iter()
        .enumerate()
        .filter(|(_, q)| q.iter_active().any(|s| s.cpus.test(cpu)))
        .map(|(qi, _)| qi)
        .collect()
}

/// A state with a unique id and page, in one of two address spaces so
/// sweeps see both same-mm runs and mm switches.
fn state(id: u64, cpus: CpuMask, migration: bool) -> LatrState {
    LatrState {
        id,
        range: VaRange::new(Vpn(0x1000 + id), 1),
        mm: MmId((id % 2) as u32),
        kind: if migration {
            StateKind::Migration
        } else {
            StateKind::Free
        },
        cpus,
        pte_done: !migration,
        published: Time::ZERO,
        round: None,
    }
}

/// The sweep `StateQueue::sweep_cpu` replaced: gather the hits (with
/// `pte_done` from before the sweep) while clearing `cpu`'s bit and
/// marking migration PTEs done, then, if there was a hit, retire emptied
/// states in a second walk.
fn two_pass_sweep(q: &mut StateQueue, cpu: CpuId) -> Vec<SweepHit> {
    let mut hits = Vec::new();
    for s in q.iter_active_mut() {
        if s.cpus.test(cpu) {
            hits.push(SweepHit {
                mm: s.mm,
                range: s.range,
                kind: s.kind,
                pte_done: s.pte_done,
            });
            s.cpus.clear(cpu);
            if s.kind == StateKind::Migration {
                s.pte_done = true;
            }
        }
    }
    if !hits.is_empty() {
        q.retire_completed();
    }
    hits
}

#[test]
fn hitless_visit_retires_an_emptied_leftover() {
    let mut q = StateQueue::new(SLOTS);
    q.publish(state(0, CpuMask::from_cpus([CpuId(1)]), false));
    q.clear_cpu_everywhere(CpuId(1));
    let mut old = q.clone();
    assert!(two_pass_sweep(&mut old, CpuId(2)).is_empty());
    assert_eq!(old.active_count(), 1, "the old sweep left it active");
    assert_eq!(q.sweep_cpu(CpuId(2), |_| unreachable!()), 0);
    assert_eq!(q.active_count(), 0, "the one-pass walk retires it");
}

proptest! {
    #[test]
    fn pending_row_covers_exactly_the_reference_scan(ops in ops()) {
        let mut queues: Vec<StateQueue> = (0..NCPUS).map(|_| StateQueue::new(SLOTS)).collect();
        let mut pending = PendingSweepMap::new();
        pending.ensure(NCPUS);
        let mut next_id = 0u64;
        for op in ops {
            match op {
                Op::Publish { publisher, targets, migration } => {
                    let mask: CpuMask = (0..8u16)
                        .filter(|i| targets & (1 << i) != 0)
                        .map(CpuId)
                        .collect();
                    if mask.is_empty() {
                        continue;
                    }
                    let state = state(next_id, mask, migration);
                    next_id += 1;
                    if queues[publisher as usize].publish(state).is_some() {
                        pending.mark(&mask, CpuId(publisher));
                    }
                    // On overflow the caller falls back to IPIs: no state,
                    // no pending bits.
                }
                Op::Sweep(cpu) => {
                    let cpu = CpuId(cpu);
                    let must_visit = reference_visit_set(&queues, cpu);
                    let row = pending.take_row(cpu);
                    let visited: BTreeSet<usize> =
                        row.iter().map(|c| c.index()).collect();
                    // Never stale-clear: every queue the full scan would
                    // touch is flagged.
                    prop_assert!(
                        must_visit.is_subset(&visited),
                        "sweep of {cpu:?} would miss queues {:?} (row {:?})",
                        must_visit.difference(&visited).collect::<Vec<_>>(),
                        visited,
                    );
                    // Perform the sweep on the flagged queues only: the
                    // one-pass walk on the live queues, the two-pass sweep
                    // it replaced on clones.
                    for &qi in &visited {
                        let mut old = queues[qi].clone();
                        let old_hits = two_pass_sweep(&mut old, cpu);
                        let mut hits = Vec::new();
                        let n = queues[qi].sweep_cpu(cpu, |hit| hits.push(hit));
                        prop_assert_eq!(n, hits.len());
                        prop_assert_eq!(&hits, &old_hits);
                        if old_hits.is_empty() {
                            // The one allowed difference: a hitless visit
                            // also retires `ClearEverywhere` leftovers.
                            old.retire_completed();
                        }
                        prop_assert_eq!(&queues[qi], &old);
                        prop_assert_eq!(queues[qi].active_count(), old.active_count());
                        prop_assert_eq!(
                            queues[qi].active_migrations(),
                            old.active_migrations()
                        );
                        let probe = state(next_id, CpuMask::from_cpus([cpu]), false);
                        prop_assert_eq!(
                            queues[qi].clone().publish(probe.clone()),
                            old.publish(probe)
                        );
                    }
                    // Afterwards nothing anywhere names this CPU — the
                    // cleared row was complete.
                    prop_assert!(reference_visit_set(&queues, cpu).is_empty());
                }
                Op::ClearEverywhere(cpu) => {
                    for q in &mut queues {
                        q.clear_cpu_everywhere(CpuId(cpu));
                    }
                    // Deliberately do NOT touch `pending`: the live clears
                    // (escalations, on_sync_complete) leave the bits
                    // stale-set and rely on the next sweep finding nothing.
                }
                Op::Retire(qi) => {
                    queues[qi as usize].retire_completed();
                }
            }
            // Counters stay consistent with a full recount throughout.
            for q in &queues {
                prop_assert_eq!(q.active_count(), q.iter_active().count());
                prop_assert_eq!(
                    q.active_migrations(),
                    q.iter_active().filter(|s| s.kind == StateKind::Migration).count()
                );
            }
        }
    }
}
