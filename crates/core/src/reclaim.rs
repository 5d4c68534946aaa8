//! Lazy memory reclamation (§4.2).
//!
//! Freed virtual ranges and physical frames are parked here instead of
//! returning to the allocator; the background reclamation thread releases
//! them once the shootdown upper bound (two scheduler ticks) has passed:
//! "Latr waits two full cycles of TLB invalidations (i.e., two scheduler
//! ticks and 2 ms) to ensure that all associated entries have definitely
//! been invalidated by at least one scheduler tick."
//!
//! Entries may additionally be *gated* on the Latr state that covers them
//! ([`LazyReclaimQueue::defer_gated`]): a gated package is not released —
//! deadline or not — while its state still sits in its slot with a
//! non-empty CPU bitmask. The deadline alone is only a proof of safety
//! when every core actually swept; under a stalled sweeper or a lost IPI
//! it is not, and releasing by deadline would free frames a remote TLB
//! still caches. The sweep watchdog bounds how long a gate can hold.

use crate::state::{StateQueue, StateRef};
use latr_kernel::ReclaimPackage;
use latr_sim::Time;
use std::collections::VecDeque;

/// One parked reclamation package.
#[derive(Debug)]
pub struct DeferredReclaim {
    /// Earliest release time (`publish + reclaim_ticks` ticks).
    pub deadline: Time,
    /// When the covering state was published (for reclaim-latency stats).
    pub published: Time,
    /// The Latr state whose bitmask must clear before release (`None`
    /// for ungated, deadline-only entries).
    pub gate: Option<StateRef>,
    /// When memory pressure first expedited the gate (feeds the
    /// `latr_expedite_latency_ns` tick-bound histogram at release).
    pub expedited: Option<Time>,
    /// The frames and VA range to release.
    pub pkg: ReclaimPackage,
}

impl DeferredReclaim {
    /// Whether the gate still holds the package: the gating state still
    /// sits in its slot, with CPUs left to sweep.
    fn held(&self, queues: &[StateQueue]) -> bool {
        self.gate
            .is_some_and(|g| queues[g.queue].get(g).is_some_and(|s| !s.cpus.is_empty()))
    }
}

/// A deadline-ordered queue of deferred [`ReclaimPackage`]s.
///
/// Entries are pushed with monotonically non-decreasing deadlines (each is
/// `publish_time + 2 ticks`); gated entries whose state has not retired
/// are skipped in place and picked up on a later pass.
#[derive(Debug, Default)]
pub struct LazyReclaimQueue {
    entries: VecDeque<DeferredReclaim>,
}

impl LazyReclaimQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Parks a package until `deadline` *and* until the Latr state
    /// `gate` (if any) has an empty CPU bitmask.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `deadline` is earlier than the most
    /// recently pushed deadline (the caller always computes `now + 2
    /// ticks`, which is monotone).
    pub fn defer_gated(
        &mut self,
        deadline: Time,
        published: Time,
        gate: Option<StateRef>,
        pkg: ReclaimPackage,
    ) {
        if let Some(last) = self.entries.back() {
            debug_assert!(
                deadline >= last.deadline,
                "reclaim deadlines must be monotone"
            );
        }
        self.entries.push_back(DeferredReclaim {
            deadline,
            published,
            gate,
            expedited: None,
            pkg,
        });
    }

    /// Pops every package whose deadline is at or before `now` and whose
    /// gate (if any) no longer holds it in `queues`, handing each to
    /// `release` in queue order. Held entries stay parked, so the queue is
    /// scanned past them up to the first not-yet-due deadline.
    pub fn pop_due(
        &mut self,
        now: Time,
        queues: &[StateQueue],
        mut release: impl FnMut(DeferredReclaim),
    ) {
        let mut i = 0;
        while i < self.entries.len() {
            if self.entries[i].deadline > now {
                break;
            }
            if self.entries[i].held(queues) {
                i += 1;
                continue;
            }
            release(self.entries.remove(i).expect("index in bounds"));
        }
    }

    /// Packages past their deadline but still held by their gate — the
    /// honest measure of gate-induced reclaim delay. Read-only: the policy
    /// counts this every reclamation tick (into `latr_gate_held`) whether
    /// or not a watchdog is configured, so the degradation counters stay
    /// truthful when `watchdog_ticks = 0`.
    pub fn overdue_gated(&self, now: Time, queues: &[StateQueue]) -> usize {
        self.entries
            .iter()
            .filter(|d| d.deadline <= now && d.held(queues))
            .count()
    }

    /// The parked packages, oldest first, for pressure expedition to pick
    /// its gates from.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut DeferredReclaim> {
        self.entries.iter_mut()
    }

    /// Drains everything regardless of deadline or gate (end of run — the
    /// machine is quiescing, so no TLB can touch the parked frames again).
    pub fn drain_all(&mut self) -> impl Iterator<Item = ReclaimPackage> + '_ {
        self.entries.drain(..).map(|d| d.pkg)
    }

    /// Bytes of physical memory currently parked (the §6.4 memory-overhead
    /// metric), assuming 4 KiB frames.
    pub fn parked_bytes(&self) -> u64 {
        self.entries
            .iter()
            .map(|d| u64::from(d.pkg.frames.len) * latr_mem::PAGE_SIZE)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{LatrState, StateKind};
    use latr_arch::{CpuId, CpuMask};
    use latr_kernel::FrameSpan;
    use latr_mem::{MmId, VaRange, Vpn};

    fn pkg(frames: u32) -> ReclaimPackage {
        ReclaimPackage {
            mm: MmId(0),
            frames: FrameSpan {
                start: 0,
                len: frames,
            },
            va: Some(VaRange::new(Vpn(1), u64::from(frames))),
        }
    }

    fn at(ns: u64) -> Time {
        Time::from_ns(ns)
    }

    /// Parks `pkg` until `deadline` with no gate.
    fn defer(q: &mut LazyReclaimQueue, deadline: u64, pkg: ReclaimPackage) {
        q.defer_gated(at(deadline), at(deadline), None, pkg);
    }

    /// Publishes state `id`, naming CPU 1, into queue 0.
    fn publish(queues: &mut [StateQueue], id: u64) -> StateRef {
        let slot = queues[0]
            .publish(LatrState {
                id,
                range: VaRange::new(Vpn(1), 1),
                mm: MmId(0),
                kind: StateKind::Free,
                cpus: CpuMask::from_cpus([CpuId(1)]),
                pte_done: true,
                published: Time::ZERO,
                round: None,
            })
            .expect("a free slot");
        StateRef { queue: 0, slot, id }
    }

    /// Clears the state's mask and retires it, freeing its slot.
    fn retire(queues: &mut [StateQueue], r: StateRef) {
        queues[0].get_mut(r).expect("live state").cpus.reset();
        queues[0].retire_completed();
    }

    /// The packages [`LazyReclaimQueue::pop_due`] releases, in order.
    fn due(q: &mut LazyReclaimQueue, now: u64, queues: &[StateQueue]) -> Vec<DeferredReclaim> {
        let mut out = Vec::new();
        q.pop_due(at(now), queues, |d| out.push(d));
        out
    }

    #[test]
    fn due_respects_deadlines() {
        let mut q = LazyReclaimQueue::new();
        defer(&mut q, 100, pkg(1));
        defer(&mut q, 200, pkg(2));
        assert!(due(&mut q, 99, &[]).is_empty());
        let first = due(&mut q, 100, &[]);
        assert_eq!(first.len(), 1);
        assert_eq!(q.entries.len(), 1);
        let second = due(&mut q, 500, &[]);
        assert_eq!(second.len(), 1);
        assert!(q.entries.is_empty());
    }

    #[test]
    fn due_pops_multiple_at_once() {
        let mut q = LazyReclaimQueue::new();
        defer(&mut q, 10, pkg(1));
        defer(&mut q, 20, pkg(1));
        defer(&mut q, 30, pkg(1));
        assert_eq!(due(&mut q, 25, &[]).len(), 2);
    }

    #[test]
    fn gated_entries_wait_for_their_state() {
        let mut queues = vec![StateQueue::new(4)];
        let (s7, s8) = (publish(&mut queues, 7), publish(&mut queues, 8));
        let mut q = LazyReclaimQueue::new();
        q.defer_gated(at(10), at(0), Some(s7), pkg(1));
        q.defer_gated(at(20), at(5), Some(s8), pkg(2));
        retire(&mut queues, s8);
        // State 7 still has CPUs pending: only state 8's package releases,
        // even though 7's deadline is earlier.
        let out = due(&mut q, 100, &queues);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].gate, Some(s8));
        assert_eq!(q.entries.len(), 1);
        // Once the state retires the held package flows out.
        retire(&mut queues, s7);
        let out = due(&mut q, 100, &queues);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].gate, Some(s7));
        assert!(q.entries.is_empty());
    }

    /// The gate is the state, not the slot: a package whose state retired
    /// releases at its deadline although a newer live state now holds the
    /// same slot, while the newer state's own package is held.
    #[test]
    fn a_reused_slot_releases_the_retired_gate_and_holds_the_live_one() {
        let mut queues = vec![StateQueue::new(1)];
        let old = publish(&mut queues, 7);
        let mut q = LazyReclaimQueue::new();
        q.defer_gated(at(10), at(0), Some(old), pkg(1));
        retire(&mut queues, old);
        let newer = publish(&mut queues, 8);
        assert_eq!(newer.slot, old.slot, "the newer state reuses the slot");
        q.defer_gated(at(20), at(5), Some(newer), pkg(2));
        assert!(due(&mut q, 9, &queues).is_empty());
        let out = due(&mut q, 10, &queues);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].gate, Some(old));
        assert!(due(&mut q, 100, &queues).is_empty());
        assert_eq!(q.overdue_gated(at(100), &queues), 1);
    }

    #[test]
    fn gated_skip_preserves_deadline_cutoff() {
        let mut queues = vec![StateQueue::new(4)];
        let gate = publish(&mut queues, 1);
        let mut q = LazyReclaimQueue::new();
        q.defer_gated(at(10), at(0), Some(gate), pkg(1));
        defer(&mut q, 20, pkg(1));
        defer(&mut q, 300, pkg(1));
        // The blocked head must not hide the due ungated entry behind it,
        // and the not-yet-due tail must stay put.
        let out = due(&mut q, 50, &queues);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].gate, None);
        assert_eq!(q.entries.len(), 2);
    }

    #[test]
    fn drain_all_ignores_deadlines_and_gates() {
        let mut queues = vec![StateQueue::new(4)];
        let gate = publish(&mut queues, 1);
        let mut q = LazyReclaimQueue::new();
        defer(&mut q, 1_000_000, pkg(3));
        q.defer_gated(at(2_000_000), at(0), Some(gate), pkg(1));
        assert_eq!(q.drain_all().count(), 2);
        assert!(q.entries.is_empty());
    }

    #[test]
    fn parked_bytes_counts_what_is_still_parked() {
        let mut q = LazyReclaimQueue::new();
        defer(&mut q, 10, pkg(4));
        defer(&mut q, 20, pkg(2));
        assert_eq!(q.parked_bytes(), 6 * 4096);
        due(&mut q, 15, &[]);
        assert_eq!(q.parked_bytes(), 2 * 4096);
    }

    #[test]
    fn overdue_gated_counts_only_blocked_past_deadline() {
        let mut queues = vec![StateQueue::new(4)];
        let (s1, s2, s3) = (
            publish(&mut queues, 1),
            publish(&mut queues, 2),
            publish(&mut queues, 3),
        );
        let mut q = LazyReclaimQueue::new();
        q.defer_gated(at(10), at(0), Some(s1), pkg(1));
        q.defer_gated(at(20), at(0), Some(s2), pkg(1));
        defer(&mut q, 30, pkg(1));
        q.defer_gated(at(900), at(0), Some(s3), pkg(1));
        // At t=50 the two gated entries are overdue; the ungated one and
        // the not-yet-due one never count, whatever the gates say.
        assert_eq!(q.overdue_gated(at(50), &queues), 2);
        assert_eq!(q.overdue_gated(at(5), &queues), 0);
        retire(&mut queues, s1);
        assert_eq!(q.overdue_gated(at(50), &queues), 1);
        retire(&mut queues, s2);
        assert_eq!(q.overdue_gated(at(50), &queues), 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "monotone")]
    fn non_monotone_deadline_panics_in_debug() {
        let mut q = LazyReclaimQueue::new();
        defer(&mut q, 100, pkg(1));
        defer(&mut q, 50, pkg(1));
    }
}
