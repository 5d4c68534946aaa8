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
//! deadline or not — while its state's CPU bitmask is still non-empty.
//! The deadline alone is only a proof of safety when every core actually
//! swept; under a stalled sweeper or a lost IPI it is not, and releasing
//! by deadline would free frames a remote TLB still caches. The sweep
//! watchdog bounds how long a gate can hold.

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
    /// The Latr state id whose bitmask must clear before release (`None`
    /// for ungated, deadline-only entries).
    pub gate: Option<u64>,
    /// The frames and VA range to release.
    pub pkg: ReclaimPackage,
}

/// A deadline-ordered queue of deferred [`ReclaimPackage`]s.
///
/// Entries are pushed with monotonically non-decreasing deadlines (each is
/// `publish_time + 2 ticks`); gated entries whose state has not retired
/// are skipped in place and picked up on a later pass.
#[derive(Debug, Default)]
pub struct LazyReclaimQueue {
    entries: VecDeque<DeferredReclaim>,
    deferred_frames: u64,
}

impl LazyReclaimQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Parks a package until `deadline`, with no sweep gate.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `deadline` is earlier than the most
    /// recently pushed deadline (the caller always computes `now + 2
    /// ticks`, which is monotone).
    pub fn defer(&mut self, deadline: Time, pkg: ReclaimPackage) {
        self.defer_gated(deadline, deadline, None, pkg);
    }

    /// Parks a package until `deadline` *and* until the Latr state
    /// `gate` (if any) has an empty CPU bitmask.
    pub fn defer_gated(
        &mut self,
        deadline: Time,
        published: Time,
        gate: Option<u64>,
        pkg: ReclaimPackage,
    ) {
        if let Some(last) = self.entries.back() {
            debug_assert!(
                deadline >= last.deadline,
                "reclaim deadlines must be monotone"
            );
        }
        self.deferred_frames += u64::from(pkg.frames.len);
        self.entries.push_back(DeferredReclaim {
            deadline,
            published,
            gate,
            pkg,
        });
    }

    /// Pops every package whose deadline is at or before `now` and whose
    /// gate (if any) reports unblocked, handing each to `release` in
    /// queue order. `is_blocked` is queried with the gating state id;
    /// gated-and-blocked entries stay parked, so the queue is scanned past
    /// them up to the first not-yet-due deadline.
    pub fn pop_due(
        &mut self,
        now: Time,
        is_blocked: impl Fn(u64) -> bool,
        mut release: impl FnMut(DeferredReclaim),
    ) {
        let mut i = 0;
        while i < self.entries.len() {
            if self.entries[i].deadline > now {
                break;
            }
            if self.entries[i].gate.is_some_and(&is_blocked) {
                i += 1;
                continue;
            }
            release(self.entries.remove(i).expect("index in bounds"));
        }
    }

    /// Packages past their deadline but still held by a blocked gate —
    /// the honest measure of gate-induced reclaim delay. Read-only: the
    /// policy counts this every reclamation tick (into `latr_gate_held`)
    /// whether or not a watchdog is configured, so the degradation
    /// counters stay truthful when `watchdog_ticks = 0`.
    pub fn overdue_gated(&self, now: Time, is_blocked: impl Fn(u64) -> bool) -> usize {
        self.entries
            .iter()
            .filter(|d| d.deadline <= now && d.gate.is_some_and(&is_blocked))
            .count()
    }

    /// State ids currently gating at least one parked package (pressure
    /// expedition targets exactly these — sweeping a state that gates
    /// nothing frees no memory).
    pub fn gate_ids(&self) -> impl Iterator<Item = u64> + '_ {
        self.entries.iter().filter_map(|d| d.gate)
    }

    /// Drains everything regardless of deadline or gate (end of run — the
    /// machine is quiescing, so no TLB can touch the parked frames again).
    pub fn drain_all(&mut self) -> impl Iterator<Item = ReclaimPackage> + '_ {
        self.entries.drain(..).map(|d| d.pkg)
    }

    /// Packages currently parked.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing is parked.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total frames ever deferred through this queue.
    pub fn total_deferred_frames(&self) -> u64 {
        self.deferred_frames
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

    /// The packages [`LazyReclaimQueue::pop_due`] releases, in order.
    fn due(
        q: &mut LazyReclaimQueue,
        now: Time,
        is_blocked: impl Fn(u64) -> bool,
    ) -> Vec<DeferredReclaim> {
        let mut out = Vec::new();
        q.pop_due(now, is_blocked, |d| out.push(d));
        out
    }

    #[test]
    fn due_respects_deadlines() {
        let mut q = LazyReclaimQueue::new();
        q.defer(Time::from_ns(100), pkg(1));
        q.defer(Time::from_ns(200), pkg(2));
        assert!(due(&mut q, Time::from_ns(99), |_| false).is_empty());
        let first = due(&mut q, Time::from_ns(100), |_| false);
        assert_eq!(first.len(), 1);
        assert_eq!(q.len(), 1);
        let second = due(&mut q, Time::from_ns(500), |_| false);
        assert_eq!(second.len(), 1);
        assert!(q.is_empty());
    }

    #[test]
    fn due_pops_multiple_at_once() {
        let mut q = LazyReclaimQueue::new();
        q.defer(Time::from_ns(10), pkg(1));
        q.defer(Time::from_ns(20), pkg(1));
        q.defer(Time::from_ns(30), pkg(1));
        assert_eq!(due(&mut q, Time::from_ns(25), |_| false).len(), 2);
    }

    #[test]
    fn gated_entries_wait_for_their_state() {
        let mut q = LazyReclaimQueue::new();
        q.defer_gated(Time::from_ns(10), Time::from_ns(0), Some(7), pkg(1));
        q.defer_gated(Time::from_ns(20), Time::from_ns(5), Some(8), pkg(2));
        // State 7 still has CPUs pending: only state 8's package releases,
        // even though 7's deadline is earlier.
        let out = due(&mut q, Time::from_ns(100), |id| id == 7);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].gate, Some(8));
        assert_eq!(q.len(), 1);
        // Once the state retires the held package flows out.
        let out = due(&mut q, Time::from_ns(100), |_| false);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].gate, Some(7));
        assert!(q.is_empty());
    }

    #[test]
    fn gated_skip_preserves_deadline_cutoff() {
        let mut q = LazyReclaimQueue::new();
        q.defer_gated(Time::from_ns(10), Time::from_ns(0), Some(1), pkg(1));
        q.defer(Time::from_ns(20), pkg(1));
        q.defer(Time::from_ns(300), pkg(1));
        // The blocked head must not hide the due ungated entry behind it,
        // and the not-yet-due tail must stay put.
        let out = due(&mut q, Time::from_ns(50), |_| true);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].gate, None);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn drain_all_ignores_deadlines_and_gates() {
        let mut q = LazyReclaimQueue::new();
        q.defer(Time::from_ns(1_000_000), pkg(3));
        q.defer_gated(Time::from_ns(2_000_000), Time::from_ns(0), Some(1), pkg(1));
        assert_eq!(q.drain_all().count(), 2);
        assert!(q.is_empty());
    }

    #[test]
    fn accounting() {
        let mut q = LazyReclaimQueue::new();
        q.defer(Time::from_ns(10), pkg(4));
        q.defer(Time::from_ns(20), pkg(2));
        assert_eq!(q.total_deferred_frames(), 6);
        assert_eq!(q.parked_bytes(), 6 * 4096);
        due(&mut q, Time::from_ns(15), |_| false);
        assert_eq!(q.parked_bytes(), 2 * 4096);
        // Total is cumulative, not current.
        assert_eq!(q.total_deferred_frames(), 6);
    }

    #[test]
    fn overdue_gated_counts_only_blocked_past_deadline() {
        let mut q = LazyReclaimQueue::new();
        q.defer_gated(Time::from_ns(10), Time::from_ns(0), Some(1), pkg(1));
        q.defer_gated(Time::from_ns(20), Time::from_ns(0), Some(2), pkg(1));
        q.defer(Time::from_ns(30), pkg(1));
        q.defer_gated(Time::from_ns(900), Time::from_ns(0), Some(3), pkg(1));
        // At t=50 the two gated entries are overdue; the ungated one and
        // the not-yet-due one never count, whatever the gates say.
        assert_eq!(q.overdue_gated(Time::from_ns(50), |_| true), 2);
        assert_eq!(q.overdue_gated(Time::from_ns(50), |id| id == 2), 1);
        assert_eq!(q.overdue_gated(Time::from_ns(50), |_| false), 0);
        assert_eq!(q.overdue_gated(Time::from_ns(5), |_| true), 0);
        let gates: Vec<u64> = q.gate_ids().collect();
        assert_eq!(gates, vec![1, 2, 3]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "monotone")]
    fn non_monotone_deadline_panics_in_debug() {
        let mut q = LazyReclaimQueue::new();
        q.defer(Time::from_ns(100), pkg(1));
        q.defer(Time::from_ns(50), pkg(1));
    }
}
