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
use latr_kernel::{FrameSpan, ReclaimPackage};
use latr_mem::{MmId, VaRange, Vpn};
use latr_sim::{Nanos, Time};
use std::collections::VecDeque;

/// `expedited` of a package pressure has not expedited.
const NOT_EXPEDITED: Time = Time::MAX;
/// The presence bit of `gate_queue`: the package is gated.
const GATED: u16 = 1 << 15;
/// `va_start` of a package that unblocks no VA range.
const NO_VA: u64 = u64::MAX;

/// One parked reclamation package, stored flat: a serving run parks
/// thousands at once, so every byte of the record counts thousands of
/// times at the heap peak. The deadline is not stored (it is `published`
/// plus the queue's grace), and no field is an `Option`: the gate is an
/// id, a queue and a slot with a presence bit, an unset expedite time is
/// [`Time::MAX`], and a package without a VA range has the start
/// `u64::MAX` (no page number reaches it).
#[derive(Clone, Copy, Debug)]
pub struct DeferredReclaim {
    /// When the covering state was published: the deadline's base, and
    /// the start of the reclaim latency.
    published: Time,
    /// When memory pressure first expedited the gate (feeds the
    /// `latr_expedite_latency_ns` tick-bound histogram at release), or
    /// [`NOT_EXPEDITED`].
    expedited: Time,
    /// The gating state's [`StateRef::id`]; 0 when ungated.
    gate_id: u64,
    /// The package's frames, as a span of the machine's reclaim FIFO.
    frames_start: u64,
    /// First page of the VA range to unblock, or [`NO_VA`].
    va_start: u64,
    frames_len: u32,
    va_pages: u32,
    mm: MmId,
    /// The gating state's queue index with [`GATED`] set; 0 when ungated.
    gate_queue: u16,
    /// The gating state's slot; 0 when ungated.
    gate_slot: u16,
}

const _: () = assert!(std::mem::size_of::<DeferredReclaim>() <= 56);

impl DeferredReclaim {
    /// Encodes `pkg`, published at `published` and gated on `gate`.
    ///
    /// # Panics
    ///
    /// Panics if the gate's queue index needs more than 15 bits or its
    /// slot more than 16, or if the VA range spans 2^32 pages or more or
    /// starts at page `u64::MAX`.
    fn new(published: Time, gate: Option<StateRef>, pkg: ReclaimPackage) -> Self {
        let (gate_id, gate_queue, gate_slot) = gate.map_or((0, 0, 0), |g| {
            let queue = u16::try_from(g.queue)
                .ok()
                .filter(|q| q & GATED == 0)
                .expect("a gate's queue index fits 15 bits");
            let slot = u16::try_from(g.slot)
                .expect("a gate's slot index fits 16 bits (`LatrConfig::validate`)");
            (g.id, queue | GATED, slot)
        });
        let (va_start, va_pages) = pkg.va.map_or((NO_VA, 0), |va| {
            assert_ne!(
                va.start.0, NO_VA,
                "a parked VA range starts below page u64::MAX"
            );
            let pages = u32::try_from(va.pages).expect("a parked VA range spans under 2^32 pages");
            (va.start.0, pages)
        });
        DeferredReclaim {
            published,
            expedited: NOT_EXPEDITED,
            gate_id,
            frames_start: pkg.frames.start,
            va_start,
            frames_len: pkg.frames.len,
            va_pages,
            mm: pkg.mm,
            gate_queue,
            gate_slot,
        }
    }

    /// When the covering state was published (for reclaim-latency stats).
    pub fn published(&self) -> Time {
        self.published
    }

    /// The Latr state whose bitmask must clear before release (`None`
    /// for ungated, deadline-only entries).
    pub fn gate(&self) -> Option<StateRef> {
        (self.gate_queue & GATED != 0).then_some(StateRef {
            queue: usize::from(self.gate_queue & !GATED),
            slot: usize::from(self.gate_slot),
            id: self.gate_id,
        })
    }

    /// When memory pressure first expedited the gate, if it has.
    pub fn expedited(&self) -> Option<Time> {
        (self.expedited != NOT_EXPEDITED).then_some(self.expedited)
    }

    /// Records that memory pressure expedited the gate at `now`, unless
    /// an earlier expedition already did.
    pub fn expedite(&mut self, now: Time) {
        debug_assert_ne!(now, NOT_EXPEDITED, "an expedite time below Time::MAX");
        if self.expedited == NOT_EXPEDITED {
            self.expedited = now;
        }
    }

    /// The frames and VA range to release.
    pub fn package(&self) -> ReclaimPackage {
        ReclaimPackage {
            mm: self.mm,
            frames: FrameSpan {
                start: self.frames_start,
                len: self.frames_len,
            },
            va: (self.va_start != NO_VA)
                .then(|| VaRange::new(Vpn(self.va_start), u64::from(self.va_pages))),
        }
    }

    /// Whether the gate still holds the package: the gating state still
    /// sits in its slot, with CPUs left to sweep.
    fn held(&self, queues: &[StateQueue]) -> bool {
        self.gate()
            .is_some_and(|g| queues[g.queue].get(g).is_some_and(|s| !s.cpus.is_empty()))
    }
}

/// A deadline-ordered queue of deferred [`ReclaimPackage`]s.
///
/// Every package waits the same grace past its publish (the policy's
/// `reclaim_ticks` ticks plus 1 ns), fixed by [`Self::fix_grace`] while
/// nothing is parked, so publish order is deadline order and each
/// record stores only its publish time. Gated entries whose state has
/// not retired are skipped in place and picked up on a later pass. The
/// frames parked are counted as packages come and go, so the per-tick
/// [`Self::parked_bytes`] sample reads one word; debug builds check the
/// count against a walk of every record.
#[derive(Debug, Default)]
pub struct LazyReclaimQueue {
    entries: VecDeque<DeferredReclaim>,
    /// What each package waits past its publish before it is due.
    grace: Nanos,
    /// Frames of every parked package.
    parked_frames: u64,
}

impl LazyReclaimQueue {
    /// Creates an empty queue with a zero grace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the grace every package waits past its publish.
    ///
    /// # Panics
    ///
    /// Panics if packages are parked under a different grace: their
    /// deadlines would move, and could fall out of publish order.
    pub fn fix_grace(&mut self, grace: Nanos) {
        assert!(
            self.entries.is_empty() || grace == self.grace,
            "the reclaim grace is fixed while packages are parked"
        );
        self.grace = grace;
    }

    /// When `entry` is due: its publish plus the grace.
    fn deadline(&self, entry: &DeferredReclaim) -> Time {
        entry.published + self.grace
    }

    /// Parks a package published at `published` until its deadline
    /// (`published` plus the grace) *and* until the Latr state `gate`
    /// (if any) has an empty CPU bitmask.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `published` is earlier than the most
    /// recently parked publish (the caller always passes the current
    /// time, which is monotone), as the deadlines would then not be. See
    /// [`DeferredReclaim`] for the limits of the encoding.
    pub fn defer_gated(&mut self, published: Time, gate: Option<StateRef>, pkg: ReclaimPackage) {
        if let Some(last) = self.entries.back() {
            debug_assert!(
                published >= last.published,
                "reclaim deadlines must be monotone"
            );
        }
        self.parked_frames += u64::from(pkg.frames.len);
        self.entries
            .push_back(DeferredReclaim::new(published, gate, pkg));
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
        while let Some(entry) = self.entries.get(i) {
            if self.deadline(entry) > now {
                break;
            }
            if entry.held(queues) {
                i += 1;
                continue;
            }
            let entry = self.entries.remove(i).expect("index in bounds");
            self.parked_frames -= u64::from(entry.frames_len);
            release(entry);
        }
    }

    /// Packages past their deadline but still held by their gate — the
    /// honest measure of gate-induced reclaim delay. Read-only: the policy
    /// counts this every reclamation tick (into `latr_gate_held`) whether
    /// or not a watchdog is configured, so the degradation counters stay
    /// truthful when `watchdog_ticks = 0`. Deadlines are in queue order,
    /// so the walk stops at the first one past `now`.
    pub fn overdue_gated(&self, now: Time, queues: &[StateQueue]) -> usize {
        self.entries
            .iter()
            .take_while(|d| self.deadline(d) <= now)
            .filter(|d| d.held(queues))
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
        self.parked_frames = 0;
        self.entries.drain(..).map(|d| d.package())
    }

    /// Bytes of physical memory currently parked (the §6.4 memory-overhead
    /// metric), assuming 4 KiB frames.
    pub fn parked_bytes(&self) -> u64 {
        debug_assert_eq!(
            self.parked_frames,
            self.parked_frames_by_walk(),
            "the running parked-frame count drifted from the parked records"
        );
        self.parked_frames * latr_mem::PAGE_SIZE
    }

    /// The spec of the running count: the frames of every parked record.
    fn parked_frames_by_walk(&self) -> u64 {
        self.entries.iter().map(|d| u64::from(d.frames_len)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{LatrState, StateKind};
    use latr_arch::{CpuId, CpuMask};

    /// The grace of the test queues: a package published at `t` is due
    /// at `t + GRACE`.
    const GRACE: Nanos = 5;

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

    /// An empty queue with the test grace.
    fn queue() -> LazyReclaimQueue {
        let mut q = LazyReclaimQueue::new();
        q.fix_grace(GRACE);
        q
    }

    /// Parks `pkg`, due at `deadline`, gated on `gate`.
    fn park(q: &mut LazyReclaimQueue, deadline: u64, gate: Option<StateRef>, pkg: ReclaimPackage) {
        q.defer_gated(at(deadline - GRACE), gate, pkg);
    }

    /// Parks `pkg` until `deadline` with no gate.
    fn defer(q: &mut LazyReclaimQueue, deadline: u64, pkg: ReclaimPackage) {
        park(q, deadline, None, pkg);
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

    /// Encodes `pkg` published at 7 and gated on `gate`, and decodes it.
    fn round_trip(gate: Option<StateRef>, pkg: ReclaimPackage) -> DeferredReclaim {
        let d = DeferredReclaim::new(at(7), gate, pkg);
        assert_eq!(d.published(), at(7));
        assert_eq!(d.gate(), gate);
        assert_eq!(d.package(), pkg);
        d
    }

    #[test]
    fn the_record_round_trips_a_gate_absent_or_present() {
        let ungated = round_trip(None, pkg(3));
        assert_eq!(ungated.gate(), None);
        for gate in [
            StateRef {
                queue: 0,
                slot: 0,
                id: 0,
            },
            StateRef {
                queue: 119,
                slot: 63,
                id: 60_000,
            },
            StateRef {
                queue: usize::from(!GATED),
                slot: usize::from(u16::MAX),
                id: u64::MAX,
            },
        ] {
            round_trip(Some(gate), pkg(1));
        }
    }

    #[test]
    fn the_record_keeps_the_first_expedite_time() {
        let mut d = round_trip(None, pkg(1));
        assert_eq!(d.expedited(), None);
        d.expedite(at(0));
        assert_eq!(d.expedited(), Some(at(0)), "time zero is a set time");
        d.expedite(at(40));
        assert_eq!(
            d.expedited(),
            Some(at(0)),
            "a later expedition keeps the first"
        );
        let mut late = round_trip(None, pkg(1));
        late.expedite(at(u64::MAX - 1));
        assert_eq!(late.expedited(), Some(at(u64::MAX - 1)));
    }

    #[test]
    fn the_record_round_trips_the_package_edges() {
        let no_va = ReclaimPackage {
            mm: MmId(u32::MAX),
            frames: FrameSpan::default(),
            va: None,
        };
        round_trip(None, no_va);
        let widest = ReclaimPackage {
            mm: MmId(23),
            frames: FrameSpan {
                start: u64::MAX - u64::from(u32::MAX),
                len: u32::MAX,
            },
            va: Some(VaRange::new(Vpn(u64::MAX - 1), u64::from(u32::MAX))),
        };
        round_trip(None, widest);
        let empty_range = ReclaimPackage {
            va: Some(VaRange::new(Vpn(0), 0)),
            ..no_va
        };
        round_trip(None, empty_range);
    }

    #[test]
    #[should_panic(expected = "under 2^32 pages")]
    fn a_va_range_past_the_page_count_bound_panics() {
        let wide = ReclaimPackage {
            va: Some(VaRange::new(Vpn(1), 1 << 32)),
            ..pkg(1)
        };
        DeferredReclaim::new(at(0), None, wide);
    }

    #[test]
    #[should_panic(expected = "fits 15 bits")]
    fn a_gate_queue_index_past_15_bits_panics() {
        let gate = StateRef {
            queue: usize::from(GATED),
            slot: 0,
            id: 1,
        };
        DeferredReclaim::new(at(0), Some(gate), pkg(1));
    }

    #[test]
    fn due_respects_deadlines() {
        let mut q = queue();
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
        let mut q = queue();
        defer(&mut q, 10, pkg(1));
        defer(&mut q, 20, pkg(1));
        defer(&mut q, 30, pkg(1));
        assert_eq!(due(&mut q, 25, &[]).len(), 2);
    }

    #[test]
    fn gated_entries_wait_for_their_state() {
        let mut queues = vec![StateQueue::new(4)];
        let (s7, s8) = (publish(&mut queues, 7), publish(&mut queues, 8));
        let mut q = queue();
        park(&mut q, 10, Some(s7), pkg(1));
        park(&mut q, 20, Some(s8), pkg(2));
        retire(&mut queues, s8);
        // State 7 still has CPUs pending: only state 8's package releases,
        // even though 7's deadline is earlier.
        let out = due(&mut q, 100, &queues);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].gate(), Some(s8));
        assert_eq!(q.entries.len(), 1);
        // Once the state retires the held package flows out.
        retire(&mut queues, s7);
        let out = due(&mut q, 100, &queues);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].gate(), Some(s7));
        assert!(q.entries.is_empty());
    }

    /// The gate is the state, not the slot: a package whose state retired
    /// releases at its deadline although a newer live state now holds the
    /// same slot, while the newer state's own package is held.
    #[test]
    fn a_reused_slot_releases_the_retired_gate_and_holds_the_live_one() {
        let mut queues = vec![StateQueue::new(1)];
        let old = publish(&mut queues, 7);
        let mut q = queue();
        park(&mut q, 10, Some(old), pkg(1));
        retire(&mut queues, old);
        let newer = publish(&mut queues, 8);
        assert_eq!(newer.slot, old.slot, "the newer state reuses the slot");
        park(&mut q, 20, Some(newer), pkg(2));
        assert!(due(&mut q, 9, &queues).is_empty());
        let out = due(&mut q, 10, &queues);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].gate(), Some(old));
        assert!(due(&mut q, 100, &queues).is_empty());
        assert_eq!(q.overdue_gated(at(100), &queues), 1);
    }

    #[test]
    fn gated_skip_preserves_deadline_cutoff() {
        let mut queues = vec![StateQueue::new(4)];
        let gate = publish(&mut queues, 1);
        let mut q = queue();
        park(&mut q, 10, Some(gate), pkg(1));
        defer(&mut q, 20, pkg(1));
        defer(&mut q, 300, pkg(1));
        // The blocked head must not hide the due ungated entry behind it,
        // and the not-yet-due tail must stay put.
        let out = due(&mut q, 50, &queues);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].gate(), None);
        assert_eq!(q.entries.len(), 2);
    }

    #[test]
    fn drain_all_ignores_deadlines_and_gates() {
        let mut queues = vec![StateQueue::new(4)];
        let gate = publish(&mut queues, 1);
        let mut q = queue();
        defer(&mut q, 1_000_000, pkg(3));
        park(&mut q, 2_000_000, Some(gate), pkg(1));
        assert_eq!(q.drain_all().count(), 2);
        assert!(q.entries.is_empty());
        assert_eq!(q.parked_bytes(), 0);
    }

    #[test]
    fn parked_bytes_counts_what_is_still_parked() {
        let mut queues = vec![StateQueue::new(4)];
        let gate = publish(&mut queues, 1);
        let mut q = queue();
        defer(&mut q, 10, pkg(4));
        park(&mut q, 12, Some(gate), pkg(3));
        defer(&mut q, 20, pkg(2));
        assert_eq!(q.parked_bytes(), 9 * 4096);
        due(&mut q, 15, &queues);
        assert_eq!(q.parked_bytes(), 5 * 4096, "the held package stays counted");
        retire(&mut queues, gate);
        due(&mut q, 15, &queues);
        assert_eq!(q.parked_bytes(), 2 * 4096);
        assert_eq!(q.parked_frames, q.parked_frames_by_walk());
    }

    #[test]
    fn overdue_gated_counts_only_blocked_past_deadline() {
        let mut queues = vec![StateQueue::new(4)];
        let (s1, s2, s3) = (
            publish(&mut queues, 1),
            publish(&mut queues, 2),
            publish(&mut queues, 3),
        );
        let mut q = queue();
        park(&mut q, 10, Some(s1), pkg(1));
        park(&mut q, 20, Some(s2), pkg(1));
        defer(&mut q, 30, pkg(1));
        park(&mut q, 900, Some(s3), pkg(1));
        // At t=50 the two gated entries are overdue; the ungated one and
        // the not-yet-due one never count, whatever the gates say.
        assert_eq!(q.overdue_gated(at(50), &queues), 2);
        assert_eq!(q.overdue_gated(at(5), &queues), 0);
        assert_eq!(q.overdue_gated(at(900), &queues), 3);
        retire(&mut queues, s1);
        assert_eq!(q.overdue_gated(at(50), &queues), 1);
        retire(&mut queues, s2);
        assert_eq!(q.overdue_gated(at(50), &queues), 0);
    }

    #[test]
    #[should_panic(expected = "fixed while packages are parked")]
    fn the_grace_cannot_move_under_parked_packages() {
        let mut q = queue();
        q.fix_grace(GRACE);
        defer(&mut q, 100, pkg(1));
        q.fix_grace(GRACE + 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "monotone")]
    fn non_monotone_deadline_panics_in_debug() {
        let mut q = queue();
        defer(&mut q, 100, pkg(1));
        defer(&mut q, 50, pkg(1));
    }
}
