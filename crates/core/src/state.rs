//! Latr states and the per-core cyclic state queue (§4.1).
//!
//! Each entry holds "the addresses start and end of the virtual address for
//! the TLB shootdown, a pointer to the `mm_struct`, a bitmask to identify
//! the remote CPUs involved, flags to identify the reason for the
//! shootdown, and an active flag". Each core owns a queue of 64 such
//! states; remote cores sweep all queues at their scheduler tick or context
//! switch, invalidate locally, and clear their bit — the last core clears
//! the active flag, recycling the slot.
//!
//! This module is the *simulation-side* representation; [`crate::rt`]
//! contains the lock-free concurrent twin.

use latr_arch::{CpuId, CpuMask};
use latr_kernel::{Escalation, TxnId};
use latr_mem::{MmId, VaRange};
use latr_sim::Time;

/// Why a state was published — the paper's `flags` field.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StateKind {
    /// A free operation (munmap / madvise): PTEs already cleared, frames
    /// parked on the lazy-reclaim list.
    Free,
    /// An AutoNUMA migration hint-unmap: the PTE is *not* cleared yet; the
    /// first sweeping core performs the unmap (§4.3).
    Migration,
}

/// One Latr state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LatrState {
    /// Run-unique id assigned by the publisher: the generation check of
    /// a [`StateRef`] to this state.
    pub id: u64,
    /// The virtual range to invalidate.
    pub range: VaRange,
    /// The address space it belongs to (the `mm` pointer).
    pub mm: MmId,
    /// Why the shootdown is needed.
    pub kind: StateKind,
    /// CPUs that still have to invalidate.
    pub cpus: CpuMask,
    /// For [`StateKind::Migration`]: whether the first sweeper has already
    /// cleared the PTE.
    pub pte_done: bool,
    /// When the state was published (for bounded-staleness checks).
    pub published: Time,
    /// The escalation round finishing this state by IPI, while one is in
    /// flight, and why it was sent (the cause shares the id's padding, so
    /// the state stays 88 bytes).
    pub round: Option<(TxnId, Escalation)>,
}

/// A handle to one published state: its owning core's queue, the slot
/// it was published into, and its id. The id is the generation check: a
/// slot that a newer state reuses after this one retired no longer
/// matches, so [`StateQueue::get`] answers `None`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StateRef {
    /// Index of the owning core's queue.
    pub queue: usize,
    /// Slot index within that queue.
    pub slot: usize,
    /// The state's [`LatrState::id`].
    pub id: u64,
}

/// The slot indices named by occupancy word `w`, whose bits are `word`,
/// in ascending order. Takes the word by value, so a walk may free slots
/// as it goes.
fn occupied(w: usize, mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let idx = w * 64 + word.trailing_zeros() as usize;
            word &= word - 1;
            idx
        })
    })
}

/// What [`StateQueue::sweep_cpu`] hands its callback for each state
/// naming the sweeper: the fields the apply step needs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SweepHit {
    /// The address space the state belongs to.
    pub mm: MmId,
    /// The virtual range to invalidate.
    pub range: VaRange,
    /// Why the shootdown is needed.
    pub kind: StateKind,
    /// The state's `pte_done` before this sweep: a migration state with
    /// `false` here makes this sweeper the first, which clears the PTE.
    pub pte_done: bool,
}

/// A per-core cyclic queue of Latr states with a fixed number of slots.
///
/// The slots and occupancy words are built on the first publish: a queue
/// that never held a state (an idle sweeper's) holds no storage, and
/// sweeps, [`iter_active`](StateQueue::iter_active) and
/// [`get`](StateQueue::get) find nothing in it.
///
/// ```
/// use latr_core::{StateQueue, LatrState, StateKind};
/// use latr_arch::{CpuMask, CpuId};
/// use latr_mem::{VaRange, Vpn, MmId};
/// use latr_sim::Time;
///
/// let mut q = StateQueue::new(2);
/// let state = LatrState {
///     id: 0,
///     range: VaRange::new(Vpn(0x10), 1),
///     mm: MmId(0),
///     kind: StateKind::Free,
///     cpus: CpuMask::from_cpus([CpuId(1)]),
///     pte_done: true,
///     published: Time::ZERO,
///     round: None,
/// };
/// assert!(q.publish(state.clone()).is_some());
/// assert!(q.publish(state.clone()).is_some());
/// assert!(q.publish(state).is_none()); // full -> caller falls back to IPIs
/// ```
#[derive(Clone, Debug, Default, Eq)]
pub struct StateQueue {
    /// Empty until the first publish, then `capacity` slots.
    slots: Vec<Option<LatrState>>,
    capacity: usize,
    head: usize,
    /// Occupancy bitmap — bit `i` set iff `slots[i]` is active. Publish
    /// probes and active-slot iteration run on words instead of walking
    /// `Option`s.
    occ: Vec<u64>,
    active: usize,
    /// Active states with [`StateKind::Migration`] — lets the hint-fault
    /// gate answer "no migrations anywhere" without scanning slots.
    migrations: usize,
}

impl StateQueue {
    /// Creates a queue with `capacity` slots (64 in the paper). Allocates
    /// nothing: the first publish builds the slots.
    pub fn new(capacity: usize) -> Self {
        StateQueue {
            capacity,
            ..StateQueue::default()
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of active states.
    pub fn active_count(&self) -> usize {
        self.active
    }

    /// Number of active [`StateKind::Migration`] states.
    pub fn active_migrations(&self) -> usize {
        self.migrations
    }

    #[inline]
    fn mark_occupied(&mut self, idx: usize, kind: StateKind) {
        self.occ[idx / 64] |= 1 << (idx % 64);
        self.active += 1;
        if kind == StateKind::Migration {
            self.migrations += 1;
        }
    }

    #[inline]
    fn mark_free(&mut self, idx: usize, kind: StateKind) {
        self.occ[idx / 64] &= !(1 << (idx % 64));
        self.active -= 1;
        if kind == StateKind::Migration {
            self.migrations -= 1;
        }
    }

    /// Publishes a state into a free slot, cyclically from the head.
    /// Returns the slot index, or `None` when every slot is active — the
    /// caller must fall back to IPIs (§4.2).
    pub fn publish(&mut self, state: LatrState) -> Option<usize> {
        let n = self.capacity;
        if self.active == n {
            return None;
        }
        if self.slots.is_empty() {
            self.slots = vec![None; n];
            self.occ = vec![0; n.div_ceil(64)];
        }
        // Word-scan for the first free slot at or after the head,
        // wrapping. Equivalent to the per-slot probe loop, minus the
        // Option walks.
        let mut idx = self.head;
        loop {
            let free = !self.occ[idx / 64] >> (idx % 64);
            if free & 1 != 0 {
                break;
            }
            // Skip to the next zero bit within this word, or to the next
            // word boundary when the rest of the word is occupied.
            let skip = if free == 0 {
                64 - idx % 64
            } else {
                free.trailing_zeros() as usize
            };
            idx += skip;
            if idx >= n {
                idx = 0;
            }
        }
        let kind = state.kind;
        self.slots[idx] = Some(state);
        self.mark_occupied(idx, kind);
        self.head = (idx + 1) % n;
        Some(idx)
    }

    /// The state `r` names, if its slot still holds it.
    pub fn get(&self, r: StateRef) -> Option<&LatrState> {
        self.slots.get(r.slot)?.as_ref().filter(|s| s.id == r.id)
    }

    /// [`get`](StateQueue::get), mutably.
    pub fn get_mut(&mut self, r: StateRef) -> Option<&mut LatrState> {
        self.slots
            .get_mut(r.slot)?
            .as_mut()
            .filter(|s| s.id == r.id)
    }

    /// Iterates over active states mutably (the sweep path).
    pub fn iter_active_mut(&mut self) -> impl Iterator<Item = &mut LatrState> {
        self.slots.iter_mut().filter_map(|s| s.as_mut())
    }

    /// Iterates over active states in slot order, walking the occupancy
    /// bitmap: a mostly-empty queue costs one word read per 64 slots.
    pub fn iter_active(&self) -> impl Iterator<Item = &LatrState> {
        self.iter_slots().map(|(_, s)| s)
    }

    /// [`iter_active`](StateQueue::iter_active), with each state's slot.
    pub fn iter_slots(&self) -> impl Iterator<Item = (usize, &LatrState)> {
        self.occ
            .iter()
            .enumerate()
            .flat_map(|(w, &word)| occupied(w, word))
            .map(|idx| {
                let s = self.slots[idx]
                    .as_ref()
                    .expect("occupancy bit names an active slot");
                (idx, s)
            })
    }

    /// The sweep by `cpu` over this queue, in one walk of the occupancy
    /// bits. For each active state naming `cpu` it clears the bit,
    /// snapshots the state (with `pte_done` as it was *before* this
    /// sweep), marks a migration's PTE done and hands the snapshot to
    /// `f`. Every state whose mask is empty after that step is retired,
    /// exactly as a following [`retire_completed`] would — on a visit
    /// with no hit too, where the two-pass sweep this replaced skipped
    /// the retire. That only matters for a state emptied out of band and
    /// left active, which only [`clear_cpu_everywhere`] does. Returns how
    /// many states named `cpu`.
    ///
    /// `f` runs before the state's slot is retired, so it must not need
    /// the queue; the policy's apply step only touches the machine.
    ///
    /// [`retire_completed`]: StateQueue::retire_completed
    /// [`clear_cpu_everywhere`]: StateQueue::clear_cpu_everywhere
    pub fn sweep_cpu(&mut self, cpu: CpuId, mut f: impl FnMut(SweepHit)) -> usize {
        let mut hits = 0;
        for w in 0..self.occ.len() {
            for idx in occupied(w, self.occ[w]) {
                let s = self.slots[idx]
                    .as_mut()
                    .expect("occupancy bit names an active slot");
                if s.cpus.test(cpu) {
                    s.cpus.clear(cpu);
                    let hit = SweepHit {
                        mm: s.mm,
                        range: s.range,
                        kind: s.kind,
                        pte_done: s.pte_done,
                    };
                    if s.kind == StateKind::Migration {
                        s.pte_done = true;
                    }
                    hits += 1;
                    f(hit);
                }
                if s.cpus.is_empty() {
                    let kind = s.kind;
                    self.slots[idx] = None;
                    self.mark_free(idx, kind);
                }
            }
        }
        hits
    }

    /// Deactivates every state whose CPU mask has emptied (the "last core
    /// resets the active flag" step). Returns how many were retired.
    pub fn retire_completed(&mut self) -> usize {
        let mut retired = 0;
        for w in 0..self.occ.len() {
            for idx in occupied(w, self.occ[w]) {
                let s = self.slots[idx]
                    .as_ref()
                    .expect("occupancy bit names an active slot");
                if s.cpus.is_empty() {
                    let kind = s.kind;
                    self.slots[idx] = None;
                    self.mark_free(idx, kind);
                    retired += 1;
                }
            }
        }
        retired
    }

    /// Clears `cpu`'s bit in every active state, without invalidating
    /// anything and without retiring the states it empties (a later
    /// [`retire_completed`](StateQueue::retire_completed) or sweep does).
    /// No simulator path calls it: the tests use it to model an
    /// out-of-band mask clear.
    pub fn clear_cpu_everywhere(&mut self, cpu: CpuId) {
        for s in self.iter_active_mut() {
            s.cpus.clear(cpu);
        }
    }

    /// Removes every state (end of run). Built slots stay built.
    pub fn clear(&mut self) {
        for slot in &mut self.slots {
            *slot = None;
        }
        self.occ.fill(0);
        self.active = 0;
        self.migrations = 0;
        self.head = 0;
    }
}

/// Equal when the two queues hold the same states in the same slots with
/// the same head: a queue whose slots were built and emptied equals one
/// that never built them.
impl PartialEq for StateQueue {
    fn eq(&self, other: &Self) -> bool {
        (self.capacity, self.head, self.active, self.migrations)
            == (other.capacity, other.head, other.active, other.migrations)
            && self.iter_slots().eq(other.iter_slots())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use latr_mem::Vpn;

    #[test]
    fn a_state_stays_88_bytes() {
        assert_eq!(std::mem::size_of::<LatrState>(), 88);
    }

    fn state(cpu_bits: &[u16]) -> LatrState {
        LatrState {
            id: 0,
            range: VaRange::new(Vpn(0x100), 2),
            mm: MmId(0),
            kind: StateKind::Free,
            cpus: cpu_bits.iter().map(|&c| CpuId(c)).collect(),
            pte_done: true,
            published: Time::ZERO,
            round: None,
        }
    }

    #[test]
    fn publish_fills_slots_cyclically() {
        let mut q = StateQueue::new(3);
        assert_eq!(q.publish(state(&[1])), Some(0));
        assert_eq!(q.publish(state(&[1])), Some(1));
        assert_eq!(q.publish(state(&[1])), Some(2));
        assert_eq!(q.active_count(), 3);
        assert!(q.publish(state(&[1])).is_none());
    }

    #[test]
    fn retire_frees_slots_for_reuse() {
        let mut q = StateQueue::new(2);
        q.publish(state(&[1]));
        q.publish(state(&[2]));
        // Core 1 sweeps: first state's mask empties.
        for s in q.iter_active_mut() {
            s.cpus.clear(CpuId(1));
        }
        assert_eq!(q.retire_completed(), 1);
        assert_eq!(q.active_count(), 1);
        assert!(q.publish(state(&[3])).is_some());
    }

    #[test]
    fn head_advances_past_published_slot() {
        let mut q = StateQueue::new(3);
        q.publish(state(&[1])); // slot 0
                                // Retire it.
        for s in q.iter_active_mut() {
            s.cpus.clear(CpuId(1));
        }
        q.retire_completed();
        // Next publish goes to slot 1 (head moved), not back to 0.
        assert_eq!(q.publish(state(&[1])), Some(1));
    }

    #[test]
    fn clear_cpu_everywhere_empties_masks() {
        let mut q = StateQueue::new(2);
        q.publish(state(&[1, 2]));
        q.publish(state(&[1]));
        q.clear_cpu_everywhere(CpuId(1));
        let remaining: Vec<usize> = q.iter_active().map(|s| s.cpus.count()).collect();
        assert_eq!(remaining, vec![1, 0]);
    }

    #[test]
    fn sweep_cpu_snapshots_then_retires_emptied_states() {
        let mut q = StateQueue::new(3);
        let mut mig = state(&[1]);
        mig.kind = StateKind::Migration;
        mig.pte_done = false;
        q.publish(mig);
        q.publish(state(&[1, 2]));
        q.publish(state(&[2]));
        let mut seen = Vec::new();
        assert_eq!(q.sweep_cpu(CpuId(1), |hit| seen.push(hit)), 2);
        // The snapshot carries `pte_done` from before the sweep.
        assert_eq!(
            seen.iter()
                .map(|h| (h.kind, h.pte_done))
                .collect::<Vec<_>>(),
            vec![(StateKind::Migration, false), (StateKind::Free, true)]
        );
        // The migration state emptied and retired; the others live on.
        assert_eq!((q.active_count(), q.active_migrations()), (2, 0));
        assert_eq!(q.sweep_cpu(CpuId(1), |_| unreachable!()), 0);
        assert_eq!(q.publish(state(&[1])), Some(0));
    }

    #[test]
    fn a_reused_slot_no_longer_matches_the_old_handle() {
        let mut q = StateQueue::new(1);
        let slot = q.publish(state(&[1])).unwrap();
        let old = StateRef {
            queue: 0,
            slot,
            id: 0,
        };
        assert!(q.get(old).is_some());
        q.clear_cpu_everywhere(CpuId(1));
        q.retire_completed();
        assert!(q.get(old).is_none());
        let mut newer = state(&[2]);
        newer.id = 1;
        assert_eq!(q.publish(newer), Some(slot));
        assert!(q.get(old).is_none() && q.get_mut(old).is_none());
        assert_eq!(q.get(StateRef { id: 1, ..old }).map(|s| s.id), Some(1));
    }

    #[test]
    fn clear_resets_everything() {
        let mut q = StateQueue::new(2);
        q.publish(state(&[1]));
        q.clear();
        assert_eq!(q.active_count(), 0);
        assert_eq!(q.publish(state(&[1])), Some(0));
    }

    #[test]
    fn a_never_published_queue_holds_nothing_until_its_first_publish() {
        let mut q = StateQueue::new(64);
        assert_eq!(q.capacity(), 64);
        assert!(q.slots.is_empty() && q.occ.is_empty(), "slots built early");
        assert_eq!(q.sweep_cpu(CpuId(1), |_| unreachable!()), 0);
        assert_eq!(q.retire_completed(), 0);
        q.clear_cpu_everywhere(CpuId(1));
        assert_eq!(q.iter_active().count(), 0);
        let r = StateRef {
            queue: 0,
            slot: 5,
            id: 0,
        };
        assert!(q.get(r).is_none() && q.get_mut(r).is_none());
        q.clear();
        assert!(q.slots.is_empty(), "sweeps and clears build no slots");
        assert_eq!(q, StateQueue::new(64));
        let head = q.head;
        assert_eq!(q.publish(state(&[1])), Some(head));
        assert_eq!((q.slots.len(), q.occ.len(), q.head), (64, 1, 1));
        assert!(q.get(StateRef { slot: 0, ..r }).is_some());
        // Built and emptied again, it equals a queue that never built.
        q.clear();
        assert_eq!(q, StateQueue::new(64));
    }

    #[test]
    fn zero_capacity_queue_always_overflows() {
        let mut q = StateQueue::new(0);
        assert!(q.publish(state(&[1])).is_none());
    }

    #[test]
    fn migration_counter_tracks_publish_retire_clear() {
        let mut q = StateQueue::new(4);
        let mut mig = state(&[1]);
        mig.kind = StateKind::Migration;
        q.publish(mig.clone());
        q.publish(state(&[2]));
        q.publish(mig);
        assert_eq!(q.active_migrations(), 2);
        q.clear_cpu_everywhere(CpuId(1));
        assert_eq!(q.retire_completed(), 2);
        assert_eq!(q.active_migrations(), 0);
        assert_eq!(q.active_count(), 1);
        q.clear();
        assert_eq!((q.active_count(), q.active_migrations()), (0, 0));
    }

    /// The word-scan publish must choose the same slot the original
    /// cyclic per-slot probe would: the first free slot at or after the
    /// head, wrapping. 100 slots spans a full occupancy word plus a
    /// partial tail word, exercising both the intra-word skip and the
    /// phantom-free bits past capacity.
    #[test]
    fn word_scan_publish_matches_linear_probe() {
        let mut q = StateQueue::new(100);
        let mut rng = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut shadow: Vec<bool> = vec![false; 100];
        let mut head = 0usize;
        for _ in 0..4000 {
            if next() % 3 == 0 {
                // Retire a random occupied slot by emptying its mask.
                let victim = (next() % 100) as usize;
                if shadow[victim] {
                    q.slots[victim].as_mut().unwrap().cpus.reset();
                    assert_eq!(q.retire_completed(), 1);
                    shadow[victim] = false;
                }
            }
            let expected = (0..100)
                .map(|probe| (head + probe) % 100)
                .find(|&idx| !shadow[idx]);
            let got = q.publish(state(&[1]));
            assert_eq!(got, expected);
            if let Some(idx) = got {
                shadow[idx] = true;
                head = (idx + 1) % 100;
            }
            assert_eq!(q.active_count(), shadow.iter().filter(|&&b| b).count());
        }
    }
}
