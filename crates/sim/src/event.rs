//! Deterministic event queue.
//!
//! Two interchangeable backends deliver the exact same `(time, sequence)`
//! order, which makes every simulation run reproducible from its seed and
//! configuration:
//!
//! * [`QueueBackend::Fast`] — a calendar (bucket) queue keyed on the event
//!   instant. `schedule`/`pop`/`peek_time` are O(1) amortised: the heap
//!   that used to dominate large-topology runs (and its O(n) cancel-aware
//!   peek) is gone from the hot path. Buckets are pre-sized arenas that
//!   keep their capacity across drains, so steady-state operation does not
//!   touch the allocator.
//! * [`QueueBackend::Reference`] — the original binary min-heap with the
//!   linear cancel-aware peek, kept alive as the executable specification.
//!   The differential suite (`tests/differential.rs`) runs both backends
//!   on identical inputs and asserts bit-identical behaviour.
//!
//! The default backend is `Fast`. Both backends are always compiled, so
//! one process can construct and compare the two.

use crate::time::Time;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};

/// Identifier of a scheduled event, unique within one [`EventQueue`].
///
/// Can be used with [`EventQueue::cancel`] to lazily remove a scheduled
/// event before it fires.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EventId(u64);

/// An event plus its scheduling metadata, as stored inside the queue.
#[derive(Debug)]
pub struct ScheduledEvent<E> {
    /// When the event fires.
    pub time: Time,
    /// Queue-unique id, also the tiebreaker for same-instant events.
    pub id: EventId,
    /// The caller-supplied payload.
    pub payload: E,
}

impl<E> PartialEq for ScheduledEvent<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.id == other.id
    }
}
impl<E> Eq for ScheduledEvent<E> {}

impl<E> PartialOrd for ScheduledEvent<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for ScheduledEvent<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap and we want earliest-first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.id.cmp(&self.id))
    }
}

/// Which event-queue implementation an [`EventQueue`] runs on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum QueueBackend {
    /// Calendar/bucket queue: the production hot path and the default.
    #[default]
    Fast,
    /// Binary heap with linear cancel-aware peek: the executable spec.
    Reference,
}

/// Nanoseconds per calendar bucket (512 ns): small enough that a bucket
/// holds a handful of events even at 120 simulated cores.
const BUCKET_SHIFT: u32 = 9;
/// Buckets in the ring: 4096 × 512 ns ≈ 2.1 ms of horizon, comfortably
/// above the 1 ms scheduler-tick period that dominates scheduling deltas.
const NUM_BUCKETS: usize = 1 << 12;
const BUCKET_MASK: u64 = NUM_BUCKETS as u64 - 1;
const OCC_WORDS: usize = NUM_BUCKETS / 64;
/// Entries each ring bucket holds without allocating (24 B apiece, so the
/// warm ring costs 4096 × 16 × 24 B ≈ 1.5 MiB — constant per machine).
const BUCKET_PREALLOC: usize = 16;

/// A bucketed event's key plus the slab handle of its payload. Buckets
/// and the far heap shuffle these 24-byte `Copy` records; the payload sits
/// still in the arena until delivery.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Entry {
    time: Time,
    id: EventId,
    handle: u32,
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed, like `ScheduledEvent`: earliest-first out of a max-heap.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.id.cmp(&self.id))
    }
}

/// The calendar backend: a ring of time buckets over a far-future
/// overflow heap, with payloads parked in a free-listed slab arena.
///
/// Invariants (checked in debug builds):
/// * every bucketed event's absolute bucket index lies in
///   `[cur, cur + NUM_BUCKETS)`, so ring slots are unambiguous;
/// * every event in `far` was beyond that horizon when it was filed and is
///   migrated into the ring (at most once — `cur` is monotone while events
///   are pending) as the cursor approaches it;
/// * every `Entry::handle` in a bucket or the far heap names a `Some` slot
///   in `slots`, and every `Some` slot is named by exactly one entry.
///
/// Steady state is allocation-free: delivered handles go on the free list
/// and bucket `Vec`s keep their capacity across drains, so a stable
/// pending-event population recycles storage instead of touching the
/// allocator. Every ring bucket is pre-sized at construction — event
/// phases drift across the ring over simulated time, so lazily-grown
/// buckets would keep first-touching virgin slots arbitrarily deep into
/// a run. Only a bucket holding more than [`BUCKET_PREALLOC`]
/// same-512ns-window events (a wide same-instant broadcast) ever grows,
/// and that growth is monotone per slot.
#[derive(Debug)]
struct Calendar<E> {
    /// Ring of buckets, each sorted *descending* by `(time, id)` so the
    /// minimum pops from the end in O(1).
    buckets: Vec<Vec<Entry>>,
    /// One occupancy bit per bucket: finding the next non-empty bucket is
    /// a word scan, not a ring walk.
    occ: [u64; OCC_WORDS],
    /// Second occupancy level: bit `w` set iff `occ[w] != 0`. `OCC_WORDS`
    /// is exactly 64, so one u64 summarises the whole ring and
    /// `next_occupied` is O(1) instead of a word walk — the scan cost that
    /// made sparse (few-core) runs slower than the reference heap.
    summary: u64,
    /// Absolute index of the earliest possibly-occupied bucket.
    cur: u64,
    /// Events currently in the ring.
    near: usize,
    /// Events beyond the ring horizon (keys only; payloads in `slots`).
    far: BinaryHeap<Entry>,
    /// The payload arena. `free` lists the `None` slots for reuse.
    slots: Vec<Option<E>>,
    free: Vec<u32>,
}

const _: () = assert!(OCC_WORDS == 64, "summary word covers the whole ring");

impl<E> Calendar<E> {
    fn new() -> Self {
        Calendar {
            buckets: (0..NUM_BUCKETS)
                .map(|_| Vec::with_capacity(BUCKET_PREALLOC))
                .collect(),
            occ: [0; OCC_WORDS],
            summary: 0,
            cur: 0,
            near: 0,
            far: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.near + self.far.len()
    }

    fn bucket_of(time: Time) -> u64 {
        time.as_ns() >> BUCKET_SHIFT
    }

    /// Parks a payload in the arena, reusing a freed slot when one exists.
    fn arena_alloc(&mut self, payload: E) -> u32 {
        match self.free.pop() {
            Some(h) => {
                debug_assert!(self.slots[h as usize].is_none());
                self.slots[h as usize] = Some(payload);
                h
            }
            None => {
                let h = u32::try_from(self.slots.len()).expect("arena handle overflow");
                self.slots.push(Some(payload));
                h
            }
        }
    }

    /// Takes a payload out of the arena and recycles its slot.
    fn arena_take(&mut self, handle: u32) -> E {
        let payload = self.slots[handle as usize].take().expect("live handle");
        self.free.push(handle);
        payload
    }

    #[inline]
    fn occ_set(&mut self, slot: usize) {
        self.occ[slot / 64] |= 1 << (slot % 64);
        self.summary |= 1 << (slot / 64);
    }

    #[inline]
    fn occ_clear(&mut self, slot: usize) {
        let w = slot / 64;
        self.occ[w] &= !(1 << (slot % 64));
        if self.occ[w] == 0 {
            self.summary &= !(1 << w);
        }
    }

    fn insert(&mut self, ev: ScheduledEvent<E>, now: Time) {
        let b = Self::bucket_of(ev.time);
        if self.near == 0 {
            // Empty ring: re-anchor the cursor at the clock. Every future
            // schedule lands at or after `now`, so this is the lowest
            // bound the window will ever need — and it repairs the one
            // case where lazy-cancellation skipping left `cur` ahead of
            // the clock (see `pop_min`).
            self.cur = Self::bucket_of(now);
        }
        let entry = Entry {
            time: ev.time,
            id: ev.id,
            handle: self.arena_alloc(ev.payload),
        };
        if b >= self.cur + NUM_BUCKETS as u64 {
            self.far.push(entry);
            return;
        }
        debug_assert!(b >= self.cur, "event filed behind the cursor");
        self.insert_near(b, entry);
    }

    fn insert_near(&mut self, b: u64, entry: Entry) {
        let slot = (b & BUCKET_MASK) as usize;
        let v = &mut self.buckets[slot];
        let key = (entry.time, entry.id);
        let pos = v.partition_point(|e| (e.time, e.id) > key);
        v.insert(pos, entry);
        self.occ_set(slot);
        self.near += 1;
    }

    /// Moves every far event that now fits the ring horizon into it.
    fn drain_far(&mut self) {
        while let Some(f) = self.far.peek() {
            if Self::bucket_of(f.time) >= self.cur + NUM_BUCKETS as u64 {
                break;
            }
            let entry = self.far.pop().expect("peeked");
            let b = Self::bucket_of(entry.time);
            self.insert_near(b, entry);
        }
    }

    /// Absolute index of the first occupied bucket at or after `from`,
    /// assuming at least one ring bucket is occupied. O(1): one masked
    /// probe of the starting word, then the one-word summary locates the
    /// next non-empty word (cyclically) without walking the ring.
    fn next_occupied(&self, from: u64) -> u64 {
        debug_assert!(self.summary != 0, "next_occupied on an empty ring");
        let start = (from & BUCKET_MASK) as usize;
        let w0 = start / 64;
        let mut bits = self.occ[w0] & (!0u64 << (start % 64));
        let w = if bits != 0 {
            w0
        } else {
            // Words strictly after `w0`, wrapping to the full summary when
            // the tail is empty (ring distance arithmetic absorbs the wrap).
            let above = if w0 == 63 {
                0
            } else {
                self.summary & (!0u64 << (w0 + 1))
            };
            let w = if above != 0 {
                above.trailing_zeros() as usize
            } else {
                self.summary.trailing_zeros() as usize
            };
            bits = self.occ[w];
            w
        };
        let slot = w * 64 + bits.trailing_zeros() as usize;
        let dist = (slot as u64).wrapping_sub(start as u64) & BUCKET_MASK;
        from + dist
    }

    /// Removes and returns the minimum event. The cursor advances to its
    /// bucket; the caller re-anchors via `insert` if it discards events
    /// (lazy cancellation) without advancing the clock.
    fn pop_min(&mut self) -> Option<ScheduledEvent<E>> {
        if self.near == 0 {
            let f = self.far.peek()?;
            self.cur = Self::bucket_of(f.time);
        }
        self.drain_far();
        debug_assert!(self.near > 0);
        let nb = self.next_occupied(self.cur);
        self.cur = nb;
        let slot = (nb & BUCKET_MASK) as usize;
        let entry = self.buckets[slot].pop().expect("occupied bucket");
        if self.buckets[slot].is_empty() {
            self.occ_clear(slot);
        }
        self.near -= 1;
        Some(ScheduledEvent {
            time: entry.time,
            id: entry.id,
            payload: self.arena_take(entry.handle),
        })
    }

    /// The minimum pending `(time, id)` after dropping cancelled events
    /// from the front. Unlike `pop_min` this never advances the cursor, so
    /// it is safe to schedule earlier-but-future events afterwards.
    fn peek_skip(&mut self, cancelled: &mut HashSet<EventId>) -> Option<Time> {
        loop {
            if self.near == 0 {
                let e = self.far.peek()?;
                if cancelled.remove(&e.id) {
                    let entry = self.far.pop().expect("peeked");
                    drop(self.arena_take(entry.handle));
                    continue;
                }
                return Some(e.time);
            }
            self.drain_far();
            let nb = self.next_occupied(self.cur);
            let slot = (nb & BUCKET_MASK) as usize;
            let front = *self.buckets[slot].last().expect("occupied bucket");
            if cancelled.remove(&front.id) {
                self.buckets[slot].pop();
                if self.buckets[slot].is_empty() {
                    self.occ_clear(slot);
                }
                self.near -= 1;
                drop(self.arena_take(front.handle));
                continue;
            }
            return Some(front.time);
        }
    }
}

#[derive(Debug)]
enum Backend<E> {
    // Boxed: the calendar's inline occupancy words dwarf the heap variant.
    Fast(Box<Calendar<E>>),
    Reference(BinaryHeap<ScheduledEvent<E>>),
}

/// A deterministic discrete-event queue over payload type `E`.
///
/// ```
/// use latr_sim::{EventQueue, Time};
/// let mut q = EventQueue::new();
/// q.schedule(Time::from_ns(3), 'c');
/// q.schedule(Time::from_ns(1), 'a');
/// q.schedule(Time::from_ns(1), 'b'); // same instant: FIFO order
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, vec!['a', 'b', 'c']);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    backend: Backend<E>,
    next_id: u64,
    cancelled: HashSet<EventId>,
    now: Time,
    popped: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue positioned at [`Time::ZERO`] on the default
    /// backend ([`QueueBackend::default`]).
    pub fn new() -> Self {
        Self::with_backend(QueueBackend::default())
    }

    /// Creates an empty queue on an explicitly chosen backend.
    pub fn with_backend(backend: QueueBackend) -> Self {
        EventQueue {
            backend: match backend {
                QueueBackend::Fast => Backend::Fast(Box::new(Calendar::new())),
                QueueBackend::Reference => Backend::Reference(BinaryHeap::new()),
            },
            next_id: 0,
            cancelled: HashSet::new(),
            now: Time::ZERO,
            popped: 0,
        }
    }

    /// Which backend this queue runs on.
    pub fn backend(&self) -> QueueBackend {
        match self.backend {
            Backend::Fast(_) => QueueBackend::Fast,
            Backend::Reference(_) => QueueBackend::Reference,
        }
    }

    /// The instant of the most recently popped event (the simulation clock).
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Total number of events delivered so far.
    #[inline]
    pub fn delivered(&self) -> u64 {
        self.popped
    }

    /// Number of events currently pending (including lazily cancelled ones
    /// that have not yet been skipped past).
    #[inline]
    pub fn len(&self) -> usize {
        match &self.backend {
            Backend::Fast(c) => c.len(),
            Backend::Reference(h) => h.len(),
        }
    }

    /// Whether no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Schedules `payload` to fire at absolute instant `time`.
    ///
    /// Returns an [`EventId`] usable with [`cancel`](Self::cancel).
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the current clock: the simulation
    /// cannot deliver events into the past.
    pub fn schedule(&mut self, time: Time, payload: E) -> EventId {
        assert!(
            time >= self.now,
            "cannot schedule into the past: {:?} < {:?}",
            time,
            self.now
        );
        let id = EventId(self.next_id);
        self.next_id += 1;
        let ev = ScheduledEvent { time, id, payload };
        match &mut self.backend {
            Backend::Fast(c) => c.insert(ev, self.now),
            Backend::Reference(h) => h.push(ev),
        }
        id
    }

    /// Schedules `payload` to fire `delta` nanoseconds after the current
    /// clock.
    pub fn schedule_after(&mut self, delta: crate::Nanos, payload: E) -> EventId {
        self.schedule(self.now + delta, payload)
    }

    /// Lazily cancels a scheduled event. The event stays in the queue but
    /// is skipped when it reaches the front. Cancelling an already-delivered
    /// or unknown id is a no-op.
    pub fn cancel(&mut self, id: EventId) {
        self.cancelled.insert(id);
    }

    /// Pops the earliest pending event, advancing the clock to its instant.
    ///
    /// Returns `None` when the queue is exhausted.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        loop {
            let ev = match &mut self.backend {
                Backend::Fast(c) => c.pop_min(),
                Backend::Reference(h) => h.pop(),
            }?;
            if self.cancelled.remove(&ev.id) {
                continue;
            }
            debug_assert!(ev.time >= self.now, "event queue time went backwards");
            self.now = ev.time;
            self.popped += 1;
            return Some((ev.time, ev.payload));
        }
    }

    /// The instant of the earliest pending (non-cancelled) event, if any.
    ///
    /// Takes `&mut self` because the fast backend discards cancelled
    /// events it skips past (an observable no-op: lazy cancellation only
    /// ever removes them later anyway). The reference backend scans
    /// without mutating, exactly as the original implementation did.
    pub fn peek_time(&mut self) -> Option<Time> {
        match &mut self.backend {
            Backend::Fast(c) => c.peek_skip(&mut self.cancelled),
            Backend::Reference(h) => {
                // Cancelled events may sit at the front; we must skip them
                // without popping. Cheap in practice because cancellation
                // is rare.
                let cancelled = &self.cancelled;
                h.iter()
                    .filter(|ev| !cancelled.contains(&ev.id))
                    .map(|ev| ev.time)
                    .min()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn backends() -> [QueueBackend; 2] {
        [QueueBackend::Fast, QueueBackend::Reference]
    }

    #[test]
    fn pops_in_time_order() {
        for b in backends() {
            let mut q = EventQueue::with_backend(b);
            q.schedule(Time::from_ns(30), 3);
            q.schedule(Time::from_ns(10), 1);
            q.schedule(Time::from_ns(20), 2);
            assert_eq!(q.pop().unwrap(), (Time::from_ns(10), 1));
            assert_eq!(q.pop().unwrap(), (Time::from_ns(20), 2));
            assert_eq!(q.pop().unwrap(), (Time::from_ns(30), 3));
            assert!(q.pop().is_none());
        }
    }

    #[test]
    fn same_instant_is_fifo() {
        for b in backends() {
            let mut q = EventQueue::with_backend(b);
            for i in 0..100 {
                q.schedule(Time::from_ns(5), i);
            }
            for i in 0..100 {
                assert_eq!(q.pop().unwrap().1, i);
            }
        }
    }

    #[test]
    fn clock_advances_with_pop() {
        for b in backends() {
            let mut q = EventQueue::with_backend(b);
            q.schedule(Time::from_ns(42), ());
            assert_eq!(q.now(), Time::ZERO);
            q.pop();
            assert_eq!(q.now(), Time::from_ns(42));
        }
    }

    #[test]
    fn schedule_after_is_relative_to_clock() {
        for b in backends() {
            let mut q = EventQueue::with_backend(b);
            q.schedule(Time::from_ns(100), 0);
            q.pop();
            q.schedule_after(5, 1);
            assert_eq!(q.pop().unwrap(), (Time::from_ns(105), 1));
        }
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_ns(100), 0);
        q.pop();
        q.schedule(Time::from_ns(50), 1);
    }

    #[test]
    fn cancel_skips_event() {
        for b in backends() {
            let mut q = EventQueue::with_backend(b);
            let a = q.schedule(Time::from_ns(1), 'a');
            q.schedule(Time::from_ns(2), 'b');
            q.cancel(a);
            assert_eq!(q.pop().unwrap().1, 'b');
            assert!(q.pop().is_none());
        }
    }

    #[test]
    fn cancel_unknown_is_noop() {
        for b in backends() {
            let mut q = EventQueue::with_backend(b);
            let a = q.schedule(Time::from_ns(1), 'a');
            assert_eq!(q.pop().unwrap().1, 'a');
            q.cancel(a); // already delivered
            q.schedule(Time::from_ns(2), 'b');
            assert_eq!(q.pop().unwrap().1, 'b');
        }
    }

    #[test]
    fn peek_time_skips_cancelled() {
        for b in backends() {
            let mut q = EventQueue::with_backend(b);
            let a = q.schedule(Time::from_ns(1), 'a');
            q.schedule(Time::from_ns(7), 'b');
            q.cancel(a);
            assert_eq!(q.peek_time(), Some(Time::from_ns(7)));
        }
    }

    #[test]
    fn delivered_counts_only_real_events() {
        for b in backends() {
            let mut q = EventQueue::with_backend(b);
            let a = q.schedule(Time::from_ns(1), 'a');
            q.schedule(Time::from_ns(2), 'b');
            q.cancel(a);
            q.pop();
            assert_eq!(q.delivered(), 1);
        }
    }

    #[test]
    fn len_and_is_empty() {
        for b in backends() {
            let mut q: EventQueue<()> = EventQueue::with_backend(b);
            assert!(q.is_empty());
            q.schedule(Time::from_ns(1), ());
            assert_eq!(q.len(), 1);
            assert!(!q.is_empty());
        }
    }

    #[test]
    fn default_backend_is_fast() {
        let q: EventQueue<()> = EventQueue::new();
        assert_eq!(q.backend(), QueueBackend::Fast);
    }

    #[test]
    fn far_future_events_cross_the_ring_horizon() {
        let mut q = EventQueue::with_backend(QueueBackend::Fast);
        // Way beyond the 2.1 ms ring horizon.
        q.schedule(Time::from_ns(50_000_000), 'z');
        q.schedule(Time::from_ns(10), 'a');
        q.schedule(Time::from_ns(3_000_000), 'm'); // beyond horizon from t=0
        assert_eq!(q.peek_time(), Some(Time::from_ns(10)));
        assert_eq!(q.pop().unwrap().1, 'a');
        // After the clock advances, 'm' migrates into the ring.
        assert_eq!(q.pop().unwrap(), (Time::from_ns(3_000_000), 'm'));
        // And scheduling between the clock and the far tail still works.
        q.schedule(Time::from_ns(3_000_001), 'n');
        assert_eq!(q.pop().unwrap().1, 'n');
        assert_eq!(q.pop().unwrap().1, 'z');
        assert!(q.pop().is_none());
    }

    #[test]
    fn peek_does_not_corrupt_cursor_for_earlier_schedules() {
        let mut q = EventQueue::with_backend(QueueBackend::Fast);
        q.schedule(Time::from_ns(100), 0);
        q.pop();
        // Peek at a far-ahead event, then schedule something earlier (but
        // still in the future). It must pop first.
        let far = q.schedule(Time::from_ns(2_000_000), 9);
        assert_eq!(q.peek_time(), Some(Time::from_ns(2_000_000)));
        q.schedule(Time::from_ns(200), 1);
        assert_eq!(q.pop().unwrap(), (Time::from_ns(200), 1));
        q.cancel(far);
        assert!(q.pop().is_none());
    }

    #[test]
    fn all_cancelled_then_reschedule_earlier() {
        // Popping through cancelled events advances the calendar cursor
        // without advancing the clock; a subsequent earlier-but-future
        // schedule must still be delivered (the empty-ring re-anchor).
        let mut q = EventQueue::with_backend(QueueBackend::Fast);
        q.schedule(Time::from_ns(1_000), 0);
        q.pop();
        let a = q.schedule(Time::from_ns(500_000), 1);
        q.cancel(a);
        assert!(q.pop().is_none());
        q.schedule(Time::from_ns(2_000), 2);
        assert_eq!(q.pop().unwrap(), (Time::from_ns(2_000), 2));
    }

    /// The two backends must deliver identical `(time, id, payload)`
    /// sequences for arbitrary interleavings of schedule/cancel/pop.
    #[test]
    fn backends_agree_on_random_interleavings() {
        use crate::rng::SimRng;
        for seed in 0..8u64 {
            let mut rng = SimRng::new(0xE4E47 + seed);
            let mut fast = EventQueue::with_backend(QueueBackend::Fast);
            let mut refq = EventQueue::with_backend(QueueBackend::Reference);
            let mut live: Vec<EventId> = Vec::new();
            let mut next_payload = 0u64;
            for _ in 0..4_000 {
                match rng.below(10) {
                    // Schedule: mixed deltas spanning bucket widths, ties,
                    // and the far horizon.
                    0..=5 => {
                        let delta = match rng.below(5) {
                            0 => 0,
                            1 => rng.below(64),
                            2 => rng.below(10_000),
                            3 => rng.below(1_000_000),
                            _ => rng.below(20_000_000),
                        };
                        let t = fast.now() + delta;
                        let id_f = fast.schedule(t, next_payload);
                        let id_r = refq.schedule(t, next_payload);
                        assert_eq!(id_f, id_r);
                        live.push(id_f);
                        next_payload += 1;
                    }
                    6 => {
                        if !live.is_empty() {
                            let i = rng.below(live.len() as u64) as usize;
                            let id = live.swap_remove(i);
                            fast.cancel(id);
                            refq.cancel(id);
                        }
                    }
                    _ => {
                        assert_eq!(fast.peek_time(), refq.peek_time());
                        assert_eq!(fast.pop(), refq.pop());
                        assert_eq!(fast.now(), refq.now());
                    }
                }
            }
            // Drain both to the end.
            loop {
                let (a, b) = (fast.pop(), refq.pop());
                assert_eq!(a, b);
                if a.is_none() {
                    break;
                }
            }
            assert_eq!(fast.delivered(), refq.delivered());
        }
    }
}
