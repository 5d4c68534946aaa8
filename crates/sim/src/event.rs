//! Deterministic event queue.
//!
//! A calendar (bucket) queue keyed on the event instant delivers events
//! in `(time, sequence)` order, which makes every simulation run
//! reproducible from its seed and configuration. `schedule`/`pop`/
//! `pop_until` are O(1) amortised. Each bucket is a FIFO list threaded
//! through one free-listed event arena, so steady-state operation does
//! not touch the allocator.
//!
//! The binary min-heap queue the calendar replaced is the executable
//! spec, in the `#[cfg(test)]` module `reference`:
//! `backends_agree_on_random_interleavings` drives both through the same
//! random interleavings.

use crate::time::Time;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Identifier of a scheduled event, unique within one [`EventQueue`]:
/// ids rise with scheduling order and break ties between same-instant
/// events (first scheduled, first delivered).
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

/// Nanoseconds per calendar bucket (512 ns): small enough that a bucket
/// holds a handful of events even at 120 simulated cores.
const BUCKET_SHIFT: u32 = 9;
/// Buckets in the ring: 4096 × 512 ns ≈ 2.1 ms of horizon, comfortably
/// above the 1 ms scheduler-tick period that dominates scheduling deltas.
const NUM_BUCKETS: usize = 1 << 12;
const BUCKET_MASK: u64 = NUM_BUCKETS as u64 - 1;
const OCC_WORDS: usize = NUM_BUCKETS / 64;
/// The null arena handle: ends a bucket list and the free list.
const NIL: u32 = u32::MAX;

/// A far-heap event's key plus the arena handle of its node. The heap
/// shuffles these 24-byte `Copy` records; the node sits still in the
/// arena until delivery.
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

/// An arena node: one pending event, linked into its ring bucket's list
/// (or unlinked while it waits in the far heap). A free node's `next`
/// threads the free list.
#[derive(Debug)]
struct Node<E> {
    time: Time,
    id: EventId,
    next: u32,
    payload: Option<E>,
}

/// A ring bucket: a singly-linked list of arena nodes sorted ascending by
/// `(time, id)`, so the minimum pops from `head` in O(1).
#[derive(Clone, Copy, Debug)]
struct Bucket {
    head: u32,
    tail: u32,
}

impl Bucket {
    const EMPTY: Bucket = Bucket {
        head: NIL,
        tail: NIL,
    };
}

/// The calendar queue: a ring of time buckets over a far-future
/// overflow heap, with every pending event in a free-listed arena.
///
/// Invariants (checked in debug builds):
/// * every bucketed event's absolute bucket index lies in
///   `[cur, cur + NUM_BUCKETS)`, so ring slots are unambiguous;
/// * every event in `far` was beyond that horizon when it was filed and is
///   migrated into the ring (at most once — `cur` is monotone while events
///   are pending) as the cursor approaches it;
/// * every live node is on exactly one bucket list or named by exactly
///   one far entry; every other node is on the free list.
///
/// Each bucket is a FIFO list threaded through the arena. An insert
/// appends when its key is the bucket's largest (every same-instant
/// wakeup, since ids rise), prepends when it is the smallest, and
/// otherwise walks the list to its sorted place; a bucket spans 512 ns,
/// so walks are short. Steady state is allocation-free: delivered nodes
/// go on the free list, and a bucket costs two handles whatever it holds,
/// so a stable pending-event population recycles arena nodes instead of
/// touching the allocator, however its phase drifts across the ring.
#[derive(Debug)]
struct Calendar<E> {
    /// Ring of bucket lists.
    buckets: Vec<Bucket>,
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
    /// Events beyond the ring horizon (keys only; payloads in `nodes`).
    far: BinaryHeap<Entry>,
    /// The event arena. `free` heads the list of payload-less nodes.
    nodes: Vec<Node<E>>,
    free: u32,
}

const _: () = assert!(OCC_WORDS == 64, "summary word covers the whole ring");

impl<E> Calendar<E> {
    fn new() -> Self {
        Calendar {
            buckets: vec![Bucket::EMPTY; NUM_BUCKETS],
            occ: [0; OCC_WORDS],
            summary: 0,
            cur: 0,
            near: 0,
            far: BinaryHeap::new(),
            nodes: Vec::new(),
            free: NIL,
        }
    }

    fn len(&self) -> usize {
        self.near + self.far.len()
    }

    fn bucket_of(time: Time) -> u64 {
        time.as_ns() >> BUCKET_SHIFT
    }

    fn key(&self, handle: u32) -> (Time, EventId) {
        let n = &self.nodes[handle as usize];
        (n.time, n.id)
    }

    /// Parks an event in the arena, reusing a free node when one exists.
    fn arena_alloc(&mut self, ev: ScheduledEvent<E>) -> u32 {
        let node = Node {
            time: ev.time,
            id: ev.id,
            next: NIL,
            payload: Some(ev.payload),
        };
        if self.free == NIL {
            let h = u32::try_from(self.nodes.len())
                .ok()
                .filter(|&h| h != NIL)
                .expect("arena handle overflow");
            self.nodes.push(node);
            h
        } else {
            let h = self.free;
            debug_assert!(self.nodes[h as usize].payload.is_none());
            self.free = self.nodes[h as usize].next;
            self.nodes[h as usize] = node;
            h
        }
    }

    /// Takes an event out of the arena and puts its node on the free list.
    fn arena_take(&mut self, handle: u32) -> ScheduledEvent<E> {
        let n = &mut self.nodes[handle as usize];
        let ev = ScheduledEvent {
            time: n.time,
            id: n.id,
            payload: n.payload.take().expect("live handle"),
        };
        n.next = self.free;
        self.free = handle;
        ev
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
            // bound the window will ever need, and it keeps a ring that
            // drained long ago from filing near events as far ones.
            self.cur = Self::bucket_of(now);
        }
        let (time, id) = (ev.time, ev.id);
        let handle = self.arena_alloc(ev);
        if b >= self.cur + NUM_BUCKETS as u64 {
            self.far.push(Entry { time, id, handle });
            return;
        }
        debug_assert!(b >= self.cur, "event filed behind the cursor");
        self.insert_near(b, handle);
    }

    /// Links node `handle` into ring bucket `b` at its sorted place.
    fn insert_near(&mut self, b: u64, handle: u32) {
        let slot = (b & BUCKET_MASK) as usize;
        let Bucket { head, tail } = self.buckets[slot];
        let key = self.key(handle);
        if head == NIL {
            self.buckets[slot] = Bucket {
                head: handle,
                tail: handle,
            };
            self.occ_set(slot);
        } else if key > self.key(tail) {
            self.nodes[tail as usize].next = handle;
            self.buckets[slot].tail = handle;
        } else if key < self.key(head) {
            self.nodes[handle as usize].next = head;
            self.buckets[slot].head = handle;
        } else {
            // Strictly between head and tail: walk to the last node with
            // a smaller key. The tail's key is larger, so `next` never
            // runs off the list.
            let mut at = head;
            loop {
                let next = self.nodes[at as usize].next;
                if self.key(next) > key {
                    break;
                }
                at = next;
            }
            self.nodes[handle as usize].next = self.nodes[at as usize].next;
            self.nodes[at as usize].next = handle;
        }
        self.near += 1;
    }

    /// Moves every far event that now fits the ring horizon into it.
    fn drain_far(&mut self) {
        while let Some(f) = self.far.peek() {
            if Self::bucket_of(f.time) >= self.cur + NUM_BUCKETS as u64 {
                break;
            }
            let entry = self.far.pop().expect("peeked");
            self.insert_near(Self::bucket_of(entry.time), entry.handle);
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

    /// Removes and returns the minimum event if it fires at or before
    /// `limit`, in one probe. The cursor advances to its bucket, which is
    /// the clock's bucket once the caller delivers it. Returns `None`
    /// otherwise, leaving the cursor where it was, so earlier-but-future
    /// events can still be filed.
    fn pop_min(&mut self, limit: Time) -> Option<ScheduledEvent<E>> {
        if self.near == 0 {
            let f = self.far.peek()?;
            if f.time > limit {
                return None;
            }
            self.cur = Self::bucket_of(f.time);
        }
        self.drain_far();
        debug_assert!(self.near > 0);
        let nb = self.next_occupied(self.cur);
        let slot = (nb & BUCKET_MASK) as usize;
        let head = self.buckets[slot].head;
        if self.nodes[head as usize].time > limit {
            return None;
        }
        self.cur = nb;
        let next = self.nodes[head as usize].next;
        self.buckets[slot].head = next;
        if next == NIL {
            self.buckets[slot].tail = NIL;
            self.occ_clear(slot);
        }
        self.near -= 1;
        Some(self.arena_take(head))
    }
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
    calendar: Calendar<E>,
    next_id: u64,
    now: Time,
    popped: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue positioned at [`Time::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            calendar: Calendar::new(),
            next_id: 0,
            now: Time::ZERO,
            popped: 0,
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

    /// Number of events currently pending.
    #[inline]
    pub fn len(&self) -> usize {
        self.calendar.len()
    }

    /// Whether no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Schedules `payload` to fire at absolute instant `time`.
    ///
    /// Returns the event's [`EventId`], its same-instant tiebreaker.
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
        self.calendar
            .insert(ScheduledEvent { time, id, payload }, self.now);
        id
    }

    /// Schedules `payload` to fire `delta` nanoseconds after the current
    /// clock.
    pub fn schedule_after(&mut self, delta: crate::Nanos, payload: E) -> EventId {
        self.schedule(self.now + delta, payload)
    }

    /// Pops the earliest pending event, advancing the clock to its instant.
    ///
    /// Returns `None` when the queue is exhausted.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        self.pop_until(Time::MAX)
    }

    /// Pops the earliest pending event if it fires at or before `limit`,
    /// advancing the clock to its instant, in one probe of the queue.
    ///
    /// Returns `None` — leaving the clock and the queue's order
    /// untouched — when the queue is exhausted or its earliest event
    /// lies past `limit`.
    pub fn pop_until(&mut self, limit: Time) -> Option<(Time, E)> {
        let ev = self.calendar.pop_min(limit)?;
        debug_assert!(ev.time >= self.now, "event queue time went backwards");
        self.now = ev.time;
        self.popped += 1;
        Some((ev.time, ev.payload))
    }
}

/// The binary min-heap queue the calendar replaced, kept as the
/// executable spec: `backends_agree_on_random_interleavings` drives both
/// through the same schedule/burst/pop streams.
#[cfg(test)]
mod reference {
    use super::{EventId, ScheduledEvent};
    use crate::time::Time;
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

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

    pub(super) struct HeapQueue<E> {
        heap: BinaryHeap<ScheduledEvent<E>>,
        next_id: u64,
        now: Time,
        popped: u64,
    }

    impl<E> HeapQueue<E> {
        pub(super) fn new() -> Self {
            HeapQueue {
                heap: BinaryHeap::new(),
                next_id: 0,
                now: Time::ZERO,
                popped: 0,
            }
        }

        pub(super) fn now(&self) -> Time {
            self.now
        }

        pub(super) fn delivered(&self) -> u64 {
            self.popped
        }

        pub(super) fn len(&self) -> usize {
            self.heap.len()
        }

        pub(super) fn schedule(&mut self, time: Time, payload: E) -> EventId {
            assert!(time >= self.now, "cannot schedule into the past");
            let id = EventId(self.next_id);
            self.next_id += 1;
            self.heap.push(ScheduledEvent { time, id, payload });
            id
        }

        pub(super) fn pop(&mut self) -> Option<(Time, E)> {
            self.pop_until(Time::MAX)
        }

        pub(super) fn pop_until(&mut self, limit: Time) -> Option<(Time, E)> {
            if self.heap.peek()?.time > limit {
                return None;
            }
            let ev = self.heap.pop().expect("peeked");
            self.now = ev.time;
            self.popped += 1;
            Some((ev.time, ev.payload))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_ns(30), 3);
        q.schedule(Time::from_ns(10), 1);
        q.schedule(Time::from_ns(20), 2);
        assert_eq!(q.pop().unwrap(), (Time::from_ns(10), 1));
        assert_eq!(q.pop().unwrap(), (Time::from_ns(20), 2));
        assert_eq!(q.pop().unwrap(), (Time::from_ns(30), 3));
        assert!(q.pop().is_none());
    }

    #[test]
    fn same_instant_is_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(Time::from_ns(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn clock_advances_with_pop() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_ns(42), ());
        assert_eq!(q.now(), Time::ZERO);
        q.pop();
        assert_eq!(q.now(), Time::from_ns(42));
    }

    #[test]
    fn schedule_after_is_relative_to_clock() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_ns(100), 0);
        q.pop();
        q.schedule_after(5, 1);
        assert_eq!(q.pop().unwrap(), (Time::from_ns(105), 1));
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
    fn len_and_is_empty() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(Time::from_ns(1), ());
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn far_future_events_cross_the_ring_horizon() {
        let mut q = EventQueue::new();
        // Way beyond the 2.1 ms ring horizon.
        q.schedule(Time::from_ns(50_000_000), 'z');
        q.schedule(Time::from_ns(10), 'a');
        q.schedule(Time::from_ns(3_000_000), 'm'); // beyond horizon from t=0
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
    fn pop_until_stops_at_the_limit_without_moving_the_cursor() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_ns(100), 0);
        assert_eq!(
            q.pop_until(Time::from_ns(100)),
            Some((Time::from_ns(100), 0))
        );
        q.schedule(Time::from_ns(2_000_000), 9);
        q.schedule(Time::from_ns(50_000_000), 8); // beyond the ring
        assert_eq!(q.pop_until(Time::from_ns(1_999_999)), None);
        assert_eq!(q.now(), Time::from_ns(100));
        // A refused pop leaves room for an earlier-but-future event.
        q.schedule(Time::from_ns(200), 1);
        assert_eq!(
            q.pop_until(Time::from_ns(200)),
            Some((Time::from_ns(200), 1))
        );
        assert_eq!(q.pop_until(Time::from_ns(2_000_000)).unwrap().1, 9);
        assert_eq!(q.pop_until(Time::from_ns(49_999_999)), None);
        assert_eq!(q.pop_until(Time::MAX).unwrap().1, 8);
        assert_eq!(q.pop_until(Time::MAX), None);
        assert_eq!(q.delivered(), 4);
    }

    /// The calendar must deliver the heap reference's `(time, id, payload)`
    /// sequence for arbitrary interleavings of schedule/burst/pop.
    #[test]
    fn backends_agree_on_random_interleavings() {
        use crate::rng::SimRng;
        for seed in 0..8u64 {
            let mut rng = SimRng::new(0xE4E47 + seed);
            let mut fast = EventQueue::new();
            let mut refq = reference::HeapQueue::new();
            let mut next_payload = 0u64;
            let mut schedule =
                |fast: &mut EventQueue<u64>, refq: &mut reference::HeapQueue<u64>, delta| {
                    let t = fast.now() + delta;
                    assert_eq!(
                        fast.schedule(t, next_payload),
                        refq.schedule(t, next_payload)
                    );
                    next_payload += 1;
                };
            for _ in 0..4_000 {
                match rng.below(10) {
                    // Schedule: mixed deltas spanning sub-bucket offsets
                    // (which land among pending events of one bucket),
                    // bucket widths, ties, and the far horizon.
                    0..=5 => {
                        let delta = match rng.below(6) {
                            0 => 0,
                            1 => rng.below(64),
                            2 => rng.below(512),
                            3 => rng.below(10_000),
                            4 => rng.below(1_000_000),
                            _ => rng.below(20_000_000),
                        };
                        schedule(&mut fast, &mut refq, delta);
                    }
                    // Burst: a same-instant broadcast, like a wave of
                    // sleepers waking on one tick.
                    6 => {
                        let delta = rng.below(100_000);
                        for _ in 0..100 + rng.below(201) {
                            schedule(&mut fast, &mut refq, delta);
                        }
                    }
                    7 => {
                        // A bounded pop, refused as often as not.
                        let limit = fast.now() + rng.below(4_000);
                        assert_eq!(fast.pop_until(limit), refq.pop_until(limit));
                        assert_eq!(fast.now(), refq.now());
                    }
                    _ => {
                        assert_eq!(fast.pop(), refq.pop());
                        assert_eq!(fast.now(), refq.now());
                    }
                }
                assert_eq!(fast.len(), refq.len());
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
