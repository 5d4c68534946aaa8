//! Vector clocks over the machine's execution contexts.
//!
//! One component per core plus one for the background reclamation thread.
//! Happens-before edges are created exactly where the simulated kernel
//! creates ordering: a sweep joins the publishing core's clock at publish
//! time, an IPI delivery joins the initiator's clock at send time, and an
//! ACK joins the target's clock back into the initiator. A frame free that
//! does *not* dominate a core's TLB-fill component is concurrent with that
//! fill — the race the oracle reports.
//!
//! The oracle keeps its clocks in a `ClockArena` of refcounted slots,
//! each owned by one context. Between two joins only a context's own
//! component moves, and it moves in place, so a history record keeps a
//! `Stamp` — its context's slot plus the own component at the event —
//! instead of a copy of the clock. A join into a slot that records still
//! share writes a fresh slot (copy on write); the old one stays frozen
//! except for its owner's component, which every stamp overrides.

use std::fmt;

/// A vector clock: `clock[i]` counts events attributed to context `i`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VClock(Vec<u64>);

impl VClock {
    /// A zero clock over `n` contexts.
    pub fn new(n: usize) -> Self {
        VClock(vec![0; n])
    }

    /// Number of contexts.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the clock has no contexts.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Advances context `i`'s component and returns the new value.
    pub fn tick(&mut self, i: usize) -> u64 {
        self.0[i] += 1;
        self.0[i]
    }

    /// Component `i`.
    pub fn get(&self, i: usize) -> u64 {
        self.0.get(i).copied().unwrap_or(0)
    }

    /// Pointwise maximum with `other` (receiving a message).
    pub fn join(&mut self, other: &VClock) {
        if self.0.len() < other.0.len() {
            self.0.resize(other.0.len(), 0);
        }
        join_words(&mut self.0, &other.0);
    }

    /// Whether every component of `self` is ≥ the matching component of
    /// `other` — i.e. everything `other` had seen happens-before `self`.
    pub fn dominates(&self, other: &VClock) -> bool {
        (0..self.0.len().max(other.0.len())).all(|i| self.get(i) >= other.get(i))
    }
}

/// Pointwise maximum of `b` into `a`.
fn join_words(a: &mut [u64], b: &[u64]) {
    for (a, &b) in a.iter_mut().zip(b) {
        *a = (*a).max(b);
    }
}

/// Refcounted clock slots of one width. A released slot goes on a free
/// list and the next allocation overwrites it, so once a run has reached
/// its high-water mark of live slots nothing here allocates.
#[derive(Debug)]
pub(crate) struct ClockArena {
    width: usize,
    slots: Vec<Box<[u64]>>,
    refs: Vec<u32>,
    free: Vec<u32>,
}

impl ClockArena {
    /// An empty arena of clocks over `width` contexts, with room for one
    /// slot per context.
    pub(crate) fn new(width: usize) -> Self {
        ClockArena {
            width,
            slots: Vec::with_capacity(width),
            refs: Vec::with_capacity(width),
            free: Vec::with_capacity(width),
        }
    }

    /// A zero clock in a slot holding one reference.
    pub(crate) fn zero(&mut self) -> u32 {
        let h = self.alloc();
        self.slots[h as usize].fill(0);
        h
    }

    fn alloc(&mut self) -> u32 {
        if let Some(h) = self.free.pop() {
            self.refs[h as usize] = 1;
            return h;
        }
        self.slots.push(vec![0; self.width].into_boxed_slice());
        self.refs.push(1);
        // Room for every slot to be free at once, so a release never
        // allocates.
        self.free.reserve(self.refs.len());
        (self.refs.len() - 1) as u32
    }

    /// Slot `dst` for writing beside slot `src` for reading; `dst != src`.
    fn pair(&mut self, dst: u32, src: u32) -> (&mut [u64], &[u64]) {
        let (dst, src) = (dst as usize, src as usize);
        if dst < src {
            let (lo, hi) = self.slots.split_at_mut(src);
            (&mut lo[dst], &hi[0])
        } else {
            let (lo, hi) = self.slots.split_at_mut(dst);
            (&mut hi[0], &lo[src])
        }
    }

    /// Adds a reference to slot `h`.
    pub(crate) fn retain(&mut self, h: u32) {
        self.refs[h as usize] += 1;
    }

    /// Drops a reference to slot `h`, freeing the slot with its last.
    pub(crate) fn release(&mut self, h: u32) {
        let refs = &mut self.refs[h as usize];
        *refs -= 1;
        if *refs == 0 {
            self.free.push(h);
        }
    }

    /// Slot `h`'s components.
    pub(crate) fn get(&self, h: u32) -> &[u64] {
        &self.slots[h as usize]
    }

    /// Advances component `i` of slot `h` in place and returns it.
    pub(crate) fn tick(&mut self, h: u32, i: usize) -> u64 {
        let c = &mut self.slots[h as usize][i];
        *c += 1;
        *c
    }

    /// The stamp of the clock held in slot `live` by its owner `ctx`, as
    /// it stands now.
    pub(crate) fn stamp(&self, live: u32, ctx: usize) -> Stamp {
        Stamp {
            snap: live,
            ctx: ctx as u32,
            own: self.get(live)[ctx],
        }
    }

    /// Joins `src` into the clock an owner holds in slot `*live`. While
    /// other holders share that slot the join goes to a fresh copy, which
    /// replaces `*live`; the shared slot keeps the clock they stamped. A
    /// join that would change nothing copies nothing.
    pub(crate) fn join_live(&mut self, live: &mut u32, src: Stamp) {
        // The source's own component may have moved on in place since
        // the stamp: the stamp's value stands for it.
        let c = src.ctx as usize;
        let (dst, from) = (self.get(*live), self.get(src.snap));
        let grows = src.own > dst[c]
            || from
                .iter()
                .zip(dst)
                .enumerate()
                .any(|(j, (&b, &a))| b > a && j != c);
        if !grows {
            return;
        }
        if self.refs[*live as usize] > 1 {
            let fresh = self.alloc();
            let (copy, shared) = self.pair(fresh, *live);
            copy.copy_from_slice(shared);
            self.release(*live);
            *live = fresh;
        }
        let (dst, from) = self.pair(*live, src.snap);
        join_words(&mut dst[..c], &from[..c]);
        join_words(&mut dst[c + 1..], &from[c + 1..]);
        dst[c] = dst[c].max(src.own);
    }

    /// Each slot's reference count; a free slot's is 0.
    #[cfg(test)]
    pub(crate) fn refcounts(&self) -> Vec<u32> {
        self.refs.clone()
    }
}

/// Context `ctx`'s clock right after one of its events: slot `snap`,
/// which `ctx` owns, with component `ctx` replaced by `own`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Stamp {
    pub(crate) snap: u32,
    pub(crate) ctx: u32,
    pub(crate) own: u64,
}

impl Stamp {
    /// The clock this stamp stands for.
    pub(crate) fn clock(self, arena: &ClockArena) -> VClock {
        let mut clock = VClock(arena.get(self.snap).to_vec());
        clock.0[self.ctx as usize] = self.own;
        clock
    }
}

impl fmt::Display for VClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tick_join_dominate() {
        let mut a = VClock::new(3);
        let mut b = VClock::new(3);
        a.tick(0);
        a.tick(0);
        b.tick(1);
        assert!(!a.dominates(&b));
        assert!(!b.dominates(&a));
        b.join(&a);
        assert!(b.dominates(&a));
        assert_eq!(b.get(0), 2);
        assert_eq!(b.get(1), 1);
        assert_eq!(format!("{b}"), "[2 1 0]");
    }

    #[test]
    fn join_grows_shorter_clock() {
        let mut a = VClock::new(1);
        let mut b = VClock::new(3);
        b.tick(2);
        a.join(&b);
        assert_eq!(a.len(), 3);
        assert!(a.dominates(&b));
    }

    #[test]
    fn a_join_copies_a_shared_slot_and_leaves_its_stamps_intact() {
        let mut arena = ClockArena::new(3);
        let mut a = arena.zero();
        let b = arena.zero();
        arena.tick(a, 1);
        let shared = arena.stamp(a, 1);
        arena.retain(a);
        // Own ticks move in place; the stamp keeps its own value.
        arena.tick(a, 1);
        arena.tick(b, 2);
        arena.tick(b, 2);
        let before = a;
        arena.join_live(&mut a, arena.stamp(b, 2));
        assert_ne!(a, before, "a shared slot is copied on write");
        assert_eq!(arena.get(a), &[0, 2, 2]);
        assert_eq!(format!("{}", shared.clock(&arena)), "[0 1 0]");
        // Once nothing else holds the slot, a join writes it in place.
        arena.tick(b, 2);
        let unshared = a;
        arena.join_live(&mut a, arena.stamp(b, 2));
        assert_eq!(a, unshared);
        assert_eq!(arena.get(a), &[0, 2, 3]);
        // A released slot is reused by the next allocation.
        arena.release(before);
        assert_eq!(arena.zero(), before);
    }
}
