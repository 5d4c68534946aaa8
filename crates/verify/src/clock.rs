//! Vector clocks over the machine's execution contexts.
//!
//! One component per core plus one for the background reclamation thread.
//! Happens-before edges are created exactly where the simulated kernel
//! creates ordering: a sweep joins the publishing core's clock at publish
//! time, an IPI delivery joins the initiator's clock at send time, and an
//! ACK joins the target's clock back into the initiator. A frame free that
//! does *not* dominate a core's TLB-fill component is concurrent with that
//! fill — the race the oracle reports.

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

    /// Overwrites `self` with `other`, reusing `self`'s allocation.
    pub fn copy_from(&mut self, other: &VClock) {
        self.0.clone_from(&other.0);
    }

    /// Pointwise maximum with `other` (receiving a message).
    pub fn join(&mut self, other: &VClock) {
        if self.0.len() < other.0.len() {
            self.0.resize(other.0.len(), 0);
        }
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a = (*a).max(*b);
        }
    }

    /// Whether every component of `self` is ≥ the matching component of
    /// `other` — i.e. everything `other` had seen happens-before `self`.
    pub fn dominates(&self, other: &VClock) -> bool {
        (0..self.0.len().max(other.0.len())).all(|i| self.get(i) >= other.get(i))
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
}
