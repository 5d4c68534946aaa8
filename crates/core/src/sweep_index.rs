//! The global pending-sweep bitmap behind the fast sweep path.
//!
//! The paper's sweep (§4.1) walks *every* core's state queue on every
//! scheduler tick and context switch — O(cores × slots) whether or not
//! anything is pending. This index inverts the relationship: when a core publishes a
//! state, it marks one bit per *target* CPU naming the publisher's queue,
//! so a sweeping core visits exactly the queues that may still hold a
//! state whose CPU bitmask includes it.
//!
//! ## Staleness contract
//!
//! Bits may be **stale-set** but never **stale-clear**:
//!
//! * A bit can outlive its reason — a watchdog or memory-pressure
//!   escalation, or its sync round's completion, clears the sweeper's
//!   mask bit directly (and retires the state if its mask emptied),
//!   leaving the pending bit set. The next sweep visits the queue, finds
//!   nothing relevant, and the visit costs the same as the full scan's
//!   empty-queue probe. Harmless. Nothing else clears a mask bit:
//!   [`crate::StateQueue::clear_cpu_everywhere`] has no caller outside
//!   tests, which use it to model these clears in bulk.
//! * A bit is never missing while relevant: publishing is the *only*
//!   operation that adds a CPU to a state's bitmask, and every publish
//!   marks all targets; a sweep clears its own row only while also
//!   clearing the sweeper's bit from every state in every flagged queue.
//!
//! This is what makes the fast sweep produce the full scan's event
//! stream. Debug builds check it after every sweep (`LatrPolicy`'s
//! per-sweep full-scan check, driven through the fault-plan shapes of
//! `tests/differential.rs`); `crates/core/tests/sweep_visits.rs` checks
//! the row against the scan on random op streams.

use latr_arch::{CpuId, CpuMask};

/// Per-CPU bitmap over publisher queues: bit `q` of row `c` means "queue
/// `q` may hold a state whose CPU bitmask includes CPU `c`".
///
/// Queues are per-core, so a queue index is a CPU index and a [`CpuMask`]
/// (256 bits) doubles as the row type.
#[derive(Clone, Debug, Default)]
pub struct PendingSweepMap {
    rows: Vec<CpuMask>,
}

impl PendingSweepMap {
    /// Creates an empty map; rows are sized on first [`ensure`].
    ///
    /// [`ensure`]: PendingSweepMap::ensure
    pub fn new() -> Self {
        PendingSweepMap::default()
    }

    /// Grows to at least `ncpus` rows (idempotent, never shrinks).
    pub fn ensure(&mut self, ncpus: usize) {
        if self.rows.len() < ncpus {
            self.rows.resize(ncpus, CpuMask::empty());
        }
    }

    /// Records a publish into queue `publisher` targeting every CPU in
    /// `targets`.
    pub fn mark(&mut self, targets: &CpuMask, publisher: CpuId) {
        for cpu in targets.iter() {
            self.rows[cpu.index()].set(publisher);
        }
    }

    /// Takes and clears `cpu`'s row: the set of queues its sweep must
    /// visit. The caller is responsible for clearing `cpu` from every
    /// state in the returned queues before the next publish (the sweep
    /// does exactly that).
    pub fn take_row(&mut self, cpu: CpuId) -> CpuMask {
        std::mem::take(&mut self.rows[cpu.index()])
    }

    /// Clears everything (end of run).
    pub fn clear(&mut self) {
        self.rows.fill(CpuMask::empty());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mark_sets_publisher_bit_in_each_target_row() {
        let mut map = PendingSweepMap::new();
        map.ensure(8);
        let targets = CpuMask::from_cpus([CpuId(2), CpuId(5)]);
        map.mark(&targets, CpuId(3));
        assert_eq!(map.take_row(CpuId(2)), CpuMask::from_cpus([CpuId(3)]));
        assert_eq!(map.take_row(CpuId(5)), CpuMask::from_cpus([CpuId(3)]));
        assert!(map.take_row(CpuId(3)).is_empty());
    }

    #[test]
    fn take_row_clears() {
        let mut map = PendingSweepMap::new();
        map.ensure(4);
        map.mark(&CpuMask::from_cpus([CpuId(1)]), CpuId(0));
        assert!(!map.take_row(CpuId(1)).is_empty());
        assert!(map.take_row(CpuId(1)).is_empty());
    }

    #[test]
    fn rows_accumulate_across_publishers() {
        let mut map = PendingSweepMap::new();
        map.ensure(4);
        map.mark(&CpuMask::from_cpus([CpuId(1)]), CpuId(0));
        map.mark(&CpuMask::from_cpus([CpuId(1)]), CpuId(2));
        assert_eq!(
            map.take_row(CpuId(1)),
            CpuMask::from_cpus([CpuId(0), CpuId(2)])
        );
    }

    #[test]
    fn ensure_grows_without_dropping_bits() {
        let mut map = PendingSweepMap::new();
        map.ensure(2);
        map.mark(&CpuMask::from_cpus([CpuId(1)]), CpuId(0));
        map.ensure(8);
        assert_eq!(map.take_row(CpuId(1)), CpuMask::from_cpus([CpuId(0)]));
    }
}
