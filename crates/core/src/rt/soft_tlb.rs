//! A software TLB: the demonstration client of the rt primitives.
//!
//! [`SoftTlbTable`] plays the page table (a shared key→value map);
//! [`SoftTlb`] plays one core's TLB (a private cache of lookups). Unmap
//! publishes a Latr state instead of interrupting the other threads; each
//! thread drops its stale cache entries at its next
//! [`tick`](SoftTlb::tick) — exactly the paper's flow, with "bounded
//! staleness between ticks" as the observable semantics: a stale hit
//! returns the *old* value (never garbage), and after one full tick cycle
//! the entry is gone everywhere.

use crate::rt::queue::{PublishError, RtInvalidation, RtRegistry};
use crate::rt::sync::RwLock;
use latr_arch::{CpuId, CpuMask};
use std::collections::HashMap;
use std::sync::Arc;

/// The shared mapping table ("page table").
#[derive(Debug)]
pub struct SoftTlbTable {
    registry: Arc<RtRegistry>,
    /// The registry's cores, every one a target of an unmap but its own.
    cores: CpuMask,
    map: RwLock<HashMap<u64, u64>>,
}

impl SoftTlbTable {
    /// Creates a table whose invalidations flow through `registry`.
    pub fn new(registry: Arc<RtRegistry>) -> Self {
        SoftTlbTable {
            cores: CpuMask::first_n(registry.cores()),
            registry,
            map: RwLock::new(HashMap::new()),
        }
    }

    /// The underlying registry.
    pub fn registry(&self) -> &Arc<RtRegistry> {
        &self.registry
    }

    /// Installs (or replaces) a mapping.
    pub fn map_key(&self, key: u64, value: u64) {
        self.map.write().insert(key, value);
    }

    /// Authoritative lookup (the "page walk").
    pub fn walk(&self, key: u64) -> Option<u64> {
        self.map.read().get(&key).copied()
    }

    /// Lazily unmaps `key` on behalf of `core`: removes it from the table
    /// and publishes an invalidation for every other core. Returns the old
    /// value.
    ///
    /// # Errors
    ///
    /// Returns [`PublishError`] when `core`'s state queue is full; the
    /// mapping is *not* removed in that case, so the caller can retry or
    /// invalidate synchronously.
    pub fn unmap_lazy(&self, core: usize, key: u64) -> Result<Option<u64>, PublishError> {
        // Publish first: if the queue is full we must not remove the
        // mapping without a pending invalidation.
        let mut others = self.cores;
        others.clear(CpuId(core as u16));
        let inv = RtInvalidation {
            mm: 0,
            start: key,
            end: key + 1,
        };
        self.registry.publish(core, inv, others)?;
        Ok(self.map.write().remove(&key))
    }
}

/// One thread's software TLB.
#[derive(Debug)]
pub struct SoftTlb {
    core: usize,
    table: Arc<SoftTlbTable>,
    cache: HashMap<u64, u64>,
    /// Reused across ticks so the tick loop allocates nothing.
    scratch: Vec<RtInvalidation>,
    hits: u64,
    misses: u64,
    stale_hits_possible: u64,
}

impl SoftTlb {
    /// Creates the cache for `core`.
    pub fn new(core: usize, table: Arc<SoftTlbTable>) -> Self {
        SoftTlb {
            core,
            table,
            cache: HashMap::new(),
            scratch: Vec::new(),
            hits: 0,
            misses: 0,
            stale_hits_possible: 0,
        }
    }

    /// Looks `key` up, consulting the private cache first (a cached entry
    /// may be stale until the next [`tick`](Self::tick) — bounded
    /// staleness, §4.4).
    pub fn lookup(&mut self, key: u64) -> Option<u64> {
        if let Some(&v) = self.cache.get(&key) {
            self.hits += 1;
            return Some(v);
        }
        self.misses += 1;
        let v = self.table.walk(key)?;
        self.cache.insert(key, v);
        Some(v)
    }

    /// The scheduler-tick hook: sweeps the registry
    /// ([`RtRegistry::sweep_into`]) and drops every cached key named by an
    /// invalidation. Returns how many entries were
    /// dropped. Allocation-free in steady state: the sweep reuses one
    /// scratch buffer for the whole lifetime of the TLB.
    ///
    /// Robustness behavior: the sweep runs under a [`SweepGuard`] (a
    /// panic mid-sweep poisons only this core), and if this core was
    /// excluded (watchdog stall or poison) the whole cache is flushed
    /// before it [`rejoin`]s — while excluded its invalidations were
    /// reaped undelivered, so every cached entry is suspect. That flush
    /// is the "leak, never corrupt" contract's second half.
    ///
    /// [`SweepGuard`]: crate::rt::SweepGuard
    /// [`rejoin`]: RtRegistry::rejoin
    pub fn tick(&mut self) -> usize {
        self.tick_inner(true)
    }

    /// [`tick`](Self::tick) without the frontier announce — the
    /// delayed-announce fault: invalidations are still applied and the
    /// tick still counts, but the cached frontier learns of it only via
    /// other cores' forced refreshes.
    pub fn tick_unannounced(&mut self) -> usize {
        self.tick_inner(false)
    }

    // Hot path: point invalidation + sweep; allocation-free in steady
    // state (the scratch buffer is reused across ticks), which
    // `tests/zero_alloc.rs` checks.
    fn tick_inner(&mut self, announce: bool) -> usize {
        let registry = self.table.registry();
        let mut flushed = 0;
        if registry.has_exclusions() && registry.is_excluded(self.core) {
            // Flush-before-rejoin: every entry cached before/through the
            // exclusion window may be stale (its invalidation was reaped).
            flushed = self.cache.len();
            self.cache.clear();
            registry.rejoin(self.core);
        }
        let mut work = std::mem::take(&mut self.scratch);
        work.clear();
        let guard = registry.sweep_guard(self.core);
        if announce {
            registry.sweep_into(self.core, &mut work);
        } else {
            registry.sweep_into_unannounced(self.core, &mut work);
        }
        let mut dropped = flushed;
        for inv in &work {
            if inv.end == inv.start + 1 {
                // Point invalidation (the common case for unmap_lazy):
                // O(1) instead of a full-cache scan.
                dropped += usize::from(self.cache.remove(&inv.start).is_some());
            } else {
                let before = self.cache.len();
                self.cache.retain(|&k, _| !(k >= inv.start && k < inv.end));
                dropped += before - self.cache.len();
            }
            self.stale_hits_possible += 1;
        }
        guard.complete();
        self.scratch = work;
        dropped
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Entries currently cached.
    pub fn cached(&self) -> usize {
        self.cache.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(cores: usize) -> (Arc<SoftTlbTable>, Vec<SoftTlb>) {
        let registry = Arc::new(RtRegistry::new(cores, 64));
        let table = Arc::new(SoftTlbTable::new(registry));
        let tlbs = (0..cores)
            .map(|c| SoftTlb::new(c, Arc::clone(&table)))
            .collect();
        (table, tlbs)
    }

    #[test]
    fn lookup_caches_and_hits() {
        let (table, mut tlbs) = setup(2);
        table.map_key(10, 100);
        assert_eq!(tlbs[0].lookup(10), Some(100));
        assert_eq!(tlbs[0].lookup(10), Some(100));
        assert_eq!(tlbs[0].hits(), 1);
        assert_eq!(tlbs[0].misses(), 1);
        assert_eq!(tlbs[0].lookup(99), None);
    }

    #[test]
    fn lazy_unmap_leaves_bounded_staleness() {
        let (table, mut tlbs) = setup(2);
        table.map_key(10, 100);
        table.map_key(11, 110);
        // Both cores cache the mapping; core 1 also caches an unrelated key.
        assert_eq!(tlbs[0].lookup(10), Some(100));
        assert_eq!(tlbs[1].lookup(10), Some(100));
        assert_eq!(tlbs[1].lookup(11), Some(110));

        // Core 0 unmaps lazily.
        assert_eq!(table.unmap_lazy(0, 10).unwrap(), Some(100));

        // Before core 1 ticks: stale hit returns the OLD value.
        assert_eq!(tlbs[1].lookup(10), Some(100));

        // The tick drops only the invalidated entry; lookups of it miss.
        assert_eq!(tlbs[1].tick(), 1);
        assert_eq!(tlbs[1].cached(), 1, "unrelated entry survives");
        assert_eq!(tlbs[1].lookup(10), None);
        assert_eq!(tlbs[1].lookup(11), Some(110));
        assert_eq!(tlbs[1].tick(), 0, "pending row drained: nothing to drop");
    }

    #[test]
    fn unmapper_core_is_not_in_the_mask() {
        let (table, mut tlbs) = setup(2);
        table.map_key(5, 50);
        tlbs[0].lookup(5);
        table.unmap_lazy(0, 5).unwrap();
        // The initiator invalidates locally itself in the kernel; here the
        // sweep simply has nothing addressed to core 0.
        assert_eq!(tlbs[0].tick(), 0);
    }

    #[test]
    fn overflow_keeps_mapping_intact() {
        let registry = Arc::new(RtRegistry::new(2, 1));
        let table = Arc::new(SoftTlbTable::new(registry));
        table.map_key(1, 10);
        table.map_key(2, 20);
        assert!(table.unmap_lazy(0, 1).is_ok());
        // Queue (capacity 1) is now full: unmap must fail AND keep the
        // mapping.
        assert_eq!(table.unmap_lazy(0, 2), Err(PublishError));
        assert_eq!(table.walk(2), Some(20));
    }

    #[test]
    fn excluded_tlb_flushes_everything_and_rejoins_on_tick() {
        let (table, mut tlbs) = setup(2);
        table.map_key(10, 100);
        table.map_key(11, 110);
        assert_eq!(tlbs[1].lookup(10), Some(100));
        assert_eq!(tlbs[1].lookup(11), Some(110));

        // Core 1 is declared dead; its pending invalidation is reaped.
        table.unmap_lazy(0, 10).unwrap();
        table.registry().exclude_core(1);
        assert_eq!(table.registry().stats().reaped_states, 1);

        // Its next tick must drop the WHOLE cache (both entries — it can't
        // know which invalidations it missed) and rejoin the frontier.
        assert_eq!(tlbs[1].tick(), 2);
        assert_eq!(tlbs[1].cached(), 0);
        assert!(!table.registry().is_excluded(1));
        assert_eq!(table.registry().stats().rejoins, 1);
        // Coherent again: the unmapped key misses, the live one re-walks.
        assert_eq!(tlbs[1].lookup(10), None);
        assert_eq!(tlbs[1].lookup(11), Some(110));
    }

    #[test]
    fn unannounced_tick_still_applies_invalidations() {
        let (table, mut tlbs) = setup(2);
        table.map_key(10, 100);
        assert_eq!(tlbs[1].lookup(10), Some(100));
        table.unmap_lazy(0, 10).unwrap();
        assert_eq!(tlbs[1].tick_unannounced(), 1);
        assert_eq!(tlbs[1].lookup(10), None);
        assert_eq!(
            table.registry().cached_frontier(),
            0,
            "announce was delayed"
        );
        assert_eq!(table.registry().tick_of(1), 1, "the tick still counted");
    }

    #[test]
    fn concurrent_readers_never_see_garbage() {
        use crate::rt::sync::atomic::{AtomicBool, Ordering};
        let cores = 4;
        let registry = Arc::new(RtRegistry::new(cores, 256));
        let table = Arc::new(SoftTlbTable::new(registry));
        for k in 0..64 {
            table.map_key(k, 1000 + k);
        }
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (1..cores)
            .map(|core| {
                let table = Arc::clone(&table);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut tlb = SoftTlb::new(core, table);
                    let mut iterations = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        for k in 0..64 {
                            if let Some(v) = tlb.lookup(k) {
                                // Stale or fresh, the value must be the one
                                // that was mapped — never garbage.
                                assert_eq!(v, 1000 + k);
                            }
                        }
                        tlb.tick();
                        iterations += 1;
                    }
                    iterations
                })
            })
            .collect();
        // Core 0 unmaps and remaps keys continuously.
        for round in 0..200 {
            let k = round % 64;
            while table.unmap_lazy(0, k).is_err() {
                // Queue full: let the sweepers drain.
                std::thread::yield_now();
            }
            table.map_key(k, 1000 + k);
        }
        stop.store(true, Ordering::Relaxed);
        // The per-lookup assertions inside the reader loops are the test;
        // join only propagates their panics.
        for r in readers {
            let _iterations = r.join().unwrap();
        }
    }
}
