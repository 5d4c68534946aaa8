//! Tick-gated deferred reclamation (§4.2, concurrent form).
//!
//! Objects are parked together with the registry's current minimum tick;
//! they may be handed back once every core has ticked (= swept) at least
//! `grace` more times, guaranteeing every stale local cache entry was
//! dropped in between — the runtime twin of "Latr waits two full cycles of
//! TLB invalidations".
//!
//! Two types implement the rule and share no queue code:
//!
//! * [`ShardedReclaimer`] — the runtime engine: per-core shards
//!   (each on its own cache line, each behind an uncontended per-shard
//!   lock) parking items in a FIFO by the *calling core's* local tick.
//!   `defer` touches only the caller's shard and never reads the global
//!   frontier; `collect` gates on the cached
//!   [`RtRegistry::cached_frontier`] — one atomic load instead of the
//!   scan.
//! * [`RtReclaimer`] — the **reference** engine, kept as the executable
//!   spec: one global `Mutex<VecDeque>`, every `defer`/`collect` pays
//!   the O(cores) [`RtRegistry::min_live_tick`] scan. Simple and
//!   obviously correct; the differential suite (`reclaim_diff`), loom
//!   and `rt_stress` drive both types directly.
//!
//! The sharded engine is *conservative* relative to the reference: it
//! parks at `tick_of(core) + grace ≥ min_tick() + grace`, so nothing is
//! ever handed back earlier than the reference would allow (the
//! differential proptest pins cumulative-subset at every step and
//! multiset equality at quiescence).

use crate::rt::pad::CachePadded;
use crate::rt::queue::RtRegistry;
use crate::rt::sync::Mutex;
use std::collections::VecDeque;

/// A deferred-reclamation queue over arbitrary payloads.
///
/// ```
/// use latr_core::rt::{RtRegistry, RtReclaimer};
/// let registry = RtRegistry::new(2, 8);
/// let reclaimer: RtReclaimer<String> = RtReclaimer::new(2); // 2-tick grace
/// reclaimer.defer(&registry, "freed page".to_owned());
/// assert!(reclaimer.collect(&registry).is_empty()); // no ticks yet
/// for _ in 0..2 { registry.sweep(0); registry.sweep(1); }
/// assert_eq!(reclaimer.collect(&registry), vec!["freed page".to_owned()]);
/// ```
///
/// # Liveness assumption
///
/// Progress depends on **every** core sweeping: the reclamation frontier
/// is [`RtRegistry::min_tick`], the *minimum* tick over all cores, so a
/// single core that never calls [`RtRegistry::sweep`] pins the frontier
/// forever and every deferred item stays parked indefinitely — memory is
/// never handed back, but safety is never violated (nothing is reclaimed
/// early). This mirrors the kernel setting, where the scheduler tick
/// guarantees each online core sweeps within one tick period (§4.1); a
/// user-space embedder must provide the same guarantee, e.g. by sweeping
/// from an idle loop or timer on behalf of otherwise-quiescent
/// participants. The `never_sweeping_core_pins_frontier_forever` test
/// locks in this stall behaviour.
#[derive(Debug)]
pub struct RtReclaimer<T> {
    /// Grace in sweep cycles.
    grace: u64,
    /// The reference engine's single queue; held briefly and never
    /// nested with another rt lock.
    pending: Mutex<VecDeque<(u64, T)>>,
}

impl<T> RtReclaimer<T> {
    /// Creates a reclaimer that waits `grace` full sweep cycles (the paper
    /// uses 2).
    pub fn new(grace: u64) -> Self {
        RtReclaimer {
            grace,
            pending: Mutex::new(VecDeque::new()),
        }
    }

    /// Parks `item` until every core has swept `grace` more times.
    ///
    /// The baseline is the minimum tick over *live* cores (identical to
    /// `min_tick()` while nothing is excluded): anchoring to the all-core
    /// minimum would let a long-dead core's frozen tick produce a due the
    /// live cores already passed, reclaiming before they swept even once
    /// after this defer.
    pub fn defer(&self, registry: &RtRegistry, item: T) {
        let due = registry.min_live_tick() + self.grace;
        self.pending.lock().push_back((due, item));
    }

    /// Collects every item whose grace period has elapsed.
    pub fn collect(&self, registry: &RtRegistry) -> Vec<T> {
        let mut out = Vec::new();
        self.collect_into(registry, &mut out);
        out
    }

    /// Allocation-free [`collect`](Self::collect): appends the due items
    /// to `out` (not cleared first) so callers can reuse one buffer.
    ///
    /// Gates on the live-core minimum, so an excluded (dead) core stops
    /// pinning reclamation. Dues are only *nearly* monotone once cores
    /// rejoin (the live minimum can step down), so a larger due at the
    /// queue front may briefly park smaller ones behind it — strictly
    /// conservative, never early.
    pub fn collect_into(&self, registry: &RtRegistry, out: &mut Vec<T>) {
        let frontier = registry.min_live_tick();
        let mut pending = self.pending.lock();
        while let Some(&(due, _)) = pending.front() {
            if due > frontier {
                break;
            }
            out.push(pending.pop_front().expect("front exists").1);
        }
    }

    /// Items still parked.
    pub fn pending_count(&self) -> usize {
        self.pending.lock().len()
    }

    /// Drains everything unconditionally (shutdown).
    pub fn drain_all(&self) -> Vec<T> {
        self.pending.lock().drain(..).map(|(_, t)| t).collect()
    }
}

/// One core's slice of the sharded reclaimer: `(due, item)` pairs in
/// defer order, which is also due order (see [`ShardedReclaimer`]).
type Shard<T> = VecDeque<(u64, T)>;

/// The sharded reclaimer: the scaling engine.
///
/// Each core parks and collects through **its own** shard, one FIFO of
/// `(due, item)` pairs, so `defer` costs one uncontended per-shard lock
/// plus one load of the *caller's own* (padded) tick counter — no global
/// mutex, no O(cores) frontier scan. `collect` pops the shard's front
/// while its due is at most the registry's cached frontier: a single
/// atomic load.
///
/// Safety matches [`RtReclaimer`] conservatively: an item deferred on
/// `core` is due at `tick_of(core) + grace ≥ min_tick() + grace`, and is
/// handed back only once `cached_frontier() ≥ due`, which implies
/// `min_tick() ≥ due` (the cache never leads the scan). The reference
/// engine's liveness assumption carries over unchanged: a core that
/// never sweeps pins the frontier and parks every item forever.
///
/// # Why one FIFO per shard is exact
///
/// Only `core` itself defers onto shard `core`, and the dues it records
/// never decrease, so the shard is sorted by due and popping the front
/// while `due ≤ cached_frontier()` releases *every* item that is due —
/// nothing due waits behind a later item:
///
/// * a live core's tick only grows;
/// * under exclusions the base is clamped up to the cached frontier,
///   which only grows and never leads a live core's tick, so the clamp
///   moves no base below one the core recorded before;
/// * [`RtRegistry::rejoin`] fast-forwards a rejoining core's tick to the
///   frontier, so the base it records after rejoining is at least the
///   clamped base it recorded while excluded.
///
/// Even if a due ever stepped down, the FIFO would only delay the
/// smaller item behind the larger one; it never returns an item early.
#[derive(Debug)]
pub struct ShardedReclaimer<T> {
    /// Grace in sweep cycles.
    grace: u64,
    /// Per-core FIFOs of parked items, each held briefly and never
    /// nested with another rt lock.
    shards: Box<[CachePadded<Mutex<Shard<T>>>]>,
}

impl<T> ShardedReclaimer<T> {
    /// Creates a reclaimer with one shard per core, waiting `grace` full
    /// sweep cycles (the paper uses 2).
    pub fn new(grace: u64, cores: usize) -> Self {
        ShardedReclaimer {
            grace,
            shards: (0..cores.max(1))
                .map(|_| CachePadded::new(Mutex::new(Shard::new())))
                .collect(),
        }
    }

    /// Parks `item` on `core`'s shard until every core has swept `grace`
    /// more times. Reads only the calling core's own tick counter —
    /// never the global frontier — except while cores are excluded, when
    /// the base is clamped up to the cached frontier: a core that was
    /// itself excluded (and whose tick is behind the frontier) must not
    /// produce an already-due item before it flushes and rejoins.
    pub fn defer(&self, registry: &RtRegistry, core: usize, item: T) {
        let mut base = registry.tick_of(core);
        if registry.has_exclusions() {
            base = base.max(registry.cached_frontier());
        }
        self.shards[core]
            .lock()
            .push_back((base + self.grace, item));
    }

    /// Collects every item on `core`'s shard whose grace elapsed,
    /// gated on the cached frontier (one atomic load).
    pub fn collect(&self, registry: &RtRegistry, core: usize) -> Vec<T> {
        let mut out = Vec::new();
        self.collect_into(registry, core, &mut out);
        out
    }

    /// Allocation-free [`collect`](Self::collect): appends to `out` (not
    /// cleared first).
    pub fn collect_into(&self, registry: &RtRegistry, core: usize, out: &mut Vec<T>) {
        let frontier = registry.cached_frontier();
        let mut shard = self.shards[core].lock();
        while let Some(&(due, _)) = shard.front() {
            if due > frontier {
                break;
            }
            out.push(shard.pop_front().expect("front exists").1);
        }
    }

    /// Items still parked, summed across every shard.
    pub fn pending_count(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Drains everything unconditionally (shutdown), shard by shard, in
    /// each shard's due order. The shards stay usable afterwards.
    pub fn drain_all(&self) -> Vec<T> {
        let mut out = Vec::new();
        for shard in self.shards.iter() {
            out.extend(shard.lock().drain(..).map(|(_, t)| t));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn grace_gates_on_slowest_core() {
        let registry = RtRegistry::new(3, 8);
        let rec: RtReclaimer<u32> = RtReclaimer::new(2);
        rec.defer(&registry, 1);
        // Two cores race ahead; the third never sweeps.
        for _ in 0..10 {
            registry.sweep(0);
            registry.sweep(1);
        }
        assert!(rec.collect(&registry).is_empty(), "slowest core gates");
        registry.sweep(2);
        registry.sweep(2);
        assert_eq!(rec.collect(&registry), vec![1]);
    }

    #[test]
    fn never_sweeping_core_pins_frontier_forever() {
        // The liveness assumption documented on RtReclaimer: one core
        // that never sweeps pins min_tick() at 0 and parks every
        // deferred item forever, no matter how far the others run ahead.
        let registry = RtRegistry::new(4, 8);
        let rec: RtReclaimer<u32> = RtReclaimer::new(2);
        rec.defer(&registry, 7);
        for _ in 0..1000 {
            registry.sweep(0);
            registry.sweep(1);
            registry.sweep(2);
            // Core 3 never sweeps.
        }
        assert_eq!(registry.min_tick(), 0, "straggler pins the frontier");
        assert!(rec.collect(&registry).is_empty());
        assert_eq!(rec.pending_count(), 1);

        // Items deferred mid-stall park behind the same frontier.
        rec.defer(&registry, 8);
        assert!(rec.collect(&registry).is_empty());
        assert_eq!(rec.pending_count(), 2);

        // Only the straggler itself can unpin reclamation.
        registry.sweep(3);
        assert!(rec.collect(&registry).is_empty(), "one tick < grace of 2");
        registry.sweep(3);
        assert_eq!(rec.collect(&registry), vec![7, 8]);
        assert_eq!(rec.pending_count(), 0);
    }

    #[test]
    fn fifo_order_is_preserved() {
        let registry = RtRegistry::new(1, 8);
        let rec: RtReclaimer<u32> = RtReclaimer::new(1);
        rec.defer(&registry, 1);
        registry.sweep(0);
        rec.defer(&registry, 2);
        registry.sweep(0);
        assert_eq!(rec.collect(&registry), vec![1, 2]);
    }

    #[test]
    fn drain_all_ignores_grace() {
        let registry = RtRegistry::new(2, 8);
        let rec: RtReclaimer<&str> = RtReclaimer::new(2);
        rec.defer(&registry, "a");
        rec.defer(&registry, "b");
        assert_eq!(rec.pending_count(), 2);
        assert_eq!(rec.drain_all(), vec!["a", "b"]);
        assert_eq!(rec.pending_count(), 0);
    }

    #[test]
    fn sharded_grace_gates_on_slowest_core() {
        let registry = RtRegistry::new(3, 8);
        let rec: ShardedReclaimer<u32> = ShardedReclaimer::new(2, 3);
        rec.defer(&registry, 0, 1);
        for _ in 0..10 {
            registry.sweep(0);
            registry.sweep(1);
        }
        assert!(
            rec.collect(&registry, 0).is_empty(),
            "core 2 never swept: the cached frontier must still gate"
        );
        registry.sweep(2);
        registry.sweep(2);
        assert_eq!(rec.collect(&registry, 0), vec![1]);
        assert_eq!(rec.pending_count(), 0);
    }

    #[test]
    fn sharded_collect_only_drains_the_callers_shard() {
        let registry = RtRegistry::new(2, 8);
        let rec: ShardedReclaimer<u32> = ShardedReclaimer::new(1, 2);
        rec.defer(&registry, 0, 10);
        rec.defer(&registry, 1, 11);
        registry.sweep(0);
        registry.sweep(1);
        registry.advance_frontier();
        assert_eq!(rec.collect(&registry, 0), vec![10]);
        assert_eq!(rec.pending_count(), 1, "core 1's item stays parked");
        assert_eq!(rec.collect(&registry, 1), vec![11]);
    }

    #[test]
    fn sharded_racing_core_dues_return_in_order() {
        // A single core races 20 ticks ahead of a fresh shard: its dues
        // wait in the FIFO, then come back in order once the frontier
        // catches up.
        let registry = RtRegistry::new(1, 8);
        let rec: ShardedReclaimer<u32> = ShardedReclaimer::new(2, 1);
        for _ in 0..20 {
            registry.sweep(0);
        }
        rec.defer(&registry, 0, 7); // due 22
        rec.defer(&registry, 0, 8);
        assert_eq!(rec.pending_count(), 2);
        assert!(rec.collect(&registry, 0).is_empty(), "due 22 > frontier 20");
        registry.sweep(0);
        registry.sweep(0);
        assert_eq!(rec.collect(&registry, 0), vec![7, 8]);
        rec.defer(&registry, 0, 9);
        registry.sweep(0);
        registry.sweep(0);
        assert_eq!(rec.collect(&registry, 0), vec![9]);
    }

    #[test]
    fn rejoined_core_keeps_its_shard_dues_in_order() {
        // Core 1 defers (due 2), is excluded, defers again while excluded
        // (clamped to frontier 10 + 2), rejoins (tick fast-forwarded to
        // 10) and defers once more (due 12): the shard stays sorted, so
        // one collect at frontier 12 releases all three.
        let registry = RtRegistry::new(2, 8);
        let rec: ShardedReclaimer<u32> = ShardedReclaimer::new(2, 2);
        rec.defer(&registry, 1, 1);
        for _ in 0..10 {
            registry.sweep(0);
        }
        registry.exclude_core(1);
        assert_eq!(registry.cached_frontier(), 10);
        rec.defer(&registry, 1, 2);
        assert_eq!(rec.collect(&registry, 1), vec![1], "due 2 ≤ 10");
        assert!(registry.rejoin(1));
        assert_eq!(registry.tick_of(1), 10);
        rec.defer(&registry, 1, 3);
        registry.sweep(0);
        registry.sweep(1);
        assert!(rec.collect(&registry, 1).is_empty(), "frontier 11 < 12");
        registry.sweep(0);
        registry.sweep(1);
        assert_eq!(rec.collect(&registry, 1), vec![2, 3]);
    }

    #[test]
    fn sharded_drain_all_ignores_grace_and_stays_usable() {
        let registry = RtRegistry::new(2, 8);
        let rec: ShardedReclaimer<&str> = ShardedReclaimer::new(2, 2);
        rec.defer(&registry, 0, "a");
        rec.defer(&registry, 1, "b");
        let mut drained = rec.drain_all();
        drained.sort_unstable();
        assert_eq!(drained, vec!["a", "b"]);
        assert_eq!(rec.pending_count(), 0);
        rec.defer(&registry, 0, "c");
        for _ in 0..2 {
            registry.sweep(0);
            registry.sweep(1);
        }
        assert_eq!(rec.collect(&registry, 0), vec!["c"]);
    }

    #[test]
    fn sharded_never_collects_before_the_reference_scan_allows() {
        // Cross-check against ground truth on a mixed schedule: anything
        // the sharded engine hands back must satisfy min_tick ≥ its due.
        let registry = RtRegistry::new(4, 8);
        let rec: ShardedReclaimer<(u32, u64)> = ShardedReclaimer::new(2, 4);
        let mut handed_back = 0;
        for round in 0..50u32 {
            let core = (round % 4) as usize;
            let due = registry.tick_of(core) + 2;
            rec.defer(&registry, core, (round, due));
            for c in 0..4 {
                if !(round + c as u32).is_multiple_of(3) {
                    registry.sweep(c);
                }
            }
            for c in 0..4 {
                for (_, due) in rec.collect(&registry, c) {
                    assert!(registry.min_tick() >= due, "reclaimed early");
                    handed_back += 1;
                }
            }
        }
        assert!(handed_back > 0, "schedule must actually reclaim");
    }

    #[test]
    fn excluded_core_stops_pinning_reference_reclamation() {
        // The robustness counterpart of
        // `never_sweeping_core_pins_frontier_forever`: once the dead core
        // is excluded, the live minimum gates instead and items flow.
        let registry = RtRegistry::new(4, 8);
        let rec: RtReclaimer<u32> = RtReclaimer::new(2);
        rec.defer(&registry, 7);
        for _ in 0..10 {
            registry.sweep(0);
            registry.sweep(1);
            registry.sweep(2);
            // Core 3 never sweeps.
        }
        assert!(rec.collect(&registry).is_empty(), "pinned pre-exclusion");
        registry.exclude_core(3);
        assert_eq!(rec.collect(&registry), vec![7]);
        // Items deferred while excluded anchor to the live minimum: the
        // live cores must still sweep `grace` more times.
        rec.defer(&registry, 8);
        assert!(rec.collect(&registry).is_empty());
        for _ in 0..2 {
            registry.sweep(0);
            registry.sweep(1);
            registry.sweep(2);
        }
        assert_eq!(rec.collect(&registry), vec![8]);
    }

    #[test]
    fn excluded_core_stops_pinning_sharded_reclamation() {
        let registry = RtRegistry::new(4, 8);
        let rec: ShardedReclaimer<u32> = ShardedReclaimer::new(2, 4);
        rec.defer(&registry, 0, 1);
        for _ in 0..10 {
            registry.sweep(0);
            registry.sweep(1);
            registry.sweep(2);
        }
        assert!(rec.collect(&registry, 0).is_empty(), "core 3 pins");
        registry.exclude_core(3);
        assert_eq!(rec.collect(&registry, 0), vec![1]);
    }

    #[test]
    fn defer_from_a_stale_excluded_core_is_never_already_due() {
        // A core that was excluded (tick frozen at 0) but keeps calling
        // defer before it flushes/rejoins: the due must clamp up to the
        // frontier, not land already-collectable.
        let registry = RtRegistry::new(2, 8);
        let rec: ShardedReclaimer<u32> = ShardedReclaimer::new(2, 2);
        for _ in 0..10 {
            registry.sweep(0);
        }
        registry.exclude_core(1);
        assert!(registry.cached_frontier() >= 10);
        rec.defer(&registry, 1, 42); // tick_of(1) == 0, frontier ≥ 10
        assert!(
            rec.collect(&registry, 1).is_empty(),
            "due clamps to frontier + grace, not tick + grace"
        );
        // After the live core sweeps out the grace, it becomes due.
        for _ in 0..3 {
            registry.sweep(0);
        }
        registry.advance_frontier();
        assert_eq!(rec.collect(&registry, 1), vec![42]);
    }

    #[test]
    fn concurrent_defer_collect_smoke() {
        let registry = Arc::new(RtRegistry::new(2, 8));
        let rec: Arc<RtReclaimer<u64>> = Arc::new(RtReclaimer::new(2));
        let total = 1000u64;
        let producer = {
            let (reg, rec) = (Arc::clone(&registry), Arc::clone(&rec));
            std::thread::spawn(move || {
                for i in 0..total {
                    rec.defer(&reg, i);
                }
            })
        };
        let ticker = {
            let reg = Arc::clone(&registry);
            std::thread::spawn(move || {
                for _ in 0..64 {
                    reg.sweep(0);
                    reg.sweep(1);
                    std::thread::yield_now();
                }
            })
        };
        producer.join().unwrap();
        ticker.join().unwrap();
        let mut got = Vec::new();
        // A few final cycles so everything becomes due.
        for _ in 0..4 {
            registry.sweep(0);
            registry.sweep(1);
        }
        got.extend(rec.collect(&registry));
        assert_eq!(got.len() as u64 + rec.pending_count() as u64, total);
        assert_eq!(rec.pending_count(), 0, "all items should be due by now");
    }

    #[test]
    fn stale_cached_frontier_holds_items_until_a_refresh() {
        // Both cores sweep past the grace without announcing (the
        // delayed-announce fault): the cached frontier stays at 0, so the
        // item stays parked although every tick says it is safe. A forced
        // refresh releases it with no further sweeps.
        let registry = RtRegistry::new(2, 8);
        let rec: ShardedReclaimer<u32> = ShardedReclaimer::new(2, 2);
        rec.defer(&registry, 0, 9);
        let mut sink = Vec::new();
        for _ in 0..4 {
            registry.sweep_into_unannounced(0, &mut sink);
            registry.sweep_into_unannounced(1, &mut sink);
        }
        assert!(rec.collect(&registry, 0).is_empty(), "stale cache gates");
        assert_eq!(registry.advance_frontier(), 4);
        assert_eq!(rec.collect(&registry, 0), vec![9]);
    }
}
