//! Model checks of the rt primitives: their interleavings and their
//! memory orderings.
//!
//! Build and run with:
//!
//! ```sh
//! RUSTFLAGS="--cfg loom" cargo test -p latr-core --test loom --release
//! ```
//!
//! Under `--cfg loom` the rt primitives compile against the loom shim
//! (`crates/core/src/rt/sync.rs`): every atomic operation and lock
//! acquisition is a scheduling point, every load may read any store the
//! release/acquire memory model allows, and `loom::model` explores all
//! of those executions up to the preemption bound
//! (`LOOM_MAX_PREEMPTIONS`, default 2); see `third_party/loom`. The
//! tests prove the interleaving properties (exactly-once retirement, no
//! torn activation, grace-period gating) and, through witness variables,
//! that each Release/Acquire edge of the protocol carries what precedes
//! it: weakening any of them to `Relaxed` fails a test here
//! (`tests/mutants/ordering-*.patch`).
//!
//! The frontier and reclaimer models never publish, so they tick through
//! the reference [`RtRegistry::full_scan_into`]: its tick bookkeeping is
//! the runtime sweep's, and its one load per idle queue keeps the
//! explored state space smaller than the runtime sweep's four-word row
//! drain.
#![cfg(loom)]

use latr_arch::CpuMask;
use latr_core::rt::{RtInvalidation, RtQueue, RtReclaimer, RtRegistry, ShardedReclaimer};
use loom::sync::atomic::{AtomicUsize, Ordering};
use loom::sync::Arc;
use loom::thread;

fn inv(mm: u64) -> RtInvalidation {
    RtInvalidation {
        mm,
        start: 0x1000,
        end: 0x2000,
    }
}

/// The CPUs among `0..64` whose bits are set in `bits`.
fn cpus(bits: u64) -> CpuMask {
    CpuMask::from_words([bits, 0, 0, 0])
}

/// §4.1's activation protocol: a sweep racing a publish must see either
/// nothing or the *complete* payload — never a torn/partial state. The
/// publisher writes the payload fields before the activation store; the
/// sweeper loads the payload only behind the activation load.
#[test]
fn activation_protocol_is_never_torn() {
    loom::model(|| {
        let q = Arc::new(RtQueue::new(2));
        let q2 = Arc::clone(&q);
        let publisher = thread::spawn(move || {
            q2.publish(inv(7), cpus(0b10)).unwrap();
        });
        let mut seen = Vec::new();
        q.sweep_for(1, &mut seen);
        for s in &seen {
            assert_eq!(*s, inv(7), "sweep observed a torn payload: {s:?}");
        }
        publisher.join().unwrap();
        // Whatever interleaved, a final sweep must find the state if the
        // racing one missed it — publishes are never lost.
        let mut rest = Vec::new();
        q.sweep_for(1, &mut rest);
        assert_eq!(
            seen.len() + rest.len(),
            1,
            "state must be swept exactly once"
        );
        assert_eq!(q.active_count(), 0, "retired after its only target swept");
    });
}

/// Cross-word retirement: two sweepers whose bits live in *different*
/// 64-bit words of the [`AtomicCpuMask`] race to clear the last bit.
/// Both may observe emptiness (documented benign race) but the CAS on
/// the slot's active flag must retire the state exactly once — the
/// active counter ending at 0 (not underflowed) proves single
/// decrement, and the slot must be reusable afterwards.
#[test]
fn cross_word_retirement_is_exactly_once() {
    loom::model(|| {
        let q = Arc::new(RtQueue::new(1));
        // CPUs 0 (word 0) and 64 (word 1).
        q.publish(inv(9), CpuMask::from_words([1, 1, 0, 0]))
            .unwrap();
        let sweepers: Vec<_> = [0usize, 64]
            .into_iter()
            .map(|cpu| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    let mut out = Vec::new();
                    q.sweep_for(cpu, &mut out);
                    out.len()
                })
            })
            .collect();
        let seen: usize = sweepers.into_iter().map(|s| s.join().unwrap()).sum();
        assert_eq!(seen, 2, "each targeted cpu sweeps the state exactly once");
        assert_eq!(
            q.active_count(),
            0,
            "exactly one sweeper may retire the slot (no double fetch_sub)"
        );
        // The slot must be cleanly reusable after retirement.
        q.publish(inv(10), cpus(1)).unwrap();
        assert_eq!(q.active_count(), 1);
    });
}

/// Same-word case for contrast: the fetch_and itself arbitrates, so
/// exactly one clear observes emptiness and retires.
#[test]
fn same_word_retirement_is_exactly_once() {
    loom::model(|| {
        let q = Arc::new(RtQueue::new(1));
        q.publish(inv(3), cpus(0b11)).unwrap();
        let sweepers: Vec<_> = [0usize, 1]
            .into_iter()
            .map(|cpu| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    let mut out = Vec::new();
                    q.sweep_for(cpu, &mut out);
                    out.len()
                })
            })
            .collect();
        let seen: usize = sweepers.into_iter().map(|s| s.join().unwrap()).sum();
        assert_eq!(seen, 2);
        assert_eq!(q.active_count(), 0);
    });
}

/// The pending-bitmap publish/drain race (ISSUE 4): a publisher
/// activates a state and *then* sets the target's pending bit, while the
/// target concurrently drains its row and sweeps the flagged queues. For
/// every interleaving the state must be swept exactly once across the
/// racing sweep and a final drain — the bit may be taken before the
/// publish (stale-empty visit) or after (normal), but a set bit must
/// never be cleared without its state being visible to the sweep
/// (stale-clear would lose the invalidation).
#[test]
fn pending_bitmap_publish_and_drain_race_loses_nothing() {
    loom::model(|| {
        let reg = Arc::new(RtRegistry::new(2, 2));
        let publisher = {
            let reg = Arc::clone(&reg);
            thread::spawn(move || {
                reg.publish(0, inv(5), cpus(0b10)).unwrap();
            })
        };
        let mut seen = reg.sweep(1);
        for s in &seen {
            assert_eq!(*s, inv(5), "pending sweep observed a torn payload");
        }
        publisher.join().unwrap();
        seen.extend(reg.sweep(1));
        assert_eq!(
            seen.len(),
            1,
            "state must be swept exactly once across racing + final drains"
        );
        assert_eq!(reg.queue(0).active_count(), 0);
    });
}

/// The cached reclamation frontier (ISSUE 5): concurrent sweeps and
/// advances must never push the cache past an unswept core's tick. The
/// read order matters for the assertion itself — load the cache *before*
/// the reference scan, so a concurrent advance between the two loads can
/// only make the scan larger, never fake a violation.
#[test]
fn cached_frontier_never_passes_an_unswept_core() {
    loom::model(|| {
        let reg = Arc::new(RtRegistry::new(2, 1));
        let sweeper = {
            let reg = Arc::clone(&reg);
            thread::spawn(move || {
                reg.full_scan_into(1, &mut Vec::new());
                reg.advance_frontier();
            })
        };
        // Core 0 sweeps once, concurrently with core 1's sweep+advance.
        reg.full_scan_into(0, &mut Vec::new());
        let cached = reg.cached_frontier();
        let min = reg.min_tick();
        assert!(
            cached <= min,
            "cache {cached} passed the scan minimum {min}"
        );
        sweeper.join().unwrap();
        // Quiescent: a forced refresh converges the cache on the true
        // minimum exactly (both cores at tick 1).
        assert_eq!(reg.advance_frontier(), 1);
        assert_eq!(reg.cached_frontier(), 1);
        assert_eq!(reg.min_tick(), 1);
    });
}

/// The sharded reclaimer under the cached frontier: an item deferred on
/// core 0 with grace 1 must never be collected before every core swept
/// past its due tick, for every interleaving of the other core's sweeps
/// with the collector.
#[test]
fn sharded_reclaimer_never_collects_before_grace_on_every_core() {
    loom::model(|| {
        let reg = Arc::new(RtRegistry::new(2, 1));
        let rec: Arc<ShardedReclaimer<u32>> = Arc::new(ShardedReclaimer::new(1, 2));
        rec.defer(&reg, 0, 42); // due = tick_of(0) + 1 = 1
        let sweeper = {
            let reg = Arc::clone(&reg);
            thread::spawn(move || {
                reg.full_scan_into(1, &mut Vec::new());
            })
        };
        // Concurrent with core 1's sweep: core 0 has not swept yet, so
        // min_tick is 0 < due — nothing may come back.
        let early = rec.collect(&reg, 0);
        assert!(early.is_empty(), "collected before core 0 swept: {early:?}");
        reg.full_scan_into(0, &mut Vec::new());
        sweeper.join().unwrap();
        // Both cores at tick 1 = due; converge the cache and collect
        // exactly once.
        reg.advance_frontier();
        assert_eq!(rec.collect(&reg, 0), vec![42]);
        assert_eq!(rec.pending_count(), 0);
    });
}

/// The stall behaviour of `never_sweeping_core_pins_frontier_forever`,
/// mirrored onto the scaling engines: while core 1 never sweeps, no
/// amount of concurrent sweeping and collecting on core 0 may move the
/// cached frontier off 0 or release the parked item.
#[test]
fn never_sweeping_core_pins_cached_frontier_and_sharded_reclaimer() {
    loom::model(|| {
        let reg = Arc::new(RtRegistry::new(2, 1));
        let rec: Arc<ShardedReclaimer<u32>> = Arc::new(ShardedReclaimer::new(1, 2));
        rec.defer(&reg, 0, 7);
        let other = {
            let (reg, rec) = (Arc::clone(&reg), Arc::clone(&rec));
            thread::spawn(move || {
                reg.full_scan_into(0, &mut Vec::new());
                assert!(rec.collect(&reg, 0).is_empty());
            })
        };
        reg.full_scan_into(0, &mut Vec::new());
        reg.advance_frontier();
        assert_eq!(reg.cached_frontier(), 0, "straggler pins the cache");
        assert!(rec.collect(&reg, 0).is_empty());
        other.join().unwrap();
        assert_eq!(rec.pending_count(), 1, "item stays parked");
        // Only the straggler itself unpins reclamation.
        reg.full_scan_into(1, &mut Vec::new());
        reg.advance_frontier();
        assert_eq!(rec.collect(&reg, 0), vec![7]);
    });
}

/// The frontier watchdog (ISSUE 6): a core that dies (never sweeps) is
/// excluded once the virtual clock passes the timeout, and a concurrent
/// healthy sweeper is never blocked past that bound — nor ever excluded
/// itself while its sweeps stay fresh. The exclusion (mask set, queue-bit
/// reap, frontier re-derivation) races the healthy core's sweep in every
/// interleaving; afterwards the parked item must be collectable exactly
/// once.
#[test]
fn excluded_dead_core_never_blocks_reclamation() {
    loom::model(|| {
        let reg = Arc::new(RtRegistry::with_watchdog(2, 1, 1_000));
        let rec: Arc<ShardedReclaimer<u32>> = Arc::new(ShardedReclaimer::new(1, 2));
        // Clock 500: core 0 sweeps (freshly stamped), core 1 never will.
        reg.watchdog().unwrap().advance_clock(500);
        reg.full_scan_into(0, &mut Vec::new());
        rec.defer(&reg, 0, 9); // due = tick_of(0) + 1 = 2
                               // Clock 1500: core 1 is 1500 ns stale (> timeout); core 0 is at
                               // most 1000 ns stale (= timeout, not past it) whether the racing
                               // sweep below lands before or after the scan.
        reg.watchdog().unwrap().advance_clock(1_000);
        let killer = {
            let reg = Arc::clone(&reg);
            thread::spawn(move || reg.check_watchdog())
        };
        reg.full_scan_into(0, &mut Vec::new());
        let excluded = killer.join().unwrap();
        assert_eq!(excluded, 1, "exactly the dead core gets excluded");
        assert!(reg.is_excluded(1) && !reg.is_excluded(0));
        // The dead core no longer pins anything: the live minimum is
        // core 0's tick, and the parked item comes back exactly once.
        reg.advance_frontier();
        assert_eq!(reg.cached_frontier(), 2);
        assert_eq!(rec.collect(&reg, 0), vec![9]);
        assert_eq!(rec.pending_count(), 0);
    });
}

/// §4.2's grace-period frontier: an item deferred with grace 2 must
/// never be collected before *every* core has swept twice, no matter how
/// sweeps and collects interleave — and it must be collected exactly
/// once when they all have.
#[test]
fn grace_period_frontier_gates_collection() {
    loom::model(|| {
        let reg = Arc::new(RtRegistry::new(2, 2));
        let rec: Arc<RtReclaimer<u32>> = Arc::new(RtReclaimer::new(2));
        rec.defer(&reg, 42);

        let sweeper = {
            let reg = Arc::clone(&reg);
            thread::spawn(move || {
                reg.full_scan_into(1, &mut Vec::new());
                reg.full_scan_into(1, &mut Vec::new());
            })
        };

        reg.full_scan_into(0, &mut Vec::new());
        // Concurrent with the sweeper: core 0 has swept once, so the
        // frontier is at most 1 (< due = 2) — nothing may be collected.
        let early = rec.collect(&reg);
        assert!(
            early.is_empty(),
            "collected before core 0 reached the grace frontier"
        );
        reg.full_scan_into(0, &mut Vec::new());
        sweeper.join().unwrap();
        // All cores at tick 2: the item must now be due, exactly once.
        assert_eq!(rec.collect(&reg), vec![42]);
        assert_eq!(rec.pending_count(), 0);
    });
}

/// The `Slot.active` edge: a sweep that sees a slot active must see the
/// payload stored before the activation, and everything its publisher
/// did before publishing (the witness stands in for the page-table
/// change an unmap makes before its shootdown). The first publish makes
/// the queue's occupancy counter non-zero, so a sweep of the second slot
/// can get past the counter's fast path without synchronizing with the
/// second publish: only the `Slot.active` Release/Acquire pair orders
/// that payload.
#[test]
fn slot_activation_publishes_the_payload_and_what_preceded_it() {
    loom::model(|| {
        let q = Arc::new(RtQueue::new(2));
        let witness = Arc::new(AtomicUsize::new(0));
        let publisher = {
            let (q, witness) = (Arc::clone(&q), Arc::clone(&witness));
            thread::spawn(move || {
                q.publish(inv(1), cpus(0b10)).unwrap();
                witness.store(1, Ordering::Relaxed);
                q.publish(inv(2), cpus(0b10)).unwrap();
            })
        };
        let mut seen = Vec::new();
        q.sweep_for(1, &mut seen);
        for s in &seen {
            assert!(*s == inv(1) || *s == inv(2), "torn payload: {s:?}");
            if *s == inv(2) {
                assert_eq!(witness.load(Ordering::Relaxed), 1, "stale witness");
            }
        }
        publisher.join().unwrap();
    });
}

/// The `RtRegistry.ticks` announce: a collector that sees a core's tick
/// pass an item's due must see everything that core did before the
/// sweep (the witness stands in for the TLB entries the sweep dropped).
/// The reference reclaimer reads the ticks directly, so only the tick's
/// Release bump and the scan's Acquire loads order the witness.
#[test]
fn tick_announce_publishes_what_the_sweeper_did() {
    loom::model(|| {
        let reg = Arc::new(RtRegistry::new(2, 1));
        let rec: Arc<RtReclaimer<u32>> = Arc::new(RtReclaimer::new(1));
        let witness = Arc::new(AtomicUsize::new(0));
        rec.defer(&reg, 42); // due = min_live_tick() + 1 = 1
        let sweeper = {
            let (reg, witness) = (Arc::clone(&reg), Arc::clone(&witness));
            thread::spawn(move || {
                witness.store(1, Ordering::Relaxed);
                reg.full_scan_into(1, &mut Vec::new());
            })
        };
        reg.full_scan_into(0, &mut Vec::new());
        if !rec.collect(&reg).is_empty() {
            assert_eq!(
                witness.load(Ordering::Relaxed),
                1,
                "reclaimed before the sweep was seen"
            );
        }
        sweeper.join().unwrap();
    });
}

/// The `ReclaimFrontier.cached` edge: the sharded reclaimer gates on one
/// load of the cached frontier, so a collector that sees it pass an
/// item's due must see what the core that advanced it saw — here the
/// other core's sweep and what preceded it.
#[test]
fn cached_frontier_publishes_what_the_sweepers_did() {
    loom::model(|| {
        let reg = Arc::new(RtRegistry::new(2, 1));
        let rec: Arc<ShardedReclaimer<u32>> = Arc::new(ShardedReclaimer::new(1, 2));
        let witness = Arc::new(AtomicUsize::new(0));
        rec.defer(&reg, 0, 42); // due = tick_of(0) + 1 = 1
        let sweeper = {
            let (reg, witness) = (Arc::clone(&reg), Arc::clone(&witness));
            thread::spawn(move || {
                witness.store(1, Ordering::Relaxed);
                reg.full_scan_into(1, &mut Vec::new());
            })
        };
        reg.full_scan_into(0, &mut Vec::new());
        if !rec.collect(&reg, 0).is_empty() {
            assert_eq!(
                witness.load(Ordering::Relaxed),
                1,
                "reclaimed before the sweep was seen"
            );
        }
        sweeper.join().unwrap();
    });
}

/// The exclusion-count edge: [`RtRegistry::rejoin`] fast-forwards the
/// core's tick to the cached frontier and then decrements the exclusion
/// count. With no other core excluded, a [`RtRegistry::min_live_tick`]
/// that reads the count at zero takes the unmasked fast path, so it
/// must see the fast-forwarded tick through that load alone.
#[test]
fn excluded_count_publishes_the_rejoin_fast_forward() {
    loom::model(|| {
        let reg = Arc::new(RtRegistry::new(2, 1));
        reg.full_scan_into(0, &mut Vec::new());
        reg.full_scan_into(0, &mut Vec::new());
        assert!(reg.exclude_core(1));
        assert_eq!(reg.cached_frontier(), 2);
        let rejoiner = {
            let reg = Arc::clone(&reg);
            thread::spawn(move || assert!(reg.rejoin(1)))
        };
        let live = reg.min_live_tick();
        assert!(live >= 2, "live minimum {live} fell below the frontier 2");
        rejoiner.join().unwrap();
    });
}

/// The exclusion-mask edge: [`RtRegistry::rejoin`] fast-forwards the
/// core's tick to the cached frontier and then clears its exclusion bit.
/// A live-set scan that sees the bit clear must see the fast-forwarded
/// tick, or a due computed from it would fall below what the live cores
/// already promised. Core 2 stays excluded, so every scan takes the
/// masked path.
#[test]
fn exclusion_mask_publishes_the_rejoin_fast_forward() {
    loom::model(|| {
        let reg = Arc::new(RtRegistry::new(3, 1));
        reg.full_scan_into(0, &mut Vec::new());
        reg.full_scan_into(0, &mut Vec::new());
        assert!(reg.exclude_core(1) && reg.exclude_core(2));
        assert_eq!(reg.cached_frontier(), 2);
        let rejoiner = {
            let reg = Arc::clone(&reg);
            thread::spawn(move || assert!(reg.rejoin(1)))
        };
        let live = reg.min_live_tick();
        assert!(live >= 2, "live minimum {live} fell below the frontier 2");
        rejoiner.join().unwrap();
    });
}
