//! Differential property test: sharded vs reference reclaimer (ISSUE 5).
//!
//! [`ShardedReclaimer`] (the runtime engine) and [`RtReclaimer`] (its
//! executable spec) are called directly — they share no queue code. Both
//! engines are driven through the identical random schedule of
//! defer/sweep/collect ops on identically-shaped registries (same sweep
//! schedule ⇒ identical per-core ticks ⇒ identical frontiers), and must
//! agree on the reclaimed multiset:
//!
//! * **Safety, per collect** — every item the sharded engine hands back
//!   satisfies `min_tick() ≥ due` on the ground-truth reference scan
//!   (never reclaimed early), and the sharded engine's cumulative
//!   reclaimed set is a subset of the reference's at every step (the
//!   sharded due `tick_of(core) + grace` is conservative relative to the
//!   reference's `min_tick() + grace`).
//! * **Equivalence at quiescence** — once every core has swept past
//!   every due, both engines have reclaimed exactly the full deferred
//!   multiset.
//! * **Exactness, per collect** — after a sharded collect on core `c`,
//!   no item left on shard `c` is due by the cached frontier. The engine
//!   due (`tick_of(c)`, clamped up to `cached_frontier()` while cores are
//!   excluded, plus grace) never decreases along a shard, so the shard's
//!   FIFO never parks a due item behind a later one.
//!
//! ISSUE 6 adds thread death to the schedule: a [`Op::Kill`] excludes a
//! core on *both* registries (as the frontier watchdog or the sweep
//! guard's panic fence would), after which the dead core defers, sweeps
//! and collects nothing. The properties must survive unchanged — with
//! the ground truth now the *live* minimum, since the whole point of
//! exclusion is that a dead core's frozen tick stops gating reclamation
//! ("leak, never corrupt": its undelivered states are reaped, its
//! deferred items still drain through the quiescent collects).
//!
//! [`Op::Rejoin`] brings an excluded core back on both registries, the
//! way a stalled core flushes its local cache and rejoins on its next
//! tick. Its fast-forwarded tick is what keeps the shard dues monotone.

use latr_core::rt::{RtReclaimer, RtRegistry, ShardedReclaimer};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

const CORES: usize = 4;

#[derive(Debug, Clone)]
enum Op {
    /// `core` defers the next sequential item.
    Defer(u8),
    /// `core` sweeps — via the reference full scan or the runtime
    /// pending-row drain (both bump the tick identically).
    Sweep(u8, bool),
    /// `core` collects whatever its engine considers due.
    Collect(u8),
    /// `core` is excluded on both registries and stays silent until it
    /// rejoins. Ignored if it would exclude the last live core.
    Kill(u8),
    /// An excluded `core` flushes and rejoins on both registries.
    /// Ignored if the core is live.
    Rejoin(u8),
}

fn ops() -> impl Strategy<Value = (u64, Vec<Op>)> {
    let core = 0u8..CORES as u8;
    let defer = core.clone().prop_map(Op::Defer);
    let sweep = (core.clone(), 0u8..2).prop_map(|(c, p)| Op::Sweep(c, p == 1));
    let collect = core.clone().prop_map(Op::Collect);
    let kill = core.clone().prop_map(Op::Kill);
    let rejoin = core.prop_map(Op::Rejoin);
    (
        0u64..4, // grace
        prop::collection::vec(
            prop_oneof![
                defer.clone(),
                defer,
                sweep.clone(),
                sweep.clone(),
                sweep,
                collect.clone(),
                collect,
                kill,
                rejoin
            ],
            0..250,
        ),
    )
}

proptest! {
    #[test]
    fn sharded_and_reference_reclaim_the_same_multiset((grace, ops) in ops()) {
        let reg_ref = RtRegistry::new(CORES, 8);
        let reg_sh = RtRegistry::new(CORES, 8);
        let rec_ref: RtReclaimer<u64> = RtReclaimer::new(grace);
        let rec_sh: ShardedReclaimer<u64> = ShardedReclaimer::new(grace, CORES);

        let mut next_item = 0u64;
        // Items still parked on each sharded shard, with their engine due.
        let mut parked: Vec<BTreeMap<u64, u64>> = vec![BTreeMap::new(); CORES];
        let mut got_ref: BTreeSet<u64> = BTreeSet::new();
        let mut got_sh: BTreeSet<u64> = BTreeSet::new();
        let mut killed: BTreeSet<usize> = BTreeSet::new();
        let mut max_due = 0u64;

        for op in &ops {
            match *op {
                Op::Defer(core) => {
                    let core = core as usize;
                    if killed.contains(&core) {
                        continue;
                    }
                    // The sharded engine's own due: the deferring core's
                    // tick, clamped up to the cached frontier while any
                    // core is excluded. It is conservative for the safety
                    // check and, with the reference's due, bounds the
                    // quiescence target.
                    let mut base = reg_sh.tick_of(core);
                    if reg_sh.has_exclusions() {
                        base = base.max(reg_sh.cached_frontier());
                    }
                    let due = base + grace;
                    parked[core].insert(next_item, due);
                    max_due = max_due.max(due).max(reg_ref.min_live_tick() + grace);
                    rec_ref.defer(&reg_ref, next_item);
                    rec_sh.defer(&reg_sh, core, next_item);
                    next_item += 1;
                }
                Op::Sweep(core, pending) => {
                    let core = core as usize;
                    if killed.contains(&core) {
                        continue;
                    }
                    let mut buf = Vec::new();
                    if pending {
                        reg_ref.sweep_into(core, &mut buf);
                        reg_sh.sweep_into(core, &mut buf);
                    } else {
                        reg_ref.full_scan_into(core, &mut buf);
                        reg_sh.full_scan_into(core, &mut buf);
                    }
                    // Identical schedules keep the ground-truth frontiers
                    // in lock-step.
                    prop_assert_eq!(reg_ref.min_live_tick(), reg_sh.min_live_tick());
                }
                Op::Collect(core) => {
                    let core = core as usize;
                    if killed.contains(&core) {
                        continue;
                    }
                    // The reference queue is global: any core collects
                    // everything due.
                    for item in rec_ref.collect(&reg_ref) {
                        prop_assert!(got_ref.insert(item), "reference reclaimed {item} twice");
                    }
                    for item in rec_sh.collect(&reg_sh, core) {
                        prop_assert!(got_sh.insert(item), "sharded reclaimed {item} twice");
                        let due = parked[core].remove(&item);
                        prop_assert!(due.is_some(), "sharded returned {item} from the wrong shard");
                        let due = due.expect("checked above");
                        prop_assert!(
                            reg_sh.min_live_tick() >= due,
                            "sharded reclaimed {item} early: due {due}, live min {}",
                            reg_sh.min_live_tick()
                        );
                    }
                    // Exactness: the FIFO left nothing due on this shard.
                    let frontier = reg_sh.cached_frontier();
                    for (&item, &due) in &parked[core] {
                        prop_assert!(
                            due > frontier,
                            "item {item} (due {due}) still parked at frontier {frontier}"
                        );
                    }
                    // The cached frontier never leads the live scan, so
                    // the sharded engine can only lag the reference.
                    prop_assert!(
                        got_sh.is_subset(&got_ref),
                        "sharded reclaimed {:?} before the reference did",
                        got_sh.difference(&got_ref).collect::<Vec<_>>()
                    );
                }
                Op::Kill(core) => {
                    let core = core as usize;
                    if killed.contains(&core) || killed.len() + 1 >= CORES {
                        continue;
                    }
                    killed.insert(core);
                    prop_assert!(reg_ref.exclude_core(core));
                    prop_assert!(reg_sh.exclude_core(core));
                }
                Op::Rejoin(core) => {
                    let core = core as usize;
                    if !killed.remove(&core) {
                        continue;
                    }
                    // The core keeps no local cache in this model, so its
                    // flush before rejoining is empty.
                    prop_assert!(reg_ref.rejoin(core));
                    prop_assert!(reg_sh.rejoin(core));
                    prop_assert_eq!(reg_ref.tick_of(core), reg_sh.tick_of(core));
                }
            }
        }

        // Quiesce: sweep every *live* core until the slowest live one
        // passed every due, then both engines must have handed back the
        // identical multiset — all of it, including items the dead cores
        // deferred before dying (their shards drain through the collects
        // below: leak of queue states, never of reclaimer items).
        let target = max_due.max(grace);
        let mut rounds = 0;
        while reg_sh.min_live_tick() < target {
            for core in 0..CORES {
                if killed.contains(&core) {
                    continue;
                }
                reg_ref.sweep(core);
                reg_sh.sweep(core);
            }
            // With exclusions, `min_live_tick()` floors at the cached
            // frontier (which only live-scans under the transition lock
            // may pass a dead core) — refresh it explicitly so the loop
            // advances one tick per round.
            reg_ref.advance_frontier();
            reg_sh.advance_frontier();
            rounds += 1;
            prop_assert!(rounds <= target + 1, "quiescence must terminate");
        }
        reg_sh.advance_frontier();
        for core in 0..CORES {
            got_ref.extend(rec_ref.collect(&reg_ref));
            got_sh.extend(rec_sh.collect(&reg_sh, core));
        }
        let all: BTreeSet<u64> = (0..next_item).collect();
        prop_assert_eq!(&got_ref, &all, "reference lost or duplicated items");
        prop_assert_eq!(&got_sh, &all, "sharded lost or duplicated items");
        prop_assert_eq!(rec_ref.pending_count(), 0);
        prop_assert_eq!(rec_sh.pending_count(), 0);
    }
}
