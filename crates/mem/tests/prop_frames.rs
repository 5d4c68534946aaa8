//! Property tests for [`FrameAllocator`] invariants under memory
//! pressure (DESIGN.md §14): random interleavings of allocation,
//! refcounting, and reclamation-debt bookkeeping against a model
//! multiset, driven to exhaustion so the watermark and OOM paths are
//! exercised — not just the happy path.
//!
//! Invariants checked after **every** step:
//!
//! * conservation — per node, `free + allocated == total` and
//!   `debt <= allocated` ([`FrameAllocator::conservation_holds`]);
//! * no double-allocation — a frame handed out while live in the model
//!   is a bug, whatever the pressure;
//! * refcounts equal the model multiset exactly;
//! * pressure is a pure function of the free count and the watermarks;
//! * `min_free` is a true running minimum of the free count.

use latr_arch::NodeId;
use latr_mem::{AllocError, FrameAllocator, Pfn, Pressure};
use proptest::prelude::*;
use std::collections::HashMap;

const NODES: usize = 2;
const PER_NODE: u64 = 24;

/// One scripted step against the allocator.
#[derive(Clone, Copy, Debug)]
enum Step {
    /// `alloc` with cross-node fallback.
    Alloc(u8),
    /// `alloc_exact` — fails with `NodeExhausted` instead of falling back.
    AllocExact(u8),
    /// `inc_ref` the i-th live frame (mod the live count).
    IncRef(u8),
    /// `dec_ref` the i-th live frame (mod the live count).
    DecRef(u8),
    /// Note reclamation debt for one live single-reference frame.
    NoteDebt,
    /// Settle one noted debt.
    SettleDebt,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        any::<u8>().prop_map(|n| Step::Alloc(n % NODES as u8)),
        any::<u8>().prop_map(|n| Step::AllocExact(n % NODES as u8)),
        any::<u8>().prop_map(Step::IncRef),
        any::<u8>().prop_map(Step::DecRef),
        Just(Step::NoteDebt),
        Just(Step::SettleDebt),
    ]
}

proptest! {
    #[test]
    fn allocator_invariants_hold_under_pressure(
        steps in prop::collection::vec(step_strategy(), 1..400),
        low in 0u64..12,
        min_gap in 0u64..6,
    ) {
        let min = low.saturating_sub(min_gap);
        let mut fa = FrameAllocator::new(NODES, PER_NODE);
        fa.set_watermarks(low, min);
        // Model: pfn → refcount, plus per-node noted-debt frames.
        let mut refs: HashMap<u64, u32> = HashMap::new();
        let mut order: Vec<Pfn> = Vec::new();
        let mut debt: Vec<Vec<Pfn>> = vec![Vec::new(); NODES];
        let mut min_free_seen = (NODES as u64) * PER_NODE;

        for step in steps {
            match step {
                Step::Alloc(node) => match fa.alloc(NodeId(node)) {
                    Ok(p) => {
                        prop_assert!(
                            !refs.contains_key(&p.0),
                            "double-alloc of {p:?} while live"
                        );
                        refs.insert(p.0, 1);
                        order.push(p);
                    }
                    Err(e) => {
                        prop_assert_eq!(e, AllocError::OutOfMemory { node: NodeId(node) });
                        prop_assert_eq!(refs.len() as u64, NODES as u64 * PER_NODE);
                    }
                },
                Step::AllocExact(node) => match fa.alloc_exact(NodeId(node)) {
                    Ok(p) => {
                        prop_assert!(!refs.contains_key(&p.0));
                        prop_assert_eq!(fa.node_of(p), NodeId(node));
                        refs.insert(p.0, 1);
                        order.push(p);
                    }
                    Err(e) => {
                        prop_assert_eq!(e, AllocError::NodeExhausted { node: NodeId(node) });
                        prop_assert_eq!(fa.free_on_node(NodeId(node)), 0);
                    }
                },
                Step::IncRef(i) => {
                    if !order.is_empty() {
                        let p = order[i as usize % order.len()];
                        let got = fa.inc_ref(p).expect("live frame takes a ref");
                        let r = refs.get_mut(&p.0).expect("model has it");
                        *r += 1;
                        prop_assert_eq!(got, *r);
                        order.push(p);
                    }
                }
                Step::DecRef(i) => {
                    if !order.is_empty() {
                        let idx = i as usize % order.len();
                        let p = order.swap_remove(idx);
                        // Frames with noted debt keep their last reference
                        // until the debt settles (the machine's ledger
                        // settles before releasing) — skip those here.
                        if refs[&p.0] == 1 && debt[fa.node_of(p).0 as usize].contains(&p) {
                            order.push(p);
                            continue;
                        }
                        let got = fa.dec_ref(p).expect("tracked reference");
                        let r = refs.get_mut(&p.0).expect("model has it");
                        *r -= 1;
                        prop_assert_eq!(got, *r);
                        if *r == 0 {
                            refs.remove(&p.0);
                        }
                    }
                }
                Step::NoteDebt => {
                    // Park a live single-reference frame with no debt yet,
                    // as the machine does for a deferred package's final
                    // references; parking it twice is refused.
                    let cand = order.iter().copied().find(|p| {
                        refs[&p.0] == 1 && !debt[fa.node_of(*p).0 as usize].contains(p)
                    });
                    if let Some(p) = cand {
                        prop_assert!(fa.park_debt(p));
                        prop_assert!(!fa.park_debt(p));
                        debt[fa.node_of(p).0 as usize].push(p);
                    }
                }
                Step::SettleDebt => {
                    if let Some(p) = debt.iter_mut().find_map(Vec::pop) {
                        prop_assert!(fa.unpark_debt(p));
                        prop_assert!(!fa.unpark_debt(p));
                    }
                }
            }

            // ---- invariants, every step --------------------------------
            prop_assert!(fa.conservation_holds());
            let mut free_total = 0u64;
            for (n, d) in debt.iter().enumerate() {
                let node = NodeId(n as u8);
                let free = fa.free_on_node(node) as u64;
                free_total += free;
                let allocated = fa.allocated_on_node(node);
                prop_assert_eq!(free + allocated, PER_NODE, "node {} totals", n);
                prop_assert_eq!(fa.reclaim_debt(node), d.len() as u64);
                prop_assert!(fa.reclaim_debt(node) <= allocated);
                // Pressure is a pure function of free vs the watermarks.
                let expect = if free < min {
                    Pressure::Min
                } else if free < low {
                    Pressure::Low
                } else {
                    Pressure::Normal
                };
                prop_assert_eq!(fa.pressure(node), expect);
                // Boosting watermarks never lowers pressure.
                prop_assert!(fa.pressure_boosted(node, 4) >= fa.pressure(node));
            }
            prop_assert_eq!(
                fa.reclaim_debt_total(),
                debt.iter().map(|d| d.len() as u64).sum::<u64>()
            );
            // Refcounts match the model multiset exactly.
            prop_assert_eq!(fa.allocated_count(), refs.len());
            for (&pfn, &r) in &refs {
                prop_assert_eq!(fa.refcount(Pfn(pfn)), r);
            }
            // min_free is a true running minimum.
            min_free_seen = min_free_seen.min(free_total);
            let tracked: u64 = (0..NODES)
                .map(|n| fa.min_free_on_node(NodeId(n as u8)))
                .sum();
            prop_assert!(fa.min_free() <= free_total);
            prop_assert!(tracked <= min_free_seen, "per-node minima sum below any global low point");
        }

        // Teardown: settle all debt, drop every reference; nothing leaks.
        for p in debt.into_iter().flatten() {
            prop_assert!(fa.unpark_debt(p));
        }
        for p in order {
            fa.dec_ref(p).expect("teardown reference");
        }
        prop_assert_eq!(fa.allocated_count(), 0);
        prop_assert_eq!(fa.reclaim_debt_total(), 0);
        prop_assert!(fa.conservation_holds());
    }

    /// Exhaustion round-trip: drain the machine to OOM, verify Min
    /// pressure everywhere, free everything, verify full recovery with
    /// `min_free` pinned at the low point.
    #[test]
    fn exhaustion_and_recovery(seed_order in prop::collection::vec(0u8..NODES as u8, 0..8)) {
        let mut fa = FrameAllocator::new(NODES, PER_NODE);
        fa.set_watermarks(6, 2);
        let mut live = Vec::new();
        // A few seeded allocs in arbitrary node order, then drain.
        for n in seed_order {
            live.push(fa.alloc(NodeId(n)).expect("machine not full yet"));
        }
        while let Ok(p) = fa.alloc(NodeId(0)) {
            live.push(p);
        }
        prop_assert_eq!(live.len() as u64, NODES as u64 * PER_NODE);
        prop_assert_eq!(fa.alloc(NodeId(1)), Err(AllocError::OutOfMemory { node: NodeId(1) }));
        for n in 0..NODES {
            prop_assert_eq!(fa.pressure(NodeId(n as u8)), Pressure::Min);
            prop_assert_eq!(fa.min_free_on_node(NodeId(n as u8)), 0);
        }
        prop_assert!(fa.conservation_holds());
        for p in live {
            fa.dec_ref(p).expect("live frame");
        }
        for n in 0..NODES {
            let node = NodeId(n as u8);
            prop_assert_eq!(fa.pressure(node), Pressure::Normal);
            prop_assert_eq!(fa.free_on_node(node) as u64, PER_NODE);
            // The low point survives recovery — it is the storm's record.
            prop_assert_eq!(fa.min_free_on_node(node), 0);
        }
        prop_assert!(fa.conservation_holds());
    }
}
