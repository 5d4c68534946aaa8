//! Model-based property tests of the memory and hardware substrates:
//! each structure is driven with random operation sequences and compared
//! against a trivially-correct reference model.

use latr_arch::{CpuId, CpuMask, NodeId, Tlb, TlbEntry, PCID_NONE};
use latr_mem::{
    AllocError, FrameAllocator, MapKind, PageTable, Pfn, Prot, Pte, PteFlags, VaRange, Vma,
    VmaTree, Vpn,
};
use latr_sim::Histogram;
use proptest::prelude::*;
use std::collections::{BTreeMap, HashSet};

// ---- CpuMask vs HashSet ------------------------------------------------------------

#[derive(Debug, Clone)]
enum MaskOp {
    Set(u16),
    Clear(u16),
}

fn mask_ops() -> impl Strategy<Value = Vec<MaskOp>> {
    prop::collection::vec(
        prop_oneof![
            (0u16..256).prop_map(MaskOp::Set),
            (0u16..256).prop_map(MaskOp::Clear),
        ],
        0..200,
    )
}

proptest! {
    #[test]
    fn cpumask_matches_hashset(ops in mask_ops()) {
        let mut mask = CpuMask::empty();
        let mut model: HashSet<u16> = HashSet::new();
        for op in ops {
            match op {
                MaskOp::Set(c) => {
                    mask.set(CpuId(c));
                    model.insert(c);
                }
                MaskOp::Clear(c) => {
                    mask.clear(CpuId(c));
                    model.remove(&c);
                }
            }
            prop_assert_eq!(mask.count(), model.len());
        }
        let from_mask: HashSet<u16> = mask.iter().map(|c| c.0).collect();
        prop_assert_eq!(from_mask, model.clone());
        prop_assert_eq!(mask.is_empty(), model.is_empty());
        prop_assert_eq!(
            mask.first().map(|c| c.0),
            model.iter().copied().min()
        );
    }
}

// ---- PageTable vs BTreeMap ---------------------------------------------------------

#[derive(Debug, Clone)]
enum PtOp {
    Map(u64, u64, u8),
    Unmap(u64),
    Update(u64, u8),
    MappedIn(u64, u64),
    UnmapRange(u64, u64),
}

/// The `i`-th page of a small universe: a dense run of 48 pages that
/// straddles the leaf boundary at page 512, so leaves hold several PTEs
/// and empty while a neighbour leaf stays, plus 16 far pages with a leaf
/// each.
fn pt_vpn(i: u64) -> u64 {
    if i < 48 {
        500 + i
    } else {
        (i - 47) * 0x40_0001
    }
}

/// The four flag bits of `bits`' low nibble.
fn pt_flags(bits: u8) -> PteFlags {
    PteFlags {
        writable: bits & 1 != 0,
        accessed: bits & 2 != 0,
        dirty: bits & 4 != 0,
        numa_hint: bits & 8 != 0,
    }
}

fn pt_ops() -> impl Strategy<Value = Vec<PtOp>> {
    let vpn = (0u64..64).prop_map(pt_vpn);
    let len = 0u64..64;
    // Small frames, and frames at the top of the 59 bits a slot packs.
    let pfn = || prop_oneof![0u64..1000, (1u64 << 59) - 1000..1 << 59];
    let flags = 0u8..16;
    prop::collection::vec(
        prop_oneof![
            (vpn.clone(), pfn(), flags.clone()).prop_map(|(v, p, f)| PtOp::Map(v, p, f)),
            (vpn.clone(), pfn(), flags.clone()).prop_map(|(v, p, f)| PtOp::Map(v, p, f)),
            vpn.clone().prop_map(PtOp::Unmap),
            (vpn.clone(), flags).prop_map(|(v, f)| PtOp::Update(v, f)),
            (vpn.clone(), len.clone()).prop_map(|(v, l)| PtOp::MappedIn(v, l)),
            (vpn, len).prop_map(|(v, l)| PtOp::UnmapRange(v, l)),
        ],
        0..250,
    )
}

proptest! {
    #[test]
    fn page_table_matches_btreemap(ops in pt_ops()) {
        let mut pt = PageTable::new();
        let mut model: BTreeMap<u64, Pte> = BTreeMap::new();
        let pairs = |got: Vec<(Vpn, Pte)>| got.iter().map(|&(v, e)| (v.0, e)).collect::<Vec<_>>();
        for op in ops {
            match op {
                PtOp::Map(v, p, f) => {
                    let pte = Pte { pfn: Pfn(p), flags: pt_flags(f) };
                    let prev = pt.map(Vpn(v), pte.pfn, pte.flags);
                    prop_assert_eq!(prev, model.insert(v, pte));
                }
                PtOp::Unmap(v) => {
                    let prev = pt.unmap(Vpn(v));
                    prop_assert_eq!(prev, model.remove(&v));
                }
                PtOp::Update(v, f) => {
                    // Sets the drawn flags and flips the frame's low bit.
                    let set = |e: &mut Pte| {
                        e.flags = pt_flags(f);
                        e.pfn.0 ^= 1;
                    };
                    let updated = pt.update(Vpn(v), set);
                    let want = model.get_mut(&v).map(|e| {
                        set(e);
                        *e
                    });
                    prop_assert_eq!(updated, want);
                }
                PtOp::MappedIn(v, l) => {
                    let want: Vec<_> = model.range(v..v + l).map(|(&v, &e)| (v, e)).collect();
                    prop_assert_eq!(pairs(pt.mapped_in(&VaRange::new(Vpn(v), l))), want);
                }
                PtOp::UnmapRange(v, l) => {
                    let want: Vec<_> = model.range(v..v + l).map(|(&v, &e)| (v, e)).collect();
                    for (v, _) in &want {
                        model.remove(v);
                    }
                    prop_assert_eq!(pairs(pt.unmap_range(&VaRange::new(Vpn(v), l))), want);
                }
            }
            prop_assert_eq!(pt.mapped_pages(), model.len() as u64);
        }
        for (&v, &e) in &model {
            prop_assert_eq!(pt.lookup(Vpn(v)), Some(e));
        }
        let everything = VaRange::new(Vpn(0), pt_vpn(63) + 1);
        let want: Vec<_> = model.iter().map(|(&v, &e)| (v, e)).collect();
        prop_assert_eq!(pairs(pt.mapped_in(&everything)), want);
    }
}

// ---- VmaTree vs interval model -------------------------------------------------------

#[derive(Debug, Clone)]
enum VmaOp {
    Insert(u64, u64),
    Remove(u64, u64),
    Protect(u64, u64),
}

fn vma_ops() -> impl Strategy<Value = Vec<VmaOp>> {
    let start = 0u64..200;
    let len = 1u64..24;
    prop::collection::vec(
        prop_oneof![
            (start.clone(), len.clone()).prop_map(|(s, l)| VmaOp::Insert(s, l)),
            (start.clone(), len.clone()).prop_map(|(s, l)| VmaOp::Remove(s, l)),
            (start, len).prop_map(|(s, l)| VmaOp::Protect(s, l)),
        ],
        0..120,
    )
}

proptest! {
    #[test]
    fn vma_tree_matches_page_model(ops in vma_ops()) {
        let mut tree = VmaTree::new();
        // Model: page -> writable flag.
        let mut model: BTreeMap<u64, bool> = BTreeMap::new();
        for op in ops {
            match op {
                VmaOp::Insert(s, l) => {
                    let range = VaRange::new(Vpn(s), l);
                    let free = tree.is_range_free(&range);
                    let model_free = range.iter().all(|v| !model.contains_key(&v.0));
                    prop_assert_eq!(free, model_free);
                    if free {
                        tree.insert(Vma { range, kind: MapKind::Anon, prot: Prot::READ_WRITE });
                        for v in range.iter() {
                            model.insert(v.0, true);
                        }
                    }
                }
                VmaOp::Remove(s, l) => {
                    let range = VaRange::new(Vpn(s), l);
                    let removed = tree.remove_range(&range);
                    let removed_pages: u64 = removed.iter().map(|v| v.range.pages).sum();
                    let mut model_removed = 0;
                    for v in range.iter() {
                        if model.remove(&v.0).is_some() {
                            model_removed += 1;
                        }
                    }
                    prop_assert_eq!(removed_pages, model_removed);
                }
                VmaOp::Protect(s, l) => {
                    let range = VaRange::new(Vpn(s), l);
                    tree.protect_range(&range, Prot::READ);
                    for v in range.iter() {
                        if let Some(w) = model.get_mut(&v.0) {
                            *w = false;
                        }
                    }
                }
            }
            // Page-level agreement after every step.
            for probe in 0..232u64 {
                let vma = tree.find(Vpn(probe));
                match model.get(&probe) {
                    Some(&writable) => {
                        prop_assert!(vma.is_some(), "page {probe} missing from tree");
                        prop_assert_eq!(vma.expect("checked").prot.write, writable);
                    }
                    None => prop_assert!(vma.is_none(), "page {probe} unexpectedly mapped"),
                }
            }
        }
        // No overlapping VMAs, sorted order.
        let vmas: Vec<&Vma> = tree.iter().collect();
        for pair in vmas.windows(2) {
            prop_assert!(pair[0].range.end() <= pair[1].range.start);
        }
    }
}

// ---- FrameAllocator refcount conservation ----------------------------------------------

/// The eager allocator the lazy one must behave like: per node, a stack
/// of free frames seeded high to low (so the lowest PFN pops first), a
/// pop per allocation, a push when the last reference drops, and a
/// fallback to the other nodes in order after the requested one.
struct EagerFrameModel {
    free: Vec<Vec<Pfn>>,
}

impl EagerFrameModel {
    fn new(nodes: u64, per_node: u64) -> Self {
        let free = (0..nodes)
            .map(|n| (0..per_node).rev().map(|i| Pfn(n * per_node + i)).collect())
            .collect();
        EagerFrameModel { free }
    }

    fn alloc(&mut self, node: u8) -> Result<Pfn, AllocError> {
        let n = node as usize;
        let order = std::iter::once(n).chain((0..self.free.len()).filter(|&i| i != n));
        for candidate in order {
            if let Some(pfn) = self.free[candidate].pop() {
                return Ok(pfn);
            }
        }
        Err(AllocError::OutOfMemory { node: NodeId(node) })
    }

    fn alloc_exact(&mut self, node: u8) -> Result<Pfn, AllocError> {
        self.free[node as usize]
            .pop()
            .ok_or(AllocError::NodeExhausted { node: NodeId(node) })
    }
}

proptest! {
    #[test]
    fn frame_allocator_conserves_frames(ops in prop::collection::vec(0u8..8, 0..300)) {
        let (nodes, per_node) = (2u64, 32u64);
        let total = nodes * per_node;
        let mut fa = FrameAllocator::new(nodes as usize, per_node);
        let mut model = EagerFrameModel::new(nodes, per_node);
        let mut live: Vec<Pfn> = Vec::new();
        let mut touched: HashSet<u64> = HashSet::new();
        for op in ops {
            match op {
                0..=3 => {
                    let node = op % 2;
                    let (got, want) = if op < 2 {
                        (fa.alloc(NodeId(node)), model.alloc(node))
                    } else {
                        (fa.alloc_exact(NodeId(node)), model.alloc_exact(node))
                    };
                    prop_assert_eq!(got, want);
                    if let Ok(p) = got {
                        live.push(p);
                        touched.insert(p.0);
                    }
                }
                4 => {
                    if let Some(&p) = live.first() {
                        fa.inc_ref(p).expect("live frame takes a reference");
                        live.push(p);
                    }
                }
                _ => {
                    if let Some(p) = live.pop() {
                        let left = live.iter().filter(|q| **q == p).count() as u32;
                        prop_assert_eq!(fa.dec_ref(p), Ok(left));
                        if left == 0 {
                            model.free[(p.0 / per_node) as usize].push(p);
                        }
                    }
                }
            }
            // Conservation: allocated + free == total, node by node.
            for n in 0..nodes as u8 {
                prop_assert_eq!(fa.free_on_node(NodeId(n)), model.free[n as usize].len());
            }
            let free: usize = model.free.iter().map(Vec::len).sum();
            let distinct_live: HashSet<u64> = live.iter().map(|p| p.0).collect();
            prop_assert_eq!(fa.allocated_count(), distinct_live.len());
            prop_assert_eq!(free + distinct_live.len(), total as usize);
            // Refcounts match the model multiset; a frame never handed
            // out reads as free.
            for p in 0..total {
                let expected = live.iter().filter(|q| q.0 == p).count() as u32;
                prop_assert_eq!(fa.refcount(Pfn(p)), expected);
                if !touched.contains(&p) {
                    prop_assert_eq!(fa.refcount(Pfn(p)), 0);
                }
            }
        }
    }
}

// ---- Histogram percentiles vs sorted samples ---------------------------------------------

proptest! {
    #[test]
    fn histogram_percentiles_are_within_bucket_error(
        samples in prop::collection::vec(0u64..10_000_000, 1..400),
        q in 0.0f64..1.0
    ) {
        let mut h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let idx = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
        let exact = sorted[idx] as f64;
        let approx = h.percentile(q) as f64;
        // Log-bucketed histograms guarantee ~3.2% relative error (64
        // sub-buckets), plus exactness below 64.
        let tolerance = (exact * 0.033).max(1.0);
        prop_assert!(
            (approx - exact).abs() <= tolerance,
            "q={q:.3}: approx {approx} vs exact {exact} (n={})",
            sorted.len()
        );
        prop_assert_eq!(h.count(), samples.len() as u64);
        prop_assert_eq!(h.min(), sorted[0]);
        prop_assert_eq!(h.max(), *sorted.last().expect("non-empty"));
    }
}

// ---- TLB: inclusion-free semantics --------------------------------------------------------

proptest! {
    #[test]
    fn tlb_never_returns_a_mapping_that_was_invalidated(
        ops in prop::collection::vec((0u64..128, 0u8..3), 0..300)
    ) {
        let mut tlb = Tlb::new(64, 512);
        // Model: the set of vpns whose *latest* action was an insert.
        let mut inserted: BTreeMap<u64, u64> = BTreeMap::new();
        for (vpn, action) in ops {
            match action {
                0 => {
                    tlb.insert(TlbEntry { pcid: PCID_NONE, vpn, pfn: vpn + 7, writable: true });
                    inserted.insert(vpn, vpn + 7);
                }
                1 => {
                    tlb.invalidate_page(PCID_NONE, vpn);
                    inserted.remove(&vpn);
                }
                _ => {
                    // Lookup must never resurrect an invalidated page, and a
                    // hit must return the modelled frame (caching is
                    // best-effort: misses on inserted pages are allowed).
                    if let Some(e) = tlb.lookup(PCID_NONE, vpn) {
                        prop_assert_eq!(
                            Some(e.pfn),
                            inserted.get(&vpn).copied(),
                            "stale or wrong entry for vpn {}",
                            vpn
                        );
                    }
                }
            }
        }
    }
}
