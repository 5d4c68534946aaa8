//! The address space: Linux's `mm_struct` analogue.
//!
//! An [`MmStruct`] ties together the VMA tree, the page table, the
//! `mm_cpumask` (which CPUs currently run this address space — the set an
//! IPI shootdown must target) and Latr's *blocked-VA list*: virtual ranges
//! that have been lazily unmapped and must not be handed out again until
//! the lazy TLB shootdown completes ("the lazy virtual address list is
//! traversed during any memory allocation, and the addresses in the lazy
//! list are not reused", §4.2).

use crate::addr::{VaRange, Vpn};
use crate::page_cache::FileId;
use crate::page_table::PageTable;
use crate::vma::{MapKind, Prot, Vma, VmaTree};
use latr_arch::{CpuId, CpuMask};

/// Identifier of an address space (process).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct MmId(pub u32);

/// Default lowest page of the mmap area (0x0000_5555_0000 >> 12).
const MMAP_FLOOR: Vpn = Vpn(0x5_5550);

/// Capacity the blocked-VA edge index starts with: two edges for each of
/// four runs. The workloads' lists coalesce into few runs (serving-latr
/// averages 2.1 at a mean depth of 163 and peaks at six; the sweep storms
/// stay within four, the 16-core one first reaching three after 50 ms), so
/// the index seldom grows after its first block.
const EDGES_RESERVED: usize = 8;

/// One address space.
pub struct MmStruct {
    /// This address space's id.
    pub id: MmId,
    /// The page table.
    pub page_table: PageTable,
    /// The VMA tree.
    pub vmas: VmaTree,
    /// CPUs currently running a thread of this address space — the IPI
    /// target set Linux computes for a shootdown.
    pub cpumask: CpuMask,
    /// The PCID this address space is tagged with in TLBs
    /// ([`latr_arch::PCID_NONE`] when PCIDs are disabled, as in
    /// Linux 4.10).
    pub pcid: u16,
    // Sorted by start; may hold overlapping and duplicate ranges. A flat
    // vector for the reason `VmaTree` gives: it keeps its capacity, so the
    // block/unblock steady state performs no heap allocation.
    blocked: Vec<VaRange>,
    // The coverage edges of `blocked`, sorted by page: the sum of +1 for
    // each non-empty range starting at that page and -1 for each one
    // ending there, with zero sums dropped. A page is blocked exactly when
    // the deltas at or below it sum above zero, so the edges spell out the
    // union of the list as disjoint runs, and abutting ranges cancel: a
    // packed run costs two edges however many ranges it holds.
    edges: Vec<(u64, i32)>,
    va_floor: Vpn,
}

impl MmStruct {
    /// Creates an empty address space.
    pub fn new(id: MmId) -> Self {
        MmStruct {
            id,
            page_table: PageTable::new(),
            vmas: VmaTree::new(),
            cpumask: CpuMask::empty(),
            pcid: latr_arch::PCID_NONE,
            blocked: Vec::new(),
            edges: Vec::with_capacity(EDGES_RESERVED),
            va_floor: MMAP_FLOOR,
        }
    }

    /// Finds a free virtual range of `pages` pages, skipping both existing
    /// VMAs and the blocked (lazily reclaimed) list. Does not insert
    /// anything.
    ///
    /// First fit: the result is the lowest start at or above the mmap floor
    /// whose `pages` pages overlap no VMA and no non-empty blocked range.
    /// One forward pass over two start-sorted streams of disjoint obstacles:
    /// the VMAs, and the runs of blocked pages the coverage edges spell out.
    /// An obstacle that starts below the candidate's end and ends above its
    /// start overlaps every start up to its own end, so the candidate jumps
    /// there; obstacles ending at or below the candidate are passed for
    /// good, since candidates only move up.
    pub fn find_free_va(&self, pages: u64) -> VaRange {
        assert!(pages > 0, "cannot allocate an empty range");
        let mut start = self.va_floor.0;
        let vmas = self.vmas.ending_after(self.va_floor);
        let (mut v, mut e) = (0, 0);
        let mut run = next_run(&self.edges, &mut e);
        loop {
            while run.is_some_and(|(_, end)| end <= start) {
                run = next_run(&self.edges, &mut e);
            }
            while vmas.get(v).is_some_and(|m| m.range.end().0 <= start) {
                v += 1;
            }
            let limit = start + pages;
            if let Some((_, end)) = run.filter(|&(lo, _)| lo < limit) {
                start = end;
            } else if let Some(m) = vmas.get(v).filter(|m| m.range.start.0 < limit) {
                start = m.range.end().0;
            } else {
                return VaRange::new(Vpn(start), pages);
            }
        }
    }

    /// Allocates a fresh anonymous VMA of `pages` pages and returns its
    /// range. PTE population is the kernel's job (demand paging).
    pub fn mmap_anon(&mut self, pages: u64, prot: Prot) -> VaRange {
        let range = self.find_free_va(pages);
        self.vmas.insert(Vma {
            range,
            kind: MapKind::Anon,
            prot,
        });
        range
    }

    /// Maps `pages` pages of `file` starting at file page `offset`.
    pub fn mmap_file(&mut self, file: FileId, offset: u64, pages: u64, prot: Prot) -> VaRange {
        let range = self.find_free_va(pages);
        self.vmas.insert(Vma {
            range,
            kind: MapKind::File { file, offset },
            prot,
        });
        range
    }

    /// Removes `range` from the VMA tree (splitting as needed), returning
    /// the removed VMA pieces. The caller unmaps PTEs and handles frames.
    pub fn munmap_vmas(&mut self, range: &VaRange) -> Vec<Vma> {
        self.vmas.remove_range(range)
    }

    /// [`munmap_vmas`](Self::munmap_vmas) appending the removed pieces to
    /// a caller-owned scratch vector (the allocation-free unmap path).
    pub fn munmap_vmas_into(&mut self, range: &VaRange, out: &mut Vec<Vma>) {
        self.vmas.remove_range_into(range, out);
    }

    /// Marks `range` as blocked from reuse until
    /// [`unblock_va`](Self::unblock_va) — the lazy-reclamation list.
    pub fn block_va(&mut self, range: VaRange) {
        debug_assert!(!range.is_empty());
        self.insert_blocked(range);
    }

    /// Inserts into the start-sorted list after any equal starts. Overlapping
    /// and duplicate ranges are kept as they come: each is one pending
    /// reclamation.
    fn insert_blocked(&mut self, range: VaRange) {
        let pos = self.blocked.partition_point(|b| b.start <= range.start);
        self.blocked.insert(pos, range);
        self.cover(&range, 1);
    }

    /// Adds `sign` times `range`'s coverage to the edge index: `sign` at its
    /// start, `-sign` at its end. Empty ranges block nothing and add none.
    fn cover(&mut self, range: &VaRange, sign: i32) {
        if !range.is_empty() {
            self.add_edge(range.start.0, sign);
            self.add_edge(range.end().0, -sign);
        }
    }

    fn add_edge(&mut self, vpn: u64, delta: i32) {
        match self.edges.binary_search_by_key(&vpn, |&(at, _)| at) {
            Ok(i) => {
                self.edges[i].1 += delta;
                if self.edges[i].1 == 0 {
                    self.edges.remove(i);
                }
            }
            Err(i) => self.edges.insert(i, (vpn, delta)),
        }
    }

    /// Releases a previously blocked range for reuse. Returns whether the
    /// range was found. Of duplicate ranges, one is released per call.
    pub fn unblock_va(&mut self, range: &VaRange) -> bool {
        let lo = self.blocked.partition_point(|b| b.start < range.start);
        let found = self.blocked[lo..]
            .iter()
            .take_while(|b| b.start == range.start)
            .position(|b| b == range);
        if let Some(pos) = found {
            self.blocked.remove(lo + pos);
            self.cover(range, -1);
        }
        found.is_some()
    }

    /// Currently blocked ranges, sorted by start. The benchmark samples the
    /// list's depth at every mmap.
    pub fn blocked_ranges(&self) -> &[VaRange] {
        &self.blocked
    }

    /// Notes that `cpu` started running this address space.
    pub fn cpu_activated(&mut self, cpu: CpuId) {
        self.cpumask.set(cpu);
    }

    /// Notes that `cpu` stopped running this address space.
    pub fn cpu_deactivated(&mut self, cpu: CpuId) {
        self.cpumask.clear(cpu);
    }
}

/// The run of blocked pages whose first edge is `edges[*i]`, as
/// `(start, end)`, advancing `*i` past its last edge; `None` past the last
/// run. `*i` must sit where the deltas before it sum to zero.
fn next_run(edges: &[(u64, i32)], i: &mut usize) -> Option<(u64, u64)> {
    let &(start, first) = edges.get(*i)?;
    let mut depth = first;
    *i += 1;
    while depth != 0 {
        depth += edges[*i].1;
        *i += 1;
    }
    Some((start, edges[*i - 1].0))
}

impl std::fmt::Debug for MmStruct {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MmStruct")
            .field("id", &self.id)
            .field("vmas", &self.vmas.len())
            .field("mapped_pages", &self.page_table.mapped_pages())
            .field("cpumask", &self.cpumask)
            .field("blocked", &self.blocked.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl MmStruct {
        /// The page-by-page search: mark every page a VMA or a non-empty
        /// blocked range covers, then try each start from the floor up. It
        /// shares nothing with the edge index, so it is the executable spec
        /// for [`find_free_va`](MmStruct::find_free_va).
        fn find_free_va_linear(&self, pages: u64) -> VaRange {
            assert!(pages > 0, "cannot allocate an empty range");
            let floor = self.va_floor.0;
            let mut taken = Vec::new();
            let covered = self.vmas.iter().map(|v| &v.range).chain(&self.blocked);
            for page in covered.flat_map(VaRange::iter).filter(|p| p.0 >= floor) {
                let i = (page.0 - floor) as usize;
                if taken.len() <= i {
                    taken.resize(i + 1, false);
                }
                taken[i] = true;
            }
            let free = |i: u64| !taken.get(i as usize).copied().unwrap_or(false);
            let start = (0..)
                .find(|&s| (s..s + pages).all(free))
                .expect("free space");
            VaRange::new(Vpn(floor + start), pages)
        }

        /// The edge index recomputed from the list.
        fn edges_from_scratch(&self) -> Vec<(u64, i32)> {
            let mut sums = std::collections::BTreeMap::new();
            for b in self.blocked.iter().filter(|b| !b.is_empty()) {
                *sums.entry(b.start.0).or_insert(0) += 1;
                *sums.entry(b.end().0).or_insert(0) -= 1;
            }
            sums.into_iter().filter(|&(_, d)| d != 0).collect()
        }
    }

    /// One scripted step against an address space. Offsets are pages above
    /// the mmap floor, kept small so ranges collide.
    #[derive(Clone, Copy, Debug)]
    enum Step {
        Mmap(u64),
        /// Unmap `[offset, offset + pages)`, then block it as the kernel's
        /// munmap does, or leave a plain hole.
        Munmap {
            offset: u64,
            pages: u64,
            block: bool,
        },
        /// Block an arbitrary range; `pages == 0` is an empty range, which
        /// only a release build lets through `block_va`.
        Block {
            offset: u64,
            pages: u64,
        },
        /// Block the i-th model entry again: a duplicate.
        BlockAgain(usize),
        /// Unblock an arbitrary range, usually one never blocked.
        Unblock {
            offset: u64,
            pages: u64,
        },
        /// Unblock the i-th model entry.
        UnblockKnown(usize),
    }

    fn step_strategy() -> impl Strategy<Value = Step> {
        prop_oneof![
            (1u64..10).prop_map(Step::Mmap),
            (0u64..96, 1u64..12, any::<bool>()).prop_map(|(offset, pages, block)| Step::Munmap {
                offset,
                pages,
                block
            }),
            (0u64..96, 0u64..12).prop_map(|(offset, pages)| Step::Block { offset, pages }),
            any::<usize>().prop_map(Step::BlockAgain),
            (0u64..96, 0u64..12).prop_map(|(offset, pages)| Step::Unblock { offset, pages }),
            any::<usize>().prop_map(Step::UnblockKnown),
        ]
    }

    fn near_floor(offset: u64, pages: u64) -> VaRange {
        VaRange::new(MMAP_FLOOR.offset(offset), pages)
    }

    /// `ranges` as a multiset: sorted `(start, pages)` keys.
    fn multiset(ranges: &[VaRange]) -> Vec<(u64, u64)> {
        let mut keys: Vec<_> = ranges.iter().map(|r| (r.start.0, r.pages)).collect();
        keys.sort_unstable();
        keys
    }

    proptest! {
        #[test]
        fn sorted_search_matches_the_linear_reference(
            steps in prop::collection::vec((step_strategy(), 1u64..16), 1..200),
        ) {
            let mut mm = MmStruct::new(MmId(1));
            // The blocked list as a multiset, in insertion order.
            let mut model: Vec<VaRange> = Vec::new();
            for (step, probe) in steps {
                match step {
                    Step::Mmap(pages) => {
                        mm.mmap_anon(pages, Prot::READ_WRITE);
                    }
                    Step::Munmap { offset, pages, block } => {
                        let range = near_floor(offset, pages);
                        mm.munmap_vmas(&range);
                        if block {
                            mm.block_va(range);
                            model.push(range);
                        }
                    }
                    Step::Block { offset, pages } => {
                        let range = near_floor(offset, pages);
                        mm.insert_blocked(range);
                        model.push(range);
                    }
                    Step::BlockAgain(i) if !model.is_empty() => {
                        let range = model[i % model.len()];
                        mm.insert_blocked(range);
                        model.push(range);
                    }
                    Step::BlockAgain(_) => {}
                    Step::Unblock { offset, pages } => {
                        let range = near_floor(offset, pages);
                        let known = model.iter().position(|b| *b == range);
                        if let Some(pos) = known {
                            model.remove(pos);
                        }
                        prop_assert_eq!(mm.unblock_va(&range), known.is_some());
                    }
                    Step::UnblockKnown(i) if !model.is_empty() => {
                        let range = model.remove(i % model.len());
                        prop_assert!(mm.unblock_va(&range));
                    }
                    Step::UnblockKnown(_) => {}
                }
                let blocked = mm.blocked_ranges();
                prop_assert!(blocked.windows(2).all(|w| w[0].start <= w[1].start));
                prop_assert_eq!(multiset(blocked), multiset(&model));
                prop_assert_eq!(&mm.edges, &mm.edges_from_scratch());
                prop_assert_eq!(mm.find_free_va(probe), mm.find_free_va_linear(probe));
            }
        }
    }

    #[test]
    fn mmap_anon_allocates_disjoint_ranges() {
        let mut mm = MmStruct::new(MmId(1));
        let a = mm.mmap_anon(4, Prot::READ_WRITE);
        let b = mm.mmap_anon(4, Prot::READ_WRITE);
        assert!(!a.overlaps(&b));
        assert_eq!(mm.vmas.len(), 2);
    }

    #[test]
    fn munmap_then_remap_reuses_va() {
        let mut mm = MmStruct::new(MmId(1));
        let a = mm.mmap_anon(4, Prot::READ_WRITE);
        mm.munmap_vmas(&a);
        let b = mm.mmap_anon(4, Prot::READ_WRITE);
        assert_eq!(a, b, "freed VA should be reused when not blocked");
    }

    #[test]
    fn blocked_va_is_not_reused() {
        let mut mm = MmStruct::new(MmId(1));
        let a = mm.mmap_anon(4, Prot::READ_WRITE);
        mm.munmap_vmas(&a);
        mm.block_va(a);
        let b = mm.mmap_anon(4, Prot::READ_WRITE);
        assert!(!a.overlaps(&b), "blocked range must be skipped");
        assert!(mm.unblock_va(&a));
        let c = mm.mmap_anon(4, Prot::READ_WRITE);
        assert_eq!(c, a, "unblocked range is reusable again");
    }

    #[test]
    fn unblock_unknown_range_is_false() {
        let mut mm = MmStruct::new(MmId(1));
        assert!(!mm.unblock_va(&VaRange::new(Vpn(1), 1)));
    }

    #[test]
    fn find_free_va_skips_consecutive_blocks() {
        let mut mm = MmStruct::new(MmId(1));
        let a = mm.find_free_va(2);
        mm.block_va(a);
        mm.block_va(VaRange::new(a.end(), 2));
        let b = mm.find_free_va(2);
        assert_eq!(b.start, a.end().offset(2));
    }

    #[test]
    fn file_mapping_keeps_backing_info() {
        let mut mm = MmStruct::new(MmId(1));
        let r = mm.mmap_file(FileId(3), 5, 2, Prot::READ);
        let vma = mm.vmas.find(r.start).unwrap();
        assert_eq!(vma.file_page_of(r.start.offset(1)), Some((FileId(3), 6)));
    }

    #[test]
    fn cpumask_tracks_activations() {
        let mut mm = MmStruct::new(MmId(1));
        mm.cpu_activated(CpuId(2));
        mm.cpu_activated(CpuId(5));
        assert_eq!(mm.cpumask.count(), 2);
        mm.cpu_deactivated(CpuId(2));
        assert!(!mm.cpumask.test(CpuId(2)));
        assert!(mm.cpumask.test(CpuId(5)));
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn zero_page_allocation_panics() {
        let mm = MmStruct::new(MmId(1));
        mm.find_free_va(0);
    }

    #[test]
    fn debug_is_informative() {
        let mm = MmStruct::new(MmId(7));
        let s = format!("{mm:?}");
        assert!(s.contains("MmId(7)"));
    }
}
