//! The page table of one address space, as 512-entry x86-style leaves only:
//! nothing reads an upper walk level (a walk costs `tlb_miss_walk` flat). An
//! emptied leaf goes to a spare pool for the next new leaf index, so map and
//! unmap allocate nothing once the sorted leaf vector has its peak length.
//! A leaf slot is one packed `u64` (`pfn << 5 | flags << 1 | present`), so
//! a leaf is 4 KiB.

use crate::addr::{Pfn, VaRange, Vpn};

const LEAF_BITS: u32 = 9;
const LEAF_SLOTS: usize = 1 << LEAF_BITS; // 512

/// Permission and status bits of one leaf PTE.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct PteFlags {
    /// Write permission.
    pub writable: bool,
    /// Hardware-set on access (sampled and cleared by ABIS tracking).
    pub accessed: bool,
    /// Hardware-set on write.
    pub dirty: bool,
    /// AutoNUMA hint protection: the mapping is present but access faults,
    /// so the kernel can observe which node touches the page.
    pub numa_hint: bool,
}

/// One leaf page-table entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pte {
    /// The mapped physical frame.
    pub pfn: Pfn,
    /// Permission/status bits.
    pub flags: PteFlags,
}

/// Bits of a slot word below the PFN: the present bit and four flags.
const PFN_SHIFT: u32 = 5;

/// Largest PFN a slot word holds: 59 bits.
const PFN_MAX: u64 = u64::MAX >> PFN_SHIFT;

impl Pte {
    /// The slot word of a present PTE.
    ///
    /// # Panics
    ///
    /// Panics if the PFN needs more than 59 bits.
    #[inline]
    fn pack(self) -> u64 {
        let Pte { pfn, flags } = self;
        assert!(
            pfn.0 <= PFN_MAX,
            "{pfn:?} exceeds the 59-bit PFN slot packing"
        );
        pfn.0 << PFN_SHIFT
            | u64::from(flags.numa_hint) << 4
            | u64::from(flags.dirty) << 3
            | u64::from(flags.accessed) << 2
            | u64::from(flags.writable) << 1
            | 1
    }

    /// The PTE a slot word holds, if present.
    #[inline]
    fn unpack(word: u64) -> Option<Pte> {
        (word & 1 != 0).then_some(Pte {
            pfn: Pfn(word >> PFN_SHIFT),
            flags: PteFlags {
                writable: word & 1 << 1 != 0,
                accessed: word & 1 << 2 != 0,
                dirty: word & 1 << 3 != 0,
                numa_hint: word & 1 << 4 != 0,
            },
        })
    }
}

/// The 512 slot words of the pages that share one `vpn >> 9`; 0 is an
/// absent PTE.
type Leaf = [u64; LEAF_SLOTS];
const EMPTY_LEAF: Leaf = [0; LEAF_SLOTS];

/// The page table of one address space.
///
/// ```
/// use latr_mem::{PageTable, PteFlags, Pfn, Vpn};
/// let mut pt = PageTable::new();
/// pt.map(Vpn(0x12345), Pfn(7), PteFlags::default());
/// assert_eq!(pt.unmap(Vpn(0x12345)).unwrap().pfn, Pfn(7));
/// assert_eq!(pt.lookup(Vpn(0x12345)), None);
/// ```
#[derive(Default)]
pub struct PageTable {
    /// `(vpn >> 9, mapped entries, leaf)` by ascending index, none empty.
    /// Boxed, so inserts shift 24 bytes and pooling copies no 4 KiB leaf.
    leaves: Vec<(u64, usize, Box<Leaf>)>,
    /// Emptied leaves, every slot 0.
    spare: Vec<Box<Leaf>>,
    mapped: u64,
}

impl PageTable {
    /// Creates an empty page table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of currently mapped pages.
    pub fn mapped_pages(&self) -> u64 {
        self.mapped
    }

    /// `vpn`'s leaf position in `leaves` (`Err`: where it would go) and slot.
    fn find(&self, vpn: Vpn) -> (Result<usize, usize>, usize) {
        let index = vpn.0 >> LEAF_BITS;
        let at = self.leaves.binary_search_by_key(&index, |&(i, ..)| i);
        (at, vpn.0 as usize % LEAF_SLOTS)
    }

    /// The positions in `leaves` of the leaves `range` touches.
    fn span(&self, range: &VaRange) -> std::ops::Range<usize> {
        let (first, end) = (range.start.0 >> LEAF_BITS, range.end().0);
        let lo = self.leaves.partition_point(|&(i, ..)| i < first);
        lo..self.leaves.partition_point(|&(i, ..)| i << LEAF_BITS < end)
    }

    /// The pages of leaf `index` inside `range`, each with its slot.
    fn pages(index: u64, range: &VaRange) -> impl Iterator<Item = (usize, Vpn)> {
        let base = index << LEAF_BITS;
        let end = range.end().0.min(base + LEAF_SLOTS as u64);
        (range.start.0.max(base)..end).map(move |v| ((v - base) as usize, Vpn(v)))
    }

    /// Installs (or replaces) the mapping for `vpn`. Returns the previous
    /// PTE if one existed.
    ///
    /// # Panics
    ///
    /// Panics if `pfn` needs more than 59 bits: the packed slot word
    /// would truncate it.
    pub fn map(&mut self, vpn: Vpn, pfn: Pfn, flags: PteFlags) -> Option<Pte> {
        let word = Pte { pfn, flags }.pack();
        let (at, slot) = self.find(vpn);
        let at = at.unwrap_or_else(|at| {
            let leaf = self.spare.pop().unwrap_or_else(|| Box::new(EMPTY_LEAF));
            self.leaves.insert(at, (vpn.0 >> LEAF_BITS, 0, leaf));
            at
        });
        let (_, live, leaf) = &mut self.leaves[at];
        let prev = Pte::unpack(std::mem::replace(&mut leaf[slot], word));
        if prev.is_none() {
            *live += 1;
            self.mapped += 1;
        }
        prev
    }

    /// Reads the PTE for `vpn` without modifying anything.
    pub fn lookup(&self, vpn: Vpn) -> Option<Pte> {
        let (at, slot) = self.find(vpn);
        Pte::unpack(self.leaves[at.ok()?].2[slot])
    }

    /// Applies `f` to the PTE for `vpn`, if mapped, returning the updated
    /// entry (permission changes, access bits, NUMA hints).
    ///
    /// # Panics
    ///
    /// Panics if `f` sets a PFN past 59 bits, as [`map`](Self::map) does.
    pub fn update<F: FnOnce(&mut Pte)>(&mut self, vpn: Vpn, f: F) -> Option<Pte> {
        let (at, slot) = self.find(vpn);
        let word = &mut self.leaves[at.ok()?].2[slot];
        let mut pte = Pte::unpack(*word)?;
        f(&mut pte);
        *word = pte.pack();
        Some(pte)
    }

    /// Removes the mapping for `vpn`, returning the old PTE; an emptied leaf
    /// goes to the spare pool.
    pub fn unmap(&mut self, vpn: Vpn) -> Option<Pte> {
        let (at, slot) = self.find(vpn);
        let at = at.ok()?;
        let (_, live, leaf) = &mut self.leaves[at];
        let prev = Pte::unpack(std::mem::take(&mut leaf[slot]))?;
        *live -= 1;
        self.mapped -= 1;
        if *live == 0 {
            self.spare.push(self.leaves.remove(at).2);
        }
        Some(prev)
    }

    /// Collects the mapped pages of `range` as `(vpn, pte)` pairs, in
    /// ascending page order.
    pub fn mapped_in(&self, range: &VaRange) -> Vec<(Vpn, Pte)> {
        let leaves = self.leaves[self.span(range)].iter();
        leaves
            .flat_map(|(index, _, leaf)| {
                Self::pages(*index, range)
                    .filter_map(|(slot, vpn)| Some((vpn, Pte::unpack(leaf[slot])?)))
            })
            .collect()
    }

    /// Unmaps every mapped page of `range`, returning the removed
    /// `(vpn, pte)` pairs in ascending order.
    pub fn unmap_range(&mut self, range: &VaRange) -> Vec<(Vpn, Pte)> {
        let mut out = Vec::new();
        self.unmap_range_into(range, &mut out);
        out
    }

    /// [`unmap_range`](Self::unmap_range) appending the removed pairs to
    /// `out` instead of allocating — the unmap hot path passes a scratch
    /// vector whose capacity survives across calls.
    pub fn unmap_range_into(&mut self, range: &VaRange, out: &mut Vec<(Vpn, Pte)>) {
        let span = self.span(range);
        for (index, live, leaf) in &mut self.leaves[span.clone()] {
            for (slot, vpn) in Self::pages(*index, range) {
                if let Some(pte) = Pte::unpack(std::mem::take(&mut leaf[slot])) {
                    *live -= 1;
                    self.mapped -= 1;
                    out.push((vpn, pte));
                }
            }
        }
        let emptied = self.leaves.extract_if(span, |&mut (_, live, _)| live == 0);
        self.spare.extend(emptied.map(|(.., leaf)| leaf));
    }
}

impl std::fmt::Debug for PageTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PageTable({} pages mapped)", self.mapped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags() -> PteFlags {
        PteFlags {
            writable: true,
            ..Default::default()
        }
    }

    #[test]
    fn map_lookup_unmap_roundtrip() {
        let mut pt = PageTable::new();
        assert!(pt.lookup(Vpn(42)).is_none());
        pt.map(Vpn(42), Pfn(7), flags());
        let pte = pt.lookup(Vpn(42)).unwrap();
        assert_eq!(pte.pfn, Pfn(7));
        assert!(pte.flags.writable);
        assert_eq!(pt.unmap(Vpn(42)).unwrap().pfn, Pfn(7));
        assert!(pt.lookup(Vpn(42)).is_none());
        assert_eq!(pt.mapped_pages(), 0);
    }

    #[test]
    fn remap_returns_previous() {
        let mut pt = PageTable::new();
        assert!(pt.map(Vpn(1), Pfn(10), flags()).is_none());
        let prev = pt.map(Vpn(1), Pfn(20), flags()).unwrap();
        assert_eq!(prev.pfn, Pfn(10));
        assert_eq!(pt.mapped_pages(), 1);
    }

    #[test]
    fn distant_leaves_do_not_interfere() {
        let mut pt = PageTable::new();
        let a = Vpn(0);
        let b = Vpn(1 << 27);
        pt.map(a, Pfn(1), flags());
        pt.map(b, Pfn(2), flags());
        assert_eq!(pt.lookup(a).unwrap().pfn, Pfn(1));
        assert_eq!(pt.lookup(b).unwrap().pfn, Pfn(2));
        pt.unmap(a);
        assert_eq!(pt.lookup(b).unwrap().pfn, Pfn(2));
    }

    #[test]
    fn sparse_addresses_in_any_order() {
        let mut pt = PageTable::new();
        let pages: Vec<Vpn> = (0..100).map(|i| Vpn((i * 37 % 100) * 0x100_0007)).collect();
        for (i, &v) in pages.iter().enumerate() {
            pt.map(v, Pfn(i as u64), flags());
        }
        assert_eq!(pt.mapped_pages(), 100);
        assert!(pt.leaves.windows(2).all(|w| w[0].0 < w[1].0));
        for (i, &v) in pages.iter().enumerate() {
            assert_eq!(pt.lookup(v).unwrap().pfn, Pfn(i as u64));
        }
    }

    #[test]
    fn unmap_missing_returns_none() {
        let mut pt = PageTable::new();
        assert!(pt.unmap(Vpn(5)).is_none());
        pt.map(Vpn(5), Pfn(1), flags());
        pt.unmap(Vpn(5));
        assert!(pt.unmap(Vpn(5)).is_none());
    }

    #[test]
    fn update_modifies_in_place() {
        let mut pt = PageTable::new();
        pt.map(Vpn(9), Pfn(3), flags());
        let updated = pt
            .update(Vpn(9), |pte| {
                pte.flags.accessed = true;
                pte.flags.numa_hint = true;
            })
            .unwrap();
        assert!(updated.flags.accessed);
        assert!(pt.lookup(Vpn(9)).unwrap().flags.numa_hint);
        assert!(pt.update(Vpn(10), |_| ()).is_none());
    }

    #[test]
    fn range_operations() {
        let mut pt = PageTable::new();
        for i in 0..10 {
            if i % 2 == 0 {
                pt.map(Vpn(100 + i), Pfn(i), flags());
            }
        }
        let r = VaRange::new(Vpn(100), 10);
        let mapped = pt.mapped_in(&r);
        assert_eq!(mapped.len(), 5);
        assert!(mapped.windows(2).all(|w| w[0].0 < w[1].0));
        let removed = pt.unmap_range(&r);
        assert_eq!(removed.len(), 5);
        assert_eq!(pt.mapped_pages(), 0);
        assert!(pt.mapped_in(&r).is_empty());
    }

    #[test]
    fn ranges_straddle_leaves() {
        let mut pt = PageTable::new();
        for v in [510, 511, 512, 513, 1030, 1536] {
            pt.map(Vpn(v), Pfn(v), flags());
        }
        let r = VaRange::new(Vpn(511), 1025); // [511, 1536)
        let pages = |pairs: Vec<(Vpn, Pte)>| pairs.iter().map(|p| p.0 .0).collect::<Vec<_>>();
        assert_eq!(pages(pt.mapped_in(&r)), [511, 512, 513, 1030]);
        assert_eq!(pages(pt.unmap_range(&r)), [511, 512, 513, 1030]);
        assert_eq!(pt.mapped_pages(), 2);
        assert_eq!(pt.lookup(Vpn(510)).unwrap().pfn, Pfn(510));
        assert_eq!(pt.lookup(Vpn(1536)).unwrap().pfn, Pfn(1536));
        assert_eq!(pt.leaves.len(), 2);
        assert!(pt.mapped_in(&VaRange::new(Vpn(510), 0)).is_empty());
    }

    #[test]
    fn emptied_leaves_are_pooled_and_reused() {
        let mut pt = PageTable::new();
        pt.map(Vpn(0xABCDE), Pfn(1), flags());
        pt.unmap(Vpn(0xABCDE));
        assert!(pt.leaves.is_empty());
        assert_eq!(pt.spare.len(), 1);
        pt.map(Vpn(0x12345), Pfn(2), flags());
        assert!(pt.spare.is_empty());
        assert_eq!(pt.lookup(Vpn(0x12345)).unwrap().pfn, Pfn(2));
        assert!(pt.lookup(Vpn(0xABCDE)).is_none());
    }

    #[test]
    fn adjacent_pages_share_a_leaf() {
        let mut pt = PageTable::new();
        pt.map(Vpn(512), Pfn(1), flags());
        pt.map(Vpn(513), Pfn(2), flags());
        assert_eq!(pt.leaves.len(), 1);
        pt.unmap(Vpn(512));
        // 513 must survive its neighbour's unmap.
        assert_eq!(pt.lookup(Vpn(513)).unwrap().pfn, Pfn(2));
    }

    /// Every flag combination, with the smallest and the largest PFN a
    /// slot word holds, reads back as it was mapped and as `update` set it.
    #[test]
    fn every_flag_combination_and_the_largest_pfn_round_trip() {
        let mut pt = PageTable::new();
        for bits in 0..16u8 {
            let flags = PteFlags {
                writable: bits & 1 != 0,
                accessed: bits & 2 != 0,
                dirty: bits & 4 != 0,
                numa_hint: bits & 8 != 0,
            };
            for (vpn, pfn) in [(u64::from(bits), Pfn(0)), (1000, Pfn(PFN_MAX))] {
                pt.map(Vpn(vpn), pfn, flags);
                assert_eq!(pt.lookup(Vpn(vpn)), Some(Pte { pfn, flags }));
            }
            let cleared = pt.update(Vpn(1000), |pte| pte.flags = PteFlags::default());
            let flipped = pt.update(Vpn(1000), |pte| pte.flags = flags).unwrap();
            assert_eq!(cleared.unwrap().flags, PteFlags::default());
            assert_eq!(
                flipped,
                Pte {
                    pfn: Pfn(PFN_MAX),
                    flags
                }
            );
            assert_eq!(pt.lookup(Vpn(1000)), Some(flipped));
        }
        assert_eq!(pt.mapped_pages(), 17);
    }

    #[test]
    #[should_panic(expected = "slot packing")]
    fn map_refuses_a_pfn_past_59_bits() {
        PageTable::new().map(Vpn(1), Pfn(PFN_MAX + 1), flags());
    }

    #[test]
    #[should_panic(expected = "slot packing")]
    fn update_refuses_a_pfn_past_59_bits() {
        let mut pt = PageTable::new();
        pt.map(Vpn(1), Pfn(PFN_MAX), flags());
        pt.update(Vpn(1), |pte| pte.pfn.0 += 1);
    }

    #[test]
    fn debug_shows_mapped_count() {
        let mut pt = PageTable::new();
        pt.map(Vpn(1), Pfn(1), flags());
        assert_eq!(format!("{pt:?}"), "PageTable(1 pages mapped)");
    }
}
