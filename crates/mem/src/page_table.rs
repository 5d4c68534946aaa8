//! A 4-level, 512-way radix page table with x86-style status bits.
//!
//! Levels mirror x86-64: PGD → PUD → PMD → PTE, each indexed by 9 bits of
//! the virtual page number. Leaf entries carry the frame number plus the
//! `accessed`/`dirty` bits (which the ABIS baseline samples) and a
//! `numa_hint` bit modelling the `PROT_NONE`-style protection AutoNUMA uses
//! to provoke hint faults.
//!
//! Intermediate tables are allocated on first use and freed when they
//! become empty, so sparse address spaces stay cheap.

use crate::addr::{Pfn, VaRange, Vpn};

const LEVEL_BITS: u64 = 9;
const FANOUT: usize = 1 << LEVEL_BITS; // 512
const LEVELS: u32 = 4;
const INDEX_MASK: u64 = FANOUT as u64 - 1;

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

enum Node {
    Interior {
        children: Vec<Option<Box<Node>>>,
        live: usize,
    },
    Leaf {
        entries: Vec<Option<Pte>>,
        live: usize,
    },
}

impl Node {
    fn interior() -> Box<Node> {
        Box::new(Node::Interior {
            children: (0..FANOUT).map(|_| None).collect(),
            live: 0,
        })
    }

    fn leaf() -> Box<Node> {
        Box::new(Node::Leaf {
            entries: vec![None; FANOUT],
            live: 0,
        })
    }
}

/// The 4-level radix page table of one address space.
///
/// ```
/// use latr_mem::{PageTable, Pte, PteFlags, Pfn, Vpn};
/// let mut pt = PageTable::new();
/// pt.map(Vpn(0x12345), Pfn(7), PteFlags { writable: true, ..Default::default() });
/// assert_eq!(pt.lookup(Vpn(0x12345)).unwrap().pfn, Pfn(7));
/// let old = pt.unmap(Vpn(0x12345)).unwrap();
/// assert_eq!(old.pfn, Pfn(7));
/// assert!(pt.lookup(Vpn(0x12345)).is_none());
/// ```
pub struct PageTable {
    root: Box<Node>,
    mapped: u64,
    // Pruned (empty) nodes parked for reuse: a map/unmap steady state
    // cycles tables through these pools instead of the heap, so the unmap
    // hot path performs no allocation. Pool size is bounded by the peak
    // tree size. The pools hold `Box<Node>` on purpose — tree children
    // are boxed, and recycling the box is the whole point; `Vec<Node>`
    // would re-box (allocate) on every reuse.
    #[allow(clippy::vec_box)]
    free_interiors: Vec<Box<Node>>,
    #[allow(clippy::vec_box)]
    free_leaves: Vec<Box<Node>>,
}

impl Default for PageTable {
    fn default() -> Self {
        Self::new()
    }
}

impl PageTable {
    /// Creates an empty page table.
    pub fn new() -> Self {
        PageTable {
            root: Node::interior(),
            mapped: 0,
            free_interiors: Vec::new(),
            free_leaves: Vec::new(),
        }
    }

    /// Number of currently mapped pages.
    pub fn mapped_pages(&self) -> u64 {
        self.mapped
    }

    #[inline]
    fn index(vpn: Vpn, level: u32) -> usize {
        // level 0 is the root; level 3 holds leaves.
        let shift = LEVEL_BITS * (LEVELS - 1 - level) as u64;
        ((vpn.0 >> shift) & INDEX_MASK) as usize
    }

    /// Installs (or replaces) the mapping for `vpn`. Returns the previous
    /// PTE if one existed.
    pub fn map(&mut self, vpn: Vpn, pfn: Pfn, flags: PteFlags) -> Option<Pte> {
        let mut node = &mut self.root;
        for level in 0..LEVELS - 1 {
            let idx = Self::index(vpn, level);
            match node.as_mut() {
                Node::Interior { children, live } => {
                    if children[idx].is_none() {
                        children[idx] = Some(if level == LEVELS - 2 {
                            self.free_leaves.pop().unwrap_or_else(Node::leaf)
                        } else {
                            self.free_interiors.pop().unwrap_or_else(Node::interior)
                        });
                        *live += 1;
                    }
                    node = children[idx].as_mut().unwrap();
                }
                Node::Leaf { .. } => unreachable!("leaf at interior level"),
            }
        }
        let idx = Self::index(vpn, LEVELS - 1);
        match node.as_mut() {
            Node::Leaf { entries, live } => {
                let prev = entries[idx].replace(Pte { pfn, flags });
                if prev.is_none() {
                    *live += 1;
                    self.mapped += 1;
                }
                prev
            }
            Node::Interior { .. } => unreachable!("interior at leaf level"),
        }
    }

    /// Reads the PTE for `vpn` without modifying anything.
    pub fn lookup(&self, vpn: Vpn) -> Option<Pte> {
        let mut node = &self.root;
        for level in 0..LEVELS - 1 {
            let idx = Self::index(vpn, level);
            match node.as_ref() {
                Node::Interior { children, .. } => node = children[idx].as_ref()?,
                Node::Leaf { .. } => unreachable!(),
            }
        }
        match node.as_ref() {
            Node::Leaf { entries, .. } => entries[Self::index(vpn, LEVELS - 1)],
            Node::Interior { .. } => unreachable!(),
        }
    }

    /// Applies `f` to the PTE for `vpn`, if mapped, returning the updated
    /// entry. Used for permission changes, access-bit maintenance and NUMA
    /// hinting.
    pub fn update<F: FnOnce(&mut Pte)>(&mut self, vpn: Vpn, f: F) -> Option<Pte> {
        let mut node = &mut self.root;
        for level in 0..LEVELS - 1 {
            let idx = Self::index(vpn, level);
            match node.as_mut() {
                Node::Interior { children, .. } => node = children[idx].as_mut()?,
                Node::Leaf { .. } => unreachable!(),
            }
        }
        match node.as_mut() {
            Node::Leaf { entries, .. } => {
                let pte = entries[Self::index(vpn, LEVELS - 1)].as_mut()?;
                f(pte);
                Some(*pte)
            }
            Node::Interior { .. } => unreachable!(),
        }
    }

    /// Removes the mapping for `vpn`, returning the old PTE. Empty
    /// intermediate tables are pruned.
    pub fn unmap(&mut self, vpn: Vpn) -> Option<Pte> {
        let removed = Self::unmap_rec(
            &mut self.root,
            vpn,
            0,
            &mut self.free_interiors,
            &mut self.free_leaves,
        );
        if removed.is_some() {
            self.mapped -= 1;
        }
        removed
    }

    #[allow(clippy::vec_box)] // recycles the boxes themselves; see the pool fields
    fn unmap_rec(
        node: &mut Node,
        vpn: Vpn,
        level: u32,
        free_interiors: &mut Vec<Box<Node>>,
        free_leaves: &mut Vec<Box<Node>>,
    ) -> Option<Pte> {
        let idx = Self::index(vpn, level);
        match node {
            Node::Leaf { entries, live } => {
                let prev = entries[idx].take();
                if prev.is_some() {
                    *live -= 1;
                }
                prev
            }
            Node::Interior { children, live } => {
                let child = children[idx].as_mut()?;
                let prev = Self::unmap_rec(child, vpn, level + 1, free_interiors, free_leaves);
                if prev.is_some() {
                    let empty = match child.as_ref() {
                        Node::Leaf { live, .. } => *live == 0,
                        Node::Interior { live, .. } => *live == 0,
                    };
                    if empty {
                        // Park the pruned (already-empty) table for reuse
                        // rather than freeing it.
                        let pruned = children[idx].take().expect("child present above");
                        match pruned.as_ref() {
                            Node::Leaf { .. } => free_leaves.push(pruned),
                            Node::Interior { .. } => free_interiors.push(pruned),
                        }
                        *live -= 1;
                    }
                }
                prev
            }
        }
    }

    /// Collects the mapped pages of `range` as `(vpn, pte)` pairs, in
    /// ascending page order.
    pub fn mapped_in(&self, range: &VaRange) -> Vec<(Vpn, Pte)> {
        range
            .iter()
            .filter_map(|vpn| self.lookup(vpn).map(|pte| (vpn, pte)))
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
        for vpn in range.iter() {
            if let Some(pte) = self.unmap(vpn) {
                out.push((vpn, pte));
            }
        }
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
    fn distinct_subtrees_do_not_interfere() {
        let mut pt = PageTable::new();
        // Pages that differ only in the top-level index.
        let a = Vpn(0);
        let b = Vpn(1 << 27); // different PGD slot
        pt.map(a, Pfn(1), flags());
        pt.map(b, Pfn(2), flags());
        assert_eq!(pt.lookup(a).unwrap().pfn, Pfn(1));
        assert_eq!(pt.lookup(b).unwrap().pfn, Pfn(2));
        pt.unmap(a);
        assert_eq!(pt.lookup(b).unwrap().pfn, Pfn(2));
    }

    #[test]
    fn sparse_addresses_across_all_levels() {
        let mut pt = PageTable::new();
        let pages: Vec<Vpn> = (0..100).map(|i| Vpn(i * 0x100_0007)).collect();
        for (i, &v) in pages.iter().enumerate() {
            pt.map(v, Pfn(i as u64), flags());
        }
        assert_eq!(pt.mapped_pages(), 100);
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
    fn interior_tables_are_pruned() {
        let mut pt = PageTable::new();
        // Map and unmap a page; the root should have no live children left,
        // observable by mapping a sibling afterwards still working.
        pt.map(Vpn(0xABCDE), Pfn(1), flags());
        pt.unmap(Vpn(0xABCDE));
        match pt.root.as_ref() {
            Node::Interior { live, .. } => assert_eq!(*live, 0),
            Node::Leaf { .. } => panic!("root must be interior"),
        }
        pt.map(Vpn(0xABCDE), Pfn(2), flags());
        assert_eq!(pt.lookup(Vpn(0xABCDE)).unwrap().pfn, Pfn(2));
    }

    #[test]
    fn adjacent_pages_share_a_leaf() {
        let mut pt = PageTable::new();
        pt.map(Vpn(512), Pfn(1), flags());
        pt.map(Vpn(513), Pfn(2), flags());
        pt.unmap(Vpn(512));
        // 513 must survive its neighbour's unmap.
        assert_eq!(pt.lookup(Vpn(513)).unwrap().pfn, Pfn(2));
    }

    #[test]
    fn debug_shows_mapped_count() {
        let mut pt = PageTable::new();
        pt.map(Vpn(1), Pfn(1), flags());
        assert_eq!(format!("{pt:?}"), "PageTable(1 pages mapped)");
    }
}
