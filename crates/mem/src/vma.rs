//! Virtual memory areas (VMAs) and the per-address-space VMA tree.
//!
//! A [`Vma`] describes one contiguous mapping (anonymous or file-backed)
//! with its protection. The [`VmaTree`] keeps VMAs sorted and
//! non-overlapping, supports containment/overlap queries, and implements
//! the splitting semantics of partial `munmap`/`mprotect`: removing or
//! re-protecting the middle of a VMA leaves correctly trimmed pieces
//! behind.

use crate::addr::{VaRange, Vpn};
use crate::page_cache::FileId;

/// Mapping protection bits (a subset of `mmap`'s `PROT_*`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Prot {
    /// Readable.
    pub read: bool,
    /// Writable.
    pub write: bool,
}

impl Prot {
    /// Read-only protection.
    pub const READ: Prot = Prot {
        read: true,
        write: false,
    };
    /// Read-write protection.
    pub const READ_WRITE: Prot = Prot {
        read: true,
        write: true,
    };
}

/// What backs a mapping.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MapKind {
    /// Anonymous memory (heap, scratch buffers).
    Anon,
    /// A shared file mapping: page `i` of the VMA is page
    /// `offset + i` of the file.
    File {
        /// Which file.
        file: FileId,
        /// First file page mapped.
        offset: u64,
    },
}

/// One virtual memory area.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Vma {
    /// The pages this VMA covers.
    pub range: VaRange,
    /// Anonymous or file-backed.
    pub kind: MapKind,
    /// Protection.
    pub prot: Prot,
}

impl Vma {
    /// For file VMAs, the file page backing `vpn`.
    ///
    /// # Panics
    ///
    /// Panics if `vpn` is outside the VMA.
    pub fn file_page_of(&self, vpn: Vpn) -> Option<(FileId, u64)> {
        assert!(self.range.contains(vpn), "{vpn:?} outside {:?}", self.range);
        match self.kind {
            MapKind::Anon => None,
            MapKind::File { file, offset } => Some((file, offset + (vpn.0 - self.range.start.0))),
        }
    }

    /// The sub-VMA covering `sub`, which must lie inside this VMA. File
    /// offsets are adjusted.
    fn slice(&self, sub: VaRange) -> Vma {
        debug_assert!(sub.start >= self.range.start && sub.end() <= self.range.end());
        let kind = match self.kind {
            MapKind::Anon => MapKind::Anon,
            MapKind::File { file, offset } => MapKind::File {
                file,
                offset: offset + (sub.start.0 - self.range.start.0),
            },
        };
        Vma {
            range: sub,
            kind,
            prot: self.prot,
        }
    }
}

/// The sorted, non-overlapping set of VMAs of one address space.
///
/// ```
/// use latr_mem::{VmaTree, Vma, VaRange, Vpn, MapKind, Prot};
/// let mut t = VmaTree::new();
/// t.insert(Vma { range: VaRange::new(Vpn(10), 10), kind: MapKind::Anon, prot: Prot::READ_WRITE });
/// assert!(t.find(Vpn(15)).is_some());
/// // Punch a hole in the middle: the VMA splits in two.
/// let removed = t.remove_range(&VaRange::new(Vpn(13), 4));
/// assert_eq!(removed.len(), 1);
/// assert!(t.find(Vpn(12)).is_some());
/// assert!(t.find(Vpn(14)).is_none());
/// assert!(t.find(Vpn(18)).is_some());
/// ```
#[derive(Clone, Debug, Default)]
pub struct VmaTree {
    // Sorted by first page. A flat vector beats a BTreeMap here: address
    // spaces hold a handful of VMAs, binary search is cache-dense, and —
    // unlike a BTreeMap, which frees its root when the map empties — the
    // vector retains its capacity, so the map/unmap steady state performs
    // no heap allocation.
    vmas: Vec<Vma>,
}

impl VmaTree {
    /// Creates an empty tree.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of VMAs.
    pub fn len(&self) -> usize {
        self.vmas.len()
    }

    /// Whether the tree has no VMAs.
    pub fn is_empty(&self) -> bool {
        self.vmas.is_empty()
    }

    /// Index of the first VMA starting at or after `vpn`.
    fn lower_bound(&self, vpn: u64) -> usize {
        self.vmas.partition_point(|v| v.range.start.0 < vpn)
    }

    /// The window `[lo, hi)` of VMAs overlapping `range` (every entry in
    /// the window overlaps; `range` must be non-empty).
    fn overlap_window(&self, range: &VaRange) -> (usize, usize) {
        let mut lo = self.lower_bound(range.start.0);
        // A VMA starting before the range may still reach into it.
        if lo > 0 && self.vmas[lo - 1].range.overlaps(range) {
            lo -= 1;
        }
        let hi = self.lower_bound(range.end().0);
        (lo, hi)
    }

    /// The VMA containing `vpn`, if any.
    pub fn find(&self, vpn: Vpn) -> Option<&Vma> {
        let i = self.vmas.partition_point(|v| v.range.start.0 <= vpn.0);
        self.vmas[..i].last().filter(|v| v.range.contains(vpn))
    }

    /// All VMAs overlapping `range`, in address order.
    pub fn overlapping(&self, range: &VaRange) -> Vec<Vma> {
        if range.is_empty() {
            return Vec::new();
        }
        let (lo, hi) = self.overlap_window(range);
        self.vmas[lo..hi].to_vec()
    }

    /// Whether any VMA overlaps `range`. Allocation-free.
    pub fn is_range_free(&self, range: &VaRange) -> bool {
        if range.is_empty() {
            return true;
        }
        let (lo, hi) = self.overlap_window(range);
        lo == hi
    }

    /// Inserts a VMA.
    ///
    /// # Panics
    ///
    /// Panics if the VMA is empty or overlaps an existing VMA.
    pub fn insert(&mut self, vma: Vma) {
        assert!(!vma.range.is_empty(), "empty VMA");
        assert!(
            self.is_range_free(&vma.range),
            "VMA {:?} overlaps existing mapping",
            vma.range
        );
        let pos = self.lower_bound(vma.range.start.0);
        self.vmas.insert(pos, vma);
    }

    /// Removes `range` from the tree, splitting boundary VMAs as needed.
    /// Returns the removed pieces (each piece is the intersection of one
    /// VMA with `range`, with file offsets adjusted).
    pub fn remove_range(&mut self, range: &VaRange) -> Vec<Vma> {
        let mut removed = Vec::new();
        self.remove_range_into(range, &mut removed);
        removed
    }

    /// [`remove_range`](Self::remove_range) appending the removed pieces
    /// to `out` instead of allocating — the unmap hot path passes a scratch
    /// vector whose capacity survives across calls.
    pub fn remove_range_into(&mut self, range: &VaRange, out: &mut Vec<Vma>) {
        if range.is_empty() {
            return;
        }
        let (lo, hi) = self.overlap_window(range);
        if lo == hi {
            return;
        }
        // Boundary remainders: at most the leftmost victim keeps a left
        // piece and the rightmost keeps a right piece.
        let mut left: Option<Vma> = None;
        let mut right: Option<Vma> = None;
        for &vma in &self.vmas[lo..hi] {
            if vma.range.start < range.start {
                let keep = VaRange {
                    start: vma.range.start,
                    pages: range.start.0 - vma.range.start.0,
                };
                left = Some(vma.slice(keep));
            }
            if vma.range.end() > range.end() {
                let keep = VaRange {
                    start: range.end(),
                    pages: vma.range.end().0 - range.end().0,
                };
                right = Some(vma.slice(keep));
            }
            let cut = vma.range.intersection(range).expect("overlap checked");
            out.push(vma.slice(cut));
        }
        // Rewrite the window with the surviving remainders in place.
        let mut write = lo;
        for v in [left, right].into_iter().flatten() {
            if write < hi {
                self.vmas[write] = v;
            } else {
                // Hole punched in the middle of a single VMA: both
                // remainders survive but the window held one slot.
                self.vmas.insert(write, v);
            }
            write += 1;
        }
        if write < hi {
            self.vmas.drain(write..hi);
        }
    }

    /// Changes the protection of `range`, splitting boundary VMAs. Returns
    /// the re-protected pieces. Pages of `range` not covered by any VMA are
    /// ignored (as `mprotect` over holes would fail; the kernel layer
    /// checks coverage first).
    pub fn protect_range(&mut self, range: &VaRange, prot: Prot) -> Vec<Vma> {
        let pieces = self.remove_range(range);
        let mut out = Vec::with_capacity(pieces.len());
        for mut piece in pieces {
            piece.prot = prot;
            self.insert(piece);
            out.push(piece);
        }
        out
    }

    /// Iterates over all VMAs in address order.
    pub fn iter(&self) -> impl Iterator<Item = &Vma> {
        self.vmas.iter()
    }

    /// The VMAs ending above `floor`, in address order. VMAs are disjoint,
    /// so their ends are sorted too: one binary search finds the first.
    pub fn ending_after(&self, floor: Vpn) -> &[Vma] {
        let first = self.vmas.partition_point(|v| v.range.end() <= floor);
        &self.vmas[first..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    fn anon(start: u64, pages: u64) -> Vma {
        Vma {
            range: VaRange::new(Vpn(start), pages),
            kind: MapKind::Anon,
            prot: Prot::READ_WRITE,
        }
    }

    fn file(start: u64, pages: u64, file: u32, offset: u64) -> Vma {
        Vma {
            range: VaRange::new(Vpn(start), pages),
            kind: MapKind::File {
                file: FileId(file),
                offset,
            },
            prot: Prot::READ,
        }
    }

    #[test]
    fn find_locates_containing_vma() {
        let mut t = VmaTree::new();
        t.insert(anon(10, 5));
        t.insert(anon(30, 5));
        assert_eq!(t.find(Vpn(12)).unwrap().range.start, Vpn(10));
        assert!(t.find(Vpn(20)).is_none());
        assert!(t.find(Vpn(9)).is_none());
        assert_eq!(t.find(Vpn(34)).unwrap().range.start, Vpn(30));
        assert!(t.find(Vpn(35)).is_none());
    }

    #[test]
    #[should_panic(expected = "overlaps existing")]
    fn overlapping_insert_panics() {
        let mut t = VmaTree::new();
        t.insert(anon(10, 5));
        t.insert(anon(14, 2));
    }

    #[test]
    #[should_panic(expected = "empty VMA")]
    fn empty_insert_panics() {
        let mut t = VmaTree::new();
        t.insert(anon(10, 0));
    }

    #[test]
    fn overlapping_queries() {
        let mut t = VmaTree::new();
        t.insert(anon(10, 5)); // [10,15)
        t.insert(anon(20, 5)); // [20,25)
        let hits = t.overlapping(&VaRange::new(Vpn(14), 7)); // [14,21)
        assert_eq!(hits.len(), 2);
        assert!(t.is_range_free(&VaRange::new(Vpn(15), 5)));
        assert!(!t.is_range_free(&VaRange::new(Vpn(24), 1)));
    }

    #[test]
    fn remove_exact_vma() {
        let mut t = VmaTree::new();
        t.insert(anon(10, 5));
        let removed = t.remove_range(&VaRange::new(Vpn(10), 5));
        assert_eq!(removed.len(), 1);
        assert!(t.is_empty());
    }

    #[test]
    fn remove_splits_middle() {
        let mut t = VmaTree::new();
        t.insert(anon(10, 10)); // [10,20)
        let removed = t.remove_range(&VaRange::new(Vpn(13), 4)); // [13,17)
        assert_eq!(removed.len(), 1);
        assert_eq!(removed[0].range, VaRange::new(Vpn(13), 4));
        assert_eq!(t.len(), 2);
        assert_eq!(t.find(Vpn(12)).unwrap().range, VaRange::new(Vpn(10), 3));
        assert_eq!(t.find(Vpn(17)).unwrap().range, VaRange::new(Vpn(17), 3));
        assert!(t.find(Vpn(13)).is_none());
    }

    #[test]
    fn remove_trims_edges_of_two_vmas() {
        let mut t = VmaTree::new();
        t.insert(anon(10, 5)); // [10,15)
        t.insert(anon(15, 5)); // [15,20)
        let removed = t.remove_range(&VaRange::new(Vpn(13), 4)); // [13,17)
        assert_eq!(removed.len(), 2);
        assert_eq!(t.find(Vpn(10)).unwrap().range, VaRange::new(Vpn(10), 3));
        assert_eq!(t.find(Vpn(17)).unwrap().range, VaRange::new(Vpn(17), 3));
    }

    #[test]
    fn remove_over_hole_returns_nothing() {
        let mut t = VmaTree::new();
        t.insert(anon(10, 2));
        let removed = t.remove_range(&VaRange::new(Vpn(50), 5));
        assert!(removed.is_empty());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn file_offsets_adjust_on_split() {
        let mut t = VmaTree::new();
        t.insert(file(100, 10, 1, 0)); // file pages 0..10 at [100,110)
        let removed = t.remove_range(&VaRange::new(Vpn(104), 2));
        assert_eq!(removed.len(), 1);
        match removed[0].kind {
            MapKind::File { file: f, offset } => {
                assert_eq!(f, FileId(1));
                assert_eq!(offset, 4);
            }
            MapKind::Anon => panic!("expected file vma"),
        }
        // Right remainder starts at file page 6.
        let right = *t.find(Vpn(106)).unwrap();
        assert_eq!(right.file_page_of(Vpn(106)), Some((FileId(1), 6)));
    }

    #[test]
    fn file_page_of_anon_is_none() {
        let v = anon(10, 2);
        assert_eq!(v.file_page_of(Vpn(10)), None);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn file_page_of_outside_panics() {
        let v = file(10, 2, 1, 0);
        v.file_page_of(Vpn(12));
    }

    #[test]
    fn protect_range_splits_and_updates() {
        let mut t = VmaTree::new();
        t.insert(anon(10, 10));
        let changed = t.protect_range(&VaRange::new(Vpn(12), 3), Prot::READ);
        assert_eq!(changed.len(), 1);
        assert_eq!(t.find(Vpn(13)).unwrap().prot, Prot::READ);
        assert_eq!(t.find(Vpn(11)).unwrap().prot, Prot::READ_WRITE);
        assert_eq!(t.find(Vpn(15)).unwrap().prot, Prot::READ_WRITE);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn ending_after_skips_vmas_at_or_below_the_floor() {
        let mut t = VmaTree::new();
        t.insert(anon(10, 5)); // [10,15)
        t.insert(anon(17, 3)); // [17,20)
        let starts = |floor| -> Vec<u64> {
            t.ending_after(Vpn(floor))
                .iter()
                .map(|v| v.range.start.0)
                .collect()
        };
        assert_eq!(starts(0), vec![10, 17]);
        assert_eq!(starts(14), vec![10, 17]);
        assert_eq!(starts(15), vec![17]);
        assert_eq!(starts(19), vec![17]);
        assert_eq!(starts(20), Vec::<u64>::new());
    }

    #[test]
    fn iter_is_sorted() {
        let mut t = VmaTree::new();
        t.insert(anon(30, 1));
        t.insert(anon(10, 1));
        t.insert(anon(20, 1));
        let starts: Vec<u64> = t.iter().map(|v| v.range.start.0).collect();
        assert_eq!(starts, vec![10, 20, 30]);
    }
}
