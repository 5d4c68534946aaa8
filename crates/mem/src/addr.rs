//! Page-granular address types.
//!
//! The simulation works at 4 KiB page granularity throughout (the machines
//! are configured without transparent huge pages, as in the paper's §6.1).
//! [`Vpn`]/[`Pfn`] are virtual/physical page numbers; [`VaRange`] is a
//! contiguous, page-aligned virtual range — the unit every unmap/shootdown
//! operates on.

use std::fmt;

/// Base-2 log of the page size.
pub const PAGE_SHIFT: u64 = 12;
/// Page size in bytes (4 KiB).
pub const PAGE_SIZE: u64 = 1 << PAGE_SHIFT;

/// A virtual page number (a virtual byte address `>> PAGE_SHIFT`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Vpn(pub u64);

/// A physical frame number (a physical byte address `>> PAGE_SHIFT`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Pfn(pub u64);

impl Vpn {
    /// The page `n` pages after this one.
    #[inline]
    pub fn offset(self, n: u64) -> Vpn {
        Vpn(self.0 + n)
    }
}

impl fmt::Debug for Vpn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vpn:{:#x}", self.0)
    }
}

impl fmt::Debug for Pfn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pfn:{:#x}", self.0)
    }
}

/// A contiguous, page-aligned virtual address range: `pages` pages starting
/// at page `start`.
///
/// ```
/// use latr_mem::{VaRange, Vpn};
/// let r = VaRange::new(Vpn(0x100), 3);
/// assert!(r.contains(Vpn(0x102)));
/// assert!(!r.contains(Vpn(0x103)));
/// assert_eq!(r.iter().count(), 3);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct VaRange {
    /// First page of the range.
    pub start: Vpn,
    /// Number of pages.
    pub pages: u64,
}

impl VaRange {
    /// Creates a range of `pages` pages starting at `start`.
    pub fn new(start: Vpn, pages: u64) -> Self {
        VaRange { start, pages }
    }

    /// One page past the end of the range.
    #[inline]
    pub fn end(&self) -> Vpn {
        Vpn(self.start.0 + self.pages)
    }

    /// Whether `vpn` lies inside the range.
    #[inline]
    pub fn contains(&self, vpn: Vpn) -> bool {
        vpn >= self.start && vpn < self.end()
    }

    /// Whether the two ranges share any page. Empty ranges overlap
    /// nothing.
    pub fn overlaps(&self, other: &VaRange) -> bool {
        !self.is_empty()
            && !other.is_empty()
            && self.start < other.end()
            && other.start < self.end()
    }

    /// Whether the range is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pages == 0
    }

    /// Iterates over the pages of the range in order.
    pub fn iter(&self) -> impl Iterator<Item = Vpn> + Clone + '_ {
        (self.start.0..self.end().0).map(Vpn)
    }

    /// The intersection of two ranges, if non-empty.
    pub fn intersection(&self, other: &VaRange) -> Option<VaRange> {
        let start = self.start.max(other.start);
        let end = self.end().min(other.end());
        if start < end {
            Some(VaRange {
                start,
                pages: end.0 - start.0,
            })
        } else {
            None
        }
    }
}

impl fmt::Debug for VaRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:#x}..{:#x})", self.start.0, self.end().0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vpn_offset() {
        assert_eq!(Vpn(10).offset(5), Vpn(15));
    }

    #[test]
    fn range_contains_and_end() {
        let r = VaRange::new(Vpn(10), 4);
        assert_eq!(r.end(), Vpn(14));
        assert!(r.contains(Vpn(10)));
        assert!(r.contains(Vpn(13)));
        assert!(!r.contains(Vpn(14)));
        assert!(!r.contains(Vpn(9)));
    }

    #[test]
    fn range_overlap_cases() {
        let a = VaRange::new(Vpn(10), 4); // [10,14)
        assert!(a.overlaps(&VaRange::new(Vpn(12), 10)));
        assert!(a.overlaps(&VaRange::new(Vpn(8), 3)));
        assert!(a.overlaps(&VaRange::new(Vpn(10), 4)));
        assert!(!a.overlaps(&VaRange::new(Vpn(14), 2)));
        assert!(!a.overlaps(&VaRange::new(Vpn(6), 4)));
        assert!(!a.overlaps(&VaRange::new(Vpn(12), 0)));
    }

    #[test]
    fn range_intersection() {
        let a = VaRange::new(Vpn(10), 4);
        let b = VaRange::new(Vpn(12), 6);
        assert_eq!(a.intersection(&b), Some(VaRange::new(Vpn(12), 2)));
        assert_eq!(a.intersection(&VaRange::new(Vpn(20), 2)), None);
    }

    #[test]
    fn range_iter_in_order() {
        let pages: Vec<u64> = VaRange::new(Vpn(5), 3).iter().map(|v| v.0).collect();
        assert_eq!(pages, vec![5, 6, 7]);
    }

    #[test]
    fn empty_range() {
        let r = VaRange::new(Vpn(5), 0);
        assert!(r.is_empty());
        assert_eq!(r.iter().count(), 0);
        assert!(!r.contains(Vpn(5)));
    }

    #[test]
    fn debug_formats() {
        assert_eq!(format!("{:?}", Vpn(0x10)), "vpn:0x10");
        assert_eq!(format!("{:?}", Pfn(0x10)), "pfn:0x10");
        assert_eq!(format!("{:?}", VaRange::new(Vpn(1), 2)), "[0x1..0x3)");
    }
}
