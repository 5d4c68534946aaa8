//! CPU identifiers and bitmasks.
//!
//! [`CpuMask`] is the structure at the heart of both the kernel's
//! `mm_cpumask` (which CPUs have a process active) and each Latr state's
//! "CPUs still to invalidate" field (§4.1 of the paper). It supports up to
//! [`MAX_CPUS`] CPUs — enough for the paper's 120-core machine with room to
//! spare.

use std::fmt;

/// Maximum number of CPUs a [`CpuMask`] can represent.
pub const MAX_CPUS: usize = 256;

const WORDS: usize = MAX_CPUS / 64;

/// Index of a logical CPU (hardware thread); dense from 0.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct CpuId(pub u16);

impl CpuId {
    /// The CPU index as a `usize` for table lookups.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for CpuId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cpu{}", self.0)
    }
}

/// A fixed-size bitmask over CPUs.
///
/// ```
/// use latr_arch::{CpuId, CpuMask};
/// let mut m = CpuMask::empty();
/// m.set(CpuId(3));
/// m.set(CpuId(120));
/// assert_eq!(m.count(), 2);
/// assert!(m.test(CpuId(3)));
/// m.clear(CpuId(3));
/// assert_eq!(m.iter().collect::<Vec<_>>(), vec![CpuId(120)]);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct CpuMask {
    words: [u64; WORDS],
}

impl CpuMask {
    /// The empty mask.
    pub const fn empty() -> Self {
        CpuMask { words: [0; WORDS] }
    }

    /// A mask with CPUs `0..n` set.
    ///
    /// # Panics
    ///
    /// Panics if `n > MAX_CPUS`.
    pub fn first_n(n: usize) -> Self {
        assert!(n <= MAX_CPUS, "mask supports at most {MAX_CPUS} cpus");
        let mut m = CpuMask::empty();
        for i in 0..n {
            m.set(CpuId(i as u16));
        }
        m
    }

    /// The mask whose bit *i* of `words[w]` is CPU `w*64+i`.
    #[inline]
    pub const fn from_words(words: [u64; WORDS]) -> Self {
        CpuMask { words }
    }

    /// The mask as words: bit *i* of word *w* is CPU `w*64+i`.
    #[inline]
    pub const fn words(&self) -> [u64; WORDS] {
        self.words
    }

    /// Builds a mask from an iterator of CPU ids.
    pub fn from_cpus<I: IntoIterator<Item = CpuId>>(iter: I) -> Self {
        let mut m = CpuMask::empty();
        for c in iter {
            m.set(c);
        }
        m
    }

    #[inline]
    fn locate(cpu: CpuId) -> (usize, u64) {
        let i = cpu.index();
        assert!(i < MAX_CPUS, "cpu {} out of range", i);
        (i / 64, 1u64 << (i % 64))
    }

    /// Sets the bit for `cpu`.
    #[inline]
    pub fn set(&mut self, cpu: CpuId) {
        let (w, b) = Self::locate(cpu);
        self.words[w] |= b;
    }

    /// Clears the bit for `cpu`.
    #[inline]
    pub fn clear(&mut self, cpu: CpuId) {
        let (w, b) = Self::locate(cpu);
        self.words[w] &= !b;
    }

    /// Whether the bit for `cpu` is set.
    #[inline]
    pub fn test(&self, cpu: CpuId) -> bool {
        let (w, b) = Self::locate(cpu);
        self.words[w] & b != 0
    }

    /// Number of set bits.
    #[inline]
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of set bits among CPUs `cpus.start..cpus.end`.
    pub fn count_in(&self, cpus: std::ops::Range<usize>) -> usize {
        let (mut lo, hi) = (cpus.start, cpus.end.min(MAX_CPUS));
        let mut n = 0;
        while lo < hi {
            let w = lo / 64;
            let end = hi.min((w + 1) * 64);
            let width = end - lo;
            let bits = if width == 64 { !0 } else { (1u64 << width) - 1 };
            n += (self.words[w] & (bits << (lo % 64))).count_ones() as usize;
            lo = end;
        }
        n
    }

    /// Whether no bits are set.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// The lowest set CPU, if any.
    pub fn first(&self) -> Option<CpuId> {
        for (w, &word) in self.words.iter().enumerate() {
            if word != 0 {
                return Some(CpuId((w * 64 + word.trailing_zeros() as usize) as u16));
            }
        }
        None
    }

    /// Set-union with `other`.
    pub fn union(&self, other: &CpuMask) -> CpuMask {
        let mut out = *self;
        for (a, b) in out.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
        out
    }

    /// Bits set in both `self` and `other`.
    #[inline]
    pub fn intersection(&self, other: &CpuMask) -> CpuMask {
        let mut out = *self;
        for (a, b) in out.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
        out
    }

    /// Bits set in `self` but not in `other`.
    pub fn difference(&self, other: &CpuMask) -> CpuMask {
        let mut out = *self;
        for (a, b) in out.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
        out
    }

    /// Removes all bits, leaving the mask empty.
    pub fn reset(&mut self) {
        self.words = [0; WORDS];
    }

    /// Iterates over set CPU ids in ascending order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            mask: self,
            word: 0,
            bits: self.words[0],
        }
    }
}

/// Iterator over the set bits of a [`CpuMask`], produced by
/// [`CpuMask::iter`].
pub struct Iter<'a> {
    mask: &'a CpuMask,
    word: usize,
    bits: u64,
}

impl Iterator for Iter<'_> {
    type Item = CpuId;

    fn next(&mut self) -> Option<CpuId> {
        loop {
            if self.bits != 0 {
                let bit = self.bits.trailing_zeros() as usize;
                self.bits &= self.bits - 1;
                return Some(CpuId((self.word * 64 + bit) as u16));
            }
            self.word += 1;
            if self.word >= WORDS {
                return None;
            }
            self.bits = self.mask.words[self.word];
        }
    }
}

impl FromIterator<CpuId> for CpuMask {
    fn from_iter<I: IntoIterator<Item = CpuId>>(iter: I) -> Self {
        CpuMask::from_cpus(iter)
    }
}

impl fmt::Debug for CpuMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CpuMask{{")?;
        let mut first = true;
        for cpu in self.iter() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{}", cpu.0)?;
            first = false;
        }
        write!(f, "}}")
    }
}

impl fmt::Display for CpuMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_in_matches_per_bit_count() {
        let m = CpuMask::from_cpus([0, 5, 63, 64, 100, 127, 128, 200, 255].map(CpuId));
        for lo in 0..=MAX_CPUS {
            for hi in [lo, lo + 1, lo + 15, lo + 64, lo + 130, MAX_CPUS + 7] {
                let want = (lo..hi.min(MAX_CPUS))
                    .filter(|&c| m.test(CpuId(c as u16)))
                    .count();
                assert_eq!(m.count_in(lo..hi), want, "{lo}..{hi}");
            }
        }
    }

    #[test]
    fn set_test_clear_roundtrip() {
        let mut m = CpuMask::empty();
        for i in [0u16, 1, 63, 64, 127, 128, 255] {
            assert!(!m.test(CpuId(i)));
            m.set(CpuId(i));
            assert!(m.test(CpuId(i)));
        }
        assert_eq!(m.count(), 7);
        for i in [0u16, 1, 63, 64, 127, 128, 255] {
            m.clear(CpuId(i));
            assert!(!m.test(CpuId(i)));
        }
        assert!(m.is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let mut m = CpuMask::empty();
        m.set(CpuId(256));
    }

    #[test]
    fn first_n_sets_prefix() {
        let m = CpuMask::first_n(120);
        assert_eq!(m.count(), 120);
        assert!(m.test(CpuId(0)));
        assert!(m.test(CpuId(119)));
        assert!(!m.test(CpuId(120)));
    }

    #[test]
    fn first_n_zero_is_empty() {
        assert!(CpuMask::first_n(0).is_empty());
        assert_eq!(CpuMask::first_n(0).first(), None);
    }

    #[test]
    fn iter_ascending_across_words() {
        let m: CpuMask = [5u16, 70, 150, 200].into_iter().map(CpuId).collect();
        let got: Vec<u16> = m.iter().map(|c| c.0).collect();
        assert_eq!(got, vec![5, 70, 150, 200]);
    }

    #[test]
    fn words_name_cpus_word_by_word() {
        let m = CpuMask::from_cpus([CpuId(1), CpuId(64), CpuId(255)]);
        assert_eq!(m.words(), [0b10, 1, 0, 1 << 63]);
        assert_eq!(CpuMask::from_words(m.words()), m);
    }

    #[test]
    fn first_finds_lowest() {
        let m = CpuMask::from_cpus([CpuId(130), CpuId(64)]);
        assert_eq!(m.first(), Some(CpuId(64)));
    }

    #[test]
    fn set_algebra() {
        let a = CpuMask::from_cpus([CpuId(1), CpuId(2)]);
        let b = CpuMask::from_cpus([CpuId(2), CpuId(3)]);
        assert_eq!(
            a.union(&b),
            CpuMask::from_cpus([CpuId(1), CpuId(2), CpuId(3)])
        );
        assert_eq!(a.difference(&b), CpuMask::from_cpus([CpuId(1)]));
        assert_eq!(a.intersection(&b), CpuMask::from_cpus([CpuId(2)]));
    }

    #[test]
    fn reset_empties() {
        let mut m = CpuMask::first_n(10);
        m.reset();
        assert!(m.is_empty());
    }

    #[test]
    fn debug_lists_cpus() {
        let m = CpuMask::from_cpus([CpuId(1), CpuId(5)]);
        assert_eq!(format!("{m:?}"), "CpuMask{1,5}");
        assert_eq!(format!("{:?}", CpuMask::empty()), "CpuMask{}");
    }
}
