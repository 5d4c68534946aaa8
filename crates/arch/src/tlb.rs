//! Per-core TLB model.
//!
//! A two-level, set-associative TLB with LRU replacement and optional PCID
//! (process-context identifier) tagging, mirroring the structures in
//! Table 3: a 64-entry L1 D-TLB and a 512/1024-entry L2 TLB per core.
//!
//! The TLB maps `(pcid, vpn)` to a physical frame number. Keeping the frame
//! number in the entry is what lets the test suite check the paper's central
//! invariant — that no frame is reused while any core still caches a
//! translation to it (§3).
//!
//! Virtual page numbers and physical frame numbers are raw `u64`s at this
//! layer; the memory crate wraps them in newtypes.

/// PCID value used when process-context identifiers are disabled
/// (Linux 4.10's default, §4.5).
pub const PCID_NONE: u16 = 0;

/// One cached translation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TlbEntry {
    /// Process-context identifier tag ([`PCID_NONE`] when unused).
    pub pcid: u16,
    /// Virtual page number.
    pub vpn: u64,
    /// Physical frame number the translation resolves to.
    pub pfn: u64,
    /// Whether the cached translation allows writes.
    pub writable: bool,
}

/// Hit/miss/flush counters for one TLB.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Lookups that hit in L1.
    pub l1_hits: u64,
    /// Lookups that missed L1 but hit L2.
    pub l2_hits: u64,
    /// Lookups that missed both levels.
    pub misses: u64,
    /// Single-page invalidations performed.
    pub invalidations: u64,
    /// Full flushes performed.
    pub full_flushes: u64,
}

impl TlbStats {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.l1_hits + self.l2_hits + self.misses
    }

    /// Fraction of lookups that missed both levels, or 0 when idle.
    pub fn miss_ratio(&self) -> f64 {
        let total = self.lookups();
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// Bits of a key word below the VPN: the PCID tag.
const PCID_BITS: u32 = 16;

/// Largest VPN a key word holds. x86-64 VPNs are at most 45 bits (a
/// 57-bit virtual address under 5-level paging, less the 12-bit page
/// offset), well inside the 48 bits left above the PCID.
const VPN_MAX: u64 = u64::MAX >> PCID_BITS;

/// Largest PFN a value word holds: 63 bits, with the writable bit below.
const PFN_MAX: u64 = u64::MAX >> 1;

/// Ways per set at most: the valid mask is a `u16`, and the recency
/// order packs one 4-bit way index per way into a `u32`.
const MAX_WAYS: usize = 8;

/// A slot's key word: what a probe compares.
#[inline]
fn key(pcid: u16, vpn: u64) -> u64 {
    vpn << PCID_BITS | u64::from(pcid)
}

#[inline]
fn decode(key: u64, val: u64) -> TlbEntry {
    TlbEntry {
        pcid: key as u16,
        vpn: key >> PCID_BITS,
        pfn: val >> 1,
        writable: val & 1 != 0,
    }
}

/// Moves `way` to the most-recent end of a set's recency order (the low
/// nibble), shifting the ways that were more recent than it down one
/// place.
#[inline]
fn promote(order: u32, way: usize) -> u32 {
    // `way`'s nibble is the lowest zero nibble of the XOR; the SWAR
    // zero test is exact for the lowest one.
    let x = order ^ (way as u32).wrapping_mul(0x1111_1111);
    let zeros = x.wrapping_sub(0x1111_1111) & !x & 0x8888_8888;
    let pos = zeros.trailing_zeros() & !3;
    let below = order & ((1 << pos) - 1);
    let above = order & !((1u32 << pos << 4).wrapping_sub(1));
    above | below << 4 | way as u32
}

/// A set-associative array used for both TLB levels, as a structure of
/// arrays: per slot a key word `vpn << 16 | pcid` and a value word
/// `pfn << 1 | writable` (16 B), per set a valid mask and a recency
/// order. A probe reads only the set's key words — one cache line for
/// eight ways.
///
/// The arrays are built on the level's first insert: until then they are
/// empty, and every reader answers as for a level with no valid slot —
/// `probe` stops at the zero PCID count, `remove` is reached only through
/// a nonzero one, and `flush_all` and `iter_valid` find no slots. A core
/// that never fills its TLB (an idle sweeper) holds none of it.
///
/// Replacement is LRU, exact: the victim is the first invalid way, else
/// the tail of the recency order. Every lookup hit and insert moves its
/// way to the head, so the valid ways stand in the order of their last
/// use; invalidation leaves a way where it is, which no choice reads
/// while the way is invalid.
#[derive(Clone, Debug)]
struct SetAssoc<const WAYS: usize> {
    keys: Vec<u64>,
    vals: Vec<u64>,
    /// Per set: bit `w` is set while way `w` holds a translation.
    valid: Vec<u16>,
    /// Per set: way indices from most to least recently used, 4 bits
    /// each from the low end; nibbles past `WAYS` hold `0xF`.
    order: Vec<u32>,
    sets: usize,
    /// `sets - 1` when `sets` is a power of two (every real TLB shape),
    /// letting `set_of` mask instead of paying a division per probe;
    /// 0 otherwise, falling back to the modulo.
    set_mask: usize,
    /// Valid-entry count per PCID, grown on demand. `count(p) == 0`
    /// proves no valid slot is tagged `p`, which lets lookups and
    /// invalidations for an uncached address space skip the set probe
    /// entirely — the common case for a sweeping core that
    /// never touched the publisher's pages. Pure accounting: slot
    /// contents, LRU state and statistics are unchanged by the skip.
    pcid_count: Vec<u32>,
}

impl<const WAYS: usize> SetAssoc<WAYS> {
    fn new(entries: usize) -> Self {
        const { assert!(WAYS > 0 && WAYS <= MAX_WAYS) };
        assert!(entries > 0 && entries.is_multiple_of(WAYS));
        let sets = entries / WAYS;
        SetAssoc {
            keys: Vec::new(),
            vals: Vec::new(),
            valid: Vec::new(),
            order: Vec::new(),
            sets,
            set_mask: if sets.is_power_of_two() { sets - 1 } else { 0 },
            pcid_count: Vec::new(),
        }
    }

    /// Builds the arrays, every slot invalid, every set in identity
    /// recency order 0, 1, .., WAYS - 1 from the low nibble up.
    #[cold]
    fn materialize(&mut self) {
        let order = (0..MAX_WAYS).fold(0u32, |o, w| {
            o | (if w < WAYS { w as u32 } else { 0xF }) << (4 * w)
        });
        self.keys = vec![0; self.sets * WAYS];
        self.vals = vec![0; self.sets * WAYS];
        self.valid = vec![0; self.sets];
        self.order = vec![order; self.sets];
    }

    #[inline]
    fn count(&self, pcid: u16) -> u32 {
        self.pcid_count.get(pcid as usize).copied().unwrap_or(0)
    }

    #[inline]
    fn count_inc(&mut self, pcid: u16) {
        let i = pcid as usize;
        if i >= self.pcid_count.len() {
            self.pcid_count.resize(i + 1, 0);
        }
        self.pcid_count[i] += 1;
    }

    #[inline]
    fn set_of(&self, vpn: u64) -> usize {
        // Simple hash to decorrelate strided workloads.
        let h = vpn.wrapping_mul(0x9E3779B97F4A7C15) >> 32;
        if self.set_mask != 0 {
            h as usize & self.set_mask
        } else {
            (h as usize) % self.sets
        }
    }

    /// The valid way of `set` whose key word is `key`.
    #[inline]
    fn find(&self, set: usize, key: u64) -> Option<usize> {
        let mut hits = 0u32;
        for (w, &k) in self.keys[set * WAYS..][..WAYS].iter().enumerate() {
            hits |= u32::from(k == key) << w;
        }
        hits &= u32::from(self.valid[set]);
        (hits != 0).then(|| hits.trailing_zeros() as usize)
    }

    /// The set and way caching `(pcid, vpn)`. A VPN past [`VPN_MAX`] is
    /// never cached: `Tlb::insert` refuses it.
    #[inline]
    fn probe(&self, pcid: u16, vpn: u64) -> Option<(usize, usize)> {
        if vpn > VPN_MAX || self.count(pcid) == 0 {
            return None;
        }
        let set = self.set_of(vpn);
        self.find(set, key(pcid, vpn)).map(|way| (set, way))
    }

    fn lookup(&mut self, pcid: u16, vpn: u64) -> Option<TlbEntry> {
        let (set, way) = self.probe(pcid, vpn)?;
        self.order[set] = promote(self.order[set], way);
        let i = set * WAYS + way;
        Some(decode(self.keys[i], self.vals[i]))
    }

    fn peek(&self, pcid: u16, vpn: u64) -> Option<TlbEntry> {
        let (set, way) = self.probe(pcid, vpn)?;
        let i = set * WAYS + way;
        Some(decode(self.keys[i], self.vals[i]))
    }

    /// Returns the valid entry of a *different* page this insert displaced,
    /// if any (a capacity eviction at this level). The caller has checked
    /// the packing bounds.
    fn insert(&mut self, entry: TlbEntry) -> Option<TlbEntry> {
        if self.keys.is_empty() {
            self.materialize();
        }
        let set = self.set_of(entry.vpn);
        let key = key(entry.pcid, entry.vpn);
        let val = entry.pfn << 1 | u64::from(entry.writable);
        let mut displaced = None;
        // Replace an existing mapping of the same page first.
        let way = match self.find(set, key) {
            Some(way) => way,
            None => {
                let empty = !self.valid[set] & ((1 << WAYS) - 1);
                let way = if empty != 0 {
                    empty.trailing_zeros() as usize
                } else {
                    (self.order[set] >> (4 * (WAYS - 1)) & 0xF) as usize
                };
                let i = set * WAYS + way;
                if self.valid[set] & 1 << way != 0 {
                    let old = decode(self.keys[i], self.vals[i]);
                    self.pcid_count[old.pcid as usize] -= 1;
                    displaced = Some(old);
                }
                self.count_inc(entry.pcid);
                self.keys[i] = key;
                self.valid[set] |= 1 << way;
                way
            }
        };
        self.vals[set * WAYS + way] = val;
        self.order[set] = promote(self.order[set], way);
        displaced
    }

    /// Drops the translation of `(pcid, vpn)`, if cached. Unlike
    /// [`probe`](Self::probe) it does not test `count(pcid)`: the page-list
    /// caller tests that once per list.
    #[inline]
    fn remove(&mut self, pcid: u16, vpn: u64) -> bool {
        if vpn > VPN_MAX {
            return false;
        }
        let set = self.set_of(vpn);
        let Some(way) = self.find(set, key(pcid, vpn)) else {
            return false;
        };
        self.valid[set] &= !(1 << way);
        self.pcid_count[pcid as usize] -= 1;
        true
    }

    fn flush_all(&mut self) {
        self.valid.fill(0);
        self.pcid_count.fill(0);
    }

    fn iter_valid(&self) -> impl Iterator<Item = TlbEntry> + '_ {
        (0..self.keys.len())
            .filter(|&i| self.valid[i / WAYS] & 1 << (i % WAYS) != 0)
            .map(|i| decode(self.keys[i], self.vals[i]))
    }
}

/// A per-core two-level TLB.
///
/// ```
/// use latr_arch::{Tlb, TlbEntry, PCID_NONE};
/// let mut tlb = Tlb::new(64, 1024);
/// let e = TlbEntry { pcid: PCID_NONE, vpn: 0x10, pfn: 0x99, writable: true };
/// assert!(tlb.lookup(PCID_NONE, 0x10).is_none()); // cold miss
/// tlb.insert(e);
/// assert_eq!(tlb.lookup(PCID_NONE, 0x10), Some(e)); // hit
/// tlb.invalidate_page(PCID_NONE, 0x10);
/// assert!(tlb.lookup(PCID_NONE, 0x10).is_none());
/// ```
#[derive(Clone, Debug)]
pub struct Tlb {
    l1: SetAssoc<4>,
    l2: SetAssoc<8>,
    stats: TlbStats,
    track_evictions: bool,
    evicted: Vec<TlbEntry>,
}

impl Tlb {
    /// Creates a TLB with the given L1 and L2 capacities (entries).
    /// L1 is 4-way; L2 is 8-way, matching contemporary Xeons. Allocates
    /// nothing: each level builds its arrays on its first insert.
    ///
    /// # Panics
    ///
    /// Panics if a level's capacity is zero or not divisible by its
    /// associativity.
    pub fn new(l1_entries: usize, l2_entries: usize) -> Self {
        Tlb {
            l1: SetAssoc::new(l1_entries),
            l2: SetAssoc::new(l2_entries),
            stats: TlbStats::default(),
            track_evictions: false,
            evicted: Vec::new(),
        }
    }

    /// Enables (or disables) capacity-eviction tracking. While enabled,
    /// entries that fall out of *both* levels record themselves in a log
    /// drained by [`drain_evicted`](Self::drain_evicted). Off by default —
    /// the coherence oracle turns it on so its shadow TLB mirror stays
    /// exact without scanning every slot per event.
    pub fn set_eviction_tracking(&mut self, on: bool) {
        self.track_evictions = on;
        if !on {
            self.evicted.clear();
        }
    }

    /// Drains the pending capacity-eviction log in place: the log keeps
    /// its buffer, so draining after every fill allocates nothing.
    pub fn drain_evicted(&mut self) -> std::vec::Drain<'_, TlbEntry> {
        self.evicted.drain(..)
    }

    /// Records `displaced` victims that are now absent from both levels.
    /// An L1 victim may well survive in L2 (the hierarchy is only mostly
    /// inclusive), so each candidate is re-probed before being logged.
    fn note_displaced(&mut self, displaced: [Option<TlbEntry>; 2]) {
        for e in displaced.into_iter().flatten() {
            if self.peek(e.pcid, e.vpn).is_none() {
                self.evicted.push(e);
            }
        }
    }

    /// Looks up a translation, promoting L2 hits into L1 and updating
    /// hit/miss statistics. Returns `None` on a full miss (the caller walks
    /// the page table and calls [`insert`](Self::insert)).
    #[inline]
    pub fn lookup(&mut self, pcid: u16, vpn: u64) -> Option<TlbEntry> {
        if let Some(e) = self.l1.lookup(pcid, vpn) {
            self.stats.l1_hits += 1;
            return Some(e);
        }
        if let Some(e) = self.l2.lookup(pcid, vpn) {
            self.stats.l2_hits += 1;
            let displaced = self.l1.insert(e);
            if self.track_evictions {
                self.note_displaced([displaced, None]);
            }
            return Some(e);
        }
        self.stats.misses += 1;
        None
    }

    /// Checks for a translation without touching LRU state or statistics.
    /// Used by invariant checkers and by ABIS's sharer-set lookup; probes
    /// only the two sets `vpn` can live in, so it is O(associativity).
    #[inline]
    pub fn peek(&self, pcid: u16, vpn: u64) -> Option<TlbEntry> {
        self.l1.peek(pcid, vpn).or_else(|| self.l2.peek(pcid, vpn))
    }

    /// Installs a translation into both levels (inclusive hierarchy).
    ///
    /// # Panics
    ///
    /// Panics if `entry.vpn` needs more than 48 bits or `entry.pfn` more
    /// than 63: the packed slot words would truncate them.
    #[inline]
    pub fn insert(&mut self, entry: TlbEntry) {
        assert!(
            entry.vpn <= VPN_MAX && entry.pfn <= PFN_MAX,
            "TLB entry {entry:?} exceeds the 48-bit VPN / 63-bit PFN slot packing"
        );
        let d1 = self.l1.insert(entry);
        let d2 = self.l2.insert(entry);
        if self.track_evictions {
            self.note_displaced([d1, d2]);
        }
    }

    /// Invalidates one page (`INVLPG`). Returns whether any entry was
    /// present.
    #[inline]
    pub fn invalidate_page(&mut self, pcid: u16, vpn: u64) -> bool {
        self.invalidate_pages(pcid, 1, [vpn]) == 1
    }

    /// Invalidates a list of `count` pages of `pcid`, one `INVLPG` each,
    /// and returns how many of them either level cached. The result,
    /// statistics, contents and recency order are those of invalidating
    /// the pages one at a time in list order. `pages` must yield exactly
    /// `count` pages; debug builds check it whenever the list is walked.
    ///
    /// A level caching nothing under `pcid` cannot hold any page of the
    /// list, so the per-PCID counts are tested once per list, and a list
    /// neither level can hit is not walked at all — the common case for a
    /// sweeping core that never touched the address space.
    ///
    /// ```
    /// use latr_arch::{Tlb, TlbEntry};
    /// let mut tlb = Tlb::new(64, 1024);
    /// tlb.insert(TlbEntry { pcid: 1, vpn: 0x10, pfn: 0x99, writable: true });
    /// assert_eq!(tlb.invalidate_pages(1, 3, [0x10, 0x11, 0x10]), 1);
    /// assert_eq!(tlb.invalidate_pages(2, 2, [0x10, 0x11]), 0); // uncached PCID
    /// assert_eq!(tlb.stats().invalidations, 5);
    /// ```
    pub fn invalidate_pages(
        &mut self,
        pcid: u16,
        count: usize,
        pages: impl IntoIterator<Item = u64>,
    ) -> usize {
        self.stats.invalidations += count as u64;
        let (in_l1, in_l2) = (self.l1.count(pcid) != 0, self.l2.count(pcid) != 0);
        if !in_l1 && !in_l2 {
            return 0;
        }
        let mut walked = 0;
        let present = pages
            .into_iter()
            .inspect(|_| walked += 1)
            .filter(|&vpn| {
                let a = in_l1 && self.l1.remove(pcid, vpn);
                let b = in_l2 && self.l2.remove(pcid, vpn);
                a || b
            })
            .count();
        debug_assert_eq!(walked, count, "page list length differs from its count");
        present
    }

    /// Flushes every entry (CR3 write without PCID).
    pub fn flush_all(&mut self) {
        self.stats.full_flushes += 1;
        self.l1.flush_all();
        self.l2.flush_all();
    }

    /// Iterates over every valid cached translation (both levels,
    /// duplicates possible). For invariant checking and debugging.
    pub fn iter_entries(&self) -> impl Iterator<Item = TlbEntry> + '_ {
        self.l1.iter_valid().chain(self.l2.iter_valid())
    }

    /// Hit/miss statistics so far.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }
}

/// The 40-byte-slot layout this module replaced, kept as the executable
/// spec: `u64` use stamps from a per-TLB clock, the victim the valid way
/// with the least stamp, else the first invalid way.
/// `matches_the_stamped_reference` drives both with the same streams.
#[cfg(test)]
mod reference {
    use super::{TlbEntry, TlbStats};

    #[derive(Clone, Copy, Debug)]
    struct Slot {
        entry: TlbEntry,
        valid: bool,
        last_use: u64,
    }

    const INVALID_SLOT: Slot = Slot {
        entry: TlbEntry {
            pcid: 0,
            vpn: 0,
            pfn: 0,
            writable: false,
        },
        valid: false,
        last_use: 0,
    };

    struct SetAssoc {
        slots: Vec<Slot>,
        sets: usize,
        ways: usize,
    }

    impl SetAssoc {
        fn new(entries: usize, ways: usize) -> Self {
            SetAssoc {
                slots: vec![INVALID_SLOT; entries],
                sets: entries / ways,
                ways,
            }
        }

        fn set_range(&self, vpn: u64) -> std::ops::Range<usize> {
            let h = vpn.wrapping_mul(0x9E3779B97F4A7C15) >> 32;
            let set = (h as usize) % self.sets;
            set * self.ways..(set + 1) * self.ways
        }

        fn find(&self, pcid: u16, vpn: u64) -> Option<usize> {
            self.set_range(vpn).find(|&i| {
                let s = &self.slots[i];
                s.valid && s.entry.vpn == vpn && s.entry.pcid == pcid
            })
        }

        fn lookup(&mut self, pcid: u16, vpn: u64, clock: u64) -> Option<TlbEntry> {
            let i = self.find(pcid, vpn)?;
            self.slots[i].last_use = clock;
            Some(self.slots[i].entry)
        }

        fn insert(&mut self, entry: TlbEntry, clock: u64) -> Option<TlbEntry> {
            let range = self.set_range(entry.vpn);
            let mut victim = range.start;
            let mut victim_use = u64::MAX;
            for i in range {
                let slot = &self.slots[i];
                if slot.valid && slot.entry.vpn == entry.vpn && slot.entry.pcid == entry.pcid {
                    victim = i;
                    break;
                }
                let use_score = if slot.valid { slot.last_use } else { 0 };
                if use_score < victim_use {
                    victim_use = use_score;
                    victim = i;
                }
            }
            let slot = &self.slots[victim];
            let displaced = (slot.valid
                && (slot.entry.vpn != entry.vpn || slot.entry.pcid != entry.pcid))
                .then_some(slot.entry);
            self.slots[victim] = Slot {
                entry,
                valid: true,
                last_use: clock,
            };
            displaced
        }

        fn invalidate(&mut self, pcid: u16, vpn: u64) -> bool {
            let mut any = false;
            for i in self.set_range(vpn) {
                let slot = &mut self.slots[i];
                if slot.valid && slot.entry.vpn == vpn && slot.entry.pcid == pcid {
                    slot.valid = false;
                    any = true;
                }
            }
            any
        }

        fn flush(&mut self) {
            for slot in &mut self.slots {
                slot.valid = false;
            }
        }

        fn iter_valid(&self) -> impl Iterator<Item = TlbEntry> + '_ {
            self.slots.iter().filter(|s| s.valid).map(|s| s.entry)
        }
    }

    /// The reference two-level TLB, with `super::Tlb`'s interface.
    pub(super) struct Tlb {
        l1: SetAssoc,
        l2: SetAssoc,
        clock: u64,
        stats: TlbStats,
        track_evictions: bool,
        evicted: Vec<TlbEntry>,
    }

    impl Tlb {
        pub(super) fn new(l1_entries: usize, l2_entries: usize) -> Self {
            Tlb {
                l1: SetAssoc::new(l1_entries, 4),
                l2: SetAssoc::new(l2_entries, 8),
                clock: 0,
                stats: TlbStats::default(),
                track_evictions: false,
                evicted: Vec::new(),
            }
        }

        pub(super) fn set_eviction_tracking(&mut self, on: bool) {
            self.track_evictions = on;
        }

        pub(super) fn drain_evicted(&mut self) -> Vec<TlbEntry> {
            std::mem::take(&mut self.evicted)
        }

        fn note_displaced(&mut self, displaced: [Option<TlbEntry>; 2]) {
            for e in displaced.into_iter().flatten() {
                if self.peek(e.pcid, e.vpn).is_none() {
                    self.evicted.push(e);
                }
            }
        }

        pub(super) fn lookup(&mut self, pcid: u16, vpn: u64) -> Option<TlbEntry> {
            self.clock += 1;
            if let Some(e) = self.l1.lookup(pcid, vpn, self.clock) {
                self.stats.l1_hits += 1;
                return Some(e);
            }
            if let Some(e) = self.l2.lookup(pcid, vpn, self.clock) {
                self.stats.l2_hits += 1;
                let displaced = self.l1.insert(e, self.clock);
                if self.track_evictions {
                    self.note_displaced([displaced, None]);
                }
                return Some(e);
            }
            self.stats.misses += 1;
            None
        }

        pub(super) fn peek(&self, pcid: u16, vpn: u64) -> Option<TlbEntry> {
            [&self.l1, &self.l2]
                .into_iter()
                .find_map(|level| level.find(pcid, vpn).map(|i| level.slots[i].entry))
        }

        pub(super) fn insert(&mut self, entry: TlbEntry) {
            self.clock += 1;
            let d1 = self.l1.insert(entry, self.clock);
            let d2 = self.l2.insert(entry, self.clock);
            if self.track_evictions {
                self.note_displaced([d1, d2]);
            }
        }

        pub(super) fn invalidate_page(&mut self, pcid: u16, vpn: u64) -> bool {
            self.stats.invalidations += 1;
            let a = self.l1.invalidate(pcid, vpn);
            let b = self.l2.invalidate(pcid, vpn);
            a || b
        }

        pub(super) fn flush_all(&mut self) {
            self.stats.full_flushes += 1;
            self.l1.flush();
            self.l2.flush();
        }

        pub(super) fn iter_entries(&self) -> impl Iterator<Item = TlbEntry> + '_ {
            self.l1.iter_valid().chain(self.l2.iter_valid())
        }

        pub(super) fn stats(&self) -> TlbStats {
            self.stats
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn entry(vpn: u64) -> TlbEntry {
        TlbEntry {
            pcid: PCID_NONE,
            vpn,
            pfn: vpn + 1000,
            writable: true,
        }
    }

    /// Every preset's shape, plus one whose set counts (3 and 3) are not
    /// powers of two, so the modulo path runs too.
    const SHAPES: [(usize, usize); 3] = [(64, 1024), (64, 512), (12, 24)];

    /// One step of a random stream: `(op, pcid, vpn, (pfn, writable))`,
    /// with `op` weighting inserts and lookups over the rest.
    type Step = (u8, u16, u64, (u64, bool));

    /// Runs `cold` and then `steps` on the packed TLB and the stamped
    /// reference and compares every return value, the statistics, the
    /// cached entries way for way and the eviction logs after each step.
    /// `cold` holds no insert, so it runs on levels whose arrays are not
    /// built yet, and checks that they stay unbuilt.
    fn same_as_reference(
        (l1, l2): (usize, usize),
        track: bool,
        vpn_base: u64,
        vpn_spread: u64,
        cold: &[Step],
        steps: &[Step],
    ) -> Result<(), TestCaseError> {
        let mut tlb = Tlb::new(l1, l2);
        let mut spec = reference::Tlb::new(l1, l2);
        tlb.set_eviction_tracking(track);
        spec.set_eviction_tracking(track);
        for (n, &(op, pcid, vpn, (pfn, writable))) in cold.iter().chain(steps).enumerate() {
            let vpn = vpn_base + vpn % vpn_spread;
            let at = format!("step {n} of {l1}/{l2}: op {op} pcid {pcid} vpn {vpn:#x}");
            if n < cold.len() {
                prop_assert!(op > 5, "{}: a cold step inserts", at);
            }
            match op {
                0..=5 => {
                    let e = TlbEntry {
                        pcid,
                        vpn,
                        pfn,
                        writable,
                    };
                    tlb.insert(e);
                    spec.insert(e);
                }
                6..=9 => prop_assert_eq!(tlb.lookup(pcid, vpn), spec.lookup(pcid, vpn), "{}", at),
                10 | 11 => prop_assert_eq!(tlb.peek(pcid, vpn), spec.peek(pcid, vpn), "{}", at),
                12 | 13 => prop_assert_eq!(
                    tlb.invalidate_page(pcid, vpn),
                    spec.invalidate_page(pcid, vpn),
                    "{}",
                    at
                ),
                _ => {
                    tlb.flush_all();
                    spec.flush_all();
                }
            }
            prop_assert_eq!(tlb.stats(), spec.stats(), "{}", at);
            prop_assert!(
                tlb.iter_entries().eq(spec.iter_entries()),
                "{}: cached entries differ",
                at
            );
            let evicted: Vec<TlbEntry> = tlb.drain_evicted().collect();
            prop_assert_eq!(evicted, spec.drain_evicted(), "{}", at);
            if n < cold.len() {
                prop_assert!(
                    tlb.l1.keys.is_empty() && tlb.l2.keys.is_empty(),
                    "{}: a cold step built a level's arrays",
                    at
                );
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn matches_the_stamped_reference(
            (shape, track, high, spread) in (0usize..SHAPES.len(), any::<bool>(), any::<bool>(), 0u32..4),
            cold in prop::collection::vec(
                (6u8..15, 0u16..3, any::<u64>(), (0u64..PFN_MAX, any::<bool>())),
                1..12,
            ),
            steps in prop::collection::vec(
                (0u8..15, 0u16..3, any::<u64>(), (0u64..PFN_MAX, any::<bool>())),
                0..600,
            ),
        ) {
            // Spreads from a few sets' worth to twice L2, so streams both
            // hit and thrash; `high` puts the VPNs at the packing bound.
            // Every stream opens with lookups, peeks, invalidations and
            // flushes on the unbuilt levels.
            let (l1, l2) = SHAPES[shape];
            let spread = [8, l1 as u64, l2 as u64, 2 * l2 as u64][spread as usize];
            let base = if high { VPN_MAX + 1 - spread } else { 0 };
            same_as_reference((l1, l2), track, base, spread, &cold, &steps)?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `invalidate_pages` against [`Tlb::invalidate_page`] called page
        /// by page in list order, and against the stamped reference: the
        /// same return value, statistics and surviving entries after every
        /// step, and the same recency order in the two packed TLBs.
        /// Contents carry PCIDs 0..3 and lists name PCIDs 0..4, so some
        /// lists hit no cached PCID; 96 VPNs make duplicates within a list
        /// common, and inserts and lookups between lists make the recency
        /// order pick later victims.
        #[test]
        fn page_lists_match_page_by_page(
            shape in 0usize..SHAPES.len(),
            steps in prop::collection::vec(
                (0u8..5, 0u16..4, prop::collection::vec(0u64..96, 0..40)),
                0..120,
            ),
        ) {
            let (l1, l2) = SHAPES[shape];
            let mut list = Tlb::new(l1, l2);
            let mut paged = Tlb::new(l1, l2);
            let mut spec = reference::Tlb::new(l1, l2);
            for (n, (op, pcid, pages)) in steps.iter().enumerate() {
                let at = format!("step {n} of {l1}/{l2}: op {op} pcid {pcid} pages {pages:?}");
                match op {
                    0 | 1 => {
                        for &vpn in pages {
                            let e = TlbEntry {
                                pcid: pcid % 3,
                                vpn,
                                pfn: vpn + 1000 * u64::from(pcid % 3),
                                writable: vpn % 2 == 0,
                            };
                            list.insert(e);
                            paged.insert(e);
                            spec.insert(e);
                        }
                    }
                    2 => {
                        for &vpn in pages {
                            let hit = list.lookup(pcid % 3, vpn);
                            prop_assert_eq!(hit, paged.lookup(pcid % 3, vpn), "{}", at);
                            prop_assert_eq!(hit, spec.lookup(pcid % 3, vpn), "{}", at);
                        }
                    }
                    _ => {
                        let got = list.invalidate_pages(*pcid, pages.len(), pages.iter().copied());
                        let one_by_one = pages
                            .iter()
                            .filter(|&&vpn| paged.invalidate_page(*pcid, vpn))
                            .count();
                        let by_spec = pages
                            .iter()
                            .filter(|&&vpn| spec.invalidate_page(*pcid, vpn))
                            .count();
                        prop_assert_eq!(got, one_by_one, "{}", at);
                        prop_assert_eq!(got, by_spec, "{}", at);
                    }
                }
                prop_assert_eq!(list.stats(), paged.stats(), "{}", at);
                prop_assert_eq!(list.stats(), spec.stats(), "{}", at);
                prop_assert!(list.iter_entries().eq(paged.iter_entries()), "{}: entries differ", at);
                prop_assert!(list.iter_entries().eq(spec.iter_entries()), "{}: entries differ", at);
                prop_assert_eq!(&list.l1.order, &paged.l1.order, "{}: L1 recency", at);
                prop_assert_eq!(&list.l2.order, &paged.l2.order, "{}: L2 recency", at);
            }
        }
    }

    /// A page list removes only its own address space's translations: a
    /// page that another PCID caches survives, and a list under a PCID
    /// neither level caches removes nothing.
    #[test]
    fn a_page_list_spares_other_pcids() {
        let mut tlb = Tlb::new(64, 1024);
        let tagged = |pcid: u16, vpn: u64| TlbEntry {
            pcid,
            vpn,
            pfn: 100 * u64::from(pcid) + vpn,
            writable: false,
        };
        tlb.insert(tagged(2, 9));
        tlb.insert(tagged(1, 9));
        tlb.insert(tagged(1, 5));
        tlb.insert(tagged(3, 7));
        assert_eq!(tlb.invalidate_pages(1, 3, [5, 7, 9]), 2);
        assert!(tlb.peek(1, 5).is_none() && tlb.peek(1, 9).is_none());
        assert_eq!(tlb.peek(2, 9), Some(tagged(2, 9)));
        assert_eq!(tlb.peek(3, 7), Some(tagged(3, 7)));
        assert_eq!(tlb.invalidate_pages(4, 2, [7, 9]), 0);
        assert_eq!(tlb.peek(2, 9), Some(tagged(2, 9)));
        assert_eq!(tlb.peek(3, 7), Some(tagged(3, 7)));
        assert_eq!(tlb.stats().invalidations, 5);
    }

    #[test]
    fn promote_moves_a_way_to_the_head() {
        // Order 3, 1, 0, 2 (most recent first) in a 4-way set.
        let order = 0xFFFF_2013;
        assert_eq!(promote(order, 3), order);
        assert_eq!(promote(order, 0), 0xFFFF_2130);
        assert_eq!(promote(order, 2), 0xFFFF_0132);
        // The eighth nibble of a full 8-way order.
        assert_eq!(promote(0x7654_3210, 7), 0x6543_2107);
    }

    #[test]
    #[should_panic(expected = "slot packing")]
    fn insert_refuses_a_vpn_past_48_bits() {
        Tlb::new(64, 512).insert(TlbEntry {
            pcid: 0,
            vpn: VPN_MAX + 1,
            pfn: 1,
            writable: false,
        });
    }

    #[test]
    fn lookups_past_the_vpn_bound_miss() {
        let mut tlb = Tlb::new(64, 512);
        tlb.insert(entry(5));
        // `5 + 2^48` would alias `5` if the key word truncated it.
        let alias = 5 + (VPN_MAX + 1);
        assert!(tlb.peek(PCID_NONE, alias).is_none());
        assert!(tlb.lookup(PCID_NONE, alias).is_none());
        assert!(!tlb.invalidate_page(PCID_NONE, alias));
        assert!(tlb.peek(PCID_NONE, 5).is_some());
    }

    #[test]
    fn miss_then_hit() {
        let mut tlb = Tlb::new(64, 1024);
        assert!(tlb.lookup(PCID_NONE, 5).is_none());
        tlb.insert(entry(5));
        assert_eq!(tlb.lookup(PCID_NONE, 5).unwrap().pfn, 1005);
        let s = tlb.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.l1_hits, 1);
    }

    #[test]
    fn l2_hit_promotes_to_l1() {
        let mut tlb = Tlb::new(64, 1024);
        // Fill way beyond L1 capacity so early entries fall out of L1 but
        // stay in L2.
        for v in 0..512 {
            tlb.insert(entry(v));
        }
        let before = tlb.stats();
        for v in 0..512 {
            assert!(tlb.lookup(PCID_NONE, v).is_some(), "vpn {v} lost");
        }
        let s = tlb.stats();
        assert_eq!(s.misses, before.misses);
        assert!(
            s.l2_hits > before.l2_hits,
            "expected some L2 hits, got {s:?}"
        );
    }

    #[test]
    fn capacity_eviction_causes_misses() {
        let mut tlb = Tlb::new(64, 512);
        for v in 0..4096 {
            tlb.insert(entry(v));
        }
        let before = tlb.stats().misses;
        for v in 0..4096 {
            tlb.lookup(PCID_NONE, v);
        }
        assert!(tlb.stats().misses - before > 3000, "{:?}", tlb.stats());
    }

    #[test]
    fn invalidate_page_removes_from_both_levels() {
        let mut tlb = Tlb::new(64, 1024);
        tlb.insert(entry(7));
        assert!(tlb.invalidate_page(PCID_NONE, 7));
        assert!(tlb.peek(PCID_NONE, 7).is_none());
        assert!(!tlb.invalidate_page(PCID_NONE, 7)); // second time: nothing
    }

    #[test]
    fn flush_all_empties() {
        let mut tlb = Tlb::new(64, 1024);
        for v in 0..32 {
            tlb.insert(entry(v));
        }
        tlb.flush_all();
        assert_eq!(tlb.iter_entries().count(), 0);
        assert_eq!(tlb.stats().full_flushes, 1);
    }

    #[test]
    fn pcid_isolation() {
        let mut tlb = Tlb::new(64, 1024);
        tlb.insert(TlbEntry {
            pcid: 1,
            vpn: 9,
            pfn: 100,
            writable: false,
        });
        tlb.insert(TlbEntry {
            pcid: 2,
            vpn: 9,
            pfn: 200,
            writable: false,
        });
        assert_eq!(tlb.lookup(1, 9).unwrap().pfn, 100);
        assert_eq!(tlb.lookup(2, 9).unwrap().pfn, 200);
        assert!(tlb.invalidate_page(1, 9));
        assert!(tlb.peek(1, 9).is_none());
        assert_eq!(tlb.peek(2, 9).unwrap().pfn, 200);
    }

    #[test]
    fn reinsert_same_page_updates_pfn() {
        let mut tlb = Tlb::new(64, 1024);
        tlb.insert(entry(4));
        tlb.insert(TlbEntry {
            pcid: PCID_NONE,
            vpn: 4,
            pfn: 777,
            writable: false,
        });
        assert_eq!(tlb.lookup(PCID_NONE, 4).unwrap().pfn, 777);
        // No duplicate entries for the same vpn within a level's set.
        let copies = tlb.iter_entries().filter(|e| e.vpn == 4).count();
        assert!(copies <= 2, "expected at most one per level, got {copies}");
    }

    #[test]
    fn stats_ratios() {
        let mut tlb = Tlb::new(64, 1024);
        tlb.insert(entry(1));
        tlb.lookup(PCID_NONE, 1);
        tlb.lookup(PCID_NONE, 2);
        let s = tlb.stats();
        assert_eq!(s.lookups(), 2);
        assert!((s.miss_ratio() - 0.5).abs() < 1e-9);
        assert_eq!(TlbStats::default().miss_ratio(), 0.0);
    }

    #[test]
    #[should_panic]
    fn zero_capacity_panics() {
        let _ = Tlb::new(0, 1024);
    }

    #[test]
    fn eviction_tracking_reports_exactly_the_fully_evicted() {
        let mut tlb = Tlb::new(64, 512);
        tlb.set_eviction_tracking(true);
        for v in 0..4096 {
            tlb.insert(entry(v));
        }
        let evicted: Vec<TlbEntry> = tlb.drain_evicted().collect();
        assert!(!evicted.is_empty(), "thrashing must evict something");
        // Every reported victim is really gone from both levels, and every
        // entry absent from both levels was reported exactly once.
        for e in &evicted {
            assert!(
                tlb.peek(e.pcid, e.vpn).is_none(),
                "vpn {} still cached",
                e.vpn
            );
        }
        let mut seen: Vec<u64> = evicted.iter().map(|e| e.vpn).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), evicted.len(), "a victim was double-reported");
        let survivors = (0..4096)
            .filter(|&v| tlb.peek(PCID_NONE, v).is_some())
            .count();
        assert_eq!(survivors + evicted.len(), 4096);
        // Draining leaves the log empty; disabling clears any remainder.
        assert!(tlb.drain_evicted().as_slice().is_empty());
        tlb.set_eviction_tracking(false);
        tlb.insert(entry(9999));
        assert!(tlb.drain_evicted().as_slice().is_empty());
    }

    #[test]
    fn l2_promotion_eviction_not_reported_while_entry_survives_in_l2() {
        let mut tlb = Tlb::new(64, 1024);
        tlb.set_eviction_tracking(true);
        // Overflow L1 (64 entries) but not L2 (1024): promotions displace
        // L1 slots whose entries still live in L2, so nothing is a *full*
        // eviction.
        for v in 0..512 {
            tlb.insert(entry(v));
        }
        tlb.drain_evicted();
        for v in 0..512 {
            assert!(tlb.lookup(PCID_NONE, v).is_some());
        }
        assert!(
            tlb.drain_evicted().as_slice().is_empty(),
            "promotion displacements must not be reported while the victim survives in L2"
        );
    }
}
