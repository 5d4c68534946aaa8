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

/// A set-associative array used for both TLB levels.
#[derive(Clone, Debug)]
struct SetAssoc {
    slots: Vec<Slot>,
    sets: usize,
    ways: usize,
    /// `sets - 1` when `sets` is a power of two (every real TLB shape),
    /// letting `set_range` mask instead of paying a division per probe;
    /// 0 otherwise, falling back to the modulo.
    set_mask: usize,
    /// Valid-entry count per PCID, grown on demand. `count(p) == 0`
    /// proves no valid slot is tagged `p`, which lets lookups,
    /// invalidations and PCID flushes for an uncached address space skip
    /// the set probe entirely — the common case for a sweeping core that
    /// never touched the publisher's pages. Pure accounting: slot
    /// contents, LRU state and statistics are unchanged by the skip.
    pcid_count: Vec<u32>,
}

impl SetAssoc {
    fn new(entries: usize, ways: usize) -> Self {
        assert!(entries > 0 && ways > 0 && entries.is_multiple_of(ways));
        let sets = entries / ways;
        SetAssoc {
            slots: vec![INVALID_SLOT; entries],
            sets,
            ways,
            set_mask: if sets.is_power_of_two() { sets - 1 } else { 0 },
            pcid_count: Vec::new(),
        }
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
    fn count_dec(&mut self, pcid: u16) {
        self.pcid_count[pcid as usize] -= 1;
    }

    #[inline]
    fn set_range(&self, vpn: u64) -> std::ops::Range<usize> {
        // Simple hash to decorrelate strided workloads.
        let h = vpn.wrapping_mul(0x9E3779B97F4A7C15) >> 32;
        let set = if self.set_mask != 0 {
            h as usize & self.set_mask
        } else {
            (h as usize) % self.sets
        };
        set * self.ways..(set + 1) * self.ways
    }

    fn lookup(&mut self, pcid: u16, vpn: u64, clock: u64) -> Option<TlbEntry> {
        if self.count(pcid) == 0 {
            return None;
        }
        let range = self.set_range(vpn);
        for slot in &mut self.slots[range] {
            if slot.valid && slot.entry.vpn == vpn && slot.entry.pcid == pcid {
                slot.last_use = clock;
                return Some(slot.entry);
            }
        }
        None
    }

    /// Returns the valid entry of a *different* page this insert displaced,
    /// if any (a capacity eviction at this level).
    fn insert(&mut self, entry: TlbEntry, clock: u64) -> Option<TlbEntry> {
        let range = self.set_range(entry.vpn);
        // Replace an existing mapping of the same page first.
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
        if slot.valid {
            let old = slot.entry.pcid;
            self.count_dec(old);
        }
        self.count_inc(entry.pcid);
        self.slots[victim] = Slot {
            entry,
            valid: true,
            last_use: clock,
        };
        displaced
    }

    fn invalidate(&mut self, pcid: u16, vpn: u64) -> bool {
        if self.count(pcid) == 0 {
            return false;
        }
        let mut cleared = 0u32;
        let range = self.set_range(vpn);
        for slot in &mut self.slots[range] {
            if slot.valid && slot.entry.vpn == vpn && slot.entry.pcid == pcid {
                slot.valid = false;
                cleared += 1;
            }
        }
        self.pcid_count[pcid as usize] -= cleared;
        cleared > 0
    }

    fn flush_all(&mut self) {
        for slot in &mut self.slots {
            slot.valid = false;
        }
        self.pcid_count.fill(0);
    }

    fn flush_pcid(&mut self, pcid: u16) {
        if self.count(pcid) == 0 {
            return;
        }
        for slot in &mut self.slots {
            if slot.valid && slot.entry.pcid == pcid {
                slot.valid = false;
            }
        }
        self.pcid_count[pcid as usize] = 0;
    }

    fn iter_valid(&self) -> impl Iterator<Item = &TlbEntry> {
        self.slots.iter().filter(|s| s.valid).map(|s| &s.entry)
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
    l1: SetAssoc,
    l2: SetAssoc,
    clock: u64,
    stats: TlbStats,
    track_evictions: bool,
    evicted: Vec<TlbEntry>,
}

impl Tlb {
    /// Creates a TLB with the given L1 and L2 capacities (entries).
    /// L1 is 4-way; L2 is 8-way, matching contemporary Xeons.
    ///
    /// # Panics
    ///
    /// Panics if a level's capacity is zero or not divisible by its
    /// associativity.
    pub fn new(l1_entries: usize, l2_entries: usize) -> Self {
        Tlb {
            l1: SetAssoc::new(l1_entries, 4),
            l2: SetAssoc::new(l2_entries, 8),
            clock: 0,
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
    pub fn lookup(&mut self, pcid: u16, vpn: u64) -> Option<TlbEntry> {
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

    /// Checks for a translation without touching LRU state or statistics.
    /// Used by invariant checkers and by ABIS's sharer-set lookup; probes
    /// only the two sets `vpn` can live in, so it is O(associativity).
    pub fn peek(&self, pcid: u16, vpn: u64) -> Option<TlbEntry> {
        for level in [&self.l1, &self.l2] {
            if level.count(pcid) == 0 {
                continue;
            }
            let found = level.slots[level.set_range(vpn)]
                .iter()
                .find(|s| s.valid && s.entry.vpn == vpn && s.entry.pcid == pcid);
            if let Some(slot) = found {
                return Some(slot.entry);
            }
        }
        None
    }

    /// Installs a translation into both levels (inclusive hierarchy).
    pub fn insert(&mut self, entry: TlbEntry) {
        self.clock += 1;
        let d1 = self.l1.insert(entry, self.clock);
        let d2 = self.l2.insert(entry, self.clock);
        if self.track_evictions {
            self.note_displaced([d1, d2]);
        }
    }

    /// Invalidates one page (`INVLPG`). Returns whether any entry was
    /// present.
    pub fn invalidate_page(&mut self, pcid: u16, vpn: u64) -> bool {
        self.stats.invalidations += 1;
        let a = self.l1.invalidate(pcid, vpn);
        let b = self.l2.invalidate(pcid, vpn);
        a || b
    }

    /// Flushes every entry (CR3 write without PCID).
    pub fn flush_all(&mut self) {
        self.stats.full_flushes += 1;
        self.l1.flush_all();
        self.l2.flush_all();
    }

    /// Flushes all entries tagged with `pcid`.
    pub fn flush_pcid(&mut self, pcid: u16) {
        self.stats.full_flushes += 1;
        self.l1.flush_pcid(pcid);
        self.l2.flush_pcid(pcid);
    }

    /// Iterates over every valid cached translation (both levels,
    /// duplicates possible). For invariant checking and debugging.
    pub fn iter_entries(&self) -> impl Iterator<Item = &TlbEntry> {
        self.l1.iter_valid().chain(self.l2.iter_valid())
    }

    /// Whether any level caches a translation to physical frame `pfn`.
    pub fn maps_frame(&self, pfn: u64) -> bool {
        self.iter_entries().any(|e| e.pfn == pfn)
    }

    /// Hit/miss statistics so far.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }

    /// Resets statistics (not contents).
    pub fn reset_stats(&mut self) {
        self.stats = TlbStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(vpn: u64) -> TlbEntry {
        TlbEntry {
            pcid: PCID_NONE,
            vpn,
            pfn: vpn + 1000,
            writable: true,
        }
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
        tlb.reset_stats();
        for v in 0..512 {
            assert!(tlb.lookup(PCID_NONE, v).is_some(), "vpn {v} lost");
        }
        let s = tlb.stats();
        assert_eq!(s.misses, 0);
        assert!(s.l2_hits > 0, "expected some L2 hits, got {s:?}");
    }

    #[test]
    fn capacity_eviction_causes_misses() {
        let mut tlb = Tlb::new(64, 512);
        for v in 0..4096 {
            tlb.insert(entry(v));
        }
        tlb.reset_stats();
        for v in 0..4096 {
            tlb.lookup(PCID_NONE, v);
        }
        assert!(tlb.stats().misses > 3000, "{:?}", tlb.stats());
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
        tlb.flush_pcid(1);
        assert!(tlb.peek(1, 9).is_none());
        assert_eq!(tlb.peek(2, 9).unwrap().pfn, 200);
    }

    #[test]
    fn maps_frame_sees_stale_translations() {
        let mut tlb = Tlb::new(64, 1024);
        tlb.insert(entry(3));
        assert!(tlb.maps_frame(1003));
        assert!(!tlb.maps_frame(999));
        tlb.invalidate_page(PCID_NONE, 3);
        assert!(!tlb.maps_frame(1003));
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
