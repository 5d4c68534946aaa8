//! The translation-coherence oracle.
//!
//! A shadow state machine threaded through the simulated machine's event
//! loop. It mirrors every core's TLB contents (including capacity
//! evictions, which the TLB model reports when tracking is enabled),
//! tracks published Latr states, and carries vector clocks across the
//! ordering edges the kernel actually creates (publish→sweep, IPI
//! send→deliver, ACK). On every frame free/alloc, TLB fill, access hit
//! and migration-fault proceed it checks the paper's §3 invariant and
//! reports the *first* violation as a TSan-style trace: the offending
//! event, the history establishing the race, and whether the conflicting
//! pair was ordered by any happens-before edge at all.
//!
//! The oracle is a pure observer — it never mutates the machine and never
//! panics, so enabling it cannot perturb a run's determinism. Tests read
//! the verdict via `violation()`.
//!
//! The bookkeeping is sized for the common case, where nothing fires:
//! - The shadow TLBs, the state table and the shootdown clocks hash their
//!   integer keys with `WordHasher`, not SipHash.
//! - The per-frame reverse index is only a count of cachers. A report
//!   scans the shadow TLBs to name them.
//! - The vector clocks live in one `ClockArena`. A history record keeps a
//!   `Stamp` into it instead of a copy of its context's clock, and the
//!   clock is rebuilt only when a report renders it. A context's clock is
//!   copied only when a join changes it while records still share it.
//!   Publish and IPI-send clocks are stamps too, so the steady state
//!   allocates nothing.

use crate::clock::{ClockArena, Stamp};
use crate::event::{Ctx, EventKind, EventRecord};
use latr_arch::{CpuId, CpuMask, TlbEntry};
use latr_mem::{MmId, Pfn, VaRange, Vpn};
use latr_sim::Time;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// How many event records the history ring keeps.
const HISTORY_CAPACITY: usize = 4096;
/// How many prior events a violation trace shows.
const TRACE_EVENTS: usize = 12;

/// A multiply-rotate hasher for the oracle's integer keys: one multiply
/// per word where SipHash runs several rounds. The keys come from the
/// simulation, not from an adversary, so flooding resistance buys nothing.
#[derive(Default)]
struct WordHasher(u64);

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0xf135_7aea_2e62_a9c5);
    }

    fn write_u16(&mut self, n: u16) {
        self.write_u64(n.into());
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(n.into());
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    /// The multiply leaves its best bits on top; the table indexes by the
    /// low ones.
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<WordHasher>>;

/// What kind of coherence violation was detected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ViolationKind {
    /// A frame's last reference was dropped while some TLB still cached a
    /// translation to it — the frame is eligible for reuse inside the
    /// staleness window (§3's reclamation invariant).
    FreedWhileCached,
    /// A frame was handed out again while some TLB still cached a
    /// translation to it — actual reuse inside the window.
    ReusedWhileCached,
    /// An access was served from a cached translation whose frame is on
    /// the free list.
    AccessThroughFreedFrame,
    /// A translation to an unallocated frame was installed.
    FillOfFreedFrame,
    /// A NUMA migration fault proceeded while some core named in the
    /// migration state's bitmask had not yet invalidated (§4.4).
    MigrationBeforeSweepComplete,
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ViolationKind::FreedWhileCached => "frame freed while cached",
            ViolationKind::ReusedWhileCached => "frame reused while cached",
            ViolationKind::AccessThroughFreedFrame => "access through freed frame",
            ViolationKind::FillOfFreedFrame => "fill of freed frame",
            ViolationKind::MigrationBeforeSweepComplete => "migration before sweep complete",
        };
        f.write_str(s)
    }
}

/// A detected coherence violation: the first one freezes the oracle.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Classification.
    pub kind: ViolationKind,
    /// One-line statement of what went wrong, naming the racing parties.
    pub headline: String,
    /// The event that completed the race.
    pub offending: EventRecord,
    /// Prior events involving the same frame/page, newest first.
    pub history: Vec<EventRecord>,
    /// The happens-before verdict for the racing pair.
    pub race: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== latr-verify: {} ==", self.kind)?;
        writeln!(f, "{}", self.headline)?;
        writeln!(f, "  offending: {}", self.offending)?;
        for (i, e) in self.history.iter().enumerate() {
            writeln!(f, "  #{i} {e}")?;
        }
        write!(f, "race: {}", self.race)
    }
}

/// A shadow copy of one cached translation.
#[derive(Clone, Copy, Debug)]
struct ShadowEntry {
    pfn: u64,
    /// The caching core's own clock component when the fill happened —
    /// the fill's position in that core's local order.
    filled_component: u64,
}

/// How many shadow entries translate to each frame; a frame with none
/// has no key. The shadow TLBs are the truth, and this is derived from
/// them entry by entry.
#[derive(Debug, Default)]
struct Cachers(FastMap<u64, u32>);

impl Cachers {
    fn add(&mut self, pfn: u64) {
        *self.0.entry(pfn).or_insert(0) += 1;
    }

    fn remove(&mut self, pfn: u64) {
        if let Entry::Occupied(mut e) = self.0.entry(pfn) {
            *e.get_mut() -= 1;
            if *e.get() == 0 {
                e.remove();
            }
        }
    }

    fn any(&self, pfn: u64) -> bool {
        self.0.contains_key(&pfn)
    }
}

/// A published Latr state the oracle still tracks. Its `(mm, range)` is
/// the key of the bucket holding it; `pending` is never empty.
#[derive(Clone, Debug)]
struct TrackedState {
    /// The publish event's sequence number: a migration violation names
    /// the first-published blocking state.
    order: u64,
    pending: CpuMask,
    migration: bool,
    /// Publisher's clock at publish time; sweepers join it.
    publish_clock: Stamp,
}

/// One entry of the history ring: an event and its context's clock after
/// it. The ring's records have consecutive sequence numbers, ending at
/// the oracle's, and the stamp names the context.
#[derive(Debug)]
struct Record {
    at: Time,
    clock: Stamp,
    kind: EventKind,
}

/// The coherence oracle. One per [`Machine`]; see the module docs.
///
/// [`Machine`]: ../latr_kernel/struct.Machine.html
#[derive(Debug)]
pub struct CoherenceOracle {
    ncpus: usize,
    seq: u64,
    /// Per-context clocks, as the slot each context owns in `clocks`: one
    /// per core plus [`Ctx::Kthread`] last.
    live: Vec<u32>,
    /// Every clock a context, a record, a state or a transaction holds.
    clocks: ClockArena,
    /// Per-core shadow TLB: (pcid, vpn) → entry.
    shadow: Vec<FastMap<(u16, u64), ShadowEntry>>,
    /// Reverse index: how many shadow entries cache each frame.
    cachers: Cachers,
    /// Published states still carrying pending CPU bits, keyed by
    /// `(mm, range)` so a sweep touches only its own bucket. Each bucket is
    /// in publish order and is removed once empty.
    states: FastMap<(MmId, VaRange), Vec<TrackedState>>,
    /// Emptied buckets, kept for the next new `(mm, range)`.
    spare_buckets: Vec<Vec<TrackedState>>,
    /// Initiator clocks of in-flight shootdown transactions.
    txn_clocks: FastMap<u64, Stamp>,
    history: VecDeque<Record>,
    violation: Option<Violation>,
    /// Checks that fired after the first violation froze the oracle.
    suppressed: u64,
    /// Set at shutdown: events still record, checks no longer fire.
    closed: bool,
}

impl CoherenceOracle {
    /// An oracle over `ncpus` cores.
    pub fn new(ncpus: usize) -> Self {
        let nctx = ncpus + 1;
        let mut clocks = ClockArena::new(nctx);
        CoherenceOracle {
            ncpus,
            seq: 0,
            live: (0..nctx).map(|_| clocks.zero()).collect(),
            clocks,
            shadow: (0..ncpus).map(|_| FastMap::default()).collect(),
            cachers: Cachers::default(),
            states: FastMap::default(),
            spare_buckets: Vec::new(),
            txn_clocks: FastMap::default(),
            history: VecDeque::new(),
            violation: None,
            suppressed: 0,
            closed: false,
        }
    }

    /// Stops checking (events still record). The machine calls this right
    /// before the policy's shutdown drain: that drain runs after the final
    /// event, so the frames it frees can no longer be reached through any
    /// TLB — flagging them would be noise, not a race.
    pub fn close(&mut self) {
        self.closed = true;
    }

    /// The first violation detected, if any.
    pub fn violation(&self) -> Option<&Violation> {
        self.violation.as_ref()
    }

    /// How many further checks fired after the first violation.
    pub fn suppressed_count(&self) -> u64 {
        self.suppressed
    }

    /// Total events observed.
    pub fn events_observed(&self) -> u64 {
        self.seq
    }

    fn ctx_index(&self, ctx: Ctx) -> usize {
        match ctx {
            Ctx::Cpu(c) => c.index(),
            Ctx::Kthread => self.ncpus,
        }
    }

    /// Advances `ctx`'s clock, appends the event to the ring, and returns
    /// the stamp of `ctx`'s clock after it (`self.seq` is the event's
    /// sequence number). Once the ring is full the oldest record is
    /// dropped, releasing its clock, so recording allocates nothing.
    fn record(&mut self, ctx: Ctx, at: Time, kind: EventKind) -> Stamp {
        let i = self.ctx_index(ctx);
        let live = self.live[i];
        let own = self.clocks.tick(live, i);
        self.clocks.retain(live);
        self.seq += 1;
        let clock = Stamp {
            snap: live,
            ctx: i as u32,
            own,
        };
        if self.history.len() == HISTORY_CAPACITY {
            let old = self.history.pop_front().expect("the ring is full");
            self.clocks.release(old.clock.snap);
        }
        self.history.push_back(Record { at, clock, kind });
        clock
    }

    /// The stamp of the event just recorded, held by a state or a
    /// transaction until it is released.
    fn hold(&mut self, stamp: Stamp) -> Stamp {
        self.clocks.retain(stamp.snap);
        stamp
    }

    /// The record `back` places before the newest, as a report shows it.
    fn render(&self, back: usize) -> EventRecord {
        let r = &self.history[self.history.len() - 1 - back];
        let i = r.clock.ctx as usize;
        EventRecord {
            seq: self.seq - back as u64,
            at: r.at,
            ctx: if i == self.ncpus {
                Ctx::Kthread
            } else {
                Ctx::Cpu(CpuId(i as u16))
            },
            clock: r.clock.clock(&self.clocks),
            kind: r.kind.clone(),
        }
    }

    /// Whether a check that just fired becomes the report: not once the
    /// oracle is closed, and not after the first violation (the check is
    /// counted as suppressed instead). Callers build the report only when
    /// this says so.
    fn reporting(&mut self) -> bool {
        if self.closed {
            return false;
        }
        if self.violation.is_some() {
            self.suppressed += 1;
            return false;
        }
        true
    }

    /// Reports the event just recorded as a violation. `pfn`/`vpn` are the
    /// relevance keys used to pick trace events out of the history ring (a
    /// `Free` record alone carries no vpn, so callers supply the cached
    /// page explicitly).
    fn flag(
        &mut self,
        kind: ViolationKind,
        headline: String,
        race: String,
        pfn: Option<u64>,
        vpn: Option<u64>,
    ) {
        let offending = self.render(0);
        let history: Vec<EventRecord> = self
            .history
            .iter()
            .rev()
            .enumerate()
            .skip(1)
            .filter(|(_, r)| r.kind.touches(pfn, vpn))
            .take(TRACE_EVENTS)
            .map(|(back, _)| self.render(back))
            .collect();
        self.violation = Some(Violation {
            kind,
            headline,
            offending,
            history,
            race,
        });
    }

    /// For a conflict between `offending` (just recorded, attributed to
    /// `ctx`) and a fill on `core` at local component `filled_component`:
    /// did any happens-before edge order the fill before the conflicting
    /// action?
    fn race_verdict(&self, ctx: Ctx, core: usize, filled_component: u64) -> String {
        let i = self.ctx_index(ctx);
        if self.clocks.get(self.live[i])[core] >= filled_component {
            format!(
                "ordered: {ctx} had a happens-before path from cpu{core}'s fill \
                 (clock component {filled_component}) yet no invalidation intervened \
                 — the protocol retired the entry's cover without clearing it"
            )
        } else {
            format!(
                "data race: no publish/sweep/IPI edge orders cpu{core}'s fill \
                 (clock component {filled_component}) before this action — {ctx} \
                 acted without waiting for cpu{core} to invalidate"
            )
        }
    }

    /// Every shadow entry caching `pfn`, as `(core, pcid, vpn, entry)` in
    /// numeric key order: the first is the entry a frame verdict names,
    /// the same in every process. Scans every shadow TLB, which only a
    /// report does.
    fn cachers_of(&self, pfn: u64) -> Vec<(usize, u16, u64, ShadowEntry)> {
        let mut found: Vec<_> = self
            .shadow
            .iter()
            .enumerate()
            .flat_map(|(core, shadow)| {
                shadow
                    .iter()
                    .filter(|(_, e)| e.pfn == pfn)
                    .map(move |(&(pcid, vpn), &e)| (core, pcid, vpn, e))
            })
            .collect();
        found.sort_unstable_by_key(|&(core, pcid, vpn, _)| (core, pcid, vpn));
        found
    }

    /// Reports a frame-lifetime event on `pfn` by `ctx` while some shadow
    /// TLB still caches the frame.
    fn flag_cached(&mut self, kind: ViolationKind, ctx: Ctx, pfn: u64, what: &str) {
        if !self.cachers.any(pfn) || !self.reporting() {
            return;
        }
        let cachers = self.cachers_of(pfn);
        let (core, _, vpn, entry) = cachers[0];
        let names: Vec<String> = cachers
            .iter()
            .map(|&(core, pcid, vpn, _)| format!("cpu{core} vpn {vpn:#x} (pcid {pcid})"))
            .collect();
        let headline = format!(
            "frame {pfn:#x} {what} while still cached: {}",
            names.join(", ")
        );
        let race = self.race_verdict(ctx, core, entry.filled_component);
        self.flag(kind, headline, race, Some(pfn), Some(vpn));
    }

    fn shadow_remove(&mut self, core: usize, pcid: u16, vpn: u64) {
        if let Some(e) = self.shadow[core].remove(&(pcid, vpn)) {
            self.cachers.remove(e.pfn);
        }
    }

    // ---- TLB mirror -----------------------------------------------------

    /// A translation was installed into `cpu`'s TLB. `allocated` is the
    /// allocator's verdict on the frame at this instant.
    pub fn note_fill(
        &mut self,
        cpu: CpuId,
        pcid: u16,
        vpn: Vpn,
        pfn: Pfn,
        allocated: bool,
        at: Time,
    ) {
        let core = cpu.index();
        let stamp = self.record(
            Ctx::Cpu(cpu),
            at,
            EventKind::Fill {
                pcid,
                vpn: vpn.0,
                pfn: pfn.0,
            },
        );
        // Overwriting fill of the same page = invalidate + fill.
        let entry = ShadowEntry {
            pfn: pfn.0,
            filled_component: stamp.own,
        };
        if let Some(old) = self.shadow[core].insert((pcid, vpn.0), entry) {
            self.cachers.remove(old.pfn);
        }
        self.cachers.add(pfn.0);
        if !allocated && self.reporting() {
            let headline = format!(
                "{cpu} installed a translation vpn {:#x} -> pfn {:#x} but the frame \
                 is on the free list",
                vpn.0, pfn.0
            );
            self.flag(
                ViolationKind::FillOfFreedFrame,
                headline,
                "the page table still maps a frame whose last reference was dropped".to_owned(),
                Some(pfn.0),
                Some(vpn.0),
            );
        }
    }

    /// An access was served from `cpu`'s TLB without a walk.
    ///
    /// The shadow entry wins over the hit's `pfn`: a hit on a page the
    /// shadow already caches leaves that entry (its frame and its fill's
    /// clock component) as it is, and `pfn` only labels the record and
    /// the report. A hit on a page the shadow lacks installs it at `pfn`,
    /// healing a mirror whose fill predated the oracle.
    pub fn note_hit(
        &mut self,
        cpu: CpuId,
        pcid: u16,
        vpn: Vpn,
        pfn: Pfn,
        allocated: bool,
        at: Time,
    ) {
        let core = cpu.index();
        let stamp = self.record(
            Ctx::Cpu(cpu),
            at,
            EventKind::Hit {
                pcid,
                vpn: vpn.0,
                pfn: pfn.0,
            },
        );
        let entry = match self.shadow[core].entry((pcid, vpn.0)) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                self.cachers.add(pfn.0);
                *e.insert(ShadowEntry {
                    pfn: pfn.0,
                    filled_component: stamp.own,
                })
            }
        };
        if !allocated && self.reporting() {
            let headline = format!(
                "{cpu} accessed vpn {:#x} through a stale translation to pfn {:#x}, \
                 which was already reclaimed",
                vpn.0, pfn.0
            );
            let race = self.race_verdict(Ctx::Cpu(cpu), core, entry.filled_component);
            self.flag(
                ViolationKind::AccessThroughFreedFrame,
                headline,
                race,
                Some(pfn.0),
                Some(vpn.0),
            );
        }
    }

    /// `cpu` invalidated one page.
    pub fn note_invalidate(&mut self, cpu: CpuId, pcid: u16, vpn: Vpn, at: Time) {
        let core = cpu.index();
        self.record(
            Ctx::Cpu(cpu),
            at,
            EventKind::Invalidate { pcid, vpn: vpn.0 },
        );
        self.shadow_remove(core, pcid, vpn.0);
    }

    /// `cpu` flushed its whole TLB.
    pub fn note_flush_all(&mut self, cpu: CpuId, at: Time) {
        let core = cpu.index();
        self.record(Ctx::Cpu(cpu), at, EventKind::FlushAll);
        for (_, e) in self.shadow[core].drain() {
            self.cachers.remove(e.pfn);
        }
    }

    /// Capacity evictions the TLB model reported for `cpu`.
    pub fn note_evictions(&mut self, cpu: CpuId, evicted: &[TlbEntry], at: Time) {
        let core = cpu.index();
        for e in evicted {
            self.record(
                Ctx::Cpu(cpu),
                at,
                EventKind::Evict {
                    pcid: e.pcid,
                    vpn: e.vpn,
                    pfn: e.pfn,
                },
            );
            self.shadow_remove(core, e.pcid, e.vpn);
        }
    }

    // ---- allocator mirror -----------------------------------------------

    /// A frame left the free list.
    pub fn note_alloc(&mut self, ctx: Ctx, pfn: Pfn, at: Time) {
        self.record(ctx, at, EventKind::Alloc { pfn: pfn.0 });
        self.flag_cached(
            ViolationKind::ReusedWhileCached,
            ctx,
            pfn.0,
            "handed out again",
        );
    }

    /// A frame's last reference was dropped (it is reusable from now on).
    pub fn note_free(&mut self, ctx: Ctx, pfn: Pfn, at: Time) {
        self.record(ctx, at, EventKind::Free { pfn: pfn.0 });
        self.flag_cached(ViolationKind::FreedWhileCached, ctx, pfn.0, "freed");
    }

    // ---- Latr protocol edges ---------------------------------------------

    /// A Latr state was published by `initiator`.
    pub fn note_publish(
        &mut self,
        initiator: CpuId,
        mm: MmId,
        range: VaRange,
        targets: CpuMask,
        migration: bool,
        at: Time,
    ) {
        let stamp = self.record(
            Ctx::Cpu(initiator),
            at,
            EventKind::Publish {
                mm,
                range,
                targets,
                migration,
            },
        );
        // A state naming no core is already retired: no sweep can join it
        // and no migration check can be blocked by it.
        if targets.is_empty() {
            return;
        }
        let state = TrackedState {
            order: self.seq,
            pending: targets,
            migration,
            publish_clock: self.hold(stamp),
        };
        let buckets = self.states.len() + self.spare_buckets.len();
        let spare = &mut self.spare_buckets;
        let bucket = self.states.entry((mm, range)).or_insert_with(|| {
            spare.pop().unwrap_or_else(|| {
                // Room for every bucket to be spare at once, so retiring
                // one never allocates.
                spare.reserve(buckets + 1);
                Vec::with_capacity(1)
            })
        });
        bucket.push(state);
    }

    /// `cpu` swept every active state naming it that covers `(mm, range)`:
    /// it invalidated locally and cleared its bit.
    pub fn note_sweep(&mut self, cpu: CpuId, mm: MmId, range: VaRange, at: Time) {
        self.record(Ctx::Cpu(cpu), at, EventKind::Sweep { mm, range });
        let Some(bucket) = self.states.get_mut(&(mm, range)) else {
            return;
        };
        // Joins are pointwise maxima, so their order cannot matter.
        let live = &mut self.live[cpu.index()];
        let clocks = &mut self.clocks;
        bucket.retain_mut(|s| {
            if s.pending.test(cpu) {
                s.pending.clear(cpu);
                clocks.join_live(live, s.publish_clock);
            }
            let pending = !s.pending.is_empty();
            if !pending {
                clocks.release(s.publish_clock.snap);
            }
            pending
        });
        if bucket.is_empty() {
            let bucket = self.states.remove(&(mm, range)).expect("present");
            self.spare_buckets.push(bucket);
        }
    }

    /// A NUMA hint fault on `(mm, vpn)` was allowed to proceed.
    pub fn note_migration_proceed(&mut self, cpu: CpuId, mm: MmId, vpn: Vpn, at: Time) {
        self.record(Ctx::Cpu(cpu), at, EventKind::MigrationProceed { mm, vpn });
        let blocking = self
            .states
            .iter()
            .filter(|((m, r), _)| *m == mm && r.contains(vpn))
            .flat_map(|(_, bucket)| bucket)
            .filter(|s| s.migration)
            .min_by_key(|s| s.order)
            .map(|s| s.pending);
        if let Some(mask) = blocking {
            self.flag_migration(mm, vpn, mask);
        }
    }

    /// Reports a migration fault on `(mm, vpn)` that proceeded while
    /// `mask` had not swept the blocking migration state.
    fn flag_migration(&mut self, mm: MmId, vpn: Vpn, mask: CpuMask) {
        if !self.reporting() {
            return;
        }
        let pending: Vec<String> = mask.iter().map(|c| format!("{c}")).collect();
        let headline = format!(
            "migration fault on mm{} vpn {:#x} proceeded while {} had not swept \
             the migration state",
            mm.0,
            vpn.0,
            pending.join(", ")
        );
        let race = format!(
            "§4.4 requires every bit of the migration state's bitmask to clear \
             before the fault may proceed; pending mask still has {} bit(s)",
            mask.count()
        );
        self.flag(
            ViolationKind::MigrationBeforeSweepComplete,
            headline,
            race,
            None,
            Some(vpn.0),
        );
    }

    // ---- synchronous shootdown edges ------------------------------------

    /// A shootdown's IPIs were multicast by `initiator`.
    pub fn note_ipi_send(&mut self, initiator: CpuId, txn: u64, targets: CpuMask, at: Time) {
        let stamp = self.record(Ctx::Cpu(initiator), at, EventKind::IpiSend { txn, targets });
        let stamp = self.hold(stamp);
        if let Some(old) = self.txn_clocks.insert(txn, stamp) {
            self.clocks.release(old.snap);
        }
    }

    /// A shootdown IPI was handled on `target`.
    pub fn note_ipi_deliver(&mut self, target: CpuId, txn: u64, at: Time) {
        self.record(Ctx::Cpu(target), at, EventKind::IpiDeliver { txn });
        if let Some(&sent) = self.txn_clocks.get(&txn) {
            self.clocks.join_live(&mut self.live[target.index()], sent);
        }
    }

    /// The last ACK of `txn` arrived: `initiator` now happens-after every
    /// target's handler.
    pub fn note_ack(&mut self, initiator: CpuId, from: CpuId, txn: u64, done: bool, at: Time) {
        self.record(Ctx::Cpu(initiator), at, EventKind::Ack { txn, from });
        let handler = self.clocks.stamp(self.live[from.index()], from.index());
        self.clocks
            .join_live(&mut self.live[initiator.index()], handler);
        if done {
            if let Some(old) = self.txn_clocks.remove(&txn) {
                self.clocks.release(old.snap);
            }
        }
    }
}

/// The linear state list the keyed table replaced, kept as its executable
/// spec: publish appends, a sweep scans every live state, and a migration
/// check takes the first match in publish order.
#[cfg(test)]
mod reference {
    use super::*;

    struct LinearState {
        mm: MmId,
        range: VaRange,
        pending: CpuMask,
        migration: bool,
        publish_clock: Stamp,
    }

    /// A [`CoherenceOracle`] whose Latr states live in the linear list;
    /// every other event goes to the wrapped oracle unchanged.
    pub(super) struct ReferenceOracle {
        pub(super) inner: CoherenceOracle,
        states: Vec<LinearState>,
    }

    impl ReferenceOracle {
        pub(super) fn new(ncpus: usize) -> Self {
            ReferenceOracle {
                inner: CoherenceOracle::new(ncpus),
                states: Vec::new(),
            }
        }

        pub(super) fn note_publish(
            &mut self,
            initiator: CpuId,
            mm: MmId,
            range: VaRange,
            targets: CpuMask,
            migration: bool,
            at: Time,
        ) {
            let kind = EventKind::Publish {
                mm,
                range,
                targets,
                migration,
            };
            let stamp = self.inner.record(Ctx::Cpu(initiator), at, kind);
            self.states.push(LinearState {
                mm,
                range,
                pending: targets,
                migration,
                publish_clock: self.inner.hold(stamp),
            });
        }

        pub(super) fn note_sweep(&mut self, cpu: CpuId, mm: MmId, range: VaRange, at: Time) {
            self.inner
                .record(Ctx::Cpu(cpu), at, EventKind::Sweep { mm, range });
            let mut joins: Vec<Stamp> = Vec::new();
            self.states.retain_mut(|s| {
                if s.mm == mm && s.range == range && s.pending.test(cpu) {
                    s.pending.clear(cpu);
                    joins.push(s.publish_clock);
                }
                !s.pending.is_empty()
            });
            let inner = &mut self.inner;
            for c in joins {
                inner.clocks.join_live(&mut inner.live[cpu.index()], c);
            }
        }

        pub(super) fn note_migration_proceed(&mut self, cpu: CpuId, mm: MmId, vpn: Vpn, at: Time) {
            self.inner
                .record(Ctx::Cpu(cpu), at, EventKind::MigrationProceed { mm, vpn });
            let blocking = self
                .states
                .iter()
                .find(|s| {
                    s.migration && s.mm == mm && s.range.contains(vpn) && !s.pending.is_empty()
                })
                .map(|s| s.pending);
            if let Some(mask) = blocking {
                self.inner.flag_migration(mm, vpn, mask);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: Time = Time::ZERO;

    /// Every context's clock as it stands.
    fn clocks(o: &CoherenceOracle) -> Vec<crate::VClock> {
        (0..o.live.len())
            .map(|i| o.clocks.stamp(o.live[i], i).clock(&o.clocks))
            .collect()
    }

    fn vpn(v: u64) -> Vpn {
        Vpn(v)
    }

    #[test]
    fn free_while_cached_is_flagged_with_trace() {
        let mut o = CoherenceOracle::new(2);
        o.note_fill(CpuId(1), 0, vpn(0x10), Pfn(0x2a), true, T);
        o.note_publish(
            CpuId(0),
            MmId(0),
            VaRange::new(vpn(0x10), 1),
            CpuMask::from_cpus([CpuId(1)]),
            false,
            T,
        );
        o.note_free(Ctx::Kthread, Pfn(0x2a), T);
        let v = o.violation().expect("violation detected");
        assert_eq!(v.kind, ViolationKind::FreedWhileCached);
        assert!(v.headline.contains("cpu1"), "{}", v.headline);
        assert!(v.headline.contains("0x2a"), "{}", v.headline);
        // The trace must include the racing fill and the publish.
        let rendered = v.to_string();
        assert!(rendered.contains("TLB fill vpn 0x10"), "{rendered}");
        assert!(rendered.contains("publish free state"), "{rendered}");
        assert!(rendered.contains("data race"), "{rendered}");
    }

    #[test]
    fn sweep_before_free_is_clean_and_ordered() {
        let mut o = CoherenceOracle::new(2);
        let r = VaRange::new(vpn(0x10), 1);
        o.note_fill(CpuId(1), 0, vpn(0x10), Pfn(0x2a), true, T);
        o.note_publish(
            CpuId(0),
            MmId(0),
            r,
            CpuMask::from_cpus([CpuId(1)]),
            false,
            T,
        );
        o.note_invalidate(CpuId(1), 0, vpn(0x10), T);
        o.note_sweep(CpuId(1), MmId(0), r, T);
        o.note_free(Ctx::Kthread, Pfn(0x2a), T);
        assert!(o.violation().is_none());
    }

    #[test]
    fn reuse_while_cached_is_flagged() {
        let mut o = CoherenceOracle::new(1);
        o.note_fill(CpuId(0), 0, vpn(0x5), Pfn(9), true, T);
        o.note_alloc(Ctx::Cpu(CpuId(0)), Pfn(9), T);
        let v = o.violation().expect("violation");
        assert_eq!(v.kind, ViolationKind::ReusedWhileCached);
    }

    #[test]
    fn stale_hit_on_freed_frame_is_flagged() {
        let mut o = CoherenceOracle::new(1);
        o.note_fill(CpuId(0), 0, vpn(0x5), Pfn(9), true, T);
        o.note_hit(CpuId(0), 0, vpn(0x5), Pfn(9), false, T);
        let v = o.violation().expect("violation");
        assert_eq!(v.kind, ViolationKind::AccessThroughFreedFrame);
    }

    #[test]
    fn migration_proceed_with_pending_bits_is_flagged() {
        let mut o = CoherenceOracle::new(3);
        let r = VaRange::new(vpn(0x40), 1);
        o.note_publish(
            CpuId(0),
            MmId(1),
            r,
            CpuMask::from_cpus([CpuId(0), CpuId(1), CpuId(2)]),
            true,
            T,
        );
        o.note_sweep(CpuId(0), MmId(1), r, T);
        // cpu1 and cpu2 have not swept: the fault must not proceed.
        o.note_migration_proceed(CpuId(1), MmId(1), vpn(0x40), T);
        let v = o.violation().expect("violation");
        assert_eq!(v.kind, ViolationKind::MigrationBeforeSweepComplete);
        assert!(v.headline.contains("cpu2"), "{}", v.headline);
    }

    #[test]
    fn migration_proceed_after_all_sweeps_is_clean() {
        let mut o = CoherenceOracle::new(2);
        let r = VaRange::new(vpn(0x40), 1);
        o.note_publish(
            CpuId(0),
            MmId(1),
            r,
            CpuMask::from_cpus([CpuId(0), CpuId(1)]),
            true,
            T,
        );
        o.note_sweep(CpuId(0), MmId(1), r, T);
        o.note_sweep(CpuId(1), MmId(1), r, T);
        o.note_migration_proceed(CpuId(1), MmId(1), vpn(0x40), T);
        assert!(o.violation().is_none());
    }

    #[test]
    fn flush_and_eviction_clear_the_mirror() {
        let mut o = CoherenceOracle::new(2);
        o.note_fill(CpuId(0), 0, vpn(1), Pfn(7), true, T);
        o.note_fill(CpuId(1), 0, vpn(1), Pfn(7), true, T);
        o.note_flush_all(CpuId(0), T);
        o.note_evictions(
            CpuId(1),
            &[TlbEntry {
                pcid: 0,
                vpn: 1,
                pfn: 7,
                writable: false,
            }],
            T,
        );
        o.note_free(Ctx::Kthread, Pfn(7), T);
        assert!(o.violation().is_none(), "{:?}", o.violation());
    }

    #[test]
    fn first_violation_freezes_later_ones_suppressed() {
        let mut o = CoherenceOracle::new(1);
        o.note_fill(CpuId(0), 0, vpn(1), Pfn(7), true, T);
        o.note_free(Ctx::Kthread, Pfn(7), T);
        assert!(o.violation().is_some());
        o.note_free(Ctx::Kthread, Pfn(7), T);
        assert_eq!(o.suppressed_count(), 1);
        assert_eq!(o.violation().unwrap().kind, ViolationKind::FreedWhileCached);
    }

    #[test]
    fn multi_cacher_free_verdict_is_deterministic() {
        // cpu1's fill is ordered before the free by an ACK edge; cpu2's
        // and cpu10's are not. The verdict must name the smallest cacher
        // and the headline must list cachers in numeric order, whatever
        // each fresh oracle's hash seeds are.
        for _ in 0..20 {
            let mut o = CoherenceOracle::new(11);
            o.note_fill(CpuId(10), 0, vpn(0x30), Pfn(0x2a), true, T);
            o.note_fill(CpuId(2), 0, vpn(0x20), Pfn(0x2a), true, T);
            o.note_fill(CpuId(1), 0, vpn(0x10), Pfn(0x2a), true, T);
            o.note_ack(CpuId(0), CpuId(1), 1, true, T);
            o.note_free(Ctx::Cpu(CpuId(0)), Pfn(0x2a), T);
            let v = o.violation().expect("violation");
            assert_eq!(
                v.headline,
                "frame 0x2a freed while still cached: cpu1 vpn 0x10 (pcid 0), \
                 cpu2 vpn 0x20 (pcid 0), cpu10 vpn 0x30 (pcid 0)"
            );
            assert_eq!(
                v.race,
                "ordered: cpu0 had a happens-before path from cpu1's fill \
                 (clock component 1) yet no invalidation intervened \
                 — the protocol retired the entry's cover without clearing it"
            );
        }
    }

    #[test]
    fn full_history_ring_overwrites_the_oldest_record() {
        let mut o = CoherenceOracle::new(1);
        for i in 0..HISTORY_CAPACITY as u64 + 3 {
            o.note_invalidate(CpuId(0), 0, vpn(i), T);
        }
        assert_eq!(o.history.len(), HISTORY_CAPACITY);
        let oldest = o.render(HISTORY_CAPACITY - 1);
        assert_eq!(oldest.seq, 4);
        assert_eq!(oldest.kind, EventKind::Invalidate { pcid: 0, vpn: 3 });
        let newest = o.render(0);
        assert_eq!(newest.seq, HISTORY_CAPACITY as u64 + 3);
        assert_eq!(newest.clock, clocks(&o)[0]);
    }

    #[test]
    fn a_hit_disagreeing_with_the_shadow_leaves_the_shadow_entry() {
        // The hit names pfn 4 for a page the shadow holds at pfn 3. The
        // shadow entry wins: pfn 4 was never cached, and after the
        // invalidation nothing is.
        let mut o = CoherenceOracle::new(2);
        o.note_fill(CpuId(1), 0, vpn(0x10), Pfn(3), true, T);
        o.note_hit(CpuId(1), 0, vpn(0x10), Pfn(4), true, T);
        o.note_invalidate(CpuId(1), 0, vpn(0x10), T);
        o.note_alloc(Ctx::Kthread, Pfn(4), T);
        o.note_alloc(Ctx::Kthread, Pfn(3), T);
        assert!(o.violation().is_none(), "{:?}", o.violation());

        // Before the invalidation the page is cached at pfn 3 alone.
        let mut o = CoherenceOracle::new(2);
        o.note_fill(CpuId(1), 0, vpn(0x10), Pfn(3), true, T);
        o.note_hit(CpuId(1), 0, vpn(0x10), Pfn(4), true, T);
        o.note_alloc(Ctx::Kthread, Pfn(4), T);
        assert!(o.violation().is_none(), "{:?}", o.violation());
        o.note_alloc(Ctx::Kthread, Pfn(3), T);
        let v = o.violation().expect("pfn 3 is still cached");
        assert_eq!(
            v.headline,
            "frame 0x3 handed out again while still cached: cpu1 vpn 0x10 (pcid 0)"
        );
    }

    /// Every clock slot's refcount equals the number of holders: history
    /// records, contexts, live states and in-flight transactions.
    fn assert_refcounts_match_holders(o: &CoherenceOracle) {
        let mut holders = vec![0u32; o.clocks.refcounts().len()];
        let held = o
            .history
            .iter()
            .map(|r| r.clock.snap)
            .chain(o.live.iter().copied())
            .chain(o.states.values().flatten().map(|s| s.publish_clock.snap))
            .chain(o.txn_clocks.values().map(|s| s.snap));
        for snap in held {
            holders[snap as usize] += 1;
        }
        assert_eq!(o.clocks.refcounts(), holders);
    }

    #[test]
    fn clock_slots_are_held_exactly_as_long_as_something_refers_to_them() {
        let mut o = CoherenceOracle::new(4);
        let mut rng = latr_sim::SimRng::new(7);
        let mut txn = 0;
        for step in 0..3 * HISTORY_CAPACITY {
            let cpu = CpuId(rng.below(4) as u16);
            let r = VaRange::new(vpn(rng.below(3)), 1);
            let targets = CpuMask::from_cpus((0..4).filter(|_| rng.below(2) == 0).map(CpuId));
            match rng.below(6) {
                0 => o.note_publish(cpu, MmId(0), r, targets, false, T),
                1 => o.note_sweep(cpu, MmId(0), r, T),
                2 => {
                    txn += 1;
                    o.note_ipi_send(cpu, txn, targets, T);
                }
                3 => o.note_ipi_deliver(cpu, txn, T),
                4 => o.note_ack(cpu, CpuId(rng.below(4) as u16), txn, rng.below(2) == 0, T),
                _ => o.note_invalidate(cpu, 0, vpn(step as u64), T),
            }
            if step % 97 == 0 {
                assert_refcounts_match_holders(&o);
            }
        }
        assert_refcounts_match_holders(&o);
    }

    #[test]
    fn ipi_edges_order_the_free() {
        // Linux-style: fill on cpu1, IPI invalidates it, ACK returns, then
        // the free — ordered, no violation; and the initiator's clock
        // dominates cpu1's handler clock.
        let mut o = CoherenceOracle::new(2);
        o.note_fill(CpuId(1), 0, vpn(0x10), Pfn(3), true, T);
        o.note_ipi_send(CpuId(0), 7, CpuMask::from_cpus([CpuId(1)]), T);
        o.note_ipi_deliver(CpuId(1), 7, T);
        o.note_invalidate(CpuId(1), 0, vpn(0x10), T);
        o.note_ack(CpuId(0), CpuId(1), 7, true, T);
        o.note_free(Ctx::Cpu(CpuId(0)), Pfn(3), T);
        assert!(o.violation().is_none());
        let clocks = clocks(&o);
        assert!(clocks[0].dominates(&clocks[1]));
    }

    /// One step of the differential spec below.
    #[derive(Clone, Debug)]
    enum Op {
        Publish {
            cpu: u16,
            mm: u32,
            range: usize,
            targets: u64,
            migration: bool,
        },
        Sweep {
            cpu: u16,
            mm: u32,
            range: usize,
        },
        MigrationProceed {
            cpu: u16,
            mm: u32,
            vpn: u64,
        },
        Fill {
            cpu: u16,
            vpn: u64,
            pfn: u64,
            allocated: bool,
        },
        Free {
            /// `NCPUS` stands for the reclamation kthread.
            ctx: u16,
            pfn: u64,
        },
    }

    const NCPUS: u16 = 4;

    /// Overlapping ranges so a migration check can match several buckets;
    /// the last is never published, so sweeps of it find nothing.
    fn spec_range(i: usize) -> VaRange {
        [
            VaRange::new(vpn(0x10), 2),
            VaRange::new(vpn(0x11), 2),
            VaRange::new(vpn(0x20), 1),
            VaRange::new(vpn(0x30), 1),
        ][i]
    }

    fn op_strategy() -> impl proptest::strategy::Strategy<Value = Op> {
        use proptest::prelude::*;
        let vpns = || prop_oneof![0x10u64..0x13, Just(0x20u64), Just(0x30u64)];
        prop_oneof![
            // Few ranges and masks, so duplicate (mm, range) publishes and
            // empty masks (targets 0) are common.
            ((0..NCPUS, 0u32..2), 0usize..3, 0u64..16, any::<bool>()).prop_map(
                |((cpu, mm), range, targets, migration)| Op::Publish {
                    cpu,
                    mm,
                    range,
                    targets,
                    migration,
                }
            ),
            (0..NCPUS, 0u32..2, 0usize..4).prop_map(|(cpu, mm, range)| Op::Sweep {
                cpu,
                mm,
                range
            }),
            (0..NCPUS, 0u32..2, 0usize..4).prop_map(|(cpu, mm, range)| Op::Sweep {
                cpu,
                mm,
                range
            }),
            (0..NCPUS, 0u32..2, vpns()).prop_map(|(cpu, mm, vpn)| Op::MigrationProceed {
                cpu,
                mm,
                vpn
            }),
            (0..NCPUS, vpns(), 0u64..3, 0u8..8).prop_map(|(cpu, vpn, pfn, a)| Op::Fill {
                cpu,
                vpn,
                pfn,
                allocated: a != 0,
            }),
            (0..NCPUS + 1, 0u64..3).prop_map(|(ctx, pfn)| Op::Free { ctx, pfn }),
        ]
    }

    fn targets_mask(bits: u64) -> CpuMask {
        CpuMask::from_cpus((0..NCPUS).filter(|c| bits >> c & 1 == 1).map(CpuId))
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The keyed state table against the linear list it replaced: the
        /// same clocks, the same first violation and the same suppressed
        /// count after every step.
        #[test]
        fn keyed_state_table_matches_the_linear_reference(
            ops in proptest::collection::vec(op_strategy(), 1..120)
        ) {
            let mut keyed = CoherenceOracle::new(NCPUS.into());
            let mut reference = reference::ReferenceOracle::new(NCPUS.into());
            for (step, op) in ops.iter().enumerate() {
                match *op {
                    Op::Publish { cpu, mm, range, targets, migration } => {
                        let (cpu, mm, range) = (CpuId(cpu), MmId(mm), spec_range(range));
                        let targets = targets_mask(targets);
                        keyed.note_publish(cpu, mm, range, targets, migration, T);
                        reference.note_publish(cpu, mm, range, targets, migration, T);
                    }
                    Op::Sweep { cpu, mm, range } => {
                        let (cpu, mm, range) = (CpuId(cpu), MmId(mm), spec_range(range));
                        keyed.note_sweep(cpu, mm, range, T);
                        reference.note_sweep(cpu, mm, range, T);
                    }
                    Op::MigrationProceed { cpu, mm, vpn: v } => {
                        keyed.note_migration_proceed(CpuId(cpu), MmId(mm), vpn(v), T);
                        reference.note_migration_proceed(CpuId(cpu), MmId(mm), vpn(v), T);
                    }
                    Op::Fill { cpu, vpn: v, pfn, allocated } => {
                        keyed.note_fill(CpuId(cpu), 0, vpn(v), Pfn(pfn), allocated, T);
                        reference
                            .inner
                            .note_fill(CpuId(cpu), 0, vpn(v), Pfn(pfn), allocated, T);
                    }
                    Op::Free { ctx, pfn } => {
                        let ctx = if ctx == NCPUS {
                            Ctx::Kthread
                        } else {
                            Ctx::Cpu(CpuId(ctx))
                        };
                        keyed.note_free(ctx, Pfn(pfn), T);
                        reference.inner.note_free(ctx, Pfn(pfn), T);
                    }
                }
                proptest::prop_assert_eq!(clocks(&keyed), clocks(&reference.inner), "clocks after step {}", step);
                proptest::prop_assert_eq!(
                    keyed.violation().map(|v| v.to_string()),
                    reference.inner.violation().map(|v| v.to_string()),
                    "violation after step {}",
                    step
                );
                proptest::prop_assert_eq!(
                    keyed.suppressed_count(),
                    reference.inner.suppressed_count(),
                    "suppressed after step {}",
                    step
                );
            }
        }
    }
}
