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
//! The oracle is a pure observer — it never mutates the machine and its
//! checks never panic, so enabling it cannot perturb a run's determinism.
//! Tests read the verdict via `violation()`.
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
//! - All of that is the `Shadow`. The kernel hands the oracle one
//!   [`Note`] per action through [`CoherenceOracle::note`], and the
//!   shadow records that same note in its history ring and then applies
//!   it. It is applied in place, or, between
//!   [`CoherenceOracle::start_worker`] and
//!   [`CoherenceOracle::join_worker`], batched to a worker thread that
//!   owns the shadow and applies the notes in the same order (`pipe`).
//!   The verdict is read only while the shadow is in place, and a report
//!   prints the notes the ring kept.

use crate::clock::{ClockArena, Stamp};
use crate::event::{Ctx, EventRecord, Note};
use crate::pipe::Pipe;
use latr_arch::{CpuId, CpuMask};
use latr_mem::{MmId, Pfn, VaRange, Vpn};
use latr_sim::Time;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::slice;

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
    /// A context's vector-clock component would have passed `u32::MAX`:
    /// past it the oracle can no longer order that context's events.
    ClockOverflow,
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ViolationKind::FreedWhileCached => "frame freed while cached",
            ViolationKind::ReusedWhileCached => "frame reused while cached",
            ViolationKind::AccessThroughFreedFrame => "access through freed frame",
            ViolationKind::FillOfFreedFrame => "fill of freed frame",
            ViolationKind::MigrationBeforeSweepComplete => "migration before sweep complete",
            ViolationKind::ClockOverflow => "clock overflow",
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
    filled_component: u32,
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

/// One entry of the history ring: a note, its context's clock after it,
/// and how many cores a publish or an IPI send targeted (what a report
/// prints of the mask). The ring's records have consecutive sequence
/// numbers, ending at the oracle's, and the stamp names the context.
#[derive(Debug)]
struct Record {
    at: Time,
    clock: Stamp,
    note: Note,
    cores: u16,
}

const _: () = assert!(std::mem::size_of::<Record>() <= 48);

/// The oracle's state: the shadow TLBs, states, transactions, clocks and
/// history, fed one [`Note`] at a time by [`Shadow::apply`]. The
/// default is an empty placeholder over no cores, which allocates
/// nothing: what a moved-out shadow leaves behind.
#[derive(Debug, Default)]
pub(crate) struct Shadow {
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

impl Shadow {
    pub(crate) fn new(ncpus: usize) -> Self {
        let nctx = ncpus + 1;
        let mut clocks = ClockArena::new(nctx);
        Shadow {
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

    /// Records one note and applies it, or closes the shadow on `None`
    /// (events still record, checks no longer fire). A publish or an IPI
    /// send takes its targets from `masks`, which holds the masked notes'
    /// masks in note order.
    pub(crate) fn apply(
        &mut self,
        at: Time,
        note: Option<Note>,
        masks: &mut slice::Iter<'_, CpuMask>,
    ) {
        let Some(note) = note else {
            self.closed = true;
            return;
        };
        let targets = match note {
            Note::Publish { .. } => *masks.next().expect("a publish has its mask"),
            Note::IpiSend { .. } => *masks.next().expect("an IPI send has its mask"),
            _ => CpuMask::empty(),
        };
        let stamp = self.record(at, note, targets.count() as u16);
        match note {
            Note::Fill {
                cpu,
                pcid,
                vpn,
                pfn,
                allocated,
            } => self.fill(cpu, pcid, vpn, pfn, allocated, stamp),
            Note::Hit {
                cpu,
                pcid,
                vpn,
                pfn,
                allocated,
            } => self.hit(cpu, pcid, vpn, pfn, allocated, stamp),
            Note::Invalidate { cpu, pcid, vpn } | Note::Evict { cpu, pcid, vpn, .. } => {
                self.shadow_remove(cpu.index(), pcid, vpn.0)
            }
            Note::FlushAll { cpu } => {
                for (_, e) in self.shadow[cpu.index()].drain() {
                    self.cachers.remove(e.pfn);
                }
            }
            Note::Alloc { ctx, pfn } => self.flag_cached(
                ViolationKind::ReusedWhileCached,
                ctx,
                pfn.0,
                "handed out again",
            ),
            Note::Free { ctx, pfn } => {
                self.flag_cached(ViolationKind::FreedWhileCached, ctx, pfn.0, "freed")
            }
            Note::Publish {
                mm,
                range,
                migration,
                ..
            } => self.publish(mm, range, targets, migration, stamp),
            Note::Sweep { cpu, mm, range } => self.sweep(cpu, mm, range),
            Note::MigrationProceed { mm, vpn, .. } => self.migration_proceed(mm, vpn),
            Note::IpiSend { txn, .. } => {
                let stamp = self.hold(stamp);
                if let Some(old) = self.txn_clocks.insert(txn, stamp) {
                    self.clocks.release(old.snap);
                }
            }
            Note::IpiDeliver { target, txn } => {
                if let Some(&sent) = self.txn_clocks.get(&txn) {
                    self.clocks.join_live(&mut self.live[target.index()], sent);
                }
            }
            Note::Ack {
                initiator,
                from,
                txn,
                done,
            } => self.ack(initiator, from, txn, done),
        }
    }

    fn ctx_index(&self, ctx: Ctx) -> usize {
        match ctx {
            Ctx::Cpu(c) => c.index(),
            Ctx::Kthread => self.ncpus,
        }
    }

    /// Advances the clock of `note`'s context, appends the note to the
    /// ring, and returns the stamp of that clock after it (`self.seq` is
    /// the event's sequence number). Once the ring is full the oldest
    /// record is dropped, releasing its clock, so recording allocates
    /// nothing. A tick past `u32::MAX` leaves the component there and
    /// reports a [`ViolationKind::ClockOverflow`] on the event.
    fn record(&mut self, at: Time, note: Note, cores: u16) -> Stamp {
        let ctx = note.ctx();
        let i = self.ctx_index(ctx);
        let live = self.live[i];
        let ticked = self.clocks.tick(live, i);
        let own = ticked.unwrap_or(u32::MAX);
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
        self.history.push_back(Record {
            at,
            clock,
            note,
            cores,
        });
        if ticked.is_none() && self.reporting() {
            self.flag(
                ViolationKind::ClockOverflow,
                format!("{ctx}'s vector-clock component passed u32::MAX"),
                "no later event of this context can be ordered".to_owned(),
                None,
                None,
            );
        }
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
        EventRecord {
            seq: self.seq - back as u64,
            at: r.at,
            clock: r.clock.clock(&self.clocks),
            note: r.note,
            cores: r.cores,
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
        pfn: Option<Pfn>,
        vpn: Option<Vpn>,
    ) {
        let offending = self.render(0);
        let history: Vec<EventRecord> = self
            .history
            .iter()
            .rev()
            .enumerate()
            .skip(1)
            .filter(|(_, r)| r.note.touches(pfn, vpn))
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
    fn race_verdict(&self, ctx: Ctx, core: usize, filled_component: u32) -> String {
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
        self.flag(kind, headline, race, Some(Pfn(pfn)), Some(Vpn(vpn)));
    }

    fn shadow_remove(&mut self, core: usize, pcid: u16, vpn: u64) {
        if let Some(e) = self.shadow[core].remove(&(pcid, vpn)) {
            self.cachers.remove(e.pfn);
        }
    }

    /// A fill: overwriting the same page is an invalidate plus a fill.
    fn fill(&mut self, cpu: CpuId, pcid: u16, vpn: Vpn, pfn: Pfn, allocated: bool, stamp: Stamp) {
        let entry = ShadowEntry {
            pfn: pfn.0,
            filled_component: stamp.own,
        };
        if let Some(old) = self.shadow[cpu.index()].insert((pcid, vpn.0), entry) {
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
                Some(pfn),
                Some(vpn),
            );
        }
    }

    /// A hit. The shadow entry wins over the hit's `pfn`: a hit on a page
    /// the shadow already caches leaves that entry (its frame and its
    /// fill's clock component) as it is, and `pfn` only labels the record
    /// and the report. A hit on a page the shadow lacks installs it at
    /// `pfn`, healing a mirror whose fill predated the oracle.
    fn hit(&mut self, cpu: CpuId, pcid: u16, vpn: Vpn, pfn: Pfn, allocated: bool, stamp: Stamp) {
        let core = cpu.index();
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
                Some(pfn),
                Some(vpn),
            );
        }
    }

    /// A Latr state's publish: tracked until every target has swept it.
    fn publish(
        &mut self,
        mm: MmId,
        range: VaRange,
        targets: CpuMask,
        migration: bool,
        stamp: Stamp,
    ) {
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

    /// `cpu` swept every active state naming it that covers `(mm, range)`.
    fn sweep(&mut self, cpu: CpuId, mm: MmId, range: VaRange) {
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

    /// A NUMA hint fault on `(mm, vpn)` proceeded: no migration state
    /// covering the page may still have pending bits.
    fn migration_proceed(&mut self, mm: MmId, vpn: Vpn) {
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
            Some(vpn),
        );
    }

    /// An ACK of `txn` from `from` reached `initiator`, which joins the
    /// handler's clock; the last one retires the send clock.
    fn ack(&mut self, initiator: CpuId, from: CpuId, txn: u64, done: bool) {
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

/// The coherence oracle. One per [`Machine`]; see the module docs.
///
/// Each [`note`](Self::note) is applied in place, or, while a worker runs
/// ([`start_worker`](Self::start_worker) to
/// [`join_worker`](Self::join_worker)), batched to it. The verdict reads
/// the same either way, and only once the worker is joined: the readers
/// panic while it runs.
///
/// [`Machine`]: ../latr_kernel/struct.Machine.html
#[derive(Debug)]
pub struct CoherenceOracle {
    place: Place,
}

/// Where the shadow state is.
#[derive(Debug)]
enum Place {
    /// On the caller's thread, applying each note as it comes.
    Here(Box<Shadow>),
    /// On a worker thread, fed through the pipe.
    Worker(Pipe),
}

impl CoherenceOracle {
    /// An oracle over `ncpus` cores.
    pub fn new(ncpus: usize) -> Self {
        CoherenceOracle {
            place: Place::Here(Box::new(Shadow::new(ncpus))),
        }
    }

    /// Moves the shadow state onto a worker thread of its own: from here
    /// to [`join_worker`](Self::join_worker) the notes travel to it in
    /// batches and the caller's thread only appends them. Does nothing
    /// while a worker already runs, and leaves the checks in place if
    /// the host cannot start a thread.
    pub fn start_worker(&mut self) {
        if let Place::Here(shadow) = &mut self.place {
            if let Some(pipe) = Pipe::start(shadow) {
                self.place = Place::Worker(pipe);
            }
        }
    }

    /// Sends the worker the notes it has not seen, waits for it to apply
    /// them and takes the shadow state back. Does nothing without a
    /// worker.
    ///
    /// # Panics
    ///
    /// Re-raises a panic of the worker.
    pub fn join_worker(&mut self) {
        if let Place::Worker(pipe) = &mut self.place {
            self.place = Place::Here(Box::new(pipe.join()));
        }
    }

    /// The shadow state, for the readers.
    ///
    /// # Panics
    ///
    /// Panics while a worker holds it: the verdict is not known until
    /// the worker has applied every note.
    fn here(&self) -> &Shadow {
        match &self.place {
            Place::Here(shadow) => shadow,
            Place::Worker(_) => panic!("the oracle is read before join_worker"),
        }
    }

    /// Observes `note` at `at`: applies it in place, or sends it to the
    /// worker. A publish or an IPI send carries its target cores in
    /// `targets`, and no other kind does.
    #[inline]
    pub fn note(&mut self, at: Time, note: Note, targets: Option<CpuMask>) {
        debug_assert_eq!(
            targets.is_some(),
            matches!(note, Note::Publish { .. } | Note::IpiSend { .. }),
            "targets travel with a publish or an IPI send only: {note:?}"
        );
        self.send(at, Some(note), targets);
    }

    /// Applies `note` (`None` closes) in place or sends it to the worker.
    #[inline]
    fn send(&mut self, at: Time, note: Option<Note>, mask: Option<CpuMask>) {
        match &mut self.place {
            Place::Here(shadow) => shadow.apply(at, note, &mut mask.as_slice().iter()),
            Place::Worker(pipe) => pipe.push(at, note, mask),
        }
    }

    /// Stops checking (events still record). The machine calls this right
    /// before the policy's shutdown drain: that drain runs after the final
    /// event, so the frames it frees can no longer be reached through any
    /// TLB — flagging them would be noise, not a race.
    pub fn close(&mut self) {
        self.send(Time::ZERO, None, None);
    }

    /// The first violation detected, if any.
    ///
    /// # Panics
    ///
    /// Panics while a worker runs.
    pub fn violation(&self) -> Option<&Violation> {
        self.here().violation.as_ref()
    }

    /// How many further checks fired after the first violation.
    ///
    /// # Panics
    ///
    /// Panics while a worker runs.
    pub fn suppressed_count(&self) -> u64 {
        self.here().suppressed
    }

    /// Total events observed.
    ///
    /// # Panics
    ///
    /// Panics while a worker runs.
    pub fn events_observed(&self) -> u64 {
        self.here().seq
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

    /// A [`Shadow`] whose Latr states live in the linear list; every
    /// other note goes to the wrapped shadow unchanged.
    pub(super) struct ReferenceOracle {
        pub(super) inner: Shadow,
        states: Vec<LinearState>,
    }

    impl ReferenceOracle {
        pub(super) fn new(ncpus: usize) -> Self {
            ReferenceOracle {
                inner: Shadow::new(ncpus),
                states: Vec::new(),
            }
        }

        pub(super) fn note(&mut self, at: Time, note: Note, targets: Option<CpuMask>) {
            match note {
                Note::Publish {
                    mm,
                    range,
                    migration,
                    ..
                } => {
                    let targets = targets.expect("a publish has its mask");
                    let stamp = self.inner.record(at, note, targets.count() as u16);
                    self.states.push(LinearState {
                        mm,
                        range,
                        pending: targets,
                        migration,
                        publish_clock: self.inner.hold(stamp),
                    });
                }
                Note::Sweep { cpu, mm, range } => {
                    self.inner.record(at, note, 0);
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
                Note::MigrationProceed { mm, vpn, .. } => {
                    self.inner.record(at, note, 0);
                    let blocking = self
                        .states
                        .iter()
                        .find(|s| {
                            s.migration
                                && s.mm == mm
                                && s.range.contains(vpn)
                                && !s.pending.is_empty()
                        })
                        .map(|s| s.pending);
                    if let Some(mask) = blocking {
                        self.inner.flag_migration(mm, vpn, mask);
                    }
                }
                _ => self
                    .inner
                    .apply(at, Some(note), &mut targets.as_slice().iter()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: Time = Time::ZERO;

    /// Every context's clock as it stands.
    fn clocks(o: &Shadow) -> Vec<crate::VClock> {
        (0..o.live.len())
            .map(|i| o.clocks.stamp(o.live[i], i).clock(&o.clocks))
            .collect()
    }

    fn vpn(v: u64) -> Vpn {
        Vpn(v)
    }

    /// Fixtures for the kinds these tests note most, under PCID 0.
    fn fill(cpu: CpuId, vpn: Vpn, pfn: Pfn) -> Note {
        let allocated = true;
        Note::Fill {
            cpu,
            pcid: 0,
            vpn,
            pfn,
            allocated,
        }
    }

    fn hit(cpu: CpuId, vpn: Vpn, pfn: Pfn, allocated: bool) -> Note {
        Note::Hit {
            cpu,
            pcid: 0,
            vpn,
            pfn,
            allocated,
        }
    }

    fn invalidate(cpu: CpuId, vpn: Vpn) -> Note {
        Note::Invalidate { cpu, pcid: 0, vpn }
    }

    fn alloc(ctx: Ctx, pfn: Pfn) -> Note {
        Note::Alloc { ctx, pfn }
    }

    fn free(ctx: Ctx, pfn: Pfn) -> Note {
        Note::Free { ctx, pfn }
    }

    fn publish(initiator: CpuId, mm: MmId, range: VaRange, migration: bool) -> Note {
        Note::Publish {
            initiator,
            mm,
            range,
            migration,
        }
    }

    fn sweep(cpu: CpuId, mm: MmId, range: VaRange) -> Note {
        Note::Sweep { cpu, mm, range }
    }

    #[test]
    fn free_while_cached_is_flagged_with_trace() {
        let mut o = CoherenceOracle::new(2);
        o.note(T, fill(CpuId(1), vpn(0x10), Pfn(0x2a)), None);
        o.note(
            T,
            publish(CpuId(0), MmId(0), VaRange::new(vpn(0x10), 1), false),
            Some(CpuMask::from_cpus([CpuId(1)])),
        );
        o.note(T, free(Ctx::Kthread, Pfn(0x2a)), None);
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
        o.note(T, fill(CpuId(1), vpn(0x10), Pfn(0x2a)), None);
        o.note(
            T,
            publish(CpuId(0), MmId(0), r, false),
            Some(CpuMask::from_cpus([CpuId(1)])),
        );
        o.note(T, invalidate(CpuId(1), vpn(0x10)), None);
        o.note(T, sweep(CpuId(1), MmId(0), r), None);
        o.note(T, free(Ctx::Kthread, Pfn(0x2a)), None);
        assert!(o.violation().is_none());
    }

    #[test]
    fn reuse_while_cached_is_flagged() {
        let mut o = CoherenceOracle::new(1);
        o.note(T, fill(CpuId(0), vpn(0x5), Pfn(9)), None);
        o.note(T, alloc(Ctx::Cpu(CpuId(0)), Pfn(9)), None);
        let v = o.violation().expect("violation");
        assert_eq!(v.kind, ViolationKind::ReusedWhileCached);
    }

    #[test]
    fn stale_hit_on_freed_frame_is_flagged() {
        let mut o = CoherenceOracle::new(1);
        o.note(T, fill(CpuId(0), vpn(0x5), Pfn(9)), None);
        o.note(T, hit(CpuId(0), vpn(0x5), Pfn(9), false), None);
        let v = o.violation().expect("violation");
        assert_eq!(v.kind, ViolationKind::AccessThroughFreedFrame);
    }

    #[test]
    fn migration_proceed_with_pending_bits_is_flagged() {
        let mut o = CoherenceOracle::new(3);
        let r = VaRange::new(vpn(0x40), 1);
        o.note(
            T,
            publish(CpuId(0), MmId(1), r, true),
            Some(CpuMask::from_cpus([CpuId(0), CpuId(1), CpuId(2)])),
        );
        o.note(T, sweep(CpuId(0), MmId(1), r), None);
        // cpu1 and cpu2 have not swept: the fault must not proceed.
        o.note(
            T,
            Note::MigrationProceed {
                cpu: CpuId(1),
                mm: MmId(1),
                vpn: vpn(0x40),
            },
            None,
        );
        let v = o.violation().expect("violation");
        assert_eq!(v.kind, ViolationKind::MigrationBeforeSweepComplete);
        assert!(v.headline.contains("cpu2"), "{}", v.headline);
    }

    #[test]
    fn migration_proceed_after_all_sweeps_is_clean() {
        let mut o = CoherenceOracle::new(2);
        let r = VaRange::new(vpn(0x40), 1);
        o.note(
            T,
            publish(CpuId(0), MmId(1), r, true),
            Some(CpuMask::from_cpus([CpuId(0), CpuId(1)])),
        );
        o.note(T, sweep(CpuId(0), MmId(1), r), None);
        o.note(T, sweep(CpuId(1), MmId(1), r), None);
        o.note(
            T,
            Note::MigrationProceed {
                cpu: CpuId(1),
                mm: MmId(1),
                vpn: vpn(0x40),
            },
            None,
        );
        assert!(o.violation().is_none());
    }

    #[test]
    fn flush_and_eviction_clear_the_mirror() {
        let mut o = CoherenceOracle::new(2);
        o.note(T, fill(CpuId(0), vpn(1), Pfn(7)), None);
        o.note(T, fill(CpuId(1), vpn(1), Pfn(7)), None);
        o.note(T, Note::FlushAll { cpu: CpuId(0) }, None);
        let evict = Note::Evict {
            cpu: CpuId(1),
            pcid: 0,
            vpn: vpn(1),
            pfn: Pfn(7),
        };
        o.note(T, evict, None);
        o.note(T, free(Ctx::Kthread, Pfn(7)), None);
        assert!(o.violation().is_none(), "{:?}", o.violation());
    }

    #[test]
    fn first_violation_freezes_later_ones_suppressed() {
        let mut o = CoherenceOracle::new(1);
        o.note(T, fill(CpuId(0), vpn(1), Pfn(7)), None);
        o.note(T, free(Ctx::Kthread, Pfn(7)), None);
        assert!(o.violation().is_some());
        o.note(T, free(Ctx::Kthread, Pfn(7)), None);
        assert_eq!(o.suppressed_count(), 1);
        assert_eq!(o.violation().unwrap().kind, ViolationKind::FreedWhileCached);
    }

    #[test]
    fn a_tick_past_u32_max_is_the_first_violation() {
        let mut o = CoherenceOracle::new(2);
        let Place::Here(s) = &mut o.place else {
            unreachable!("no worker started")
        };
        s.clocks.set(s.live[1], 1, u32::MAX - 1);
        // The last tick that fits.
        o.note(T, fill(CpuId(1), vpn(0x10), Pfn(3)), None);
        assert!(o.violation().is_none(), "{:?}", o.violation());
        o.note(T, invalidate(CpuId(1), vpn(0x11)), None);
        let v = o.violation().expect("the overflow is reported");
        assert_eq!(v.kind, ViolationKind::ClockOverflow);
        assert_eq!(v.headline, "cpu1's vector-clock component passed u32::MAX");
        assert_eq!(
            v.offending.to_string(),
            "[seq 2 @ 0ns] cpu1: invalidate vpn 0x11 (pcid 0) vclock [0 4294967295 0]"
        );
        assert_eq!(o.suppressed_count(), 0);
        // A race and a further overflowing tick on cpu1 only count.
        o.note(T, free(Ctx::Kthread, Pfn(3)), None);
        o.note(T, hit(CpuId(1), vpn(0x10), Pfn(3), false), None);
        assert_eq!(o.suppressed_count(), 3);
        assert_eq!(o.violation().unwrap().kind, ViolationKind::ClockOverflow);
        assert_eq!(o.events_observed(), 4);
    }

    #[test]
    fn multi_cacher_free_verdict_is_deterministic() {
        // cpu1's fill is ordered before the free by an ACK edge; cpu2's
        // and cpu10's are not. The verdict must name the smallest cacher
        // and the headline must list cachers in numeric order, whatever
        // each fresh oracle's hash seeds are.
        for _ in 0..20 {
            let mut o = CoherenceOracle::new(11);
            o.note(T, fill(CpuId(10), vpn(0x30), Pfn(0x2a)), None);
            o.note(T, fill(CpuId(2), vpn(0x20), Pfn(0x2a)), None);
            o.note(T, fill(CpuId(1), vpn(0x10), Pfn(0x2a)), None);
            o.note(
                T,
                Note::Ack {
                    initiator: CpuId(0),
                    from: CpuId(1),
                    txn: 1,
                    done: true,
                },
                None,
            );
            o.note(T, free(Ctx::Cpu(CpuId(0)), Pfn(0x2a)), None);
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
            o.note(T, invalidate(CpuId(0), vpn(i)), None);
        }
        let s = o.here();
        assert_eq!(s.history.len(), HISTORY_CAPACITY);
        let oldest = s.render(HISTORY_CAPACITY - 1);
        assert_eq!(oldest.seq, 4);
        assert_eq!(oldest.note, invalidate(CpuId(0), vpn(3)));
        let newest = s.render(0);
        assert_eq!(newest.seq, HISTORY_CAPACITY as u64 + 3);
        assert_eq!(newest.clock, clocks(s)[0]);
    }

    #[test]
    fn a_hit_disagreeing_with_the_shadow_leaves_the_shadow_entry() {
        // The hit names pfn 4 for a page the shadow holds at pfn 3. The
        // shadow entry wins: pfn 4 was never cached, and after the
        // invalidation nothing is.
        let mut o = CoherenceOracle::new(2);
        o.note(T, fill(CpuId(1), vpn(0x10), Pfn(3)), None);
        o.note(T, hit(CpuId(1), vpn(0x10), Pfn(4), true), None);
        o.note(T, invalidate(CpuId(1), vpn(0x10)), None);
        o.note(T, alloc(Ctx::Kthread, Pfn(4)), None);
        o.note(T, alloc(Ctx::Kthread, Pfn(3)), None);
        assert!(o.violation().is_none(), "{:?}", o.violation());

        // Before the invalidation the page is cached at pfn 3 alone.
        let mut o = CoherenceOracle::new(2);
        o.note(T, fill(CpuId(1), vpn(0x10), Pfn(3)), None);
        o.note(T, hit(CpuId(1), vpn(0x10), Pfn(4), true), None);
        o.note(T, alloc(Ctx::Kthread, Pfn(4)), None);
        assert!(o.violation().is_none(), "{:?}", o.violation());
        o.note(T, alloc(Ctx::Kthread, Pfn(3)), None);
        let v = o.violation().expect("pfn 3 is still cached");
        assert_eq!(
            v.headline,
            "frame 0x3 handed out again while still cached: cpu1 vpn 0x10 (pcid 0)"
        );
    }

    /// Every clock slot's refcount equals the number of holders: history
    /// records, contexts, live states and in-flight transactions.
    fn assert_refcounts_match_holders(o: &Shadow) {
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
                0 => o.note(T, publish(cpu, MmId(0), r, false), Some(targets)),
                1 => o.note(T, sweep(cpu, MmId(0), r), None),
                2 => {
                    txn += 1;
                    o.note(
                        T,
                        Note::IpiSend {
                            initiator: cpu,
                            txn,
                        },
                        Some(targets),
                    );
                }
                3 => o.note(T, Note::IpiDeliver { target: cpu, txn }, None),
                4 => o.note(
                    T,
                    Note::Ack {
                        initiator: cpu,
                        from: CpuId(rng.below(4) as u16),
                        txn,
                        done: rng.below(2) == 0,
                    },
                    None,
                ),
                _ => o.note(T, invalidate(cpu, vpn(step as u64)), None),
            }
            if step % 97 == 0 {
                assert_refcounts_match_holders(o.here());
            }
        }
        assert_refcounts_match_holders(o.here());
    }

    #[test]
    fn ipi_edges_order_the_free() {
        // Linux-style: fill on cpu1, IPI invalidates it, ACK returns, then
        // the free — ordered, no violation; and the initiator's clock
        // dominates cpu1's handler clock.
        let mut o = CoherenceOracle::new(2);
        o.note(T, fill(CpuId(1), vpn(0x10), Pfn(3)), None);
        o.note(
            T,
            Note::IpiSend {
                initiator: CpuId(0),
                txn: 7,
            },
            Some(CpuMask::from_cpus([CpuId(1)])),
        );
        o.note(
            T,
            Note::IpiDeliver {
                target: CpuId(1),
                txn: 7,
            },
            None,
        );
        o.note(T, invalidate(CpuId(1), vpn(0x10)), None);
        o.note(
            T,
            Note::Ack {
                initiator: CpuId(0),
                from: CpuId(1),
                txn: 7,
                done: true,
            },
            None,
        );
        o.note(T, free(Ctx::Cpu(CpuId(0)), Pfn(3)), None);
        assert!(o.violation().is_none());
        let clocks = clocks(o.here());
        assert!((0..clocks[1].len()).all(|i| clocks[0].get(i) >= clocks[1].get(i)));
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
                let (note, targets) = match *op {
                    Op::Publish { cpu, mm, range, targets, migration } => {
                        let (initiator, mm, range) = (CpuId(cpu), MmId(mm), spec_range(range));
                        let note = Note::Publish { initiator, mm, range, migration };
                        (note, Some(targets_mask(targets)))
                    }
                    Op::Sweep { cpu, mm, range } => {
                        let (cpu, mm, range) = (CpuId(cpu), MmId(mm), spec_range(range));
                        (Note::Sweep { cpu, mm, range }, None)
                    }
                    Op::MigrationProceed { cpu, mm, vpn: v } => {
                        let (cpu, mm, vpn) = (CpuId(cpu), MmId(mm), vpn(v));
                        (Note::MigrationProceed { cpu, mm, vpn }, None)
                    }
                    Op::Fill { cpu, vpn: v, pfn, allocated } => {
                        let (cpu, vpn, pfn) = (CpuId(cpu), vpn(v), Pfn(pfn));
                        (Note::Fill { cpu, pcid: 0, vpn, pfn, allocated }, None)
                    }
                    Op::Free { ctx, pfn } => {
                        let ctx = if ctx == NCPUS {
                            Ctx::Kthread
                        } else {
                            Ctx::Cpu(CpuId(ctx))
                        };
                        (Note::Free { ctx, pfn: Pfn(pfn) }, None)
                    }
                };
                keyed.note(T, note, targets);
                reference.note(T, note, targets);
                proptest::prop_assert_eq!(clocks(keyed.here()), clocks(&reference.inner), "clocks after step {}", step);
                proptest::prop_assert_eq!(
                    keyed.violation().map(|v| v.to_string()),
                    reference.inner.violation.as_ref().map(|v| v.to_string()),
                    "violation after step {}",
                    step
                );
                proptest::prop_assert_eq!(
                    keyed.suppressed_count(),
                    reference.inner.suppressed,
                    "suppressed after step {}",
                    step
                );
            }
        }
    }
}
