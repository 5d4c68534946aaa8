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
//! panics on a violation, so enabling it cannot perturb a run's
//! determinism. Tests read the verdict via `violation()`.

use crate::clock::VClock;
use crate::event::{Ctx, EventKind, EventRecord};
use latr_arch::{CpuId, CpuMask, TlbEntry};
use latr_mem::{MmId, Pfn, VaRange, Vpn};
use latr_sim::Time;
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;

/// How many event records the history ring keeps.
const HISTORY_CAPACITY: usize = 4096;
/// How many prior events a violation trace shows.
const TRACE_EVENTS: usize = 12;

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
    publish_clock: VClock,
}

/// The coherence oracle. One per [`Machine`]; see the module docs.
///
/// [`Machine`]: ../latr_kernel/struct.Machine.html
#[derive(Debug)]
pub struct CoherenceOracle {
    ncpus: usize,
    seq: u64,
    /// Per-context clocks: one per core plus [`Ctx::Kthread`] last.
    clocks: Vec<VClock>,
    /// Per-core shadow TLB: (pcid, vpn) → entry.
    shadow: Vec<HashMap<(u16, u64), ShadowEntry>>,
    /// Reverse index: pfn → set of (core, pcid, vpn) caching it.
    by_pfn: HashMap<u64, HashSet<(usize, u16, u64)>>,
    /// Published states still carrying pending CPU bits, keyed by
    /// `(mm, range)` so a sweep touches only its own bucket. Each bucket is
    /// in publish order and is removed once empty.
    states: HashMap<(MmId, VaRange), Vec<TrackedState>>,
    /// Initiator clock snapshots of in-flight shootdown transactions.
    txn_clocks: HashMap<u64, VClock>,
    history: VecDeque<EventRecord>,
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
        CoherenceOracle {
            ncpus,
            seq: 0,
            clocks: vec![VClock::new(nctx); nctx],
            shadow: vec![HashMap::new(); ncpus],
            by_pfn: HashMap::new(),
            states: HashMap::new(),
            txn_clocks: HashMap::new(),
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
    /// its sequence number and `ctx`'s own clock component after it. Once
    /// the ring is full the oldest record is overwritten in place, so
    /// recording allocates nothing.
    fn record(&mut self, ctx: Ctx, at: Time, kind: EventKind) -> (u64, u64) {
        let i = self.ctx_index(ctx);
        let own = self.clocks[i].tick(i);
        self.seq += 1;
        let rec = if self.history.len() == HISTORY_CAPACITY {
            let mut rec = self.history.pop_front().expect("the ring is full");
            rec.seq = self.seq;
            rec.at = at;
            rec.ctx = ctx;
            rec.clock.copy_from(&self.clocks[i]);
            rec.kind = kind;
            rec
        } else {
            EventRecord {
                seq: self.seq,
                at,
                ctx,
                clock: self.clocks[i].clone(),
                kind,
            }
        };
        self.history.push_back(rec);
        (self.seq, own)
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
        if self.closed {
            return;
        }
        if self.violation.is_some() {
            self.suppressed += 1;
            return;
        }
        let offending = self
            .history
            .back()
            .expect("the offending event was just recorded")
            .clone();
        let history: Vec<EventRecord> = self
            .history
            .iter()
            .rev()
            .filter(|e| e.seq != offending.seq && e.touches(pfn, vpn))
            .take(TRACE_EVENTS)
            .cloned()
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
        if self.clocks[i].get(core) >= filled_component {
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

    /// Describes the set of shadow entries caching `pfn`, for headlines,
    /// in numeric `(core, pcid, vpn)` order.
    fn cachers_of(&self, pfn: u64) -> String {
        let Some(set) = self.by_pfn.get(&pfn) else {
            return String::new();
        };
        let mut keys: Vec<(usize, u16, u64)> = set.iter().copied().collect();
        keys.sort_unstable();
        let parts: Vec<String> = keys
            .iter()
            .map(|&(core, pcid, vpn)| format!("cpu{core} vpn {vpn:#x} (pcid {pcid})"))
            .collect();
        parts.join(", ")
    }

    /// The smallest `(core, pcid, vpn)` still caching `pfn`: the entry a
    /// frame-reuse verdict names, the same in every process.
    fn first_cacher(&self, pfn: u64) -> Option<(usize, u16, u64)> {
        self.by_pfn.get(&pfn)?.iter().min().copied()
    }

    fn shadow_remove(&mut self, core: usize, pcid: u16, vpn: u64) {
        if let Some(e) = self.shadow[core].remove(&(pcid, vpn)) {
            if let Some(set) = self.by_pfn.get_mut(&e.pfn) {
                set.remove(&(core, pcid, vpn));
                if set.is_empty() {
                    self.by_pfn.remove(&e.pfn);
                }
            }
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
        let (_, filled_component) = self.record(
            Ctx::Cpu(cpu),
            at,
            EventKind::Fill {
                pcid,
                vpn: vpn.0,
                pfn: pfn.0,
            },
        );
        // Overwriting fill of the same page = invalidate + fill.
        self.shadow_remove(core, pcid, vpn.0);
        self.shadow[core].insert(
            (pcid, vpn.0),
            ShadowEntry {
                pfn: pfn.0,
                filled_component,
            },
        );
        self.by_pfn
            .entry(pfn.0)
            .or_default()
            .insert((core, pcid, vpn.0));
        if !allocated {
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
        let (_, own) = self.record(
            Ctx::Cpu(cpu),
            at,
            EventKind::Hit {
                pcid,
                vpn: vpn.0,
                pfn: pfn.0,
            },
        );
        // Self-heal the mirror if the fill predated the oracle.
        let entry = *self.shadow[core]
            .entry((pcid, vpn.0))
            .or_insert(ShadowEntry {
                pfn: pfn.0,
                filled_component: own,
            });
        self.by_pfn
            .entry(pfn.0)
            .or_default()
            .insert((core, pcid, vpn.0));
        if !allocated {
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
        let keys: Vec<(u16, u64)> = self.shadow[core].keys().copied().collect();
        for (pcid, vpn) in keys {
            self.shadow_remove(core, pcid, vpn);
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
        if let Some((core, pcid, vpn)) = self.first_cacher(pfn.0) {
            let entry = self.shadow[core][&(pcid, vpn)];
            let headline = format!(
                "frame {:#x} handed out again while still cached: {}",
                pfn.0,
                self.cachers_of(pfn.0)
            );
            let race = self.race_verdict(ctx, core, entry.filled_component);
            self.flag(
                ViolationKind::ReusedWhileCached,
                headline,
                race,
                Some(pfn.0),
                Some(vpn),
            );
        }
    }

    /// A frame's last reference was dropped (it is reusable from now on).
    pub fn note_free(&mut self, ctx: Ctx, pfn: Pfn, at: Time) {
        self.record(ctx, at, EventKind::Free { pfn: pfn.0 });
        if let Some((core, pcid, vpn)) = self.first_cacher(pfn.0) {
            let entry = self.shadow[core][&(pcid, vpn)];
            let headline = format!(
                "frame {:#x} freed while still cached: {}",
                pfn.0,
                self.cachers_of(pfn.0)
            );
            let race = self.race_verdict(ctx, core, entry.filled_component);
            self.flag(
                ViolationKind::FreedWhileCached,
                headline,
                race,
                Some(pfn.0),
                Some(vpn),
            );
        }
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
        let (order, _) = self.record(
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
            order,
            pending: targets,
            migration,
            publish_clock: self.clocks[initiator.index()].clone(),
        };
        self.states
            .entry((mm, range))
            .or_insert_with(|| Vec::with_capacity(1))
            .push(state);
    }

    /// `cpu` swept every active state naming it that covers `(mm, range)`:
    /// it invalidated locally and cleared its bit.
    pub fn note_sweep(&mut self, cpu: CpuId, mm: MmId, range: VaRange, at: Time) {
        self.record(Ctx::Cpu(cpu), at, EventKind::Sweep { mm, range });
        let Some(bucket) = self.states.get_mut(&(mm, range)) else {
            return;
        };
        // Joins are pointwise maxima, so their order cannot matter.
        let clock = &mut self.clocks[cpu.index()];
        bucket.retain_mut(|s| {
            if s.pending.test(cpu) {
                s.pending.clear(cpu);
                clock.join(&s.publish_clock);
            }
            !s.pending.is_empty()
        });
        if bucket.is_empty() {
            self.states.remove(&(mm, range));
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
        self.record(Ctx::Cpu(initiator), at, EventKind::IpiSend { txn, targets });
        let clock = self.clocks[initiator.index()].clone();
        self.txn_clocks.insert(txn, clock);
    }

    /// A shootdown IPI was handled on `target`.
    pub fn note_ipi_deliver(&mut self, target: CpuId, txn: u64, at: Time) {
        self.record(Ctx::Cpu(target), at, EventKind::IpiDeliver { txn });
        if let Some(c) = self.txn_clocks.get(&txn) {
            let c = c.clone();
            self.clocks[target.index()].join(&c);
        }
    }

    /// The last ACK of `txn` arrived: `initiator` now happens-after every
    /// target's handler.
    pub fn note_ack(&mut self, initiator: CpuId, from: CpuId, txn: u64, done: bool, at: Time) {
        self.record(Ctx::Cpu(initiator), at, EventKind::Ack { txn, from });
        let c = self.clocks[from.index()].clone();
        self.clocks[initiator.index()].join(&c);
        if done {
            self.txn_clocks.remove(&txn);
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
        publish_clock: VClock,
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
            self.inner.record(Ctx::Cpu(initiator), at, kind);
            self.states.push(LinearState {
                mm,
                range,
                pending: targets,
                migration,
                publish_clock: self.inner.clocks[initiator.index()].clone(),
            });
        }

        pub(super) fn note_sweep(&mut self, cpu: CpuId, mm: MmId, range: VaRange, at: Time) {
            self.inner
                .record(Ctx::Cpu(cpu), at, EventKind::Sweep { mm, range });
            let mut joins: Vec<VClock> = Vec::new();
            self.states.retain_mut(|s| {
                if s.mm == mm && s.range == range && s.pending.test(cpu) {
                    s.pending.clear(cpu);
                    joins.push(s.publish_clock.clone());
                }
                !s.pending.is_empty()
            });
            for c in joins {
                self.inner.clocks[cpu.index()].join(&c);
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
        let oldest = o.history.front().expect("full");
        assert_eq!(oldest.seq, 4);
        assert_eq!(oldest.kind, EventKind::Invalidate { pcid: 0, vpn: 3 });
        let newest = o.history.back().expect("full");
        assert_eq!(newest.seq, HISTORY_CAPACITY as u64 + 3);
        assert_eq!(newest.clock, o.clocks[0]);
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
        assert!(o.clocks[0].dominates(&o.clocks[1]));
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
                proptest::prop_assert_eq!(&keyed.clocks, &reference.inner.clocks, "clocks after step {}", step);
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
