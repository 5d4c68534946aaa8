//! The machine's trace: typed records in a preallocated ring, and the one
//! renderer that turns them into text.
//!
//! A producer hands [`Machine::emit`](crate::Machine::emit) a
//! [`TraceRecord`]; the machine stamps it with the current instant and
//! stores it in its [`TraceRing`]. A record is `Copy` and carries only
//! the fields its line prints, and the ring allocates its slots once, so
//! recording allocates nothing, whether tracing is on or off. Text exists
//! only when someone reads the ring: [`TraceEntry`]'s `Display`, driven
//! by the `trace_records!` table below, is the one place a record becomes
//! a line. The run fingerprint and the paper's Fig. 2/3 timelines both
//! render through it.

use latr_arch::CpuId;
use latr_mem::{Pressure, VaRange, Vpn};
use latr_sim::Time;
use std::fmt;

/// Why a Latr state is being finished by IPI: the watchdog and memory
/// pressure share one mechanism (owner-local sweep plus targeted IPIs)
/// but keep separate books.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Escalation {
    /// The sweep watchdog: the state's bitmask outlived `watchdog_ticks`.
    Watchdog,
    /// Memory pressure wants the gated package's frames back now.
    Pressure,
}

/// Why the Latr policy's adaptive fallback entered synchronous mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncCause {
    /// A queue's occupancy reached the high-water mark after a publish.
    Occupancy,
    /// A publish found its queue full, or a fault plan forced it to.
    Overflow,
    /// A node's free frames fell below the min watermark.
    MinWatermark,
}

/// Which reclamation path released parked frames.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reclaimer {
    /// The background reclamation tick.
    Background,
    /// An allocation stall's direct reclaim.
    Direct,
}

/// Declares [`TraceRecord`] from one row per kind of line: the variant
/// with its fields, named in order, then the line's tag and its message
/// (a format string over the field names, plus any extra arguments).
macro_rules! trace_records {
    ($($(#[doc = $doc:literal])* $variant:ident $(($($field:ident: $ty:ty),*))?
        => $tag:literal, $fmt:literal $(, $arg:expr)*;)*) => {
        /// One traced event. Each variant is one kind of trace line and
        /// carries exactly the fields that line prints.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum TraceRecord {
            $($(#[doc = $doc])* $variant $(($($ty),*))?,)*
        }

        impl TraceRecord {
            /// The subsystem tag the line starts with.
            fn tag(self) -> &'static str {
                match self {
                    $(TraceRecord::$variant { .. } => $tag,)*
                }
            }

            /// Writes the line's message, everything after the tag.
            fn message(self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                match self {
                    $(TraceRecord::$variant $(($($field),*))? => write!(f, $fmt $(, $arg)*),)*
                }
            }
        }
    };
}

trace_records! {
    /// A synchronous shootdown round leaves `initiator` for `cores` cores.
    Multicast(initiator: CpuId, cores: usize)
        => "ipi", "{initiator} multicasts shootdown to {cores} cores";
    /// The fault injector dropped the shootdown IPI to `target`.
    IpiDropped(target: CpuId) => "fault", "IPI to {target} dropped";
    /// The retransmit timer re-multicasts a round to the `cores` cores
    /// that still owe an ACK.
    Retransmit(initiator: CpuId, cores: usize)
        => "fault", "{initiator} retransmits shootdown to {cores} cores";
    /// `target` runs the shootdown IPI handler over `pages` pages.
    IpiHandled(target: CpuId, pages: usize)
        => "ipi", "{target} handles shootdown IPI ({pages} pages)";
    /// A node crossed a watermark; `free` frames are left on it.
    PressureEdge(node: u8, from: Pressure, to: Pressure, free: usize)
        => "pressure", "node{node} {from:?} -> {to:?} ({free} frames free)";
    /// Every free list was empty: `cpu` stalled while the policy's direct
    /// reclaim released `released` frames on `node`.
    AllocStall(cpu: CpuId, node: u8, released: u64)
        => "pressure", "{cpu} alloc stall on node{node} (direct reclaim released {released} frames)";
    /// An injected allocation burst grabbed `frames` frames on `node`.
    BurstGrab(frames: usize, node: u8)
        => "fault", "allocation burst grabs {frames} frames on node{node}";
    /// An injected allocation burst's window ended.
    BurstReturn(frames: usize, node: u8)
        => "fault", "allocation burst returns {frames} frames to node{node}";
    /// A free published a Latr state into `slot` instead of sending IPIs;
    /// `cores` cores must sweep it.
    FreeSaved(initiator: CpuId, slot: usize, range: VaRange, cores: usize)
        => "latr", "{initiator} saves state[{slot}] {range:?} for {cores} cores (free)";
    /// An AutoNUMA hint-unmap published a migration state into `slot`,
    /// leaving the PTE for the first sweeper.
    MigrationSaved(cpu: CpuId, slot: usize, vpn: Vpn)
        => "latr", "{cpu} saves state[{slot}] {vpn:?} (migration, PTE untouched)";
    /// `cpu`'s sweep found a migration state first and cleared the PTE.
    SweepClearsPte(cpu: CpuId, range: VaRange)
        => "latr", "{cpu} sweeps {range:?}: first core, clears PTE";
    /// `cpu`'s sweep found a state naming it and invalidated locally.
    Sweep(cpu: CpuId, range: VaRange)
        => "latr", "{cpu} sweeps {range:?}: local TLB invalidation";
    /// A state is being finished by force: `laggards` cores get IPIs.
    Escalated(why: Escalation, state: u64, range: VaRange, laggards: usize)
        => "latr", "{} state {state} {range:?}: {laggards} laggard cores get IPIs",
        match why {
            Escalation::Watchdog => "watchdog escalates",
            Escalation::Pressure => "memory pressure expedites",
        };
    /// An escalation round's last ACK arrived and retired its state.
    RoundComplete(why: Escalation, state: u64)
        => "latr", "{} round for state {state} complete; state retired",
        match why {
            Escalation::Watchdog => "watchdog",
            Escalation::Pressure => "pressure expedition",
        };
    /// The adaptive fallback started routing shootdowns synchronously.
    SyncEnter(cause: SyncCause) => "latr", "adaptive fallback enters sync mode ({})",
        match cause {
            SyncCause::Occupancy => "queue occupancy above high-water mark",
            SyncCause::Overflow => "state queue overflow",
            SyncCause::MinWatermark => "free frames below the min watermark",
        };
    /// The adaptive fallback returned to lazy mode.
    SyncExit => "latr", "adaptive fallback returns to lazy mode (queues drained)";
    /// Reclamation released a parked package of `frames` frames, and the
    /// virtual range it held, if any.
    Frees(by: Reclaimer, frames: u64, va: Option<VaRange>)
        => "latr", "{} frees {frames} frames{}",
        match by {
            Reclaimer::Background => "background reclaim",
            Reclaimer::Direct => "direct reclaim",
        },
        PlusVa(va);
}

/// Renders a released package's virtual range as `" + VA [..)"`, or
/// nothing.
struct PlusVa(Option<VaRange>);

impl fmt::Display for PlusVa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Some(r) => write!(f, " + VA {r:?}"),
            None => Ok(()),
        }
    }
}

/// One recorded event: its instant and its record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEntry {
    /// When the event happened.
    pub time: Time,
    /// What happened.
    pub record: TraceRecord,
}

impl fmt::Display for TraceEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (time, tag) = (self.time.to_string(), self.record.tag());
        write!(f, "[{time:>12}] {tag:<6} ")?;
        self.record.message(f)
    }
}

/// A bounded ring of [`TraceEntry`] slots, allocated once when the
/// machine is built: it keeps the most recent `capacity` entries, and a
/// push into a full ring overwrites the oldest. Capacity 0 turns tracing
/// off, so the hot path pays only a branch. Only
/// [`Machine::emit`](crate::Machine::emit) pushes, so every entry is
/// stamped with the simulated time it happened at.
#[derive(Debug)]
pub struct TraceRing {
    slots: Vec<TraceEntry>,
    capacity: usize,
    /// The oldest entry's slot once the ring is full (0 until then).
    head: usize,
}

impl TraceRing {
    /// Creates a ring retaining the most recent `capacity` entries, with
    /// all of its slots allocated up front.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        TraceRing {
            slots: Vec::with_capacity(capacity),
            capacity,
            head: 0,
        }
    }

    /// Whether pushes are recorded.
    pub(crate) fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Records `record` at `time`, overwriting the oldest entry when
    /// full. A no-op when disabled; never allocates. Cold: the benchmark
    /// runs trace nothing, and an inlined push grows the sweep loop.
    #[cold]
    pub(crate) fn push(&mut self, time: Time, record: TraceRecord) {
        let entry = TraceEntry { time, record };
        if self.slots.len() < self.capacity {
            self.slots.push(entry);
        } else if self.capacity > 0 {
            self.slots[self.head] = entry;
            self.head = (self.head + 1) % self.capacity;
        }
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no entries are retained.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Iterates over retained entries, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEntry> {
        let (newer, older) = self.slots.split_at(self.head);
        older.iter().chain(newer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dropped(cpu: u16) -> TraceRecord {
        TraceRecord::IpiDropped(CpuId(cpu))
    }

    #[test]
    fn disabled_ring_drops_everything() {
        let mut ring = TraceRing::with_capacity(0);
        ring.push(Time::ZERO, dropped(0));
        assert!(ring.is_empty());
        assert!(!ring.is_enabled());
    }

    #[test]
    fn ring_evicts_oldest_and_keeps_its_slots() {
        let mut ring = TraceRing::with_capacity(3);
        let slots = ring.slots.as_ptr();
        for i in 0..5 {
            ring.push(Time::from_ns(i), dropped(i as u16));
        }
        assert_eq!(ring.len(), 3);
        let times: Vec<u64> = ring.iter().map(|e| e.time.as_ns()).collect();
        assert_eq!(times, vec![2, 3, 4]);
        assert_eq!(ring.slots.as_ptr(), slots, "the ring never reallocates");
    }

    #[test]
    fn entry_renders_time_tag_and_message() {
        let frees = |va| TraceEntry {
            time: Time::from_ns(1500),
            record: TraceRecord::Frees(Reclaimer::Direct, 3, va),
        };
        assert_eq!(
            frees(Some(VaRange::new(Vpn(0x10), 2))).to_string(),
            "[     1.500us] latr   direct reclaim frees 3 frames + VA [0x10..0x12)"
        );
        assert_eq!(
            frees(None).to_string(),
            "[     1.500us] latr   direct reclaim frees 3 frames"
        );
    }
}
