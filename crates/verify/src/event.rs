//! The oracle's event vocabulary.
//!
//! Every translation-coherence-relevant action in the machine's event loop
//! is mirrored as one [`EventKind`] record in a bounded history ring. When
//! a check fires, the offending record plus the history establishing (or
//! failing to establish) the happens-before edges become the violation
//! trace, each as an [`EventRecord`] with its vector clock rebuilt.

use crate::clock::VClock;
use latr_arch::{CpuId, CpuMask};
use latr_mem::{MmId, VaRange, Vpn};
use latr_sim::Time;
use std::fmt;

/// The execution context an event is attributed to: a core, or the
/// background reclamation thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ctx {
    /// A CPU core.
    Cpu(CpuId),
    /// The background reclamation kthread (Latr's `ReclaimTick` handler).
    Kthread,
}

impl fmt::Display for Ctx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ctx::Cpu(c) => write!(f, "{c}"),
            Ctx::Kthread => write!(f, "kreclaimd"),
        }
    }
}

/// One coherence-relevant action.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A TLB fill: a translation was installed.
    Fill {
        /// PCID tag of the entry.
        pcid: u16,
        /// Virtual page.
        vpn: u64,
        /// Frame the translation resolves to.
        pfn: u64,
    },
    /// An access served from a cached translation (TLB hit).
    Hit {
        /// PCID tag of the entry.
        pcid: u16,
        /// Virtual page.
        vpn: u64,
        /// Frame the cached translation resolves to.
        pfn: u64,
    },
    /// A single-page invalidation (`INVLPG`).
    Invalidate {
        /// PCID tag.
        pcid: u16,
        /// Virtual page.
        vpn: u64,
    },
    /// A full TLB flush (CR3 write).
    FlushAll,
    /// A capacity eviction inside the TLB (the entry silently fell out).
    Evict {
        /// PCID tag.
        pcid: u16,
        /// Virtual page.
        vpn: u64,
        /// Frame the evicted translation resolved to.
        pfn: u64,
    },
    /// A physical frame left the free list.
    Alloc {
        /// The frame.
        pfn: u64,
    },
    /// A physical frame's last reference was dropped (back on the free
    /// list, eligible for reuse).
    Free {
        /// The frame.
        pfn: u64,
    },
    /// A Latr state was published for remote cores to sweep.
    Publish {
        /// Address space the range belongs to.
        mm: MmId,
        /// The published VA range.
        range: VaRange,
        /// Cores that must invalidate before the state retires.
        targets: CpuMask,
        /// Whether this is a migration state (§4.3) rather than a free.
        migration: bool,
    },
    /// A core swept a published state (invalidated locally, cleared its
    /// bit).
    Sweep {
        /// Address space of the swept state.
        mm: MmId,
        /// VA range of the swept state.
        range: VaRange,
    },
    /// A NUMA hint fault was allowed to proceed with migration.
    MigrationProceed {
        /// Address space.
        mm: MmId,
        /// The faulting page.
        vpn: Vpn,
    },
    /// A synchronous shootdown's IPIs were sent.
    IpiSend {
        /// Transaction id.
        txn: u64,
        /// The targeted cores.
        targets: CpuMask,
    },
    /// A shootdown IPI was handled on a remote core.
    IpiDeliver {
        /// Transaction id.
        txn: u64,
    },
    /// A shootdown ACK arrived back at the initiator.
    Ack {
        /// Transaction id.
        txn: u64,
        /// The acknowledging core.
        from: CpuId,
    },
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            EventKind::Fill { pcid, vpn, pfn } => {
                write!(f, "TLB fill vpn {vpn:#x} -> pfn {pfn:#x} (pcid {pcid})")
            }
            EventKind::Hit { pcid, vpn, pfn } => {
                write!(f, "TLB hit vpn {vpn:#x} -> pfn {pfn:#x} (pcid {pcid})")
            }
            EventKind::Invalidate { pcid, vpn } => {
                write!(f, "invalidate vpn {vpn:#x} (pcid {pcid})")
            }
            EventKind::FlushAll => write!(f, "full TLB flush"),
            EventKind::Evict { pcid, vpn, pfn } => {
                write!(
                    f,
                    "capacity-evict vpn {vpn:#x} -> pfn {pfn:#x} (pcid {pcid})"
                )
            }
            EventKind::Alloc { pfn } => write!(f, "frame {pfn:#x} allocated"),
            EventKind::Free { pfn } => write!(f, "frame {pfn:#x} freed (refcount 0)"),
            EventKind::Publish {
                mm,
                range,
                targets,
                migration,
            } => write!(
                f,
                "publish {} state mm{} {range:?} targeting {} core(s)",
                if migration { "migration" } else { "free" },
                mm.0,
                targets.count()
            ),
            EventKind::Sweep { mm, range } => {
                write!(f, "sweep state mm{} {range:?}", mm.0)
            }
            EventKind::MigrationProceed { mm, vpn } => {
                write!(f, "migration fault proceeds mm{} vpn {:#x}", mm.0, vpn.0)
            }
            EventKind::IpiSend { txn, targets } => {
                write!(f, "IPI multicast txn#{txn} to {} core(s)", targets.count())
            }
            EventKind::IpiDeliver { txn } => write!(f, "IPI handled txn#{txn}"),
            EventKind::Ack { txn, from } => write!(f, "ACK txn#{txn} from {from}"),
        }
    }
}

impl EventKind {
    /// Whether this event is relevant when explaining an incident about
    /// `pfn` and/or `vpn`.
    pub fn touches(&self, pfn: Option<u64>, vpn: Option<u64>) -> bool {
        match *self {
            EventKind::Fill { vpn: v, pfn: p, .. }
            | EventKind::Hit { vpn: v, pfn: p, .. }
            | EventKind::Evict { vpn: v, pfn: p, .. } => pfn == Some(p) || vpn == Some(v),
            EventKind::Invalidate { vpn: v, .. } => vpn == Some(v),
            EventKind::FlushAll => false,
            EventKind::Alloc { pfn: p } | EventKind::Free { pfn: p } => pfn == Some(p),
            EventKind::Publish { range, .. } | EventKind::Sweep { range, .. } => {
                vpn.is_some_and(|v| range.contains(Vpn(v)))
            }
            EventKind::MigrationProceed { vpn: v, .. } => vpn == Some(v.0),
            EventKind::IpiSend { .. } | EventKind::IpiDeliver { .. } | EventKind::Ack { .. } => {
                false
            }
        }
    }
}

/// One event of a violation report.
#[derive(Clone, Debug)]
pub struct EventRecord {
    /// Global sequence number (total order of oracle observations).
    pub seq: u64,
    /// Simulated time of the event.
    pub at: Time,
    /// The context the event is attributed to.
    pub ctx: Ctx,
    /// The context's vector clock *after* the event.
    pub clock: VClock,
    /// What happened.
    pub kind: EventKind,
}

impl fmt::Display for EventRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[seq {} @ {}] {}: {} vclock {}",
            self.seq, self.at, self.ctx, self.kind, self.clock
        )
    }
}
