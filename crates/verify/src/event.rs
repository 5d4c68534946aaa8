//! The oracle's event vocabulary.
//!
//! Every translation-coherence-relevant action in the machine's event loop
//! reaches the oracle as one [`Note`], and the oracle keeps the same value
//! in a bounded history ring. When a check fires, the offending record
//! plus the history establishing (or failing to establish) the
//! happens-before edges become the violation trace, each as an
//! [`EventRecord`] with its vector clock rebuilt.

use crate::clock::VClock;
use latr_arch::CpuId;
use latr_mem::{MmId, Pfn, VaRange, Vpn};
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

/// One coherence-relevant action, as the kernel observes it. The kernel
/// builds it, the pipe batches it, the shadow applies it and the history
/// ring keeps it. A publish and an IPI send also name their target cores;
/// that 32-byte [`CpuMask`](latr_arch::CpuMask) travels beside the note
/// ([`CoherenceOracle::note`](crate::CoherenceOracle::note)), so a note
/// stays 24 bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Note {
    /// A TLB fill: a translation was installed into `cpu`'s TLB.
    Fill {
        /// The filling core.
        cpu: CpuId,
        /// PCID tag of the entry.
        pcid: u16,
        /// Virtual page.
        vpn: Vpn,
        /// Frame the translation resolves to.
        pfn: Pfn,
        /// The allocator's verdict on the frame at this instant.
        allocated: bool,
    },
    /// An access served from `cpu`'s TLB without a walk. A shadow entry
    /// for the page wins over `pfn`, which then only labels the record
    /// and the report.
    Hit {
        /// The accessing core.
        cpu: CpuId,
        /// PCID tag of the entry.
        pcid: u16,
        /// Virtual page.
        vpn: Vpn,
        /// Frame the cached translation resolves to.
        pfn: Pfn,
        /// The allocator's verdict on the frame at this instant.
        allocated: bool,
    },
    /// A single-page invalidation (`INVLPG`).
    Invalidate {
        /// The invalidating core.
        cpu: CpuId,
        /// PCID tag.
        pcid: u16,
        /// Virtual page.
        vpn: Vpn,
    },
    /// A full TLB flush (CR3 write).
    FlushAll {
        /// The flushing core.
        cpu: CpuId,
    },
    /// A capacity eviction inside the TLB (the entry silently fell out).
    Evict {
        /// The core whose TLB evicted.
        cpu: CpuId,
        /// PCID tag.
        pcid: u16,
        /// Virtual page.
        vpn: Vpn,
        /// Frame the evicted translation resolved to.
        pfn: Pfn,
    },
    /// A physical frame left the free list.
    Alloc {
        /// The allocating context.
        ctx: Ctx,
        /// The frame.
        pfn: Pfn,
    },
    /// A physical frame's last reference was dropped (back on the free
    /// list, eligible for reuse).
    Free {
        /// The freeing context.
        ctx: Ctx,
        /// The frame.
        pfn: Pfn,
    },
    /// A Latr state was published for its target cores to sweep.
    Publish {
        /// The publishing core.
        initiator: CpuId,
        /// Address space the range belongs to.
        mm: MmId,
        /// The published VA range.
        range: VaRange,
        /// Whether this is a migration state (§4.3) rather than a free.
        migration: bool,
    },
    /// `cpu` swept every active state naming it that covers `(mm, range)`:
    /// it invalidated locally and cleared its bit.
    Sweep {
        /// The sweeping core.
        cpu: CpuId,
        /// Address space of the swept state.
        mm: MmId,
        /// VA range of the swept state.
        range: VaRange,
    },
    /// A NUMA hint fault was allowed to proceed with migration.
    MigrationProceed {
        /// The faulting core.
        cpu: CpuId,
        /// Address space.
        mm: MmId,
        /// The faulting page.
        vpn: Vpn,
    },
    /// A synchronous shootdown's IPIs were multicast.
    IpiSend {
        /// The initiating core.
        initiator: CpuId,
        /// Transaction id.
        txn: u64,
    },
    /// A shootdown IPI was handled on a remote core.
    IpiDeliver {
        /// The handling core.
        target: CpuId,
        /// Transaction id.
        txn: u64,
    },
    /// A shootdown ACK arrived back at the initiator, which now
    /// happens-after the acknowledging core's handler.
    Ack {
        /// The initiating core.
        initiator: CpuId,
        /// The acknowledging core.
        from: CpuId,
        /// Transaction id.
        txn: u64,
        /// Whether this was the transaction's last ACK.
        done: bool,
    },
}

impl Note {
    /// The context the note is attributed to.
    pub fn ctx(&self) -> Ctx {
        match *self {
            Note::Alloc { ctx, .. } | Note::Free { ctx, .. } => ctx,
            Note::Fill { cpu, .. }
            | Note::Hit { cpu, .. }
            | Note::Invalidate { cpu, .. }
            | Note::FlushAll { cpu }
            | Note::Evict { cpu, .. }
            | Note::Publish { initiator: cpu, .. }
            | Note::Sweep { cpu, .. }
            | Note::MigrationProceed { cpu, .. }
            | Note::IpiSend { initiator: cpu, .. }
            | Note::IpiDeliver { target: cpu, .. }
            | Note::Ack { initiator: cpu, .. } => Ctx::Cpu(cpu),
        }
    }

    /// Whether this event is relevant when explaining an incident about
    /// `pfn` and/or `vpn`.
    pub fn touches(&self, pfn: Option<Pfn>, vpn: Option<Vpn>) -> bool {
        match *self {
            Note::Fill { vpn: v, pfn: p, .. }
            | Note::Hit { vpn: v, pfn: p, .. }
            | Note::Evict { vpn: v, pfn: p, .. } => pfn == Some(p) || vpn == Some(v),
            Note::Invalidate { vpn: v, .. } | Note::MigrationProceed { vpn: v, .. } => {
                vpn == Some(v)
            }
            Note::FlushAll { .. } => false,
            Note::Alloc { pfn: p, .. } | Note::Free { pfn: p, .. } => pfn == Some(p),
            Note::Publish { range, .. } | Note::Sweep { range, .. } => {
                vpn.is_some_and(|v| range.contains(v))
            }
            Note::IpiSend { .. } | Note::IpiDeliver { .. } | Note::Ack { .. } => false,
        }
    }

    /// Writes what happened; `cores` is how many cores a publish or an
    /// IPI send targets.
    fn describe(&self, f: &mut fmt::Formatter<'_>, cores: u16) -> fmt::Result {
        match *self {
            Note::Fill { pcid, vpn, pfn, .. } => write!(
                f,
                "TLB fill vpn {:#x} -> pfn {:#x} (pcid {pcid})",
                vpn.0, pfn.0
            ),
            Note::Hit { pcid, vpn, pfn, .. } => write!(
                f,
                "TLB hit vpn {:#x} -> pfn {:#x} (pcid {pcid})",
                vpn.0, pfn.0
            ),
            Note::Invalidate { pcid, vpn, .. } => {
                write!(f, "invalidate vpn {:#x} (pcid {pcid})", vpn.0)
            }
            Note::FlushAll { .. } => write!(f, "full TLB flush"),
            Note::Evict { pcid, vpn, pfn, .. } => write!(
                f,
                "capacity-evict vpn {:#x} -> pfn {:#x} (pcid {pcid})",
                vpn.0, pfn.0
            ),
            Note::Alloc { pfn, .. } => write!(f, "frame {:#x} allocated", pfn.0),
            Note::Free { pfn, .. } => write!(f, "frame {:#x} freed (refcount 0)", pfn.0),
            Note::Publish {
                mm,
                range,
                migration,
                ..
            } => write!(
                f,
                "publish {} state mm{} {range:?} targeting {cores} core(s)",
                if migration { "migration" } else { "free" },
                mm.0,
            ),
            Note::Sweep { mm, range, .. } => write!(f, "sweep state mm{} {range:?}", mm.0),
            Note::MigrationProceed { mm, vpn, .. } => {
                write!(f, "migration fault proceeds mm{} vpn {:#x}", mm.0, vpn.0)
            }
            Note::IpiSend { txn, .. } => write!(f, "IPI multicast txn#{txn} to {cores} core(s)"),
            Note::IpiDeliver { txn, .. } => write!(f, "IPI handled txn#{txn}"),
            Note::Ack { txn, from, .. } => write!(f, "ACK txn#{txn} from {from}"),
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
    /// The context's vector clock *after* the event.
    pub clock: VClock,
    /// What happened.
    pub note: Note,
    /// How many cores a publish or an IPI send targeted; 0 for the
    /// other kinds.
    pub cores: u16,
}

impl fmt::Display for EventRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[seq {} @ {}] {}: ", self.seq, self.at, self.note.ctx())?;
        self.note.describe(f, self.cores)?;
        write!(f, " vclock {}", self.clock)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each kind's line in a report, with fixed fields: the text of the
    /// kinds no golden report happens to show is pinned here.
    #[test]
    fn every_kind_renders_its_line() {
        let (cpu, mm, range) = (CpuId(2), MmId(3), VaRange::new(Vpn(0x40), 2));
        let (pcid, vpn, pfn, txn) = (1, Vpn(0x10), Pfn(0x2a), 9);
        let notes = [
            Note::Fill {
                cpu,
                pcid,
                vpn,
                pfn,
                allocated: true,
            },
            Note::Hit {
                cpu,
                pcid,
                vpn,
                pfn,
                allocated: true,
            },
            Note::Invalidate { cpu, pcid, vpn },
            Note::FlushAll { cpu },
            Note::Evict {
                cpu,
                pcid,
                vpn,
                pfn,
            },
            Note::Alloc {
                ctx: Ctx::Cpu(cpu),
                pfn,
            },
            Note::Free {
                ctx: Ctx::Cpu(cpu),
                pfn,
            },
            Note::Publish {
                initiator: cpu,
                mm,
                range,
                migration: false,
            },
            Note::Sweep { cpu, mm, range },
            Note::MigrationProceed {
                cpu,
                mm,
                vpn: Vpn(0x41),
            },
            Note::IpiSend {
                initiator: cpu,
                txn,
            },
            Note::IpiDeliver { target: cpu, txn },
            Note::Ack {
                initiator: cpu,
                from: CpuId(1),
                txn,
                done: true,
            },
        ];
        let lines: Vec<String> = notes
            .into_iter()
            .map(|note| {
                let record = EventRecord {
                    seq: 7,
                    at: Time::from_ns(250),
                    clock: VClock(vec![1, 0, 5]),
                    note,
                    cores: 2,
                };
                record.to_string()
            })
            .collect();
        assert_eq!(
            lines,
            [
                "[seq 7 @ 250ns] cpu2: TLB fill vpn 0x10 -> pfn 0x2a (pcid 1) vclock [1 0 5]",
                "[seq 7 @ 250ns] cpu2: TLB hit vpn 0x10 -> pfn 0x2a (pcid 1) vclock [1 0 5]",
                "[seq 7 @ 250ns] cpu2: invalidate vpn 0x10 (pcid 1) vclock [1 0 5]",
                "[seq 7 @ 250ns] cpu2: full TLB flush vclock [1 0 5]",
                "[seq 7 @ 250ns] cpu2: capacity-evict vpn 0x10 -> pfn 0x2a (pcid 1) vclock [1 0 5]",
                "[seq 7 @ 250ns] cpu2: frame 0x2a allocated vclock [1 0 5]",
                "[seq 7 @ 250ns] cpu2: frame 0x2a freed (refcount 0) vclock [1 0 5]",
                "[seq 7 @ 250ns] cpu2: publish free state mm3 [0x40..0x42) targeting 2 core(s) vclock [1 0 5]",
                "[seq 7 @ 250ns] cpu2: sweep state mm3 [0x40..0x42) vclock [1 0 5]",
                "[seq 7 @ 250ns] cpu2: migration fault proceeds mm3 vpn 0x41 vclock [1 0 5]",
                "[seq 7 @ 250ns] cpu2: IPI multicast txn#9 to 2 core(s) vclock [1 0 5]",
                "[seq 7 @ 250ns] cpu2: IPI handled txn#9 vclock [1 0 5]",
                "[seq 7 @ 250ns] cpu2: ACK txn#9 from cpu1 vclock [1 0 5]",
            ]
        );
    }
}
