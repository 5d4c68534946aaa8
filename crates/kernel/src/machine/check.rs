//! The invariant checkers and the run fingerprint.

use super::Machine;
use crate::event::Event;
use latr_arch::CpuId;
use latr_mem::{Pfn, Vpn};
use latr_sim::Time;

/// FNV-1a parameters for the incremental event-stream fingerprint.
pub(super) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

#[inline]
fn fold_u64(h: &mut u64, x: u64) {
    // Word-at-a-time polynomial accumulation: one multiply per word
    // instead of the eight dependent byte rounds FNV-1a would cost on
    // the per-event path. Each step is a bijection of the running state
    // (odd multiplier, then add), so a differing word can never cancel
    // out of the fold; `fold_finish` adds the avalanche when the value
    // is rendered.
    *h = h.wrapping_mul(FNV_PRIME).wrapping_add(x);
}

/// Finalizer applied when the running fold is *read*: two xor-shift
/// multiply rounds (splitmix64's) so low-entropy tails still flip high
/// and low digits of the rendered value.
fn fold_finish(h: u64) -> u64 {
    let mut z = h.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Folds one delivered event into the running fingerprint: the delivery
/// time plus a compact `(tag, a, b, c)` encoding of the payload. The
/// event queue delivers the heap reference's `(time, id)` sequence
/// (`latr-sim`'s `backends_agree_on_random_interleavings`), so the fold
/// is the one that queue would give.
pub(super) fn fold_event(fold: &mut u64, time: Time, event: &Event) {
    let (tag, a, b, c) = match *event {
        Event::TaskStep(t) => (1, t.0 as u64, 0, 0),
        Event::OpComplete {
            cpu,
            task,
            generation,
        } => (2, cpu.0 as u64, task.0 as u64, generation),
        Event::SchedTick(cpu) => (3, cpu.0 as u64, 0, 0),
        Event::IpiDeliver { target, txn } => (4, target.0 as u64, txn.0, 0),
        Event::AckArrive { txn, from } => (5, txn.0, from.0 as u64, 0),
        Event::TxnRetry(txn) => (6, txn.0, 0, 0),
        Event::ReclaimTick => (7, 0, 0, 0),
        Event::NumaScan(mm) => (8, mm.0 as u64, 0, 0),
        Event::NumaFaultRetry { task, vpn } => (9, task.0 as u64, vpn, 0),
        Event::PolicyTimer(token) => (10, token, 0, 0),
        Event::LockGranted(t) => (11, t.0 as u64, 0, 0),
    };
    fold_u64(fold, time.as_ns());
    fold_u64(fold, tag);
    fold_u64(fold, a);
    fold_u64(fold, b);
    fold_u64(fold, c);
}

impl Machine {
    /// Checks the paper's central invariant (§3): every translation cached
    /// in any TLB must point at a frame that is still allocated (a
    /// refcount above zero). Returns the first violation, or `None` when
    /// the machine is consistent.
    pub fn check_reclamation_invariant(&self) -> Option<InvariantViolation> {
        for core in &self.cores {
            for entry in core.tlb.iter_entries() {
                if !self.frames.is_allocated(Pfn(entry.pfn)) {
                    return Some(InvariantViolation::StaleTranslationToFreedFrame {
                        cpu: core.id,
                        vpn: entry.vpn,
                        pfn: entry.pfn,
                    });
                }
            }
        }
        None
    }

    /// Checks that no TLB disagrees with the page tables about a *present*
    /// mapping's target frame — stale entries may only point at frames that
    /// are still referenced (that is the Latr relaxation), but a *present*
    /// PTE must never be cached with a different frame.
    pub fn check_mapping_coherence(&self) -> Option<InvariantViolation> {
        // The pcid → address-space relation is maintained persistently by
        // `create_process` (entries × mms would blow up on 120-core runs
        // where the checkers execute inside test loops).
        for core in &self.cores {
            for entry in core.tlb.iter_entries() {
                for &i in self.pcid_mms.get(entry.pcid as usize).into_iter().flatten() {
                    let i = i as usize;
                    if let Some(pte) = self.mms[i].page_table.lookup(Vpn(entry.vpn)) {
                        if !pte.flags.numa_hint && pte.pfn.0 != entry.pfn {
                            return Some(InvariantViolation::MappingMismatch {
                                cpu: core.id,
                                vpn: entry.vpn,
                                cached: entry.pfn,
                                mapped: pte.pfn.0,
                            });
                        }
                    }
                }
            }
        }
        None
    }

    /// Number of events the queue has delivered so far — the simulator's
    /// raw unit of work, reported by the hot-path benchmarks.
    pub fn events_delivered(&self) -> u64 {
        self.queue.delivered()
    }

    /// Fingerprints the run for determinism and differential comparisons:
    /// final clock, delivered-event count, the event-stream fold (a
    /// polynomial fold over every delivered event's `(time, payload)`,
    /// updated in O(1) per event), every counter, every histogram
    /// summary, and the rendered trace ring. Two runs are event-identical
    /// iff their fingerprints are byte-identical — counters and histograms
    /// print in name order (the metric table's order), so the rendering is
    /// stable across processes and builds.
    pub fn fingerprint(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "end={}", self.now().as_ns());
        let _ = writeln!(out, "events={}", self.queue.delivered());
        let _ = writeln!(out, "fold={:016x}", fold_finish(self.fold));
        for (name, value) in self.stats.counters() {
            let _ = writeln!(out, "{name}={value}");
        }
        for (name, hist) in self.stats.histograms() {
            let _ = writeln!(out, "{name}: {}", hist.summary());
        }
        for entry in self.trace.iter() {
            let _ = writeln!(out, "{entry}");
        }
        out
    }
}

/// A machine-level safety violation found by the invariant checkers.
///
/// The [`Display`](std::fmt::Display) form matches the strings the checkers
/// used to return directly, so assertion messages (and tests grepping
/// them) are unchanged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InvariantViolation {
    /// A TLB caches a translation to a frame whose refcount reached zero —
    /// the §3 reclamation invariant is broken and the core could access
    /// reused memory.
    StaleTranslationToFreedFrame {
        /// The core whose TLB holds the stale entry.
        cpu: CpuId,
        /// The cached virtual page number.
        vpn: u64,
        /// The freed frame it still points at.
        pfn: u64,
    },
    /// A TLB disagrees with a *present* PTE about the target frame (stale
    /// entries may only point at still-referenced frames — that is the
    /// Latr relaxation — but never shadow a live remapping).
    MappingMismatch {
        /// The core whose TLB holds the conflicting entry.
        cpu: CpuId,
        /// The cached virtual page number.
        vpn: u64,
        /// The frame the TLB caches.
        cached: u64,
        /// The frame the PTE actually maps.
        mapped: u64,
    },
}

impl std::fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            InvariantViolation::StaleTranslationToFreedFrame { cpu, vpn, pfn } => {
                write!(f, "{cpu} caches vpn {vpn:#x} -> freed frame {pfn:#x}")
            }
            InvariantViolation::MappingMismatch {
                cpu,
                vpn,
                cached,
                mapped,
            } => {
                write!(
                    f,
                    "{cpu} caches vpn {vpn:#x} -> {cached:#x} but PTE says {mapped:#x}"
                )
            }
        }
    }
}
