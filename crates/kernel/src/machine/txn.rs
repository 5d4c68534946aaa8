//! Synchronous shootdown transactions (IPI delivery, ACKs, retransmits)
//! and the release of staged reclaim packages.

use super::Machine;
use crate::event::Event;
use crate::shootdown::{FlushOutcome, ShootdownTxn, TxnId};
use crate::task::TaskState;
use crate::trace::TraceRecord;
use latr_arch::{CpuId, CpuMask};
use latr_faults::{FaultInjector, IpiFault};
use latr_mem::{MmId, Pfn, VaRange, Vpn};
use latr_sim::{Nanos, Time};
use latr_verify::Note;
use std::collections::VecDeque;

/// A run of frames in the machine's reclaim FIFO: the `len` frames
/// staged from absolute position `start` on. Copying a span copies no
/// frames.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FrameSpan {
    /// Absolute FIFO position of the first frame.
    pub start: u64,
    /// Frames in the span.
    pub len: u32,
}

impl FrameSpan {
    fn positions(self) -> std::ops::Range<u64> {
        self.start..self.start + u64::from(self.len)
    }
}

/// A deferred-release package: the frames and VA range whose reuse must
/// wait for the TLB shootdown to complete.
///
/// A synchronous round carries it until its last ACK; the Latr policy
/// parks it for two ticks, thousands at once in a serving run, and so
/// stores it flat rather than as this struct (`latr-core`'s
/// `DeferredReclaim`: the mm as a `u32`, the span's start and length,
/// and the VA range's start and a `u32` page count with "no VA" encoded
/// in the start, 28 of the record's 56 bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReclaimPackage {
    /// The address space the VA belongs to.
    pub mm: MmId,
    /// Frame references to drop, as a span of the machine's reclaim FIFO.
    pub frames: FrameSpan,
    /// VA range to unblock.
    pub va: Option<VaRange>,
}

/// The frames of every staged reclaim package, in staging order: one
/// FIFO for the whole machine, each package a span of it. Packages
/// release out of order (a synchronous round completes whenever its last
/// ACK lands, a gated Latr package waits for its sweeps), so a release
/// overwrites its frames with [`RELEASED`] and the front advances past
/// released frames only. The deque keeps its capacity, so the steady
/// state stages and releases without allocating.
#[derive(Debug, Default)]
pub(super) struct ReclaimFrames {
    /// Absolute position of `frames[0]`.
    base: u64,
    frames: VecDeque<Pfn>,
}

/// A FIFO slot whose frame has been released.
const RELEASED: Pfn = Pfn(u64::MAX);

impl ReclaimFrames {
    /// Appends `frames` and returns their span.
    pub(super) fn stage(&mut self, frames: impl Iterator<Item = Pfn>) -> FrameSpan {
        let start = self.base + self.frames.len() as u64;
        self.frames.extend(frames);
        let len = self.base + self.frames.len() as u64 - start;
        FrameSpan {
            start,
            len: u32::try_from(len).expect("a reclaim package stages under 2^32 frames"),
        }
    }

    fn slot(&self, pos: u64) -> usize {
        pos.checked_sub(self.base)
            .and_then(|i| usize::try_from(i).ok())
            .filter(|&i| i < self.frames.len())
            .expect("span lies inside the reclaim FIFO")
    }

    /// The frames of `span`, which must not have been released.
    pub(super) fn get(&self, span: FrameSpan) -> impl Iterator<Item = Pfn> + '_ {
        span.positions().map(|pos| self.frames[self.slot(pos)])
    }

    /// Releases the frame at absolute position `pos`, returning it.
    ///
    /// # Panics
    ///
    /// Panics if the frame was already released: every span is released
    /// exactly once.
    fn take(&mut self, pos: u64) -> Pfn {
        let i = self.slot(pos);
        let pfn = std::mem::replace(&mut self.frames[i], RELEASED);
        assert_ne!(pfn, RELEASED, "reclaim span released twice");
        pfn
    }

    /// Drops released frames off the front.
    fn advance(&mut self) {
        while self.frames.front() == Some(&RELEASED) {
            self.frames.pop_front();
            self.base += 1;
        }
    }

    /// Frames staged and not yet released, or released behind an older
    /// unreleased span.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.frames.len()
    }
}

/// The synchronous transactions in flight, indexed by id. Ids are handed
/// out in increasing order and each is inserted as it is created, so the
/// live ones lie in the window `[base, base + slots.len())`: a lookup is
/// one subtraction and a bounds check, and completed slots at the front
/// retire as the window slides. The deque keeps its capacity, so the
/// steady state allocates nothing.
#[derive(Debug, Default)]
pub(super) struct TxnTable {
    base: u64,
    slots: VecDeque<Option<ShootdownTxn>>,
}

impl TxnTable {
    fn insert(&mut self, txn: ShootdownTxn) {
        assert_eq!(
            txn.id.0,
            self.base + self.slots.len() as u64,
            "transaction ids are inserted in order"
        );
        self.slots.push_back(Some(txn));
    }

    fn slot(&self, id: TxnId) -> Option<usize> {
        let i = usize::try_from(id.0.checked_sub(self.base)?).ok()?;
        (i < self.slots.len()).then_some(i)
    }

    pub(super) fn get(&self, id: TxnId) -> Option<&ShootdownTxn> {
        self.slots[self.slot(id)?].as_ref()
    }

    pub(super) fn get_mut(&mut self, id: TxnId) -> Option<&mut ShootdownTxn> {
        let i = self.slot(id)?;
        self.slots[i].as_mut()
    }

    fn remove(&mut self, id: TxnId) -> Option<ShootdownTxn> {
        let i = self.slot(id)?;
        let txn = self.slots[i].take();
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
        txn
    }
}

impl Machine {
    /// The synchronous remote flush every policy shares (Linux always;
    /// Latr for permission changes and its IPI fallbacks): IPIs to the
    /// rest of `mm`'s `mm_cpumask`, leaving after `start_delay` of
    /// initiator-side work, with the staged reclaim package riding on the
    /// round. With no other core in the mask or no page to invalidate the
    /// flush is purely local, and the machine releases the package at
    /// once.
    pub fn sync_flush(
        &mut self,
        initiator: CpuId,
        mm: MmId,
        pages: &[(Vpn, Pfn)],
        start_delay: Nanos,
    ) -> FlushOutcome {
        let mut targets = self.mm(mm).cpumask;
        targets.clear(initiator);
        if targets.is_empty() || pages.is_empty() {
            return FlushOutcome::Deferred {
                local_ns: 0,
                defer_reclaim: false,
            };
        }
        let vpns = pages.iter().map(|&(v, _)| v);
        let txn = self.begin_sync_shootdown(initiator, mm, vpns, targets, start_delay);
        FlushOutcome::Sync { txn, local_ns: 0 }
    }

    /// Creates a synchronous shootdown transaction from `initiator` to
    /// `targets`, scheduling the IPI deliveries after `start_delay` of
    /// initiator-side work. The staged reclaim package (if any) rides on
    /// the transaction and is applied when the last ACK arrives. The page
    /// list is copied into a vector from `page_vec_pool`, where the round
    /// returns it when it completes.
    ///
    /// # Panics
    ///
    /// Panics if `targets` is empty — policies must handle that case as a
    /// purely local flush.
    pub fn begin_sync_shootdown(
        &mut self,
        initiator: CpuId,
        mm: MmId,
        pages: impl IntoIterator<Item = Vpn>,
        targets: CpuMask,
        start_delay: Nanos,
    ) -> TxnId {
        assert!(!targets.is_empty(), "sync shootdown needs targets");
        let mut vpns = self.page_vec_pool.pop().unwrap_or_default();
        vpns.extend(pages);
        let id = TxnId(self.next_txn);
        self.next_txn += 1;
        self.stats.inc(crate::metrics::id::SHOOTDOWNS);
        let start = self.now() + start_delay;
        self.send_ipis(initiator, targets, start, id);
        let (frames_to_release, va_to_unblock) = self
            .pending_reclaim
            .take()
            .map_or((FrameSpan::default(), None), |pkg| (pkg.frames, pkg.va));
        self.txns.insert(ShootdownTxn {
            id,
            initiator,
            blocked_task: None,
            mm,
            pending: {
                let mut m = targets;
                m.clear(initiator);
                m
            },
            pages: vpns,
            frames_to_release,
            va_to_unblock,
            started: self.now(),
            wait_started: start,
        });
        self.emit(TraceRecord::Multicast(initiator, targets.count()));
        id
    }

    /// Multicasts one IPI round of `txn` to `targets`, leaving at `start`,
    /// and routes each delivery through the fault injector (drop / delay /
    /// deliver). Injected plans can drop deliveries, so under one the
    /// retransmit timer is armed: a lost IPI stalls the round by at most
    /// one tick period. A retransmit overwrites the oracle's send clock
    /// for the txn with a later one — safe: the retransmitted IPIs
    /// happen-after it.
    fn send_ipis(&mut self, initiator: CpuId, targets: CpuMask, start: Time, txn: TxnId) {
        self.stats
            .add(crate::metrics::id::IPIS_SENT, targets.count() as u64);
        let mut deliveries = std::mem::take(&mut self.scratch_deliveries);
        deliveries.clear();
        self.fabric
            .multicast(initiator, &targets, start, &mut deliveries);
        for &(target, at) in &deliveries {
            let fault = self
                .injector
                .as_mut()
                .map_or(IpiFault::Deliver, FaultInjector::ipi_fault);
            let at = match fault {
                IpiFault::Drop => {
                    self.stats.inc(crate::metrics::id::FAULTS_IPI_DROPPED);
                    self.emit(TraceRecord::IpiDropped(target));
                    continue;
                }
                IpiFault::Delay(d) => {
                    self.stats.inc(crate::metrics::id::FAULTS_IPI_DELAYED);
                    at + d
                }
                IpiFault::Deliver => at,
            };
            self.queue.schedule(at, Event::IpiDeliver { target, txn });
        }
        self.scratch_deliveries = deliveries;
        if self.injector.is_some() {
            self.queue
                .schedule(start + self.costs.sched_tick_period, Event::TxnRetry(txn));
        }
        let send = Note::IpiSend {
            initiator,
            txn: txn.0,
        };
        self.oracle_note(send, Some(targets));
    }

    /// Retransmit timer: while a synchronous round still has un-ACKed
    /// targets, re-multicast to exactly those cores and re-arm. Duplicate
    /// deliveries are harmless — a completed transaction's events are
    /// dropped by the `txns` lookup, and re-clearing a pending bit is
    /// idempotent. Only runs under an active fault plan.
    pub(super) fn txn_retry(&mut self, txn_id: TxnId) {
        let (initiator, pending) = match self.txns.get(txn_id) {
            Some(t) => (t.initiator, t.pending),
            None => return, // completed; let the timer die
        };
        if pending.is_empty() {
            return;
        }
        self.stats.inc(crate::metrics::id::IPI_RETRIES);
        let start = self.now();
        self.send_ipis(initiator, pending, start, txn_id);
        self.emit(TraceRecord::Retransmit(initiator, pending.count()));
    }

    pub(super) fn ipi_deliver(&mut self, target: CpuId, txn_id: TxnId) {
        // Take the page list out of the transaction instead of cloning it
        // (one heap allocation per IPI otherwise); it is restored before
        // this handler returns.
        let (initiator, pages, pcid) = match self.txns.get_mut(txn_id) {
            Some(t) => {
                let pcid = self.mm_pcid[t.mm.0 as usize];
                (t.initiator, std::mem::take(&mut t.pages), pcid)
            }
            None => return, // already completed (shouldn't happen)
        };
        self.stats.inc(crate::metrics::id::IPIS_HANDLED);
        self.llc.charge_interrupt();

        // "Handling interrupts on remote cores ... might be delayed due
        // to temporarily disabled interrupts" (§2.1): a busy core defers
        // the handler by a uniformly random disabled window.
        let busy = self.hot.busy[target.index()];
        let irq_delay = if busy {
            self.rng.below(self.costs.irq_disabled_max)
        } else {
            0
        };
        // The handler happens-after the initiator's send: join clocks
        // before mirroring the handler's invalidations.
        self.oracle_note(
            Note::IpiDeliver {
                target,
                txn: txn_id.0,
            },
            None,
        );
        self.invalidate_pages(target, pcid, pages.len(), pages.iter().copied());
        let handler =
            self.costs.interrupt_overhead + self.costs.local_invalidation(pages.len() as u32);
        // The handler steals time from whatever the core was doing.
        if self.hot.busy[target.index()] {
            self.hot.debt[target.index()] += handler;
        }
        let ack_latency = self.fabric.ack_latency(initiator, target);
        self.queue.schedule_after(
            irq_delay + handler + ack_latency,
            Event::AckArrive {
                txn: txn_id,
                from: target,
            },
        );
        self.emit(TraceRecord::IpiHandled(target, pages.len()));
        if let Some(t) = self.txns.get_mut(txn_id) {
            t.pages = pages;
        }
    }

    pub(super) fn ack_arrive(&mut self, txn_id: TxnId, from: CpuId) {
        let Some(txn) = self.txns.get_mut(txn_id) else {
            return;
        };
        txn.pending.clear(from);
        let (initiator, done) = (txn.initiator, txn.pending.is_empty());
        // The initiator happens-after the acknowledging core's handler.
        let ack = Note::Ack {
            initiator,
            from,
            txn: txn_id.0,
            done,
        };
        self.oracle_note(ack, None);
        if !done {
            return;
        }
        let mut txn = self.txns.remove(txn_id).expect("txn present");
        let wait = self.now().saturating_since(txn.wait_started);
        self.stats.record(crate::metrics::id::SHOOTDOWN_NS, wait);
        // Tell the policy before releasing: a watchdog-escalated round
        // must clear the escalated state's bits so gated reclamation sees
        // it retired.
        self.with_policy(|p, m| p.on_sync_complete(m, &txn));
        let mut pages = std::mem::take(&mut txn.pages);
        pages.clear();
        self.page_vec_pool.push(pages);
        // Frames free on the initiating core, after every ACK (the sync
        // protocol's guarantee).
        self.release_reclaim_on(
            Some(txn.initiator),
            ReclaimPackage {
                mm: txn.mm,
                frames: txn.frames_to_release,
                va: txn.va_to_unblock,
            },
        );
        if let Some(task_id) = txn.blocked_task {
            self.tasks[task_id.index()].state = TaskState::Running;
            self.complete_after(txn.initiator, task_id, 0);
        }
    }

    // ---- reclamation helpers ------------------------------------------------------

    /// Takes the reclaim package staged by the current unmap, transferring
    /// ownership of frame release and VA unblocking to the caller (the
    /// Latr policy's lazy lists).
    pub fn take_pending_reclaim(&mut self) -> Option<ReclaimPackage> {
        self.pending_reclaim.take()
    }

    /// Releases a reclaim package: drops one reference per frame and
    /// unblocks the VA range. Frees are attributed to the reclamation
    /// kthread (callers are `kreclaimd`-style deferred paths; the
    /// synchronous-ACK path uses `release_reclaim_on` internally).
    pub fn release_reclaim(&mut self, pkg: ReclaimPackage) {
        self.release_reclaim_on(None, pkg);
    }

    /// [`release_reclaim`](Self::release_reclaim) with an explicit
    /// releasing core (`None` = the reclamation kthread).
    fn release_reclaim_on(&mut self, on: Option<CpuId>, pkg: ReclaimPackage) {
        for pos in pkg.frames.positions() {
            let pfn = self.reclaim_frames.take(pos);
            self.frame_dec_ref(on, pfn);
        }
        self.reclaim_frames.advance();
        // Every package blocked its range when it was staged, so a miss
        // means the list and the staged packages disagree: some range is
        // then blocked forever, or was released before its shootdown.
        if let Some(va) = pkg.va {
            let unblocked = self.mms[pkg.mm.0 as usize].unblock_va(&va);
            assert!(unblocked, "reclaim package's VA {va:?} was not blocked");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn release(fifo: &mut ReclaimFrames, span: FrameSpan) -> Vec<Pfn> {
        let frames = span.positions().map(|pos| fifo.take(pos)).collect();
        fifo.advance();
        frames
    }

    #[test]
    fn front_advances_past_released_spans_only() {
        let mut fifo = ReclaimFrames::default();
        let a = fifo.stage([Pfn(1), Pfn(2)].into_iter());
        let b = fifo.stage(std::iter::empty());
        let c = fifo.stage([Pfn(3)].into_iter());
        let d = fifo.stage([Pfn(4), Pfn(5)].into_iter());
        assert_eq!((a.len, b.len, c.len, d.len), (2, 0, 1, 2));
        assert_eq!(fifo.get(d).collect::<Vec<_>>(), [Pfn(4), Pfn(5)]);
        // Out of order: `c` goes first, but `a` still holds the front.
        assert_eq!(release(&mut fifo, c), [Pfn(3)]);
        assert_eq!(fifo.len(), 5);
        assert_eq!(release(&mut fifo, b), []);
        assert_eq!(release(&mut fifo, a), [Pfn(1), Pfn(2)]);
        assert_eq!(fifo.len(), 2, "the front skips a and the released c");
        assert_eq!(fifo.get(d).collect::<Vec<_>>(), [Pfn(4), Pfn(5)]);
        assert_eq!(release(&mut fifo, d), [Pfn(4), Pfn(5)]);
        assert_eq!(fifo.len(), 0);
        // Positions stay absolute after the front moved.
        let e = fifo.stage([Pfn(6)].into_iter());
        assert_eq!(e.start, 5);
        assert_eq!(release(&mut fifo, e), [Pfn(6)]);
    }

    #[test]
    #[should_panic(expected = "released twice")]
    fn a_span_releases_once() {
        let mut fifo = ReclaimFrames::default();
        let _front = fifo.stage([Pfn(1)].into_iter());
        let a = fifo.stage([Pfn(2)].into_iter());
        release(&mut fifo, a);
        // `_front` holds the front, so `a`'s slot is still there to re-read.
        fifo.take(a.start);
    }
}
