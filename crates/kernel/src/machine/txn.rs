//! Synchronous shootdown transactions (IPI delivery, ACKs, retransmits)
//! and the release of staged reclaim packages.

use super::Machine;
use crate::event::Event;
use crate::shootdown::{FlushOutcome, ShootdownTxn, TxnId};
use crate::task::TaskState;
use latr_arch::{CpuId, CpuMask};
use latr_faults::{FaultInjector, IpiFault};
use latr_mem::{MmId, Pfn, VaRange, Vpn};
use latr_sim::{Nanos, Time};

/// A deferred-release package: the frames and VA range whose reuse must
/// wait for the TLB shootdown to complete.
#[derive(Debug, Clone)]
pub struct ReclaimPackage {
    /// The address space the VA belongs to.
    pub mm: MmId,
    /// Frame references to drop.
    pub frames: Vec<Pfn>,
    /// VA range to unblock.
    pub va: Option<VaRange>,
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
        let vpns = pages.iter().map(|&(v, _)| v).collect();
        let txn = self.begin_sync_shootdown(initiator, mm, vpns, targets, start_delay);
        FlushOutcome::Sync { txn, local_ns: 0 }
    }

    /// Creates a synchronous shootdown transaction from `initiator` to
    /// `targets`, scheduling the IPI deliveries after `start_delay` of
    /// initiator-side work. The staged reclaim package (if any) rides on
    /// the transaction and is applied when the last ACK arrives.
    ///
    /// # Panics
    ///
    /// Panics if `targets` is empty — policies must handle that case as a
    /// purely local flush.
    pub fn begin_sync_shootdown(
        &mut self,
        initiator: CpuId,
        mm: MmId,
        pages: Vec<Vpn>,
        targets: CpuMask,
        start_delay: Nanos,
    ) -> TxnId {
        assert!(!targets.is_empty(), "sync shootdown needs targets");
        let id = TxnId(self.next_txn);
        self.next_txn += 1;
        self.stats.inc(crate::metrics::id::SHOOTDOWNS);
        let start = self.now() + start_delay;
        self.send_ipis(initiator, targets, start, id);
        let (frames_to_release, va_to_unblock) = self
            .pending_reclaim
            .take()
            .map_or((Vec::new(), None), |pkg| (pkg.frames, pkg.va));
        self.txns.insert(
            id.0,
            ShootdownTxn {
                id,
                initiator,
                blocked_task: None,
                mm,
                pending: {
                    let mut m = targets;
                    m.clear(initiator);
                    m
                },
                pages,
                frames_to_release,
                va_to_unblock,
                started: self.now(),
                wait_started: start,
            },
        );
        if self.trace.is_enabled() {
            self.trace.push(
                self.now(),
                "ipi",
                format!(
                    "{initiator} multicasts shootdown to {} cores",
                    targets.count()
                ),
            );
        }
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
        let schedule = self.fabric.multicast(initiator, &targets, start);
        for &(target, at) in &schedule.deliveries {
            let fault = self
                .injector
                .as_mut()
                .map_or(IpiFault::Deliver, FaultInjector::ipi_fault);
            let at = match fault {
                IpiFault::Drop => {
                    self.stats.inc(crate::metrics::id::FAULTS_IPI_DROPPED);
                    if self.trace.is_enabled() {
                        let now = self.now();
                        self.trace
                            .push(now, "fault", format!("IPI to {target} dropped"));
                    }
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
        if self.injector.is_some() {
            self.queue
                .schedule(start + self.costs.sched_tick_period, Event::TxnRetry(txn));
        }
        if let Some(o) = self.oracle.as_mut() {
            o.note_ipi_send(initiator, txn.0, targets, self.queue.now());
        }
    }

    /// Retransmit timer: while a synchronous round still has un-ACKed
    /// targets, re-multicast to exactly those cores and re-arm. Duplicate
    /// deliveries are harmless — a completed transaction's events are
    /// dropped by the `txns` lookup, and re-clearing a pending bit is
    /// idempotent. Only runs under an active fault plan.
    pub(super) fn txn_retry(&mut self, txn_id: TxnId) {
        let (initiator, pending) = match self.txns.get(&txn_id.0) {
            Some(t) => (t.initiator, t.pending),
            None => return, // completed; let the timer die
        };
        if pending.is_empty() {
            return;
        }
        self.stats.inc(crate::metrics::id::IPI_RETRIES);
        let start = self.now();
        self.send_ipis(initiator, pending, start, txn_id);
        if self.trace.is_enabled() {
            self.trace.push(
                start,
                "fault",
                format!(
                    "{initiator} retransmits shootdown to {} cores",
                    pending.count()
                ),
            );
        }
    }

    pub(super) fn ipi_deliver(&mut self, target: CpuId, txn_id: TxnId) {
        // Take the page list out of the transaction instead of cloning it
        // (one heap allocation per IPI otherwise); it is restored before
        // this handler returns.
        let (initiator, pages, pcid) = match self.txns.get_mut(&txn_id.0) {
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
        if let Some(o) = self.oracle.as_mut() {
            o.note_ipi_deliver(target, txn_id.0, self.queue.now());
        }
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
        if self.trace.is_enabled() {
            self.trace.push(
                self.now(),
                "ipi",
                format!("{target} handles shootdown IPI ({} pages)", pages.len()),
            );
        }
        if let Some(t) = self.txns.get_mut(&txn_id.0) {
            t.pages = pages;
        }
    }

    pub(super) fn ack_arrive(&mut self, txn_id: TxnId, from: CpuId) {
        let Some(txn) = self.txns.get_mut(&txn_id.0) else {
            return;
        };
        txn.pending.clear(from);
        let (initiator, done) = (txn.initiator, txn.pending.is_empty());
        // The initiator happens-after the acknowledging core's handler.
        if let Some(o) = self.oracle.as_mut() {
            o.note_ack(initiator, from, txn_id.0, done, self.queue.now());
        }
        if !done {
            return;
        }
        let txn = self.txns.remove(&txn_id.0).expect("txn present");
        let wait = self.now().saturating_since(txn.wait_started);
        self.stats.record(crate::metrics::id::SHOOTDOWN_NS, wait);
        // Tell the policy before releasing: a watchdog-escalated round
        // must clear the escalated state's bits so gated reclamation sees
        // it retired.
        self.with_policy(|p, m| p.on_sync_complete(m, &txn));
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
    fn release_reclaim_on(&mut self, on: Option<CpuId>, mut pkg: ReclaimPackage) {
        for pfn in pkg.frames.drain(..) {
            self.frame_dec_ref(on, pfn);
        }
        // Park the emptied frames vector for the next unmap to reuse (the
        // pool is bounded by the number of packages concurrently staged).
        if pkg.frames.capacity() > 0 && self.frame_vec_pool.len() < 64 {
            self.frame_vec_pool.push(pkg.frames);
        }
        // Every package blocked its range when it was staged, so a miss
        // means the list and the staged packages disagree: some range is
        // then blocked forever, or was released before its shootdown.
        if let Some(va) = pkg.va {
            let unblocked = self.mms[pkg.mm.0 as usize].unblock_va(&va);
            assert!(unblocked, "reclaim package's VA {va:?} was not blocked");
        }
    }
}
