//! The TLB-coherence policy interface and shootdown transactions.
//!
//! Every PTE-invalidating path in the machine funnels through a
//! [`TlbPolicy`]. The policy decides whether remote TLBs are invalidated
//! *synchronously* (IPIs + ACK wait, blocking the initiator — Linux, ABIS,
//! and Latr's fallback) or *lazily* (record state, return immediately —
//! Latr). Synchronous rounds are tracked as [`ShootdownTxn`]s by the
//! machine, which turns them into `IpiDeliver`/`AckArrive` events.

use crate::machine::{FrameSpan, Machine};
use crate::task::TaskId;
use latr_arch::{CpuId, CpuMask};
use latr_mem::{MmId, Pfn, VaRange, Vpn};
use latr_sim::{Nanos, Time};

/// Identifier of an in-flight synchronous shootdown transaction.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TxnId(pub u64);

/// Why a flush is being requested — policies may treat these differently
/// (Table 1: free and migration can be lazy; permission changes cannot).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FlushKind {
    /// `munmap()` — full unmap of VAs and release of frames.
    Unmap,
    /// `madvise(MADV_FREE/DONTNEED)` — frames freed, VMA retained.
    MadviseFree,
    /// Pages swapped out — frames freed after the (lazy-able) shootdown.
    Swap,
    /// `mprotect()` / CoW / mremap — must be synchronous everywhere.
    Synchronous,
    /// AutoNUMA hint-unmap during address-space scanning.
    NumaHint,
}

/// What the policy decided to do about remote TLBs.
#[derive(Clone, Copy, Debug)]
pub enum FlushOutcome {
    /// The initiator blocks until every target ACKs; the machine has
    /// created transaction `txn` (via [`Machine::begin_sync_shootdown`])
    /// and will complete the op when the last ACK arrives. `local_ns` is
    /// initiator-side CPU work to charge before the wait begins.
    Sync {
        /// The transaction to wait on.
        txn: TxnId,
        /// Initiator-side work before the ACK wait.
        local_ns: Nanos,
    },
    /// No remote work needed now. The op completes after `local_ns`
    /// additional initiator-side work. If `defer_reclaim` is set the
    /// machine must NOT release frames or unblock the VA range — the
    /// policy has taken ownership of reclamation (Latr's lazy lists).
    Deferred {
        /// Initiator-side work (e.g. Latr's state save).
        local_ns: Nanos,
        /// Whether the policy took ownership of freeing frames/VA.
        defer_reclaim: bool,
    },
}

/// A synchronous shootdown round in flight.
#[derive(Clone, Debug)]
pub struct ShootdownTxn {
    /// The transaction id.
    pub id: TxnId,
    /// The initiating core.
    pub initiator: CpuId,
    /// The task blocked on this round (`None` for kernel-context rounds
    /// like the NUMA scanner's).
    pub blocked_task: Option<TaskId>,
    /// The address space whose pages are being invalidated.
    pub mm: MmId,
    /// Remote cores that have not ACKed yet.
    pub pending: CpuMask,
    /// Pages each remote core must invalidate (`INVLPG` each, or a full
    /// flush above the threshold).
    pub pages: Vec<Vpn>,
    /// Frames to release when the round completes, a span of the
    /// machine's reclaim FIFO (empty when the caller handles frames
    /// itself).
    pub frames_to_release: FrameSpan,
    /// VA range to unblock in the mm when the round completes.
    pub va_to_unblock: Option<VaRange>,
    /// When the round started (for shootdown-latency accounting).
    pub started: Time,
    /// When the initiator finished local work and began waiting.
    pub wait_started: Time,
}

/// A TLB-coherence policy: Linux, ABIS, or Latr.
///
/// All hooks receive the [`Machine`] with the policy itself detached
/// (the machine uses an `Option::take` dance), so policies may freely call
/// machine helpers. The [`Any`](std::any::Any) supertrait lets harnesses
/// downcast the box returned by [`Machine::run`] to inspect policy state.
pub trait TlbPolicy: std::any::Any {
    /// Short name for reports ("linux", "abis", "latr").
    fn name(&self) -> &'static str;

    /// Called when `initiator` invalidated `pages` of `mm` locally and
    /// remote TLBs may be stale. Must decide sync vs lazy. `start_delay`
    /// is the initiator-side work (syscall, PTE clears, local
    /// invalidation) that precedes any remote activity — synchronous
    /// policies pass it to [`Machine::sync_flush`] (or, with their own
    /// targets and overhead, to [`Machine::begin_sync_shootdown`]) so IPIs
    /// leave only after the local work completes.
    #[allow(clippy::too_many_arguments)]
    fn flush_others(
        &mut self,
        machine: &mut Machine,
        initiator: CpuId,
        task: Option<TaskId>,
        mm: MmId,
        range: VaRange,
        pages: &[(Vpn, Pfn)],
        kind: FlushKind,
        start_delay: Nanos,
    ) -> FlushOutcome;

    /// Scheduler tick on `cpu`. Returns CPU time to charge to whatever is
    /// running there (Latr's state sweep).
    fn on_sched_tick(&mut self, machine: &mut Machine, cpu: CpuId) -> Nanos {
        let _ = (machine, cpu);
        0
    }

    /// Context switch on `cpu` (same hook semantics as the tick).
    fn on_context_switch(&mut self, machine: &mut Machine, cpu: CpuId) -> Nanos {
        let _ = (machine, cpu);
        0
    }

    /// Periodic background reclamation tick (Latr's kernel thread).
    fn on_reclaim_tick(&mut self, machine: &mut Machine) {
        let _ = machine;
    }

    /// A NUMA node crossed (or recovered across) a free-frame watermark;
    /// `level` is the new pressure. Latr expedites its oldest gated
    /// reclamation below the low watermark and falls back to synchronous
    /// shootdown below the min watermark; synchronous policies have
    /// nothing parked and ignore it.
    fn on_memory_pressure(
        &mut self,
        machine: &mut Machine,
        node: latr_arch::NodeId,
        level: latr_mem::Pressure,
    ) {
        let _ = (machine, node, level);
    }

    /// An allocation on `cpu` found every free list empty (the
    /// direct-reclaim stall). Returns how many frames the policy released
    /// synchronously; the machine charges the stall to the faulting op
    /// and retries the allocation once.
    fn on_alloc_stall(
        &mut self,
        machine: &mut Machine,
        cpu: CpuId,
        node: latr_arch::NodeId,
    ) -> u64 {
        let _ = (machine, cpu, node);
        0
    }

    /// The AutoNUMA scanner wants to hint-unmap `vpn` of `mm` from `cpu`.
    /// Returns `true` if the policy handled it lazily; `false` means the
    /// machine should perform the synchronous hint-unmap itself.
    fn numa_hint_unmap(&mut self, machine: &mut Machine, cpu: CpuId, mm: MmId, vpn: Vpn) -> bool {
        let _ = (machine, cpu, mm, vpn);
        false
    }

    /// Whether a NUMA hint fault on `vpn` may proceed (§4.4: not before
    /// every core has invalidated the lazily-unmapped entry).
    fn numa_fault_may_proceed(&mut self, machine: &mut Machine, mm: MmId, vpn: Vpn) -> bool {
        let _ = (machine, mm, vpn);
        true
    }

    /// A synchronous shootdown transaction completed (last ACK arrived).
    /// Policies that escalate lazy states into targeted sync rounds (the
    /// Latr sweep watchdog) use this to mark the escalated state's bits
    /// clear and retire it.
    fn on_sync_complete(&mut self, machine: &mut Machine, txn: &ShootdownTxn) {
        let _ = (machine, txn);
    }

    /// A policy timer scheduled via [`Machine::schedule_policy_timer`]
    /// fired.
    fn on_timer(&mut self, machine: &mut Machine, token: u64) {
        let _ = (machine, token);
    }

    /// End of simulation; flush any deferred state (Latr drains its lazy
    /// lists so leak checks pass).
    fn on_shutdown(&mut self, machine: &mut Machine) {
        let _ = machine;
    }
}

/// A no-op policy for tests: never flushes remote TLBs and never defers
/// reclamation. **Unsafe as an OS design** — it exists to test the machine
/// plumbing and to demonstrate (in property tests) that the reclamation
/// invariant actually requires a real policy.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopPolicy;

impl TlbPolicy for NoopPolicy {
    fn name(&self) -> &'static str {
        "noop"
    }

    fn flush_others(
        &mut self,
        _machine: &mut Machine,
        _initiator: CpuId,
        _task: Option<TaskId>,
        _mm: MmId,
        _range: VaRange,
        _pages: &[(Vpn, Pfn)],
        _kind: FlushKind,
        _start_delay: Nanos,
    ) -> FlushOutcome {
        FlushOutcome::Deferred {
            local_ns: 0,
            defer_reclaim: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_policy_defers_nothing() {
        let p = NoopPolicy;
        assert_eq!(p.name(), "noop");
    }

    #[test]
    fn flush_outcome_debug() {
        let d = FlushOutcome::Deferred {
            local_ns: 5,
            defer_reclaim: true,
        };
        assert!(format!("{d:?}").contains("Deferred"));
    }
}
