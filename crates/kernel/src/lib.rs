//! # latr-kernel — the simulated operating system
//!
//! A discrete-event model of the parts of Linux 4.10 that Latr patches:
//! per-core scheduling with 1 ms ticks, address spaces with demand paging,
//! the `mmap`/`munmap`/`madvise`/`mprotect` syscall paths, page faults,
//! IPI-based TLB shootdowns, and AutoNUMA page migration.
//!
//! The centrepiece is [`Machine`]: it owns the event queue, the cores (each
//! with a real TLB model), the address spaces (real page tables and VMA
//! trees over a refcounting frame allocator) and a pluggable
//! [`TlbPolicy`] deciding what happens when remote TLBs must be
//! invalidated:
//!
//! * [`LinuxPolicy`] — the baseline: synchronous, IPI-based shootdowns
//!   with Linux's batching and full-flush heuristics (§2.1);
//! * [`AbisPolicy`] — the ABIS baseline: access-bit tracking narrows the
//!   IPI target set at a per-page bookkeeping cost (§2.3);
//! * `LatrPolicy` — lives in the `latr-core` crate (the paper's
//!   contribution) and plugs in through the same trait.
//!
//! Workloads drive tasks through [`Op`]s; the machine executes them against
//! the memory substrate, charging time from the calibrated
//! [`latr_arch::CostModel`].
//!
//! The machine lives in `src/machine/`, one child module per seam:
//!
//! * `mod.rs` — [`MachineConfig`], [`Machine`], accessors, the event loop,
//!   task stepping and the scheduler tick;
//! * `tlb.rs` — the oracle-mirrored TLB and frame wrappers, and the one
//!   full-flush-threshold helper every page-list invalidation uses;
//! * `fault.rs` — access, demand, copy-on-write, swap-in and NUMA-hint
//!   faults, and the AutoNUMA scan;
//! * `vm_ops.rs` — the Table 1 operations and their one flush tail, the
//!   machine's only [`TlbPolicy::flush_others`] call;
//! * `txn.rs` — [`ReclaimPackage`], [`Machine::sync_flush`], synchronous
//!   shootdown transactions and reclaim release;
//! * `pressure.rs` — fault-plan queries, watermarks, reclamation debt,
//!   the allocation stall and the pressure fault sites;
//! * `mmap_sem.rs` — the per-mm `mmap_sem`;
//! * `check.rs` — the invariant checkers, [`InvariantViolation`] and the
//!   run fingerprint.

mod event;
mod machine;
mod mmlock;
mod numa;
mod ops;
mod policy_abis;
mod policy_linux;
mod shootdown;
mod task;

pub use event::Event;
pub use machine::{Core, InvariantViolation, Machine, MachineConfig, ReclaimPackage};
pub use mmlock::{LockMode, MmLock};
pub use numa::{NumaConfig, NumaStats};
pub use ops::{Op, OpResult, Workload};
pub use policy_abis::AbisPolicy;
pub use policy_linux::LinuxPolicy;
pub use shootdown::{FlushKind, FlushOutcome, NoopPolicy, ShootdownTxn, TlbPolicy, TxnId};
pub use task::{Task, TaskId, TaskState};

/// Well-known statistics names recorded by the machine; workloads and the
/// bench harness share these constants instead of scattering string
/// literals.
pub mod metrics {
    /// Remote-invalidation rounds initiated (one per munmap/madvise/
    /// mprotect/NUMA-scan that needed remote cores) — "TLB shootdowns" in
    /// the paper's figures.
    pub const SHOOTDOWNS: &str = "shootdowns";
    /// Individual IPIs sent.
    pub const IPIS_SENT: &str = "ipis_sent";
    /// IPI interrupts handled on remote cores.
    pub const IPIS_HANDLED: &str = "ipis_handled";
    /// End-to-end latency of `munmap()` calls (ns histogram).
    pub const MUNMAP_NS: &str = "munmap_ns";
    /// Latency of the remote-shootdown portion of an munmap (ns histogram).
    pub const SHOOTDOWN_NS: &str = "shootdown_ns";
    /// End-to-end latency of `madvise(DONTNEED/FREE)` calls.
    pub const MADVISE_NS: &str = "madvise_ns";
    /// Page faults taken.
    pub const PAGE_FAULTS: &str = "page_faults";
    /// NUMA hint faults taken.
    pub const HINT_FAULTS: &str = "hint_faults";
    /// Pages migrated across NUMA nodes.
    pub const MIGRATIONS: &str = "migrations";
    /// Context switches performed.
    pub const CONTEXT_SWITCHES: &str = "context_switches";
    /// Scheduler ticks delivered.
    pub const SCHED_TICKS: &str = "sched_ticks";
    /// Workload-level completed units (requests, iterations).
    pub const WORK_UNITS: &str = "work_units";
    /// Latr states saved (written by the Latr policy).
    pub const LATR_STATES_SAVED: &str = "latr_states_saved";
    /// Latr sweeps that invalidated at least one entry.
    pub const LATR_SWEEP_HITS: &str = "latr_sweep_hits";
    /// Latr fallback IPI rounds (state queue full).
    pub const LATR_FALLBACK_IPIS: &str = "latr_fallback_ipis";
    /// Frames whose reclamation Latr deferred.
    pub const LATR_DEFERRED_FRAMES: &str = "latr_deferred_frames";
    /// ABIS access-bit tracking operations.
    pub const ABIS_TRACK_OPS: &str = "abis_track_ops";
    /// IPI deliveries dropped by the fault injector.
    pub const FAULTS_IPI_DROPPED: &str = "faults_ipi_dropped";
    /// IPI deliveries delayed by the fault injector.
    pub const FAULTS_IPI_DELAYED: &str = "faults_ipi_delayed";
    /// Scheduler ticks skipped by the fault injector.
    pub const FAULTS_TICKS_MISSED: &str = "faults_ticks_missed";
    /// Scheduler ticks jittered late by the fault injector.
    pub const FAULTS_TICK_JITTER: &str = "faults_tick_jitter";
    /// Sweeps suppressed because the core was inside an injected stall.
    pub const FAULTS_SWEEP_STALLS: &str = "faults_sweep_stalls";
    /// State publishes forced to overflow by an injected storm.
    pub const FAULTS_FORCED_OVERFLOWS: &str = "faults_forced_overflows";
    /// Shootdown retransmit rounds (lost-IPI recovery; injection only).
    pub const IPI_RETRIES: &str = "ipi_retries";
    /// Latr watchdog escalations: states whose bitmask outlived
    /// `watchdog_ticks` and were finished with targeted IPIs.
    pub const LATR_WATCHDOG_ESCALATIONS: &str = "latr_watchdog_escalations";
    /// Targeted IPIs sent by the watchdog (subset of `ipis_sent`).
    pub const LATR_WATCHDOG_IPIS: &str = "latr_watchdog_ipis";
    /// Adaptive-fallback transitions into synchronous mode.
    pub const LATR_ADAPTIVE_ENTERS: &str = "latr_adaptive_enters";
    /// Adaptive-fallback transitions back to lazy mode.
    pub const LATR_ADAPTIVE_EXITS: &str = "latr_adaptive_exits";
    /// Operations routed synchronously while adaptive fallback was active.
    pub const LATR_ADAPTIVE_SYNC_OPS: &str = "latr_adaptive_sync_ops";
    /// Publish→release latency of lazily reclaimed packages (ns histogram).
    pub const LATR_RECLAIM_LATENCY_NS: &str = "latr_reclaim_latency_ns";
    /// Frames actually released by Latr's deferred reclamation.
    pub const LATR_RECLAIM_RELEASED_FRAMES: &str = "latr_reclaim_released_frames";
    /// Allocations that found every free list empty and took the stall
    /// path (the direct-reclaim analogue).
    pub const ALLOC_STALLS: &str = "alloc_stalls";
    /// Time spent stalled in allocation (ns histogram; p50/p99/p999 are
    /// the storm-resilience headline numbers).
    pub const ALLOC_STALL_NS: &str = "alloc_stall_ns";
    /// Allocations that failed even after the stall-and-retry path.
    pub const OOM_EVENTS: &str = "oom_events";
    /// Nodes crossing their low watermark (Normal → Low transitions).
    pub const MEM_PRESSURE_LOW_EVENTS: &str = "mem_pressure_low_events";
    /// Nodes crossing their min watermark (reserve floor breached).
    pub const MEM_PRESSURE_MIN_EVENTS: &str = "mem_pressure_min_events";
    /// Nodes recovering back above the low watermark.
    pub const MEM_PRESSURE_RECOVERIES: &str = "mem_pressure_recoveries";
    /// Injected allocation-burst windows applied.
    pub const FAULTS_ALLOC_BURSTS: &str = "faults_alloc_bursts";
    /// Reclamation-kthread ticks suppressed by an injected reclaim stall.
    pub const FAULTS_RECLAIM_STALLS: &str = "faults_reclaim_stalls";
    /// Injected watermark-flap windows applied.
    pub const FAULTS_WATERMARK_FLAPS: &str = "faults_watermark_flaps";
    /// Gated reclamation packages expedited by memory pressure (their
    /// owner swept out of turn).
    pub const LATR_EXPEDITED_SWEEPS: &str = "latr_expedited_sweeps";
    /// Targeted IPIs sent by pressure expedition (subset of `ipis_sent`).
    pub const LATR_EXPEDITED_IPIS: &str = "latr_expedited_ipis";
    /// Pressure→release latency of expedited packages (ns histogram; the
    /// escalation tick bound is asserted over its max).
    pub const LATR_EXPEDITE_LATENCY_NS: &str = "latr_expedite_latency_ns";
    /// Sync-mode entries forced by min-watermark pressure (subset of
    /// `latr_adaptive_enters`).
    pub const LATR_PRESSURE_SYNC_ENTERS: &str = "latr_pressure_sync_enters";
    /// Gated packages already past their reclaim deadline but still held
    /// because the gating state's CPU bitmask has not cleared — counted
    /// every reclamation tick, watchdog or no watchdog, so the
    /// degradation counters stay honest when `watchdog_ticks = 0`.
    pub const LATR_GATE_HELD: &str = "latr_gate_held";
    /// Writers and readers that found the mmap_sem held and parked.
    pub const MMAP_SEM_WAITS: &str = "mmap_sem_waits";
    /// Writes through a read-only mapping whose VMA forbids writing.
    pub const PROTECTION_FAULTS: &str = "protection_faults";
    /// Copy-on-write breaks: a write to a shared read-only page.
    pub const COW_BREAKS: &str = "cow_breaks";
    /// Accesses to unmapped virtual addresses.
    pub const SEGFAULTS: &str = "segfaults";
    /// Demand faults that brought a swapped-out page back.
    pub const SWAP_INS: &str = "swap_ins";
    /// `mremap()` calls.
    pub const MREMAPS: &str = "mremaps";
    /// Pages swapped out.
    pub const SWAP_OUTS: &str = "swap_outs";
    /// Page pairs merged by deduplication.
    pub const DEDUP_MERGES: &str = "dedup_merges";
    /// Pages queued for migration by compaction.
    pub const COMPACT_PAGES: &str = "compact_pages";
    /// `fork()` calls.
    pub const FORKS: &str = "forks";
    /// Scheduler ticks a tickless kernel skipped on idle cores.
    pub const TICKS_SKIPPED_IDLE: &str = "ticks_skipped_idle";
    /// Bytes parked on Latr's lazy-reclaim queue, sampled at every
    /// reclamation tick (histogram; §6.4's memory overhead).
    pub const LATR_PARKED_BYTES: &str = "latr_parked_bytes";
    /// Open-loop request latency of the serving workload, arrival to
    /// munmap completion (ns histogram; the `BENCH_serving.json` tail
    /// curves are its p50/p99/p999).
    pub const SERVING_REQUEST_NS: &str = "serving_request_ns";
}
