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
//! Every counter and histogram the machine records is declared once in
//! [`metrics`], which also holds the [`metrics::Registry`] they are
//! written to through typed ids.
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
pub mod metrics;
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
