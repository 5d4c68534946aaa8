//! # rt — the lock-free Latr runtime
//!
//! A real, multi-threaded implementation of the paper's data structures,
//! suitable for user-space systems that want *lazy invalidation with
//! bounded staleness*: per-"core" cyclic queues of invalidation states
//! ([`RtQueue`]), an all-queues registry with tick-based sweeping
//! ([`RtRegistry`]), and deferred reclamation gated on every participant
//! having swept ([`RtReclaimer`]).
//!
//! The criterion benches in `latr-bench` measure these primitives to
//! reproduce Table 5's costs (state save ≈ 130 ns, sweep ≈ 160 ns) against
//! a synchronous cross-thread "IPI" baseline.
//!
//! ```
//! use latr_core::rt::{RtRegistry, RtInvalidation};
//!
//! let registry = RtRegistry::new(4, 64); // 4 cores, 64 states each
//! // Core 0 lazily invalidates a range for cores 1..4.
//! registry
//!     .publish(0, RtInvalidation { mm: 7, start: 0x1000, end: 0x2000 }, 0b1110)
//!     .unwrap();
//! // Core 2 sweeps at its "tick": it learns what to invalidate locally.
//! let work = registry.sweep(2);
//! assert_eq!(work.len(), 1);
//! assert_eq!(work[0].mm, 7);
//! ```

pub mod frontier;
mod mask;
mod pad;
mod queue;
mod reclaim;
mod soft_tlb;
pub mod sync;

pub use frontier::{FrontierWatchdog, ReclaimFrontier};
pub use mask::AtomicCpuMask;
pub use pad::CachePadded;
pub use queue::{PublishError, RtInvalidation, RtQueue, RtRegistry, RtStats, SweepGuard, NO_SLOT};
pub use reclaim::{ReclaimBackend, Reclaimer, RtReclaimer, ShardedReclaimer};
pub use soft_tlb::{SoftTlb, SoftTlbTable, SweepMode};
