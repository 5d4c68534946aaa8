//! # rt — the lock-free Latr runtime
//!
//! A real, multi-threaded implementation of the paper's data structures,
//! suitable for user-space systems that want *lazy invalidation with
//! bounded staleness*: per-"core" cyclic queues of invalidation states
//! ([`RtQueue`]), an all-queues registry whose tick sweep visits only the
//! queues that flagged the sweeping core ([`RtRegistry::sweep_into`]),
//! and deferred reclamation gated on every participant having swept
//! ([`ShardedReclaimer`]). There is one runtime stack; the full-scan
//! sweep ([`RtRegistry::full_scan_into`]) and the mutexed
//! [`RtReclaimer`] stay public only as the executable specs the tests
//! compare it against.
//!
//! CPU sets are the simulator's own [`latr_arch::CpuMask`]: a publish
//! names its targets with one, and [`AtomicCpuMask`], its concurrent
//! twin, stores, loads and takes whole masks. A mask the simulated policy
//! publishes can be fed to [`RtRegistry::publish`] as it is.
//!
//! `latr-bench`'s `bench micro` rows measure these primitives to
//! reproduce Table 5's costs (state save ≈ 130 ns, sweep ≈ 160 ns) against
//! a synchronous cross-thread "IPI" baseline.
//!
//! ```
//! use latr_arch::{CpuId, CpuMask};
//! use latr_core::rt::{RtInvalidation, RtRegistry, ShardedReclaimer};
//!
//! let registry = RtRegistry::new(4, 64); // 4 cores, 64 states each
//! let reclaimer = ShardedReclaimer::new(2, 4); // §4.2's two-tick grace
//! // Core 0 lazily invalidates a range for cores 1..4 and parks the page.
//! let targets = CpuMask::from_cpus([1, 2, 3].map(CpuId));
//! registry
//!     .publish(0, RtInvalidation { mm: 7, start: 0x1000, end: 0x2000 }, targets)
//!     .unwrap();
//! reclaimer.defer(&registry, 0, "page");
//! // Core 2 sweeps at its "tick": it learns what to invalidate locally.
//! let work = registry.sweep(2);
//! assert_eq!(work.len(), 1);
//! assert_eq!(work[0].mm, 7);
//! // Once every core has ticked twice the page may be reused.
//! for _ in 0..2 {
//!     for core in 0..4 {
//!         registry.sweep(core);
//!     }
//! }
//! assert_eq!(reclaimer.collect(&registry, 0), vec!["page"]);
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
pub use reclaim::{RtReclaimer, ShardedReclaimer};
pub use soft_tlb::{SoftTlb, SoftTlbTable};
