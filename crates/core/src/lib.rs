//! # latr-core — Latr: lazy translation coherence
//!
//! The paper's contribution, in two forms:
//!
//! 1. **The simulation policy** ([`LatrPolicy`]): a
//!    [`latr_kernel::TlbPolicy`] that replaces synchronous IPI shootdowns
//!    with *Latr states* — per-core cyclic queues of pending invalidations
//!    that every core sweeps at its next scheduler tick or context switch —
//!    plus lazy reclamation of virtual and physical pages (two scheduler
//!    ticks, §4.2) and lazy page-table unmap for AutoNUMA migration
//!    (§4.3). This is what the paper's figures are regenerated with.
//!
//! 2. **The runtime** ([`rt`]): a real, lock-free, multi-threaded
//!    implementation of the same data structures — atomic CPU masks,
//!    cyclic state queues, cross-core sweeps and epoch/tick-based deferred
//!    reclamation — usable as a user-space library for "lazy invalidation
//!    with bounded staleness" patterns, and benchmarked by `bench micro`
//!    to reproduce Table 5's nanosecond-scale costs on real hardware.
//!
//! ## Quick start (simulation)
//!
//! ```
//! use latr_core::{LatrConfig, LatrPolicy};
//! use latr_kernel::{Machine, MachineConfig};
//! use latr_arch::{MachinePreset, Topology};
//!
//! let config = MachineConfig::new(Topology::preset(MachinePreset::Commodity2S16C));
//! let machine = Machine::new(config);
//! let policy = LatrPolicy::new(LatrConfig::default());
//! assert_eq!(machine.now().as_ns(), 0);
//! drop((machine, policy));
//! ```

mod config;
mod policy;
mod reclaim;
pub mod rt;
mod state;
mod sweep_index;

pub use config::{LatrConfig, LatrConfigError, MAX_STATES_PER_CORE};
pub use policy::LatrPolicy;
pub use reclaim::{DeferredReclaim, LazyReclaimQueue};
pub use state::{LatrState, StateKind, StateQueue, StateRef, SweepHit};
pub use sweep_index::PendingSweepMap;
