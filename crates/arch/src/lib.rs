//! # latr-arch — hardware model
//!
//! Parameterised models of the hardware structures the Latr paper's results
//! depend on:
//!
//! * [`CpuMask`] — fixed-size CPU bitmask (up to 256 CPUs), the same
//!   structure Latr states embed;
//! * [`Topology`] — socket/core/NUMA layout with QPI hop distances,
//!   including presets for the paper's two evaluation machines (Table 3);
//! * [`CostModel`] — every latency constant the simulation charges,
//!   calibrated against the paper's measured numbers (see `costs`);
//! * [`Tlb`] — per-core set-associative TLB with PCID tags and LRU
//!   replacement;
//! * [`IpiFabric`] — APIC/QPI inter-processor-interrupt latency model;
//! * [`LlcModel`] — last-level-cache access/miss accounting used for
//!   Table 4.
//!
//! Everything here is deterministic and free of I/O; the kernel crate wires
//! these models into the discrete-event loop.

mod cache;
mod costs;
mod cpumask;
mod ipi;
mod tlb;
mod topology;

pub use cache::{CacheStats, LlcModel};
pub use costs::CostModel;
pub use cpumask::{CpuId, CpuMask, MAX_CPUS};
pub use ipi::IpiFabric;
pub use tlb::{Tlb, TlbEntry, TlbStats, PCID_NONE};
pub use topology::{MachinePreset, NodeId, SocketId, Topology};
