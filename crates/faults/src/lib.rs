//! # latr-faults — deterministic fault injection
//!
//! Latr's correctness argument (§4) leans on two liveness assumptions:
//! every core sweeps within a scheduler tick, and every IPI is delivered
//! promptly. Real machines violate both — deep C-states and long
//! non-preemptible sections stall sweepers, interrupt delivery is delayed
//! or (on buggy fabrics) lost, and bursty workloads overflow the 64-entry
//! state queues. This crate turns those conditions into *reproducible
//! experiments*:
//!
//! * [`FaultPlan`] — a declarative description of what goes wrong and
//!   when: IPI drop/delay probabilities, tick miss/jitter probabilities,
//!   per-core sweep stalls ([`StalledCore`]), queue-overflow storms
//!   ([`OverflowStorm`]), and the memory-pressure sites — allocation
//!   bursts ([`AllocBurst`]), reclamation-kthread stalls
//!   ([`ReclaimStall`]) and watermark flaps ([`WatermarkFlap`]). Plans
//!   are built in code with the `FaultPlan::with_*` builders and checked
//!   by [`FaultPlan::validate`] when an injector is made from them.
//! * [`FaultInjector`] — the runtime half: a plan plus a forked
//!   [`latr_sim::SimRng`] stream. Every probabilistic decision comes from
//!   that stream, so an identical plan + seed reproduces the *exact same*
//!   faults at the exact same simulated instants. The stream is forked
//!   from (not shared with) the machine's main RNG: enabling fault
//!   injection never perturbs the workload's own randomness.
//!
//! The machine (`latr-kernel`) consults the injector at each injection
//! site — IPI multicast, scheduler tick, sweep hooks, state publish — and
//! counts every injected fault in its stats registry. The graceful-
//! degradation mechanisms that answer these faults (sweep watchdog,
//! adaptive IPI fallback) live in `latr-core`.

mod inject;
mod plan;
pub mod rt;

pub use inject::{FaultInjector, IpiFault, TickFault};
pub use plan::{
    AllocBurst, FaultPlan, FaultPlanError, FaultWindow, IpiFaults, OverflowStorm, ReclaimStall,
    StalledCore, TickFaults, WatermarkFlap,
};
pub use rt::{
    ThreadDeath, ThreadFault, ThreadFaultInjector, ThreadFaultPlan, ThreadFaultStream,
    ThreadPlanError,
};

/// Stream tag used to fork the injector's RNG off the machine seed; any
/// fixed constant works, it only has to be stable across runs.
pub const FAULT_STREAM: u64 = 0xFA017;

/// Stream tag for the real-thread fault injector ([`ThreadFaultInjector`]);
/// distinct from [`FAULT_STREAM`] so a run using both stays decorrelated,
/// and XOR-mixed with the worker index so every thread gets its own stream.
pub const THREAD_FAULT_STREAM: u64 = 0x007F_A017;
