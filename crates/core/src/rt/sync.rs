//! Synchronization shim: `std`/`parking_lot` normally, **loom** under
//! `--cfg loom`.
//!
//! The rt primitives ([`RtQueue`](crate::rt::RtQueue),
//! [`AtomicCpuMask`](crate::rt::AtomicCpuMask),
//! [`RtReclaimer`](crate::rt::RtReclaimer),
//! [`SoftTlbTable`](crate::rt::SoftTlbTable)) import their atomics and
//! locks from here instead of `std::sync` or `parking_lot` directly, so
//! the exact same source compiles in two worlds:
//!
//! * **Normal builds**: zero-cost re-exports of `std::sync::atomic` and
//!   `parking_lot`.
//! * **Model-checking builds** (`RUSTFLAGS="--cfg loom" cargo test -p
//!   latr-core --test loom`): every atomic operation and lock
//!   acquisition becomes a scheduling point, and every load may read any
//!   store the release/acquire memory model allows, letting the loom
//!   tests in `crates/core/tests/loom.rs` explore the publish/sweep/retire
//!   and grace-period protocols and check each `Ordering` they rely on
//!   (bounded by `LOOM_MAX_PREEMPTIONS`, default 2). See
//!   `third_party/loom` for the model.
//!
//! `crates/core/tests/shim_hygiene.rs` fails if another rt file names a
//! `std::sync` atomic or lock, or `parking_lot`, directly.

/// Atomic integer and boolean types plus `Ordering`.
pub mod atomic {
    #[cfg(not(loom))]
    pub use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

    #[cfg(loom)]
    pub use loom::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
}

#[cfg(not(loom))]
pub use parking_lot::{Mutex, MutexGuard, RwLock};

#[cfg(loom)]
pub use loom::sync::{Mutex, MutexGuard, RwLock};
