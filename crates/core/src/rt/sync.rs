//! Synchronization shim: `std`/`parking_lot` normally, **loom** under
//! `--cfg loom`.
//!
//! The rt primitives ([`RtQueue`](crate::rt::RtQueue),
//! [`AtomicCpuMask`](crate::rt::AtomicCpuMask),
//! [`RtReclaimer`](crate::rt::RtReclaimer)) import their atomics and
//! locks from here instead of `std::sync` directly, so the exact same
//! source compiles in two worlds:
//!
//! * **Normal builds**: zero-cost re-exports of `std::sync::atomic` and
//!   `parking_lot`.
//! * **Model-checking builds** (`RUSTFLAGS="--cfg loom" cargo test -p
//!   latr-core --test loom`): every atomic operation and lock
//!   acquisition becomes a scheduling point, letting the loom tests in
//!   `crates/core/tests/loom.rs` exhaustively explore interleavings of
//!   the publish/sweep/retire and grace-period protocols (bounded by
//!   `LOOM_MAX_PREEMPTIONS`, default 2).
//!
//! The vendored `loom` stand-in models **sequential consistency** only:
//! it finds interleaving bugs (lost updates, double retirement, torn
//! check-then-act), not memory-ordering relaxation bugs. See
//! `third_party/loom` for details.

/// Atomic integer and boolean types plus `Ordering`.
pub mod atomic {
    #[cfg(not(loom))]
    pub use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

    #[cfg(loom)]
    pub use loom::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
}

#[cfg(not(loom))]
pub use parking_lot::{Mutex, MutexGuard};

#[cfg(loom)]
pub use loom::sync::{Mutex, MutexGuard};
