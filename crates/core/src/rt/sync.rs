//! Synchronization shim: `std` normally, **loom** under `--cfg loom`.
//!
//! The rt primitives ([`RtQueue`](crate::rt::RtQueue),
//! [`AtomicCpuMask`](crate::rt::AtomicCpuMask),
//! [`RtReclaimer`](crate::rt::RtReclaimer),
//! [`SoftTlbTable`](crate::rt::SoftTlbTable)) import their atomics and
//! locks from here instead of `std::sync` directly, so the exact same
//! source compiles in two worlds:
//!
//! * **Normal builds**: `std::sync::atomic` re-exported, and thin
//!   wrappers over `std::sync`'s `Mutex`/`RwLock` whose `lock`, `read`
//!   and `write` return the guard directly and ignore poisoning, the API
//!   the loom locks share.
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
//! `std::sync` atomic or lock directly.

/// Atomic integer and boolean types plus `Ordering`.
pub mod atomic {
    #[cfg(not(loom))]
    pub use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

    #[cfg(loom)]
    pub use loom::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
}

#[cfg(not(loom))]
pub use locks::{Mutex, MutexGuard, RwLock};

#[cfg(loom)]
pub use loom::sync::{Mutex, MutexGuard, RwLock};

/// `std::sync` locks with the guard-returning API of the loom locks. A
/// holder that panics does not poison them: the rt structures they guard
/// are consistent between any two statements, and a panicking sweeper is
/// already fenced off by the registry's own core poisoning.
#[cfg(not(loom))]
mod locks {
    use std::sync::{self, PoisonError, TryLockError};

    /// A mutual-exclusion lock whose `lock()` returns the guard directly.
    #[derive(Debug)]
    pub struct Mutex<T>(sync::Mutex<T>);

    /// Guard returned by [`Mutex::lock`].
    pub type MutexGuard<'a, T> = sync::MutexGuard<'a, T>;

    impl<T> Mutex<T> {
        /// Creates a new mutex.
        pub fn new(value: T) -> Self {
            Mutex(sync::Mutex::new(value))
        }

        /// Acquires the lock, blocking until it is free.
        pub fn lock(&self) -> MutexGuard<'_, T> {
            self.0.lock().unwrap_or_else(PoisonError::into_inner)
        }

        /// Acquires the lock if it is free.
        pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
            match self.0.try_lock() {
                Ok(guard) => Some(guard),
                Err(TryLockError::Poisoned(poisoned)) => Some(poisoned.into_inner()),
                Err(TryLockError::WouldBlock) => None,
            }
        }
    }

    /// A reader-writer lock whose `read()`/`write()` return guards directly.
    #[derive(Debug)]
    pub struct RwLock<T>(sync::RwLock<T>);

    impl<T> RwLock<T> {
        /// Creates a new reader-writer lock.
        pub fn new(value: T) -> Self {
            RwLock(sync::RwLock::new(value))
        }

        /// Acquires shared read access.
        pub fn read(&self) -> sync::RwLockReadGuard<'_, T> {
            self.0.read().unwrap_or_else(PoisonError::into_inner)
        }

        /// Acquires exclusive write access.
        pub fn write(&self) -> sync::RwLockWriteGuard<'_, T> {
            self.0.write().unwrap_or_else(PoisonError::into_inner)
        }
    }
}
