//! The cached reclamation frontier.
//!
//! The reference frontier is [`RtRegistry::min_tick`]: an O(cores) scan
//! of every per-core tick counter, paid on **every** `defer`/`collect`.
//! At 120+ real threads that scan touches 120 cache lines each time and
//! is itself the scaling bottleneck the paper's reclamation path must
//! avoid.
//!
//! [`ReclaimFrontier`] caches a *lower bound* of the minimum in one
//! global atomic, advanced crossbeam-epoch style: sweepers *announce*
//! their progress (their per-core tick bump) and only the core that may
//! have been the laggard — its pre-bump tick equalled the cached value —
//! re-scans and publishes a fresh minimum with a CAS-max. Everyone else
//! reads the frontier with a single uncontended load.
//!
//! # Invariant (loom-checked)
//!
//! The cached value never advances past an unswept core:
//! `cached ≤ min_tick()` at every instant. It holds because per-core
//! ticks are monotonic — a scan's observed minimum is a valid lower
//! bound of the true minimum *forever after* — and [`advance_to`] only
//! moves the cache up to such an observed minimum, monotonically
//! (CAS-max, never a blind store).
//!
//! # Liveness
//!
//! The announce trigger alone can miss: the laggard may bump its tick
//! after a scanner read it but before the scanner's CAS lands, so no
//! core ever observes `old == cached` again. [`RtRegistry`] therefore
//! also forces a refresh every [`REFRESH_TICKS`] sweeps per core — the
//! cache then lags the true minimum by a bounded number of sweeps
//! instead of stalling forever, while the O(cores) scan stays off the
//! common sweep path.
//!
//! [`RtRegistry`]: crate::rt::RtRegistry
//! [`RtRegistry::min_tick`]: crate::rt::RtRegistry::min_tick
//! [`advance_to`]: ReclaimFrontier::advance_to

use crate::rt::pad::CachePadded;
use crate::rt::sync::atomic::{AtomicU64, Ordering};

/// Force a frontier re-scan every this many sweeps of a single core, as
/// the liveness backstop for the announce trigger (see module docs).
pub const REFRESH_TICKS: u64 = 32;

/// A monotonically advancing cached lower bound of the registry's
/// minimum tick.
#[derive(Debug)]
pub struct ReclaimFrontier {
    /// The AcqRel CAS publishes a new frontier and the Acquire load lets
    /// a collector trust it without re-scanning the ticks (loom:
    /// `cached_frontier_publishes_what_the_sweepers_did`).
    cached: CachePadded<AtomicU64>,
}

impl Default for ReclaimFrontier {
    fn default() -> Self {
        Self::new()
    }
}

impl ReclaimFrontier {
    /// A frontier at tick 0.
    pub fn new() -> Self {
        ReclaimFrontier {
            cached: CachePadded::new(AtomicU64::new(0)),
        }
    }

    /// The cached frontier: one atomic load, guaranteed `≤ min_tick()`.
    pub fn get(&self) -> u64 {
        self.cached.load(Ordering::Acquire)
    }

    /// Publishes an observed minimum tick, advancing the cache
    /// monotonically (CAS-max: a stale observation never moves it
    /// backwards). Returns the frontier after the publish.
    pub fn advance_to(&self, observed_min: u64) -> u64 {
        let mut current = self.cached.load(Ordering::Acquire);
        while current < observed_min {
            match self.cached.compare_exchange(
                current,
                observed_min,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return observed_min,
                Err(now) => current = now,
            }
        }
        current
    }
}

/// Real-time watchdog state for the cached frontier: per-core wall-clock
/// timestamps of the last completed sweep, plus the timeout that declares
/// a core dead.
///
/// This is the wall-clock analogue of the simulator's `watchdog_ticks`
/// sweep watchdog: in the deterministic machine a core that misses its
/// sweep for N ticks trips the fallback, but real OS threads have no
/// global tick — a preempted, deadlocked, or dead thread simply stops
/// calling `finish_sweep`, pinning the frontier (and with it all
/// reclamation) forever. The watchdog bounds that: a core whose last
/// sweep is older than `timeout_ns` may be *excluded* from the frontier
/// scan by [`RtRegistry::check_watchdog`], after which the frontier
/// advances over it ("leak, never corrupt": the dead core's undelivered
/// invalidations are dropped, and it must flush its local cache before
/// rejoining).
///
/// Timestamps are nanoseconds since the watchdog's construction. Under
/// `cfg(loom)` the clock is virtual (`advance_clock`) so model runs
/// stay deterministic.
///
/// [`RtRegistry::check_watchdog`]: crate::rt::RtRegistry::check_watchdog
#[derive(Debug)]
pub struct FrontierWatchdog {
    timeout_ns: u64,
    /// Last-sweep timestamp per core, one cache line each: written by the
    /// owning sweeper every sweep, read only by watchdog scans. The
    /// Release store pairs with the watchdog's Acquire read, so a stall
    /// verdict never precedes the sweep it indicts.
    last_sweep_ns: Box<[CachePadded<AtomicU64>]>,
    #[cfg(not(loom))]
    epoch: std::time::Instant,
    /// The deterministic loom clock, advanced AcqRel.
    #[cfg(loom)]
    clock_ns: CachePadded<AtomicU64>,
}

impl FrontierWatchdog {
    /// Creates a watchdog for `cores` cores. A core that has not swept
    /// within `timeout_ns` of "now" (or of construction, if it never
    /// swept) is considered stalled.
    pub fn new(cores: usize, timeout_ns: u64) -> Self {
        FrontierWatchdog {
            timeout_ns,
            last_sweep_ns: (0..cores)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
            #[cfg(not(loom))]
            epoch: std::time::Instant::now(),
            #[cfg(loom)]
            clock_ns: CachePadded::new(AtomicU64::new(0)),
        }
    }

    /// Nanoseconds since construction.
    #[cfg(not(loom))]
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Nanoseconds on the virtual loom clock.
    #[cfg(loom)]
    pub fn now_ns(&self) -> u64 {
        self.clock_ns.load(Ordering::Acquire)
    }

    /// Advances the virtual clock (loom only — real time is not
    /// deterministic under the model checker).
    #[cfg(loom)]
    pub fn advance_clock(&self, ns: u64) {
        self.clock_ns.fetch_add(ns, Ordering::AcqRel);
    }

    /// Records that `core` just completed a sweep.
    pub fn record_sweep(&self, core: usize) {
        self.last_sweep_ns[core].store(self.now_ns(), Ordering::Release);
    }

    /// `core`'s last recorded sweep, in nanoseconds since construction
    /// (0 if it never swept).
    fn last_sweep_ns(&self, core: usize) -> u64 {
        self.last_sweep_ns[core].load(Ordering::Acquire)
    }

    /// Whether `core` has gone longer than the timeout without sweeping,
    /// as of `now_ns`.
    pub fn timed_out(&self, core: usize, now_ns: u64) -> bool {
        now_ns.saturating_sub(self.last_sweep_ns(core)) > self.timeout_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advances_monotonically() {
        let f = ReclaimFrontier::new();
        assert_eq!(f.get(), 0);
        assert_eq!(f.advance_to(3), 3);
        // A stale (lower) observation never regresses the cache.
        assert_eq!(f.advance_to(1), 3);
        assert_eq!(f.get(), 3);
        assert_eq!(f.advance_to(7), 7);
    }

    #[test]
    fn watchdog_times_out_only_stale_cores() {
        let w = FrontierWatchdog::new(2, 1_000_000); // 1 ms
        w.record_sweep(0);
        std::thread::sleep(std::time::Duration::from_millis(5));
        let now = w.now_ns();
        assert!(w.timed_out(0, now), "core 0 last swept >1ms ago");
        assert!(w.timed_out(1, now), "core 1 never swept");
        w.record_sweep(1);
        assert!(
            !w.timed_out(1, w.now_ns()),
            "a fresh sweep clears the stall"
        );

        // A generous timeout never trips in-test.
        let w = FrontierWatchdog::new(1, 60_000_000_000);
        assert!(!w.timed_out(0, w.now_ns()));
        assert_eq!(w.timeout_ns, 60_000_000_000);
    }

    #[test]
    fn concurrent_advances_keep_the_max() {
        use std::sync::Arc;
        let f = Arc::new(ReclaimFrontier::new());
        let handles: Vec<_> = (1..=8u64)
            .map(|n| {
                let f = Arc::clone(&f);
                std::thread::spawn(move || {
                    for v in 0..=n * 10 {
                        f.advance_to(v);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(f.get(), 80);
    }
}
