//! The real-thread worker loop shared by `rt_scale` and `soak`.
//!
//! Every worker hammers a [`SoftTlb`] lookup loop, sweeps at its tick,
//! and unmaps/remaps one key per round — deferring the "page" into the
//! [`ShardedReclaimer`] and collecting it back once its grace elapses.
//! This is the one rt runtime stack: the pending-row sweep, the sharded
//! reclaimer gated on the cached frontier, and `RtRegistry::publish`.
//! `rt_scale` runs the loop healthy and measures throughput; `soak` hands
//! each worker a [`ThreadFaultStream`] and measures survival.
//!
//! Every run carries the **canary**: each deferred item records
//! `min_live_tick() + grace` and the exclusion epoch at defer time, and
//! every [`SAMPLE_ROUNDS`]th collect re-checks the ground truth
//! `min_live_tick() ≥ due` whenever the epoch is unchanged (an exclusion
//! or rejoin in between legitimately moves the live minimum
//! non-monotonically, so those windows skip the strict check). With no
//! exclusions `min_live_tick() == min_tick()` and the epoch never moves,
//! so a healthy run checks every sampled item. A violation means memory
//! was handed back while a core could still hold a stale translation.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use latr_core::rt::{RtRegistry, ShardedReclaimer, SoftTlb, SoftTlbTable};
use latr_faults::{ThreadFault, ThreadFaultStream};

/// Keys in the shared table; lookups and unmaps cycle over this space.
pub(crate) const KEYSPACE: u64 = 256;
/// Lookups per loop round, between sweeps.
pub(crate) const LOOKUPS_PER_ROUND: u64 = 32;
/// Reclamation grace in sweep ticks (§4.2's two cycles).
pub(crate) const GRACE: u64 = 2;
/// Per-core queue capacity — deep enough that overflow is rare noise on
/// a healthy run. Between a thread's death and its exclusion the dead
/// queue fills and publishers overflow; the reap-on-exclusion path then
/// clears it.
const QUEUE_SLOTS: usize = 512;
/// How often (in rounds) a worker samples its sweep latency and its
/// collect re-derives the ground-truth frontier with an O(cores) scan.
/// Sampling keeps the measurement from taxing the lazy path it checks;
/// the exhaustive versions of the same property live in the loom and
/// differential suites.
const SAMPLE_ROUNDS: u64 = 8;

/// One worker's tallies.
#[derive(Default)]
pub(crate) struct ThreadStats {
    /// Lookups + unmaps completed.
    pub(crate) ops: u64,
    /// Loop rounds completed.
    pub(crate) rounds: u64,
    /// Unmap rounds completed.
    pub(crate) unmaps: u64,
    /// Items the reclaimer handed back.
    pub(crate) collected: u64,
    /// Sampled reclaim lags (ticks past due at collection).
    pub(crate) lag: Vec<u64>,
    /// Sampled sweep latencies (ns).
    pub(crate) sweep_ns: Vec<u64>,
}

impl ThreadStats {
    /// Sums every worker's tallies; the samples come back sorted.
    pub(crate) fn total(per_thread: impl IntoIterator<Item = ThreadStats>) -> ThreadStats {
        let mut sum = ThreadStats::default();
        for s in per_thread {
            sum.ops += s.ops;
            sum.rounds += s.rounds;
            sum.unmaps += s.unmaps;
            sum.collected += s.collected;
            sum.lag.extend(s.lag);
            sum.sweep_ns.extend(s.sweep_ns);
        }
        sum.lag.sort_unstable();
        sum.sweep_ns.sort_unstable();
        sum
    }
}

/// The state one lazy run shares across its workers.
pub(crate) struct Rig {
    /// Per-core queues, ticks and the exclusion set.
    pub(crate) registry: Arc<RtRegistry>,
    /// The soft-TLB table, every key mapped.
    table: Arc<SoftTlbTable>,
    /// Items carry `(conservative due tick, exclusion epoch at defer)`.
    reclaimer: ShardedReclaimer<(u64, u64)>,
    /// Raised when the measured window closes.
    pub(crate) stop: AtomicBool,
    /// Cleared by the first sampled collect that fails the canary.
    pub(crate) canary_ok: AtomicBool,
}

impl Rig {
    /// A rig for `threads` cores, with the frontier watchdog armed at
    /// `watchdog` if given.
    pub(crate) fn new(threads: usize, watchdog: Option<Duration>) -> Self {
        let registry = Arc::new(match watchdog {
            Some(t) => RtRegistry::with_watchdog(threads, QUEUE_SLOTS, t.as_nanos() as u64),
            None => RtRegistry::new(threads, QUEUE_SLOTS),
        });
        let table = Arc::new(SoftTlbTable::new(Arc::clone(&registry)));
        for k in 0..KEYSPACE {
            table.map_key(k, k + 1000);
        }
        Rig {
            registry,
            table,
            reclaimer: ShardedReclaimer::new(GRACE, threads),
            stop: AtomicBool::new(false),
            canary_ok: AtomicBool::new(true),
        }
    }

    /// Runs core `core`'s loop until `stop`: 32 lookups, a tick,
    /// `unmap_lazy` of one key (deferred at `min_live_tick() + GRACE`,
    /// then remapped), and a collect, canary-checked every
    /// [`SAMPLE_ROUNDS`]th round.
    ///
    /// `faults` injects one [`ThreadFault`] per round: a stall skips the
    /// tick, a delayed announce ticks without announcing, and a death
    /// ends the loop early. A faulted worker also yields after each
    /// publish — the publisher's nudge to sweepers — unless the round
    /// drops that wakeup. With `None` every round runs clean.
    ///
    /// Returns the tallies and, for an injected death, whether it is a
    /// panic; the caller carries the death out. A loop that ran to
    /// `stop` ticks once more if it was excluded, so a watchdog exclusion
    /// right before the window closed rejoins rather than reading as a
    /// stuck stall.
    pub(crate) fn worker(
        &self,
        core: usize,
        mut faults: Option<ThreadFaultStream>,
    ) -> (ThreadStats, Option<bool>) {
        let registry = &self.registry;
        let mut tlb = SoftTlb::new(core, Arc::clone(&self.table));
        let mut stats = ThreadStats::default();
        let mut collect_buf: Vec<(u64, u64)> = Vec::new();
        let mut round = 0u64;
        while !self.stop.load(Ordering::Relaxed) {
            let fault = faults
                .as_mut()
                .map_or(ThreadFault::Run, |f| f.fault_at(round));
            if let ThreadFault::Die { panic } = fault {
                return (stats, Some(panic));
            }
            for i in 0..LOOKUPS_PER_ROUND {
                black_box(tlb.lookup((round.wrapping_mul(7) + i) % KEYSPACE));
            }
            stats.ops += LOOKUPS_PER_ROUND;
            let sampled = round.is_multiple_of(SAMPLE_ROUNDS);
            let t0 = sampled.then(Instant::now);
            match fault {
                // A stall window: keep publishing, skip the sweep —
                // exactly the starvation the watchdog exists for.
                ThreadFault::Stalled => {}
                // Sweep without announcing: the cached frontier only
                // learns of this progress at a forced refresh.
                ThreadFault::DelayAnnounce => {
                    tlb.tick_unannounced();
                }
                _ => {
                    tlb.tick();
                }
            }
            if let Some(t0) = t0 {
                stats.sweep_ns.push(t0.elapsed().as_nanos() as u64);
            }
            // Munmap-heavy: *every* thread unmaps each round — the
            // per-round cost laziness takes off the critical path.
            let key = (core as u64).wrapping_mul(31).wrapping_add(round) % KEYSPACE;
            match self.table.unmap_lazy(core, key) {
                Ok(_) => {
                    stats.unmaps += 1;
                    stats.ops += 1;
                    // The due the reclaimer must respect: the slowest
                    // live core's tick now, plus grace.
                    let due = registry.min_live_tick() + GRACE;
                    self.reclaimer
                        .defer(registry, core, (due, registry.exclusion_events()));
                    self.table.map_key(key, key + 1000);
                    if faults.is_some() && fault != ThreadFault::DropWakeup {
                        std::thread::yield_now();
                    }
                }
                // Overflow is counted in the registry snapshot; back off.
                Err(_) => std::thread::yield_now(),
            }
            collect_buf.clear();
            self.reclaimer
                .collect_into(registry, core, &mut collect_buf);
            if !collect_buf.is_empty() {
                stats.collected += collect_buf.len() as u64;
                if sampled {
                    let min_live = registry.min_live_tick();
                    let epoch_now = registry.exclusion_events();
                    for &(due, at_epoch) in &collect_buf {
                        if at_epoch == epoch_now {
                            if min_live < due {
                                self.canary_ok.store(false, Ordering::Release);
                            }
                            stats.lag.push(min_live.saturating_sub(due));
                        }
                    }
                }
            }
            round = round.wrapping_add(1);
            stats.rounds += 1;
        }
        if registry.is_excluded(core) {
            tlb.tick();
        }
        (stats, None)
    }
}

/// Runs `worker(core)` on `threads` threads released together and
/// `monitor` alongside them, raises `stop` after `duration`, then joins
/// the monitor and the workers. Returns the monitor's result, each
/// worker's (a panicked worker's is `Err`), and the window's wall-clock
/// ns.
pub(crate) fn run_window<T: Send, M: Send>(
    threads: usize,
    duration: Duration,
    stop: &AtomicBool,
    worker: impl Fn(usize) -> T + Sync,
    monitor: impl FnOnce() -> M + Send,
) -> (M, Vec<std::thread::Result<T>>, u128) {
    let barrier = Barrier::new(threads + 1);
    std::thread::scope(|s| {
        let monitor = s.spawn(monitor);
        let (barrier, worker) = (&barrier, &worker);
        let handles: Vec<_> = (0..threads)
            .map(|core| {
                s.spawn(move || {
                    barrier.wait();
                    worker(core)
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        std::thread::sleep(duration);
        stop.store(true, Ordering::Relaxed);
        let monitored = monitor.join().expect("monitor thread");
        let joined = handles.into_iter().map(|h| h.join()).collect();
        (monitored, joined, start.elapsed().as_nanos().max(1))
    })
}
