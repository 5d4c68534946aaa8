//! Lock-free Latr state queues and the all-cores registry.
//!
//! Memory layout follows §4.1: each core owns a cyclic array of states
//! "allocated from a contiguous memory region" so sweeps stream through
//! them with the prefetcher. Publication uses the paper's ordering rule:
//! "an entry is activated after setting all the fields using an atomic
//! instruction coupled with a memory barrier" — here, a release store of
//! the `active` flag after the plain field writes, paired with acquire
//! loads in the sweep.

use crate::rt::frontier::{FrontierWatchdog, ReclaimFrontier, REFRESH_TICKS};
use crate::rt::mask::AtomicCpuMask;
use crate::rt::pad::CachePadded;
use crate::rt::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use crate::rt::sync::Mutex;
use latr_arch::CpuMask;

/// Sentinel slot index returned by a publish whose target mask named no
/// live core — only excluded cores or CPUs at or above the core count:
/// the invalidation is moot (a dead core has no cache to keep coherent,
/// an excluded core must flush before rejoining, and a missing core has
/// nothing to sweep), so no queue slot was consumed.
pub const NO_SLOT: usize = usize::MAX;

/// The payload of one invalidation: which address space and which virtual
/// byte range must be flushed from the sweeper's local cache/TLB analogue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RtInvalidation {
    /// Address-space identifier (the `mm` pointer in the kernel).
    pub mm: u64,
    /// First byte of the range.
    pub start: u64,
    /// One past the last byte.
    pub end: u64,
}

/// Publishing failed because every slot is active — the caller must fall
/// back to its synchronous mechanism (IPIs in the kernel).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PublishError;

impl std::fmt::Display for PublishError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "latr state queue full; fall back to synchronous shootdown"
        )
    }
}

impl std::error::Error for PublishError {}

/// One slot: the Latr state of §4.1 with an atomic activation flag.
#[derive(Debug)]
struct Slot {
    /// Payload word, stored and loaded Relaxed: the `active` flip
    /// publishes it.
    start: AtomicU64,
    /// Payload word, published by the `active` flip.
    end: AtomicU64,
    /// Payload word, published by the `active` flip.
    mm: AtomicU64,
    /// Target mask: stored Relaxed before the `active` flip publishes it;
    /// sweepers re-test membership with Acquire after observing `active`.
    cpus: AtomicCpuMask,
    /// The publication flag: the Release store after the payload writes
    /// publishes them, the sweep's Acquire load receives them, and the
    /// AcqRel CAS retires the slot exactly once (loom:
    /// `slot_activation_publishes_the_payload_and_what_preceded_it`).
    active: AtomicBool,
}

impl Slot {
    fn new() -> Self {
        Slot {
            start: AtomicU64::new(0),
            end: AtomicU64::new(0),
            mm: AtomicU64::new(0),
            cpus: AtomicCpuMask::new(),
            active: AtomicBool::new(false),
        }
    }
}

/// A single core's cyclic, lock-free queue of Latr states.
///
/// Single-publisher (the owning core), multi-clearer (every sweeping
/// core). An `active` counter lets sweeps skip idle queues with a single
/// load — the contiguous-and-cheap sweep §4.1 relies on.
#[derive(Debug)]
pub struct RtQueue {
    slots: Box<[Slot]>,
    // Head and active counter each own a cache line: the publisher's
    // head bump must not invalidate the line every sweeper polls for the
    // idle-queue fast path (and vice versa).
    /// Ring cursor, Relaxed: only a probe hint, since each slot's
    /// `active` flag decides whether it is free.
    head: CachePadded<AtomicUsize>,
    /// Occupancy count: Release increments and decrements pair with the
    /// Acquire fast-path load, so an observed zero means every slot is
    /// visibly idle.
    active: CachePadded<AtomicUsize>,
}

impl RtQueue {
    /// Creates a queue of `capacity` slots (64 in the paper).
    pub fn new(capacity: usize) -> Self {
        RtQueue {
            slots: (0..capacity).map(|_| Slot::new()).collect(),
            head: CachePadded::new(AtomicUsize::new(0)),
            active: CachePadded::new(AtomicUsize::new(0)),
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Number of currently active states (racy snapshot).
    pub fn active_count(&self) -> usize {
        self.active.load(Ordering::Acquire)
    }

    /// Publishes an invalidation for the CPUs in `targets`. Only the
    /// owning core may call this (single producer).
    ///
    /// # Errors
    ///
    /// Returns [`PublishError`] when all slots are active; the caller
    /// falls back to its synchronous path.
    pub fn publish(&self, inv: RtInvalidation, targets: CpuMask) -> Result<usize, PublishError> {
        let n = self.slots.len();
        let head = self.head.load(Ordering::Relaxed);
        for probe in 0..n {
            let idx = (head + probe) % n;
            let slot = &self.slots[idx];
            if slot.active.load(Ordering::Acquire) {
                continue;
            }
            // Fields first (plain stores)...
            slot.start.store(inv.start, Ordering::Relaxed);
            slot.end.store(inv.end, Ordering::Relaxed);
            slot.mm.store(inv.mm, Ordering::Relaxed);
            slot.cpus.store(targets, Ordering::Relaxed);
            // ...then the activation with release ordering (§4.1's barrier).
            self.active.fetch_add(1, Ordering::Release);
            slot.active.store(true, Ordering::Release);
            self.head.store((idx + 1) % n, Ordering::Relaxed);
            return Ok(idx);
        }
        Err(PublishError)
    }

    /// Sweeps this queue on behalf of `cpu`: collects every active state
    /// naming it, clears the bit, and retires slots whose masks emptied.
    /// Idle queues cost one atomic load.
    #[inline]
    pub fn sweep_for(&self, cpu: usize, out: &mut Vec<RtInvalidation>) {
        self.clear_for(cpu, Some(out));
    }

    /// The one slot walk: clears `cpu`'s bit from every active state
    /// naming it and retires the slots whose masks empty. With `out` it is
    /// the sweep and appends each cleared state's payload; without, it is
    /// the "leak, never corrupt" reap done on behalf of an excluded core,
    /// whose local cache either no longer exists (dead thread) or will be
    /// flushed wholesale before it rejoins, and reads no payload. Returns
    /// the number of states cleared.
    #[inline]
    fn clear_for(&self, cpu: usize, mut out: Option<&mut Vec<RtInvalidation>>) -> u64 {
        if self.active.load(Ordering::Acquire) == 0 {
            return 0;
        }
        let mut cleared = 0;
        for slot in self.slots.iter() {
            if !slot.active.load(Ordering::Acquire) {
                continue;
            }
            if !slot.cpus.test(cpu, Ordering::Acquire) {
                continue;
            }
            // Read the payload before clearing our bit: once the mask
            // empties the slot may be recycled by the publisher.
            let inv = out.is_some().then(|| RtInvalidation {
                mm: slot.mm.load(Ordering::Relaxed),
                start: slot.start.load(Ordering::Relaxed),
                end: slot.end.load(Ordering::Relaxed),
            });
            let (was_set, now_empty) = slot.cpus.clear(cpu);
            if !was_set {
                continue;
            }
            cleared += 1;
            if let (Some(out), Some(inv)) = (out.as_deref_mut(), inv) {
                out.push(inv);
            }
            // Last core out retires the state; the CAS makes the
            // cross-word emptiness race benign — exactly one retirer
            // decrements the counter.
            if now_empty
                && slot
                    .active
                    .compare_exchange(true, false, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
            {
                self.active.fetch_sub(1, Ordering::Release);
            }
        }
        cleared
    }
}

/// Cold robustness counters. They are bumped only on exclusion events
/// (rare by construction), so they share one padded line instead of
/// taking five. All but the epoch are Relaxed event counts, read fuzzily
/// by [`RtRegistry::stats`] and never used to synchronize.
#[derive(Debug, Default)]
struct RobustCounters {
    /// Cores excluded by the frontier watchdog (stall detection).
    stall_exclusions: AtomicU64,
    /// Cores excluded because their sweep panicked (see [`SweepGuard`]).
    panic_poisons: AtomicU64,
    /// Excluded cores that flushed and rejoined the frontier.
    rejoins: AtomicU64,
    /// States dropped while reaping excluded cores' bits from the queues.
    reaped_states: AtomicU64,
    /// Exclusion *epoch*: bumped on every exclusion AND every rejoin, so
    /// an unchanged value brackets a window with a stable live set (the
    /// soak canary compares epochs to know its ground-truth recheck is
    /// race-free). AcqRel bumps and Acquire reads order a canary's
    /// observation of the mask and counters after the event that bumped
    /// it.
    exclusion_events: AtomicU64,
}

/// Unified snapshot of every rt runtime counter, with saturating
/// aggregation. This is the one API benches, tests and monitors read
/// instead of poking individual counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RtStats {
    /// Number of cores in the registry.
    pub cores: usize,
    /// States successfully published (queue path taken, IPI avoided).
    pub states_saved: u64,
    /// Publish attempts that overflowed to the synchronous path.
    pub overflows: u64,
    /// Minimum tick over **all** cores (excluded ones included — this is
    /// the PR-5 reference frontier and stops advancing once a core dies).
    pub min_tick: u64,
    /// [`RtRegistry::min_live_tick`]: the minimum over live cores, with
    /// the cached frontier standing in for an excluded one; equals
    /// `min_tick` when nothing is excluded.
    pub min_live_tick: u64,
    /// Maximum tick over all cores.
    pub max_tick: u64,
    /// The cached reclamation frontier.
    pub cached_frontier: u64,
    /// How far the fastest sweeper leads the cached frontier
    /// (`max_tick - cached_frontier`, saturating) — the live reclaim-lag
    /// signal: how long the fastest core's fresh defers will wait.
    pub reclaim_lag_ticks: u64,
    /// Cores currently excluded from the frontier.
    pub excluded_cores: usize,
    /// Watchdog-driven exclusions to date.
    pub stall_exclusions: u64,
    /// Panic-driven exclusions to date.
    pub panic_poisons: u64,
    /// Flush-and-rejoin events to date.
    pub rejoins: u64,
    /// States leaked (reaped undelivered) on behalf of excluded cores.
    pub reaped_states: u64,
    /// Exclusion epoch (see [`RtRegistry::exclusion_events`]).
    pub exclusion_events: u64,
}

/// RAII panic fence around a sweep/reclaim critical section: if the
/// guarded scope unwinds (or the thread dies mid-sweep and Rust unwinds
/// it), `Drop` poisons only this core — it is excluded from the frontier
/// so every *other* core's reclamation keeps advancing, and its
/// undelivered states are reaped (leaked, never delivered corrupt).
/// Call [`complete`](SweepGuard::complete) on the success path.
#[derive(Debug)]
pub struct SweepGuard<'a> {
    registry: &'a RtRegistry,
    core: usize,
    armed: bool,
}

impl SweepGuard<'_> {
    /// The guarded core.
    pub fn core(&self) -> usize {
        self.core
    }

    /// Disarms the guard: the sweep completed normally.
    pub fn complete(mut self) {
        self.armed = false;
    }
}

impl Drop for SweepGuard<'_> {
    fn drop(&mut self) {
        if self.armed && std::thread::panicking() {
            self.registry.poison_core(self.core);
        }
    }
}

/// All cores' queues plus per-core tick counters: the complete §4.1
/// structure ("64 Latr states per core, allocated from a contiguous
/// memory region").
#[derive(Debug)]
pub struct RtRegistry {
    queues: Vec<RtQueue>,
    /// Pending-sweep bitmap, one row per target core: bit *q* of row *c*
    /// means "queue *q* may hold a state naming core *c*". Publishers set
    /// bits *after* activating their slots; [`sweep_into`] drains its
    /// row atomically and visits only the flagged queues. Bits can be
    /// stale-set (a visit that finds nothing) but never stale-clear.
    ///
    /// [`sweep_into`]: RtRegistry::sweep_into
    ///
    /// Each row is cache-line-padded: a publisher flagging core A's row
    /// must not ping-pong the line core B drains every tick.
    ///
    /// Rows change only through the mask's AcqRel `set_bit` and
    /// `take`, so a sweeper that takes a bit sees the activation
    /// the publisher made before setting it (loom:
    /// `pending_bitmap_publish_and_drain_race_loses_nothing`).
    pending: Box<[CachePadded<AtomicCpuMask>]>,
    /// CPUs `0..cores`: publish targets are clipped to it, since no sweep
    /// would ever clear a bit at or above `cores`.
    core_mask: CpuMask,
    /// Per-core tick counters, one cache line each — the hottest state in
    /// the registry (bumped on every sweep, scanned by the frontier).
    /// A sweep announces itself with a Release bump and frontier scans
    /// load ticks Acquire, so a collector that sees a tick pass a due
    /// sees the sweep behind it (loom:
    /// `tick_announce_publishes_what_the_sweeper_did`).
    ticks: Box<[CachePadded<AtomicU64>]>,
    /// Cached lower bound of [`min_tick`](Self::min_tick), advanced by
    /// sweepers (see [`ReclaimFrontier`]).
    frontier: ReclaimFrontier,
    /// Per-core publish counters (indexed by the publishing core, summed
    /// on read) so the single shared `fetch_add` line disappears from the
    /// publish path. Relaxed statistics, never used to synchronize.
    saved: Box<[CachePadded<AtomicU64>]>,
    /// Per-core overflow counters, same layout as `saved`.
    overflows: Box<[CachePadded<AtomicU64>]>,
    /// Cores excluded from the frontier (watchdog-stalled or poisoned).
    /// A set bit means the core's tick no longer gates reclamation and
    /// its queue bits are reaped; the owner must flush its local cache
    /// and [`rejoin`](Self::rejoin) before sweeping normally again.
    ///
    /// Updated with AcqRel RMWs under `transition` and read Acquire, so a
    /// scan that sees a rejoined core's bit clear also sees its
    /// fast-forwarded tick (loom:
    /// `exclusion_mask_publishes_the_rejoin_fast_forward`).
    excluded: CachePadded<AtomicCpuMask>,
    /// Fast-path mirror of `excluded.count()`: publishers check one
    /// relaxed load of this (a line that is never written in healthy
    /// runs) before paying the mask filter; a stale zero only skips that
    /// filter. Updated AcqRel beside the mask.
    excluded_count: CachePadded<AtomicUsize>,
    /// Real-time stall detector, present only when constructed via
    /// [`with_watchdog`](Self::with_watchdog). `None` keeps the fault-free
    /// sweep path bit-identical to the un-hardened registry.
    watchdog: Option<FrontierWatchdog>,
    /// The hotplug-style transition lock: serializes exclusion-mask
    /// transitions (exclude/rejoin) against *live-set* frontier scans. A
    /// scan whose mask snapshot predates a rejoin could otherwise pass
    /// the rejoined core's freshly caught-up tick and advance the cached
    /// frontier over a live core — the one way "leak, never corrupt"
    /// could turn into corruption. Scans take it with `try_lock` (skip
    /// on contention, the forced refresh retries), so the healthy sweep
    /// path never blocks; transitions are rare and may
    /// (`sweep_never_blocks_behind_a_held_transition_lock` holds the lock
    /// across a sweep).
    transition: Mutex<()>,
    robust: CachePadded<RobustCounters>,
}

impl RtRegistry {
    /// Creates the registry for `cores` cores with `states_per_core` slots
    /// each. The frontier watchdog is disabled; panic poisoning via
    /// [`sweep_guard`](Self::sweep_guard) still works.
    ///
    /// # Panics
    ///
    /// If `cores` exceeds 256, the width of a CPU mask.
    pub fn new(cores: usize, states_per_core: usize) -> Self {
        Self::build(cores, states_per_core, None)
    }

    /// [`new`](Self::new) plus a real-time frontier watchdog: a core that
    /// goes `watchdog_timeout_ns` without completing a sweep is excluded
    /// from the frontier by the next [`check_watchdog`](Self::check_watchdog)
    /// (also run in-band from the periodic forced refresh), so a dead or
    /// wedged thread pins reclamation for at most the timeout plus one
    /// detection interval instead of forever.
    ///
    /// # Panics
    ///
    /// If `cores` exceeds 256, the width of a CPU mask.
    pub fn with_watchdog(cores: usize, states_per_core: usize, watchdog_timeout_ns: u64) -> Self {
        Self::build(
            cores,
            states_per_core,
            Some(FrontierWatchdog::new(cores, watchdog_timeout_ns)),
        )
    }

    fn build(cores: usize, states_per_core: usize, watchdog: Option<FrontierWatchdog>) -> Self {
        assert!(
            cores <= 256,
            "RtRegistry supports at most 256 cores (the width of a CpuMask), got {cores}"
        );
        RtRegistry {
            queues: (0..cores).map(|_| RtQueue::new(states_per_core)).collect(),
            pending: (0..cores)
                .map(|_| CachePadded::new(AtomicCpuMask::new()))
                .collect(),
            core_mask: CpuMask::first_n(cores),
            ticks: (0..cores)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
            frontier: ReclaimFrontier::new(),
            saved: (0..cores)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
            overflows: (0..cores)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
            excluded: CachePadded::new(AtomicCpuMask::new()),
            excluded_count: CachePadded::new(AtomicUsize::new(0)),
            watchdog,
            transition: Mutex::new(()),
            robust: CachePadded::new(RobustCounters::default()),
        }
    }

    /// Flags `core`'s queue in the pending row of every CPU in `targets`
    /// (already clipped to `0..cores`). Must run *after* the slots were
    /// activated: the release `fetch_or` pairs with the sweep's draining
    /// swap, so a sweeper that takes a bit is guaranteed to see the
    /// activation.
    fn mark_pending(&self, core: usize, targets: CpuMask) {
        for cpu in targets.iter() {
            self.pending[cpu.index()].set_bit(core);
        }
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.queues.len()
    }

    /// One core's queue.
    pub fn queue(&self, core: usize) -> &RtQueue {
        &self.queues[core]
    }

    /// Publishes an invalidation from `core` targeting the CPUs in
    /// `targets`.
    ///
    /// Targets at or above [`cores`](Self::cores) are dropped (no sweep
    /// would ever clear them, so they would pin the slot forever), and so
    /// are excluded cores (their caches are gone or will be flushed
    /// before rejoin, so delivering to them is moot). A mask left empty
    /// consumes no slot and returns [`NO_SLOT`]. On overflow while cores
    /// are excluded the queue is reaped of dead bits and the publish
    /// retried once — a dead core must not be able to pin every slot of
    /// a live publisher.
    ///
    /// # Errors
    ///
    /// Returns [`PublishError`] on queue overflow.
    // Hot path: the publish every unmap takes. `tests/zero_alloc.rs`
    // checks that it allocates nothing, overflow and excluded targets
    // included.
    pub fn publish(
        &self,
        core: usize,
        inv: RtInvalidation,
        targets: CpuMask,
    ) -> Result<usize, PublishError> {
        let mut targets = targets.intersection(&self.core_mask);
        let degraded = self.excluded_count.load(Ordering::Relaxed) > 0;
        if degraded {
            targets = targets.difference(&self.excluded.load(Ordering::Acquire));
        }
        if targets.is_empty() {
            self.saved[core].fetch_add(1, Ordering::Relaxed);
            return Ok(NO_SLOT);
        }
        let mut published = self.queues[core].publish(inv, targets);
        if published.is_err() && degraded && self.reap_queue_of_excluded(core) > 0 {
            // Dead-core bits were pinning slots; retry once post-reap.
            published = self.queues[core].publish(inv, targets);
        }
        if published.is_ok() {
            self.mark_pending(core, targets);
            self.saved[core].fetch_add(1, Ordering::Relaxed);
        } else {
            self.overflows[core].fetch_add(1, Ordering::Relaxed);
        }
        published
    }

    /// The sweep (§4.1): drains `core`'s pending row, visits only the
    /// flagged queues, clears `core`'s bits, bumps its tick counter, and
    /// returns the invalidations the caller must apply locally. The
    /// allocating convenience form of [`sweep_into`](Self::sweep_into).
    pub fn sweep(&self, core: usize) -> Vec<RtInvalidation> {
        let mut out = Vec::new();
        self.sweep_into(core, &mut out);
        out
    }

    /// The runtime sweep: appends the invalidations to `out` (not cleared
    /// first) so a tick loop can reuse one buffer across its whole
    /// lifetime. A publisher flags the row only after activating its
    /// slots, so every state naming `core` is covered by a bit; a
    /// stale-set bit just costs one empty queue scan. Bits set
    /// concurrently with the drain survive into the next sweep.
    // Hot path, allocation-free (`tests/zero_alloc.rs`).
    pub fn sweep_into(&self, core: usize, out: &mut Vec<RtInvalidation>) {
        self.sweep_inner(core, out, true);
    }

    /// [`sweep_into`](Self::sweep_into) without the frontier announce:
    /// the tick still bumps (and the watchdog still sees the sweep — the
    /// thread is alive), but the announce/forced-refresh trigger is
    /// skipped. This models a delayed frontier announce: correctness is
    /// untouched (the invalidations are applied; the cached frontier only
    /// lags further), and other cores' forced refreshes eventually pick
    /// the progress up.
    pub fn sweep_into_unannounced(&self, core: usize, out: &mut Vec<RtInvalidation>) {
        self.sweep_inner(core, out, false);
    }

    fn sweep_inner(&self, core: usize, out: &mut Vec<RtInvalidation>, announce: bool) {
        for q in self.pending[core].take().iter() {
            if let Some(queue) = self.queues.get(q.index()) {
                queue.sweep_for(core, out);
            }
        }
        self.finish_sweep(core, announce);
    }

    /// The reference sweep, kept as the executable spec of
    /// [`sweep_into`](Self::sweep_into): scans *every* core's queue for
    /// states naming `core` instead of draining the pending row (which it
    /// leaves stale-set), then finishes the tick the same way. Tests
    /// compare the two; no runtime path calls this.
    pub fn full_scan_into(&self, core: usize, out: &mut Vec<RtInvalidation>) {
        for q in &self.queues {
            q.sweep_for(core, out);
        }
        self.finish_sweep(core, true);
    }

    /// Bumps `core`'s tick and announces it to the cached frontier:
    /// only a core that may have been the frontier laggard (its pre-bump
    /// tick equalled the cache) re-scans, plus a periodic forced refresh
    /// as the liveness backstop (see [`crate::rt::frontier`]). Every
    /// other sweep costs one padded-line `fetch_add` and one load.
    ///
    /// With the watchdog enabled the sweep is also timestamped, and the
    /// periodic forced refresh doubles as the in-band stall check.
    fn finish_sweep(&self, core: usize, announce: bool) {
        if let Some(w) = &self.watchdog {
            w.record_sweep(core);
        }
        let old = self.ticks[core].fetch_add(1, Ordering::Release);
        let forced = (old + 1).is_multiple_of(REFRESH_TICKS);
        if announce && (old == self.frontier.get() || forced) {
            self.advance_frontier();
        }
        if forced && self.watchdog.is_some() {
            self.check_watchdog();
        }
    }

    /// A core's tick count.
    pub fn tick_of(&self, core: usize) -> u64 {
        self.ticks[core].load(Ordering::Acquire)
    }

    /// The minimum tick across all cores — the reclamation frontier: an
    /// object parked when every core's tick was ≥ `t` may be freed once
    /// `min_tick() ≥ t + 2` (§4.2's two-cycle rule).
    ///
    /// This is the reference frontier: an O(cores) scan. The scaling
    /// path reads [`cached_frontier`](Self::cached_frontier) instead.
    pub fn min_tick(&self) -> u64 {
        self.ticks
            .iter()
            .map(|t| t.load(Ordering::Acquire))
            .min()
            .unwrap_or(0)
    }

    /// The cached reclamation frontier: a single atomic load, always
    /// `≤ min_tick()` (it may lag, never lead — the loom suite checks
    /// this), advanced by sweepers via [`finish_sweep`](Self::sweep).
    pub fn cached_frontier(&self) -> u64 {
        self.frontier.get()
    }

    /// The minimum tick across *live* (non-excluded) cores — the frontier
    /// the hardened runtime gates reclamation on. With nothing excluded
    /// this is exactly [`min_tick`](Self::min_tick): one Acquire load of
    /// the exclusion count decides, and it pairs with the AcqRel decrement
    /// in [`rejoin`](Self::rejoin), so a scan that sees the count reach
    /// zero also sees the rejoined core's fast-forwarded tick. With
    /// exclusions, a
    /// core observed as excluded contributes the *cached frontier* as its
    /// stand-in tick instead of being skipped: this read is lock-free and
    /// can race a concurrent [`rejoin`](Self::rejoin), and the cached
    /// frontier is the one value guaranteed not to exceed the rejoined
    /// core's caught-up tick (`cached ≤ min-live` is the transition-lock
    /// invariant). The result is a sound lower bound for any caller; the
    /// advancement path uses the exact live scan under the transition
    /// lock instead ([`advance_frontier`](Self::advance_frontier)), so
    /// dead cores still stop gating reclamation.
    // Hot path, allocation-free (`tests/zero_alloc.rs`).
    pub fn min_live_tick(&self) -> u64 {
        if self.excluded_count.load(Ordering::Acquire) == 0 {
            return self.min_tick();
        }
        let floor = self.frontier.get();
        let mut min = u64::MAX;
        for (core, t) in self.ticks.iter().enumerate() {
            if self.excluded.test(core, Ordering::Acquire) {
                min = min.min(floor);
            } else {
                min = min.min(t.load(Ordering::Acquire));
            }
        }
        min
    }

    /// The exact minimum over live cores. Only sound while `transition`
    /// is held (or when no core is excluded): a concurrent rejoin would
    /// let this pass the rejoining core's tick.
    fn min_live_tick_locked(&self) -> u64 {
        let mut min = u64::MAX;
        let mut any_live = false;
        for (core, t) in self.ticks.iter().enumerate() {
            if self.excluded.test(core, Ordering::Acquire) {
                continue;
            }
            min = min.min(t.load(Ordering::Acquire));
            any_live = true;
        }
        if any_live {
            min
        } else {
            self.frontier.get()
        }
    }

    /// Forces a frontier refresh: one reference scan published into the
    /// cache. Returns the frontier after the publish.
    ///
    /// With no exclusions this is the full-set scan — unconditionally
    /// safe to publish, since the minimum over *all* ticks lower-bounds
    /// the minimum over any live subset even mid-transition. With
    /// exclusions the scan must skip dead cores to make progress, which
    /// is only sound against a stable mask: it runs under the transition
    /// lock, and skips the refresh entirely if the lock is contended (an
    /// exclude/rejoin is in flight; the next announce or forced refresh
    /// retries).
    pub fn advance_frontier(&self) -> u64 {
        if self.excluded_count.load(Ordering::Acquire) == 0 {
            return self.frontier.advance_to(self.min_tick());
        }
        match self.transition.try_lock() {
            Some(_guard) => self.frontier.advance_to(self.min_live_tick_locked()),
            None => self.frontier.get(),
        }
    }

    /// States successfully published (sum of the per-core counters).
    pub fn states_saved(&self) -> u64 {
        self.saved
            .iter()
            .fold(0u64, |a, c| a.saturating_add(c.load(Ordering::Relaxed)))
    }

    /// Publish attempts that overflowed (sum of the per-core counters).
    pub fn overflows(&self) -> u64 {
        self.overflows
            .iter()
            .fold(0u64, |a, c| a.saturating_add(c.load(Ordering::Relaxed)))
    }

    /// The frontier watchdog, if enabled (benches read timestamps and,
    /// under loom, drive the virtual clock through this).
    pub fn watchdog(&self) -> Option<&FrontierWatchdog> {
        self.watchdog.as_ref()
    }

    /// Whether any core is currently excluded (one relaxed load).
    pub fn has_exclusions(&self) -> bool {
        self.excluded_count.load(Ordering::Relaxed) > 0
    }

    /// Whether `core` is currently excluded from the frontier.
    pub fn is_excluded(&self, core: usize) -> bool {
        core < self.queues.len() && self.excluded.test(core, Ordering::Acquire)
    }

    /// The exclusion epoch: bumped on every exclusion and every rejoin.
    /// A canary that records it at defer and re-reads it at collect knows
    /// the live set was stable in between — only then is the strict
    /// ground-truth recheck (`min_live_tick() ≥ due`) race-free.
    pub fn exclusion_events(&self) -> u64 {
        self.robust.exclusion_events.load(Ordering::Acquire)
    }

    /// Scans every core against the watchdog timeout and excludes the
    /// stalled ones. Returns how many cores were newly excluded. No-op
    /// (returns 0) when the registry has no watchdog.
    ///
    /// Run from a monitor thread and in-band from the periodic forced
    /// refresh, so detection latency is bounded by the refresh cadence of
    /// the *live* cores, not by the dead one.
    pub fn check_watchdog(&self) -> usize {
        let Some(w) = &self.watchdog else {
            return 0;
        };
        let now = w.now_ns();
        let mut newly = 0;
        for core in 0..self.queues.len() {
            if w.timed_out(core, now)
                && !self.excluded.test(core, Ordering::Acquire)
                && self.exclude_core(core)
            {
                newly += 1;
            }
        }
        newly
    }

    /// Excludes `core` from the frontier as watchdog-stalled: its tick no
    /// longer gates reclamation, its undelivered queue bits are reaped
    /// ("leak, never corrupt"), and the frontier is force-refreshed so
    /// reclamation advances over it. Returns `false` if the core was
    /// already excluded (or out of range) — exactly one caller wins.
    pub fn exclude_core(&self, core: usize) -> bool {
        self.exclude_inner(core, false)
    }

    /// [`exclude_core`](Self::exclude_core) with the panic-poison reason,
    /// used by [`SweepGuard`] when a sweep unwinds.
    fn poison_core(&self, core: usize) -> bool {
        self.exclude_inner(core, true)
    }

    fn exclude_inner(&self, core: usize, poisoned: bool) -> bool {
        if core >= self.queues.len() {
            return false;
        }
        // Mask transition: serialized against live-set frontier scans
        // (see the `transition` field). Taken before the bit flips so a
        // scan never observes a half-applied transition.
        let _guard = self.transition.lock();
        if self.excluded.set_returning(core) {
            return false;
        }
        self.excluded_count.fetch_add(1, Ordering::AcqRel);
        self.robust.exclusion_events.fetch_add(1, Ordering::AcqRel);
        let reason = if poisoned {
            &self.robust.panic_poisons
        } else {
            &self.robust.stall_exclusions
        };
        reason.fetch_add(1, Ordering::Relaxed);
        // Leak, never corrupt: drop the dead core's undelivered
        // invalidations so its bits stop pinning live publishers' slots.
        // Safe because the core either never reads its cache again (dead)
        // or must flush it wholesale before rejoining.
        let mut reaped = 0;
        for q in &self.queues {
            reaped += q.clear_for(core, None);
        }
        self.robust
            .reaped_states
            .fetch_add(reaped, Ordering::Relaxed);
        // Let the frontier advance over the excluded core immediately —
        // inline, since we already hold the transition lock.
        self.frontier.advance_to(self.min_live_tick_locked());
        true
    }

    /// Reaps every *excluded* core's bits from `core`'s own queue,
    /// returning the number of states cleared. Called on publish overflow
    /// while exclusions are active, so a dead core can't permanently pin
    /// a live publisher's slots between exclusion-time reaps.
    fn reap_queue_of_excluded(&self, core: usize) -> u64 {
        let mut reaped = 0;
        for cpu in self.excluded.load(Ordering::Acquire).iter() {
            reaped += self.queues[core].clear_for(cpu.index(), None);
        }
        self.robust
            .reaped_states
            .fetch_add(reaped, Ordering::Relaxed);
        reaped
    }

    /// Rejoins a previously excluded `core` to the frontier. **Owner-core
    /// contract**: only the core's own thread may call this, and it must
    /// have flushed its entire local cache first — while excluded its
    /// invalidations were reaped undelivered, so any cached translation
    /// may be stale ("leak, never corrupt" leaks the states, the flush
    /// restores coherence).
    ///
    /// The core's tick is fast-forwarded to the cached frontier before
    /// the exclusion bit clears, so its stale (low) tick can never drag
    /// dues computed after the rejoin below what live cores already
    /// promised. Returns `false` if the core wasn't excluded.
    pub fn rejoin(&self, core: usize) -> bool {
        if core >= self.queues.len() || !self.excluded.test(core, Ordering::Acquire) {
            return false;
        }
        // Mask transition: under the lock the cached frontier cannot
        // advance past this core — live-set scans are serialized out,
        // and a racing full-set scan (a thread that still observed zero
        // exclusions) includes this core's tick, so it can only publish
        // values ≤ it. The catch-up below therefore closes the race for
        // good: once the bit clears, every scan sees the caught-up tick.
        let _guard = self.transition.lock();
        let f = self.frontier.get();
        if self.ticks[core].load(Ordering::Acquire) < f {
            // Owner-core contract makes this store single-writer.
            self.ticks[core].store(f, Ordering::Release);
        }
        self.excluded.clear(core);
        self.excluded_count.fetch_sub(1, Ordering::AcqRel);
        self.robust.rejoins.fetch_add(1, Ordering::Relaxed);
        self.robust.exclusion_events.fetch_add(1, Ordering::AcqRel);
        true
    }

    /// Arms a panic fence for `core`'s sweep/reclaim critical section:
    /// if the scope unwinds before [`SweepGuard::complete`], the core is
    /// poisoned (excluded) so only its shard degrades.
    pub fn sweep_guard(&self, core: usize) -> SweepGuard<'_> {
        SweepGuard {
            registry: self,
            core,
            armed: true,
        }
    }

    /// Snapshot of every runtime counter (see [`RtStats`]), a cold
    /// observer: the frontier fields are [`min_tick`](Self::min_tick) and
    /// [`min_live_tick`](Self::min_live_tick) themselves. Aggregation
    /// saturates; the snapshot is racy per-field but each field is
    /// internally consistent enough for monitoring and tuning.
    pub fn stats(&self) -> RtStats {
        let max_tick = self
            .ticks
            .iter()
            .map(|t| t.load(Ordering::Acquire))
            .max()
            .unwrap_or(0);
        let cached_frontier = self.frontier.get();
        RtStats {
            cores: self.queues.len(),
            states_saved: self.states_saved(),
            overflows: self.overflows(),
            min_tick: self.min_tick(),
            min_live_tick: self.min_live_tick(),
            max_tick,
            cached_frontier,
            reclaim_lag_ticks: max_tick.saturating_sub(cached_frontier),
            excluded_cores: self.excluded_count.load(Ordering::Acquire),
            stall_exclusions: self.robust.stall_exclusions.load(Ordering::Relaxed),
            panic_poisons: self.robust.panic_poisons.load(Ordering::Relaxed),
            rejoins: self.robust.rejoins.load(Ordering::Relaxed),
            reaped_states: self.robust.reaped_states.load(Ordering::Relaxed),
            exclusion_events: self.robust.exclusion_events.load(Ordering::Acquire),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use latr_arch::CpuId;
    use std::sync::Arc;

    fn inv(mm: u64) -> RtInvalidation {
        RtInvalidation {
            mm,
            start: 0x1000,
            end: 0x2000,
        }
    }

    /// The CPUs among `0..64` whose bits are set in `bits`.
    fn cpus(bits: u64) -> CpuMask {
        CpuMask::from_words([bits, 0, 0, 0])
    }

    #[test]
    fn publish_sweep_retire_roundtrip() {
        let r = RtRegistry::new(3, 4);
        r.publish(0, inv(1), cpus(0b110)).unwrap();
        assert_eq!(r.queue(0).active_count(), 1);

        let w1 = r.sweep(1);
        assert_eq!(w1, vec![inv(1)]);
        // Still active: core 2 hasn't swept.
        assert_eq!(r.queue(0).active_count(), 1);

        let w2 = r.sweep(2);
        assert_eq!(w2, vec![inv(1)]);
        assert_eq!(r.queue(0).active_count(), 0);

        // A second sweep finds nothing.
        assert!(r.sweep(1).is_empty());
        assert_eq!(r.states_saved(), 1);
    }

    #[test]
    fn sweep_skips_unrelated_cores() {
        let r = RtRegistry::new(4, 4);
        r.publish(0, inv(1), cpus(0b0010)).unwrap(); // only core 1
        assert!(r.sweep(2).is_empty());
        assert!(r.sweep(3).is_empty());
        assert_eq!(r.sweep(1), vec![inv(1)]);
    }

    #[test]
    fn overflow_reports_error() {
        let r = RtRegistry::new(2, 2);
        r.publish(0, inv(1), cpus(0b10)).unwrap();
        r.publish(0, inv(2), cpus(0b10)).unwrap();
        assert_eq!(r.publish(0, inv(3), cpus(0b10)), Err(PublishError));
        assert_eq!(r.overflows(), 1);
        // After core 1 sweeps, slots recycle.
        assert_eq!(r.sweep(1).len(), 2);
        assert!(r.publish(0, inv(3), cpus(0b10)).is_ok());
    }

    #[test]
    fn broadcast_targets_everyone_else() {
        let r = RtRegistry::new(5, 4);
        let mut others = CpuMask::first_n(5);
        others.clear(CpuId(2));
        r.publish(2, inv(9), others).unwrap();
        for core in [0, 1, 3, 4] {
            assert_eq!(r.sweep(core).len(), 1, "core {core} must see it");
        }
        assert!(r.sweep(2).is_empty(), "initiator is not targeted");
        assert_eq!(r.queue(2).active_count(), 0);
    }

    #[test]
    fn ticks_and_min_tick() {
        let r = RtRegistry::new(3, 4);
        assert_eq!(r.min_tick(), 0);
        r.sweep(0);
        r.sweep(0);
        r.sweep(1);
        assert_eq!(r.tick_of(0), 2);
        assert_eq!(r.min_tick(), 0, "core 2 never ticked");
        r.sweep(2);
        assert_eq!(r.min_tick(), 1);
    }

    #[test]
    fn cached_frontier_tracks_but_never_leads_min_tick() {
        let r = RtRegistry::new(3, 4);
        assert_eq!(r.cached_frontier(), 0);
        for _ in 0..5 {
            r.sweep(0);
            r.sweep(1);
            assert!(r.cached_frontier() <= r.min_tick());
        }
        // Core 2 never swept: the cache must still be pinned at 0.
        assert_eq!(r.min_tick(), 0);
        assert_eq!(r.cached_frontier(), 0);
        r.sweep(2);
        r.sweep(2);
        // Announce trigger + forced refresh converge the cache.
        assert_eq!(r.advance_frontier(), 2);
        assert_eq!(r.cached_frontier(), 2);
        assert_eq!(r.min_tick(), 2);
    }

    #[test]
    fn sweep_into_appends_without_clearing() {
        let r = RtRegistry::new(2, 4);
        let mut buf = vec![inv(99)];
        r.publish(0, inv(1), cpus(0b10)).unwrap();
        r.sweep_into(1, &mut buf);
        assert_eq!(buf, vec![inv(99), inv(1)]);
        r.publish(0, inv(2), cpus(0b10)).unwrap();
        r.full_scan_into(1, &mut buf);
        assert_eq!(buf, vec![inv(99), inv(1), inv(2)]);
    }

    #[test]
    fn per_core_counters_aggregate_on_read() {
        let r = RtRegistry::new(4, 1);
        r.publish(0, inv(1), cpus(0b10)).unwrap();
        r.publish(1, inv(2), cpus(0b100)).unwrap();
        r.publish(2, inv(3), cpus(0b10)).unwrap();
        assert_eq!(r.states_saved(), 3);
        assert_eq!(r.publish(0, inv(4), cpus(0b10)), Err(PublishError));
        assert_eq!(r.publish(2, inv(5), cpus(0b10)), Err(PublishError));
        assert_eq!(r.overflows(), 2);
    }

    #[test]
    fn pending_sweep_matches_full_sweep() {
        // Publish a scatter of states from several cores, then sweep one
        // target core both ways on identical registries: the pending
        // sweep must deliver exactly the invalidations the full scan
        // does.
        let build = || {
            let r = RtRegistry::new(8, 8);
            r.publish(0, inv(1), cpus(0b0000_0110)).unwrap();
            r.publish(3, inv(2), cpus(0b0000_0010)).unwrap();
            r.publish(5, inv(3), cpus(0b1111_1110)).unwrap();
            r.publish(7, inv(4), cpus(0b0000_1000)).unwrap(); // not core 1
            r
        };
        let full = build();
        let fast = build();
        let mut a = Vec::new();
        full.full_scan_into(1, &mut a);
        let mut b = fast.sweep(1);
        a.sort_unstable_by_key(|i| i.mm);
        b.sort_unstable_by_key(|i| i.mm);
        assert_eq!(a, b);
        assert_eq!(b.len(), 3);
        assert_eq!(full.tick_of(1), fast.tick_of(1));
        // A second pending sweep is an empty row, not a rescan.
        assert!(fast.sweep(1).is_empty());
    }

    #[test]
    fn stale_pending_bits_are_harmless() {
        let r = RtRegistry::new(4, 4);
        r.publish(0, inv(1), cpus(0b0110)).unwrap();
        // Core 2 sweeps via the full scan, which clears its mask bit but
        // leaves its pending bit stale-set.
        let mut buf = Vec::new();
        r.full_scan_into(2, &mut buf);
        assert_eq!(buf.len(), 1);
        // The stale bit costs one empty visit and is dropped.
        assert!(r.sweep(2).is_empty());
        // Core 1's bit is still live.
        assert_eq!(r.sweep(1).len(), 1);
    }

    #[test]
    fn concurrent_publish_and_sweep_loses_nothing() {
        // One publisher core, three sweeper cores. Every published state
        // must be seen exactly once by every targeted sweeper.
        let r = Arc::new(RtRegistry::new(4, 1024));
        let total = 500u64;
        let publisher = {
            let r = Arc::clone(&r);
            std::thread::spawn(move || {
                let mut published = 0;
                while published < total {
                    if r.publish(0, inv(published), cpus(0b1110)).is_ok() {
                        published += 1;
                    } else {
                        std::thread::yield_now();
                    }
                }
            })
        };
        let sweepers: Vec<_> = (1..4)
            .map(|core| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    let mut seen = Vec::new();
                    while seen.len() < total as usize {
                        for w in r.sweep(core) {
                            seen.push(w.mm);
                        }
                        std::thread::yield_now();
                    }
                    seen.sort_unstable();
                    seen
                })
            })
            .collect();
        publisher.join().unwrap();
        for s in sweepers {
            let seen = s.join().unwrap();
            assert_eq!(seen.len(), total as usize);
            // No duplicates, nothing lost.
            assert_eq!(seen, (0..total).collect::<Vec<_>>());
        }
        assert_eq!(r.queue(0).active_count(), 0);
        assert_eq!(r.states_saved(), total);
    }

    #[test]
    fn excluding_a_core_reaps_and_unpins_the_frontier() {
        let r = RtRegistry::new(3, 4);
        r.publish(0, inv(1), cpus(0b110)).unwrap();
        // Cores 1 sweeps, core 2 never does: frontier pinned at 0 and the
        // slot stays active on core 2's behalf.
        for _ in 0..4 {
            r.sweep(0);
            r.sweep(1);
        }
        assert_eq!(r.cached_frontier(), 0);
        assert_eq!(r.queue(0).active_count(), 1);

        assert!(r.exclude_core(2));
        assert!(!r.exclude_core(2), "second exclude loses the race");
        assert!(r.is_excluded(2));
        let st = r.stats();
        assert_eq!(st.excluded_cores, 1);
        assert_eq!(st.stall_exclusions, 1);
        assert_eq!(st.reaped_states, 1, "undelivered state is leaked");
        assert_eq!(r.queue(0).active_count(), 0, "reap retired the pinned slot");
        // Frontier now tracks the live minimum (both live cores at 4).
        assert_eq!(r.cached_frontier(), 4);
        assert_eq!(r.min_live_tick(), 4);
        assert_eq!(r.min_tick(), 0, "reference min still sees the dead core");
    }

    #[test]
    fn publishes_skip_excluded_targets() {
        let r = RtRegistry::new(3, 2);
        r.exclude_core(2);
        // Mask reduced to live cores only.
        let idx = r.publish(0, inv(1), cpus(0b110)).unwrap();
        assert_ne!(idx, NO_SLOT);
        assert_eq!(r.sweep(1).len(), 1);
        assert_eq!(
            r.queue(0).active_count(),
            0,
            "core 2's bit was filtered out, core 1's sweep retires the slot"
        );
        // Fully-excluded target: no slot consumed, still counted saved.
        assert_eq!(r.publish(0, inv(2), cpus(0b100)).unwrap(), NO_SLOT);
        assert_eq!(r.queue(0).active_count(), 0);
        assert_eq!(r.states_saved(), 2);
    }

    #[test]
    fn out_of_range_targets_never_pin_a_slot() {
        // Bit 5 names no core of a 4-core registry: no sweep would ever
        // clear it, so it must not reach the slot's mask.
        let r = RtRegistry::new(4, 2);
        assert_ne!(r.publish(0, inv(1), cpus(0b10_0010)).unwrap(), NO_SLOT);
        for core in 0..4 {
            r.sweep(core);
        }
        assert_eq!(r.queue(0).active_count(), 0, "core 1's sweep retires it");
        // A mask naming only missing cores consumes no slot at all.
        assert_eq!(r.publish(0, inv(2), cpus(0b11_0000)).unwrap(), NO_SLOT);
        let cpu_64 = CpuMask::from_cpus([CpuId(64)]);
        assert_eq!(r.publish(0, inv(3), cpu_64).unwrap(), NO_SLOT);
        assert_eq!(r.queue(0).active_count(), 0);
        // Both slots stay free for valid publishes.
        r.publish(0, inv(4), cpus(0b10)).unwrap();
        r.publish(0, inv(5), cpus(0b100)).unwrap();
        assert_eq!(r.overflows(), 0);
        assert_eq!(r.states_saved(), 5);
    }

    #[test]
    #[should_panic(expected = "at most 256 cores")]
    fn more_cores_than_a_mask_holds_is_rejected() {
        RtRegistry::new(257, 1);
    }

    #[test]
    fn overflow_with_exclusions_reaps_and_retries() {
        let r = RtRegistry::new(3, 2);
        // Fill both slots targeting core 2, then kill core 2: its bits pin
        // the queue.
        r.publish(0, inv(1), cpus(0b100)).unwrap();
        r.publish(0, inv(2), cpus(0b100)).unwrap();
        r.exclude_core(2);
        // Exclusion-time reap already freed the slots; publish succeeds
        // without an overflow even though the queue *was* full.
        assert!(r.publish(0, inv(3), cpus(0b010)).is_ok());
        assert_eq!(r.overflows(), 0);
    }

    #[test]
    fn sweep_never_blocks_behind_a_held_transition_lock() {
        // With a core excluded, the frontier refresh a sweep triggers
        // runs under the transition lock. An exclude or rejoin holding it
        // (here: for as long as the test likes) must not stall the sweep.
        let r = Arc::new(RtRegistry::new(2, 4));
        assert!(r.exclude_core(1));
        let held = r.transition.lock();
        let (done, swept) = std::sync::mpsc::channel();
        let sweeper = {
            let r = Arc::clone(&r);
            std::thread::spawn(move || {
                for _ in 0..REFRESH_TICKS {
                    r.sweep(0);
                }
                done.send(()).expect("test waits for the sweeps");
            })
        };
        let returned = swept.recv_timeout(std::time::Duration::from_secs(10));
        drop(held);
        sweeper.join().unwrap();
        assert!(
            returned.is_ok(),
            "a sweep blocked behind the held transition lock"
        );
    }

    #[test]
    fn rejoin_fast_forwards_the_tick() {
        let r = RtRegistry::new(2, 4);
        for _ in 0..6 {
            r.sweep(0);
        }
        r.exclude_core(1);
        assert_eq!(r.cached_frontier(), 6);
        assert!(r.rejoin(1));
        assert!(!r.rejoin(1), "already rejoined");
        assert!(!r.is_excluded(1));
        assert_eq!(
            r.tick_of(1),
            6,
            "tick fast-forwarded to the frontier so post-rejoin dues stay sound"
        );
        let st = r.stats();
        assert_eq!(st.rejoins, 1);
        assert_eq!(st.excluded_cores, 0);
        assert_eq!(st.exclusion_events, 2, "one exclude + one rejoin");
    }

    #[test]
    fn sweep_guard_poisons_only_on_panic() {
        let r = RtRegistry::new(2, 4);
        {
            let g = r.sweep_guard(0);
            assert_eq!(g.core(), 0);
            g.complete();
        }
        // A guard dropped without panic (and without complete) stays quiet.
        {
            let _g = r.sweep_guard(0);
        }
        assert_eq!(r.stats().panic_poisons, 0);

        let r = Arc::new(RtRegistry::new(2, 4));
        let r2 = Arc::clone(&r);
        let res = std::thread::spawn(move || {
            let _g = r2.sweep_guard(1);
            panic!("injected sweep death");
        })
        .join();
        assert!(res.is_err());
        assert!(r.is_excluded(1), "panicking sweep poisoned its core");
        assert_eq!(r.stats().panic_poisons, 1);
    }

    #[test]
    fn watchdog_excludes_silent_cores() {
        // 1 ms timeout: core 1 sweeps once then goes silent.
        let r = RtRegistry::with_watchdog(2, 4, 1_000_000);
        assert!(r.watchdog().is_some());
        r.sweep(0);
        r.sweep(1);
        assert_eq!(r.check_watchdog(), 0, "both cores fresh");
        std::thread::sleep(std::time::Duration::from_millis(5));
        r.sweep(0); // core 0 stays live
        assert_eq!(r.check_watchdog(), 1);
        assert!(r.is_excluded(1));
        assert!(!r.is_excluded(0));
        assert_eq!(r.stats().stall_exclusions, 1);
        // Idempotent: already excluded.
        assert_eq!(r.check_watchdog(), 0);
    }

    #[test]
    fn unannounced_sweeps_bump_ticks_but_not_the_frontier() {
        let r = RtRegistry::new(2, 4);
        let mut buf = Vec::new();
        r.publish(0, inv(1), cpus(0b10)).unwrap();
        r.sweep_into_unannounced(1, &mut buf);
        assert_eq!(buf, vec![inv(1)], "invalidations still delivered");
        r.sweep_into_unannounced(0, &mut buf);
        assert_eq!(r.min_tick(), 1);
        assert_eq!(r.cached_frontier(), 0, "announce was skipped");
        // A normal sweep (or forced refresh) catches the frontier up.
        r.sweep(0);
        r.sweep(1);
        r.advance_frontier();
        assert_eq!(r.cached_frontier(), 2);
    }

    #[test]
    fn stats_snapshot_is_consistent() {
        let r = RtRegistry::new(3, 2);
        r.publish(0, inv(1), cpus(0b110)).unwrap();
        r.publish(0, inv(2), cpus(0b110)).unwrap();
        assert!(r.publish(0, inv(3), cpus(0b110)).is_err());
        r.sweep(1);
        r.sweep(1);
        let st = r.stats();
        assert_eq!(st.cores, 3);
        assert_eq!(st.states_saved, 2);
        assert_eq!(st.overflows, 1);
        assert_eq!(st.max_tick, 2);
        assert_eq!(st.min_tick, 0);
        assert_eq!(st.min_live_tick, 0);
        assert_eq!(st.reclaim_lag_ticks, 2 - st.cached_frontier);
        assert_eq!(st.excluded_cores, 0);
        assert_eq!(st.exclusion_events, 0);
    }
}
