//! The Latr TLB-coherence policy (§3–§4).
//!
//! * **Free operations** (`munmap`, `madvise`): instead of IPIs, the
//!   initiator records a Latr state; every other core invalidates at its
//!   next scheduler tick or context switch; the freed VA and frames sit on
//!   the lazy-reclaim queue for two ticks before release.
//! * **Migration operations** (AutoNUMA): the state is recorded *without*
//!   touching the page table; the first core to sweep it clears the PTE
//!   (sets the NUMA-hint protection), the rest only invalidate; the hint
//!   fault may proceed only once every CPU bit has cleared (§4.4).
//! * **Permission/ownership changes** (`mprotect`, CoW, `mremap`): not
//!   lazy-able (Table 1) — delegated to the synchronous IPI path.
//! * **Queue overflow**: more shootdowns per interval than slots falls
//!   back to IPIs (§4.2).
//!
//! Two graceful-degradation mechanisms extend the paper's design for
//! faulty conditions (see DESIGN.md §9):
//!
//! * **Sweep watchdog** — reclamation is *gated* on the covering state's
//!   CPU bitmask (a deadline alone proves nothing if a sweeper stalled);
//!   if a state's mask has not cleared after `watchdog_ticks`, targeted
//!   IPIs finish exactly the laggard cores, bounding reclaim latency.
//! * **Adaptive IPI fallback** — under sustained overflow pressure the
//!   policy flips to routing new shootdowns synchronously (one decision,
//!   not one failed publish per op) and flips back once every queue has
//!   drained below a low-water mark.

use crate::config::LatrConfig;
use crate::reclaim::LazyReclaimQueue;
use crate::state::{LatrState, StateKind, StateQueue, StateRef};
use crate::sweep_index::PendingSweepMap;
use latr_arch::{CpuId, CpuMask};
use latr_kernel::{
    metrics, Escalation, FlushKind, FlushOutcome, Machine, Reclaimer, ShootdownTxn, SyncCause,
    TlbPolicy, TraceRecord,
};
use latr_kernel::{Note, TaskId};
use latr_mem::{MmId, Pfn, Pressure, VaRange, Vpn};
use latr_sim::Nanos;

/// Adaptive fallback high-water mark: enter synchronous mode when a
/// queue's occupancy reaches this percentage of its capacity.
pub(crate) const FALLBACK_ENTER_PCT: usize = 94;

/// Adaptive fallback low-water mark: leave synchronous mode once every
/// queue's occupancy has drained to at most this percentage.
pub(crate) const FALLBACK_EXIT_PCT: usize = 25;

/// Memory-pressure escalation: how many of the oldest gated reclamation
/// packages one pressure event, stall or pressured tick expedites.
const EXPEDITE_BATCH: usize = 8;

/// The Latr policy. Plug into [`Machine::run`] in place of
/// [`latr_kernel::LinuxPolicy`].
pub struct LatrPolicy {
    config: LatrConfig,
    queues: Vec<StateQueue>,
    reclaim: LazyReclaimQueue,
    /// Next [`LatrState::id`] to assign (run-unique).
    next_state_id: u64,
    /// Adaptive fallback: currently routing new shootdowns synchronously.
    sync_mode: bool,
    /// Fast-sweep index: which queues each CPU's next sweep must visit.
    pending: PendingSweepMap,
    /// Sync mode was forced by min-watermark pressure: the exit
    /// hysteresis additionally requires every node back at Normal.
    pressure_sync_active: bool,
    /// Reusable list of the watchdog's overdue states (no per-tick
    /// allocation).
    scratch_overdue: Vec<StateRef>,
}

impl LatrPolicy {
    /// Creates the policy with the given configuration. Queues are sized
    /// lazily on the first call (the machine's CPU count isn't known yet),
    /// and each queue builds its slots on its first publish.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`LatrConfig::validate`].
    pub fn new(config: LatrConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid LatrConfig: {e}");
        }
        LatrPolicy {
            config,
            queues: Vec::new(),
            reclaim: LazyReclaimQueue::new(),
            next_state_id: 0,
            sync_mode: false,
            pending: PendingSweepMap::new(),
            pressure_sync_active: false,
            scratch_overdue: Vec::new(),
        }
    }

    fn ensure_queues(&mut self, ncpus: usize) {
        if self.queues.len() < ncpus {
            self.queues
                .resize_with(ncpus, || StateQueue::new(self.config.states_per_core));
        }
        self.pending.ensure(ncpus);
    }

    fn next_state_id(&mut self) -> u64 {
        let id = self.next_state_id;
        self.next_state_id += 1;
        id
    }

    /// Flips into adaptive synchronous mode (idempotent).
    fn enter_sync_mode(&mut self, machine: &mut Machine, cause: SyncCause) {
        if !self.config.adaptive_fallback || self.sync_mode {
            return;
        }
        self.sync_mode = true;
        machine.stats.inc(metrics::id::LATR_ADAPTIVE_ENTERS);
        machine.emit(TraceRecord::SyncEnter(cause));
    }

    /// Occupancy high-water check for `queue` after a publish.
    fn check_enter_pressure(&mut self, machine: &mut Machine, queue: usize) {
        if !self.config.adaptive_fallback || self.sync_mode {
            return;
        }
        let q = &self.queues[queue];
        if q.active_count() * 100 >= FALLBACK_ENTER_PCT * q.capacity() {
            self.enter_sync_mode(machine, SyncCause::Occupancy);
        }
    }

    /// Publishes a `kind` state for `range` of `mm` into `owner`'s queue,
    /// naming `targets`: the one path both lazy operations take. Returns
    /// the state's handle, or `None` when the caller must fall back to
    /// IPIs: adaptive sync mode is on (no failed publish per op), or the
    /// queue is full (§4.2), after which sync mode stays on until
    /// occupancy drains. A free spends its state id even when a fault
    /// plan forces the overflow; a migration does not.
    fn publish(
        &mut self,
        machine: &mut Machine,
        owner: CpuId,
        kind: StateKind,
        mm: MmId,
        range: VaRange,
        targets: CpuMask,
    ) -> Option<StateRef> {
        if self.config.adaptive_fallback && self.sync_mode {
            machine.stats.inc(metrics::id::LATR_FALLBACK_IPIS);
            machine.stats.inc(metrics::id::LATR_ADAPTIVE_SYNC_OPS);
            return None;
        }
        let free_id = (kind == StateKind::Free).then(|| self.next_state_id());
        // An injected overflow storm forces the publish to fail as if the
        // queue were full (chaos testing of the fallback paths).
        let published = if machine.fault_force_overflow() {
            None
        } else {
            let id = free_id.unwrap_or_else(|| self.next_state_id());
            let state = LatrState {
                id,
                range,
                mm,
                kind,
                cpus: targets,
                pte_done: kind == StateKind::Free,
                published: machine.now(),
                round: None,
            };
            self.queues[owner.index()]
                .publish(state)
                .map(|slot| (slot, id))
        };
        let Some((slot, id)) = published else {
            machine.stats.inc(metrics::id::LATR_FALLBACK_IPIS);
            self.enter_sync_mode(machine, SyncCause::Overflow);
            return None;
        };
        self.pending.mark(&targets, owner);
        let migration = kind == StateKind::Migration;
        let publish = Note::Publish {
            initiator: owner,
            mm,
            range,
            migration,
        };
        machine.oracle_note(publish, Some(targets));
        machine.stats.inc(metrics::id::LATR_STATES_SAVED);
        machine.llc.charge_latr_save();
        machine.emit(if migration {
            TraceRecord::MigrationSaved(owner, slot, range.start)
        } else {
            TraceRecord::FreeSaved(owner, slot, range, targets.count())
        });
        self.check_enter_pressure(machine, owner.index());
        Some(StateRef {
            queue: owner.index(),
            slot,
            id,
        })
    }

    /// The sweep watchdog (DESIGN.md §9): any state whose CPU bitmask has
    /// outlived `watchdog_ticks` gets finished by force — the owning core
    /// sweeps its own bit locally, then targeted IPIs go to exactly the
    /// laggard cores. Runs from the background reclamation tick.
    fn run_watchdog(&mut self, machine: &mut Machine) {
        let wd = self.config.watchdog_ticks;
        if wd == 0 {
            return;
        }
        let now = machine.now();
        let threshold = wd as u64 * machine.tick_period();
        let mut overdue = std::mem::take(&mut self.scratch_overdue);
        overdue.clear();
        for (queue, q) in self.queues.iter().enumerate() {
            if q.active_count() == 0 {
                continue;
            }
            for (slot, s) in q.iter_slots() {
                if !s.cpus.is_empty()
                    && now.saturating_since(s.published) >= threshold
                    && s.round.is_none()
                {
                    overdue.push(StateRef {
                        queue,
                        slot,
                        id: s.id,
                    });
                }
            }
        }
        for &r in &overdue {
            escalate_state(&mut self.queues, machine, r, Escalation::Watchdog);
        }
        self.scratch_overdue = overdue;
    }

    /// Memory pressure wants parked frames back: finish the oldest states
    /// that actually gate a parked package — the watchdog's mechanism,
    /// fired early — so the packages release at the next reclamation tick
    /// or allocation stall instead of waiting out the sweep schedule.
    /// Bounded work: at most [`EXPEDITE_BATCH`] states per call, states already
    /// being escalated are skipped, and states gating nothing are never
    /// touched (sweeping them frees no memory).
    ///
    /// Oldest means first in the reclaim FIFO: each package is deferred
    /// by the `flush_others` call that published its gate, at deadline =
    /// publish time + a constant, so FIFO order is (publish time, state
    /// id) order.
    fn expedite_gated(&mut self, machine: &mut Machine) {
        if !self.config.pressure_escalation {
            return;
        }
        self.ensure_queues(machine.topology().num_cpus());
        let now = machine.now();
        let mut left = EXPEDITE_BATCH;
        for entry in self.reclaim.iter_mut() {
            if left == 0 {
                break;
            }
            let Some(gate) = entry.gate else { continue };
            let live = self.queues[gate.queue].get(gate);
            if !live.is_some_and(|s| !s.cpus.is_empty() && s.round.is_none()) {
                continue;
            }
            entry.expedited.get_or_insert(now);
            escalate_state(&mut self.queues, machine, gate, Escalation::Pressure);
            left -= 1;
        }
    }

    /// Releases every parked package past its deadline whose gate (if
    /// any) has cleared. Shared by the background reclamation tick and
    /// the direct-reclaim stall path (`by` labels the trace). Returns
    /// the number of frames released.
    fn release_due(&mut self, machine: &mut Machine, by: Reclaimer) -> u64 {
        let now = machine.now();
        let mut released = 0u64;
        self.reclaim.pop_due(now, &self.queues, |entry| {
            let frames = u64::from(entry.pkg.frames.len);
            machine.stats.record(
                metrics::id::LATR_RECLAIM_LATENCY_NS,
                now.saturating_since(entry.published),
            );
            machine
                .stats
                .add(metrics::id::LATR_RECLAIM_RELEASED_FRAMES, frames);
            // The escalation tick bound: pressure → release, per package.
            if let Some(t) = entry.expedited {
                machine.stats.record(
                    metrics::id::LATR_EXPEDITE_LATENCY_NS,
                    now.saturating_since(t),
                );
            }
            released += frames;
            let pkg = entry.pkg;
            machine.emit(TraceRecord::Frees(by, frames, pkg.va));
            machine.release_reclaim_deferred(pkg);
        });
        released
    }

    /// Visits one state queue during a sweep by `cpu`: invalidate and
    /// trace every state naming `cpu`, clear our bit, retire emptied
    /// slots — all in the queue's one walk ([`StateQueue::sweep_cpu`]).
    /// Returns `(cost, hits)` — `(sweep_empty, 0)` when nothing in the
    /// queue named us.
    fn sweep_queue(&mut self, machine: &mut Machine, cpu: CpuId, qi: usize) -> (Nanos, u64) {
        let mut cost = 0;
        // Consecutive states from the same address space — the common
        // shape when one hot mm published a burst of ops inside a tick
        // window — share a single PCID resolution. The apply step never
        // reads the queues, so running it inside the walk, before the
        // slot retires, is invisible to it.
        let mut last_pcid: Option<(MmId, u16)> = None;
        let hits = self.queues[qi].sweep_cpu(cpu, |hit| {
            let pcid = match last_pcid {
                Some((mm, pcid)) if mm == hit.mm => pcid,
                _ => {
                    let pcid = machine.sweep_pcid(hit.mm);
                    last_pcid = Some((hit.mm, pcid));
                    pcid
                }
            };
            let range = hit.range;
            cost += machine.costs().latr_sweep_hit;
            if hit.kind == StateKind::Migration && !hit.pte_done {
                // First sweeper performs the page-table unmap (§4.3).
                machine.apply_numa_hint(cpu, hit.mm, range.start);
                cost += machine.costs().pte_op;
                machine.emit(TraceRecord::SweepClearsPte(cpu, range));
            } else {
                machine.emit(TraceRecord::Sweep(cpu, range));
            }
            machine.invalidate_tlb_range_pcid(cpu, pcid, range);
            machine.oracle_note(
                Note::Sweep {
                    cpu,
                    mm: hit.mm,
                    range,
                },
                None,
            );
            cost += machine.costs().local_invalidation(range.pages as u32);
        });
        if hits == 0 {
            return (machine.costs().latr_sweep_empty, 0);
        }
        (cost, hits as u64)
    }

    /// The sweep (§4.1): for each active state naming `cpu`, invalidate
    /// locally and clear the bit; retire states whose masks emptied.
    /// Returns the CPU time consumed.
    ///
    /// The paper's sweep scans every core's queue; this one visits only
    /// the queues flagged in `cpu`'s pending-bitmap row (see
    /// [`PendingSweepMap`] for the staleness argument) and charges the
    /// unvisited queues the same empty-probe cost the full scan would,
    /// so cost, traces, stats and oracle calls are the full scan's. Debug
    /// builds check that after every sweep ([`Self::check_full_scan`]).
    fn sweep(&mut self, machine: &mut Machine, cpu: CpuId) -> Nanos {
        self.ensure_queues(machine.topology().num_cpus());
        let nq = self.queues.len();
        let mut cost = 0;
        let mut hits = 0u64;
        let row = self.pending.take_row(cpu);
        let mut hit_queues = 0u64;
        for publisher in row.iter() {
            let qi = publisher.index();
            if qi >= nq {
                continue;
            }
            let (c, h) = self.sweep_queue(machine, cpu, qi);
            if h > 0 {
                cost += c;
                hits += h;
                hit_queues += 1;
            }
            // A visit that found nothing (stale bit) costs the same as
            // any other empty probe, folded in below.
        }
        cost += machine.costs().latr_sweep_empty * (nq as u64 - hit_queues);
        if cfg!(debug_assertions) {
            self.check_full_scan(cpu, &row);
        }
        machine.llc.charge_latr_sweep(nq as u64);
        if hits > 0 {
            machine.stats.add(metrics::id::LATR_SWEEP_HITS, hits);
        }
        cost
    }

    /// The executable spec of [`Self::sweep`]: the full scan of §4.1
    /// visits every queue, so every queue outside `cpu`'s taken `row`
    /// must be one that visit leaves untouched — no active state names
    /// `cpu`, and none has an emptied mask for
    /// [`StateQueue::sweep_cpu`] to retire. Then both sweeps agree on
    /// hits, cost, trace, oracle calls and retirements.
    fn check_full_scan(&self, cpu: CpuId, row: &CpuMask) {
        for (qi, queue) in self.queues.iter().enumerate() {
            if row.test(CpuId(qi as u16)) {
                continue;
            }
            for s in queue.iter_active() {
                assert!(
                    !s.cpus.test(cpu) && !s.cpus.is_empty(),
                    "sweep diverged from the full scan: {cpu} skipped queue {qi} \
                     holding state {} (mask {:?})",
                    s.id,
                    s.cpus
                );
            }
        }
    }
}

/// Finishes state `r` by force: the owning core sweeps its own bit
/// locally (no self-IPI), targeted IPIs go to exactly the laggard cores,
/// and the round is recorded on the state so
/// [`LatrPolicy::on_sync_complete`] can retire it. Shared by the sweep
/// watchdog and memory-pressure expedition — one mechanism, two sets of
/// books. `r` must be live: one escalation touches only its own state,
/// and retiring removes only empty-mask states, so a caller escalating a
/// list of live states in turn finds each still live.
fn escalate_state(queues: &mut [StateQueue], machine: &mut Machine, r: StateRef, why: Escalation) {
    let owner = CpuId(r.queue as u16);
    let s = queues[r.queue]
        .get_mut(r)
        .expect("an escalated state is live");
    let (mm, range) = (s.mm, s.range);
    match why {
        Escalation::Watchdog => machine.stats.inc(metrics::id::LATR_WATCHDOG_ESCALATIONS),
        Escalation::Pressure => machine.stats.inc(metrics::id::LATR_EXPEDITED_SWEEPS),
    }
    if s.kind == StateKind::Migration && !s.pte_done {
        // Assume the first-sweeper duty nobody performed.
        machine.apply_numa_hint(owner, mm, range.start);
    }
    s.pte_done = true;
    let mut laggards = s.cpus;
    if laggards.test(owner) {
        // The owner sweeps its own bit locally — no self-IPI.
        let pcid = machine.sweep_pcid(mm);
        machine.invalidate_tlb_range_pcid(owner, pcid, range);
        machine.oracle_note(
            Note::Sweep {
                cpu: owner,
                mm,
                range,
            },
            None,
        );
        machine.charge_debt(
            owner,
            machine.costs().local_invalidation(range.pages as u32),
        );
        laggards.clear(owner);
        s.cpus.clear(owner);
    }
    if laggards.is_empty() {
        queues[r.queue].retire_completed();
        return;
    }
    let ipi_metric = match why {
        Escalation::Watchdog => metrics::id::LATR_WATCHDOG_IPIS,
        Escalation::Pressure => metrics::id::LATR_EXPEDITED_IPIS,
    };
    machine.stats.add(ipi_metric, laggards.count() as u64);
    machine.emit(TraceRecord::Escalated(why, r.id, range, laggards.count()));
    let txn = machine.begin_sync_shootdown(owner, mm, range.iter(), laggards, 0);
    s.round = Some((txn, why));
}

impl TlbPolicy for LatrPolicy {
    fn name(&self) -> &'static str {
        "latr"
    }

    fn flush_others(
        &mut self,
        machine: &mut Machine,
        initiator: CpuId,
        _task: Option<TaskId>,
        mm: MmId,
        range: VaRange,
        pages: &[(Vpn, Pfn)],
        kind: FlushKind,
        start_delay: Nanos,
    ) -> FlushOutcome {
        self.ensure_queues(machine.topology().num_cpus());

        // Permission changes must be visible system-wide before the
        // syscall returns (Table 1): pure Linux behaviour.
        if kind == FlushKind::Synchronous {
            return machine.sync_flush(initiator, mm, pages, start_delay);
        }

        let mut targets = machine.mm(mm).cpumask;
        targets.clear(initiator);
        if targets.is_empty() || pages.is_empty() {
            // No remote TLBs can hold these translations and the local TLB
            // is already clean: safe to free immediately.
            return FlushOutcome::Deferred {
                local_ns: 0,
                defer_reclaim: false,
            };
        }

        let Some(state) = self.publish(machine, initiator, StateKind::Free, mm, range, targets)
        else {
            return machine.sync_flush(initiator, mm, pages, start_delay);
        };
        // Park the freed VA + frames for two scheduler ticks, gated on the
        // state's bitmask clearing (the deadline alone is unsafe under
        // stalled sweepers or lost IPIs). The +1 ns breaks exact ties with
        // the sweep events at the deadline instant.
        if let Some(pkg) = machine.take_pending_reclaim() {
            machine
                .stats
                .add(metrics::id::LATR_DEFERRED_FRAMES, u64::from(pkg.frames.len));
            let now = machine.now();
            let deadline = now + self.config.reclaim_ticks as u64 * machine.tick_period() + 1;
            let gate = self.config.gate_reclaim.then_some(state);
            // Parked frames are reclamation debt: the allocator's per-node
            // ledger must know memory exists that a sweep (not an OOM
            // kill) will recover.
            machine.note_reclaim_debt(&pkg);
            self.reclaim.defer_gated(deadline, now, gate, pkg);
        }
        FlushOutcome::Deferred {
            local_ns: machine.costs().latr_state_save,
            defer_reclaim: true,
        }
    }

    fn on_sched_tick(&mut self, machine: &mut Machine, cpu: CpuId) -> Nanos {
        self.sweep(machine, cpu)
    }

    fn on_context_switch(&mut self, machine: &mut Machine, cpu: CpuId) -> Nanos {
        if self.config.sweep_on_context_switch {
            self.sweep(machine, cpu)
        } else {
            0
        }
    }

    fn on_reclaim_tick(&mut self, machine: &mut Machine) {
        self.ensure_queues(machine.topology().num_cpus());
        // An injected reclaim stall pins the kthread: simulated time
        // passes but nothing is escalated or released this tick (the
        // machine counts the suppressed tick in `faults_reclaim_stalls`).
        if machine.fault_reclaim_stalled() {
            return;
        }
        // Bounded-latency degradation first: escalate overdue states, then
        // re-evaluate the adaptive fallback's low-water mark.
        self.run_watchdog(machine);
        if self.sync_mode && !machine.fault_storm_active() {
            let drained = self
                .queues
                .iter()
                .all(|q| q.active_count() * 100 <= FALLBACK_EXIT_PCT * q.capacity());
            // A pressure-forced sync entry waits for every node to recover
            // to Normal on top of the queue-drain hysteresis: drained
            // queues alone are no proof the allocation storm has passed.
            let recovered =
                !self.pressure_sync_active || machine.worst_pressure() == Pressure::Normal;
            if drained && recovered {
                self.sync_mode = false;
                self.pressure_sync_active = false;
                machine.stats.inc(metrics::id::LATR_ADAPTIVE_EXITS);
                machine.emit(TraceRecord::SyncExit);
            }
        }
        // §6.4 memory-overhead accounting: sample how much physical memory
        // is parked awaiting reclamation before releasing what is due.
        machine
            .stats
            .record(metrics::id::LATR_PARKED_BYTES, self.reclaim.parked_bytes());
        // Honest gate accounting (whether or not a watchdog runs): count
        // packages overdue but still held by an uncleared bitmask.
        let held = self.reclaim.overdue_gated(machine.now(), &self.queues);
        if held > 0 {
            machine.stats.add(metrics::id::LATR_GATE_HELD, held as u64);
        }
        // Release everything past its deadline whose covering state has
        // retired (empty mask).
        self.release_due(machine, Reclaimer::Background);
        // Sustained pressure keeps expediting: `on_memory_pressure` only
        // fires on watermark *edges*, so a node camped below its low
        // watermark would otherwise get exactly one batch. Each tick under
        // pressure expedites up to `EXPEDITE_BATCH` more of the oldest
        // gated packages — still bounded, still a no-op on healthy runs
        // (unconfigured watermarks report `Pressure::Normal`).
        if machine.worst_pressure() >= Pressure::Low {
            self.expedite_gated(machine);
        }
    }

    fn on_memory_pressure(&mut self, machine: &mut Machine, _: latr_arch::NodeId, level: Pressure) {
        match level {
            // Recovery is handled by the sync-exit hysteresis in
            // `on_reclaim_tick`; nothing to do on the falling edge.
            Pressure::Normal => {}
            // Low watermark: expedite the oldest gated packages so their
            // frames come back within a bounded number of ticks.
            Pressure::Low => {
                self.expedite_gated(machine);
            }
            // Min watermark: the reserve is breached — expedite harder
            // *and* stop parking new frees until the node recovers.
            Pressure::Min => {
                self.expedite_gated(machine);
                if self.config.pressure_escalation
                    && self.config.adaptive_fallback
                    && !self.sync_mode
                {
                    self.enter_sync_mode(machine, SyncCause::MinWatermark);
                    machine.stats.inc(metrics::id::LATR_PRESSURE_SYNC_ENTERS);
                    self.pressure_sync_active = true;
                }
            }
        }
    }

    fn on_alloc_stall(
        &mut self,
        machine: &mut Machine,
        _cpu: CpuId,
        _node: latr_arch::NodeId,
    ) -> u64 {
        self.ensure_queues(machine.topology().num_cpus());
        // Direct reclaim: release everything already past its deadline
        // whose gate has cleared — frames a background tick would have
        // freed moments later anyway — then expedite the oldest gated
        // states so the *next* stall (or tick) can make progress.
        let released = self.release_due(machine, Reclaimer::Direct);
        self.expedite_gated(machine);
        released
    }

    fn on_sync_complete(&mut self, machine: &mut Machine, txn: &ShootdownTxn) {
        // Only escalation rounds concern us, and an escalated state sits
        // in the queue of the round's initiator, its owning core. Ordinary
        // sync shootdowns (mprotect, overflow fallback) match no state, and
        // neither does a round whose state was swept naturally while it
        // was in flight.
        let Some(q) = self.queues.get_mut(txn.initiator.index()) else {
            return;
        };
        let Some((s, why)) = q.iter_active_mut().find_map(|s| match s.round {
            Some((round, why)) if round == txn.id => Some((s, why)),
            _ => None,
        }) else {
            return;
        };
        // Every laggard's TLB was invalidated by the IPI handler (which
        // happened-before this last ACK): their sweep duty is done.
        for cpu in s.cpus.iter() {
            let (mm, range) = (s.mm, s.range);
            machine.oracle_note(Note::Sweep { cpu, mm, range }, None);
        }
        s.cpus.reset();
        let id = s.id;
        q.retire_completed();
        machine.emit(TraceRecord::RoundComplete(why, id));
    }

    fn numa_hint_unmap(&mut self, machine: &mut Machine, cpu: CpuId, mm: MmId, vpn: Vpn) -> bool {
        self.ensure_queues(machine.topology().num_cpus());
        // "This state includes the CPU bitmask of all the cores" —
        // including the recording core, which unmaps at its own next tick.
        let targets: CpuMask = machine.mm(mm).cpumask;
        if targets.is_empty() {
            return false;
        }
        // Declining lazily lets the machine run the synchronous
        // hint-unmap.
        let range = VaRange::new(vpn, 1);
        if self
            .publish(machine, cpu, StateKind::Migration, mm, range, targets)
            .is_none()
        {
            return false;
        }
        machine.charge_debt(cpu, machine.costs().latr_state_save);
        true
    }

    fn numa_fault_may_proceed(&mut self, _machine: &mut Machine, mm: MmId, vpn: Vpn) -> bool {
        // The fault is held until every core named in the migration state
        // has invalidated (§4.4's mmap_sem rule). The per-queue migration
        // counter skips the slot scan entirely on the common no-migration
        // path.
        !self.queues.iter().any(|q| {
            q.active_migrations() > 0
                && q.iter_active().any(|s| {
                    s.kind == StateKind::Migration
                        && s.mm == mm
                        && s.range.contains(vpn)
                        && !s.cpus.is_empty()
                })
        })
    }

    fn on_shutdown(&mut self, machine: &mut Machine) {
        // Drain the lazy lists so end-of-run leak checks see a clean
        // machine. The states' TLB entries are irrelevant once the run is
        // over; the *invariant* (frames still allocated while cached) held
        // throughout because draining happens after the final event.
        for pkg in self.reclaim.drain_all() {
            machine.release_reclaim_deferred(pkg);
        }
        for q in &mut self.queues {
            q.clear();
        }
        self.pending.clear();
        self.pressure_sync_active = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use latr_arch::{MachinePreset, Topology};
    use latr_kernel::{Machine, MachineConfig, Op, Workload};
    use latr_sim::{Time, MICROSECOND, SECOND};

    /// Every task maps one page, touches it, unmaps it, repeats — then
    /// lingers a few scheduler ticks so the lazy machinery (sweeps,
    /// background reclamation) actually runs before the tasks exit.
    struct MapTouchUnmap {
        cores: usize,
        rounds: u32,
        progress: Vec<u32>,
        phase: Vec<u8>,
        linger: Vec<u32>,
    }

    impl MapTouchUnmap {
        fn new(cores: usize, rounds: u32) -> Self {
            MapTouchUnmap {
                cores,
                rounds,
                progress: vec![0; cores],
                phase: vec![0; cores],
                linger: vec![4; cores],
            }
        }
    }

    impl Workload for MapTouchUnmap {
        fn setup(&mut self, machine: &mut Machine) {
            let mm = machine.create_process();
            for c in 0..self.cores {
                machine.spawn_task(mm, CpuId(c as u16));
            }
        }

        fn next_op(&mut self, machine: &mut Machine, task: TaskId) -> Op {
            let i = task.index();
            if self.progress[i] >= self.rounds {
                if self.linger[i] > 0 {
                    self.linger[i] -= 1;
                    return Op::Sleep(latr_sim::MILLISECOND);
                }
                return Op::Exit;
            }
            let op = match self.phase[i] {
                0 => Op::MmapAnon { pages: 1 },
                1 => {
                    let r = machine.task(task).last_mmap.unwrap();
                    Op::Access {
                        vpn: r.start,
                        write: true,
                    }
                }
                _ => {
                    let r = machine.task(task).last_mmap.unwrap();
                    Op::Munmap { range: r }
                }
            };
            self.phase[i] = (self.phase[i] + 1) % 3;
            if self.phase[i] == 0 {
                self.progress[i] += 1;
            }
            op
        }
    }

    fn run_latr(cores: usize, rounds: u32) -> Machine {
        let mut machine = Machine::new(MachineConfig::new(Topology::preset(
            MachinePreset::Commodity2S16C,
        )));
        machine.run(
            Box::new(MapTouchUnmap::new(cores, rounds)),
            Box::new(LatrPolicy::new(LatrConfig::default())),
            SECOND,
        );
        machine
    }

    #[test]
    fn latr_sends_no_ipis_for_free_operations() {
        let m = run_latr(8, 10);
        assert_eq!(m.stats.counter(metrics::IPIS_SENT), 0);
        assert_eq!(m.stats.counter(metrics::SHOOTDOWNS), 0);
        assert_eq!(m.stats.counter(metrics::LATR_STATES_SAVED), 8 * 10);
        assert_eq!(m.stats.counter(metrics::LATR_FALLBACK_IPIS), 0);
    }

    #[test]
    fn latr_munmap_latency_is_flat_and_low() {
        let m2 = run_latr(2, 20);
        let m16 = run_latr(16, 20);
        let l2 = m2.stats.histogram(metrics::MUNMAP_NS).unwrap().mean();
        let l16 = m16.stats.histogram(metrics::MUNMAP_NS).unwrap().mean();
        // Fig. 6: Latr's munmap ≈ 2.4 µs at 16 cores and nearly flat.
        assert!(
            (1.2 * MICROSECOND as f64..4.0 * MICROSECOND as f64).contains(&l16),
            "16-core Latr munmap {l16:.0}ns not ≈ 2.4 µs"
        );
        assert!(
            l16 < l2 * 2.5,
            "Latr should stay nearly flat: {l2:.0} -> {l16:.0}"
        );
    }

    #[test]
    fn latr_beats_linux_at_scale() {
        use latr_kernel::LinuxPolicy;
        let latr = run_latr(16, 20);
        let mut linux_machine = Machine::new(MachineConfig::new(Topology::preset(
            MachinePreset::Commodity2S16C,
        )));
        linux_machine.run(
            Box::new(MapTouchUnmap::new(16, 20)),
            Box::new(LinuxPolicy::new()),
            SECOND,
        );
        let l_latr = latr.stats.histogram(metrics::MUNMAP_NS).unwrap().mean();
        let l_linux = linux_machine
            .stats
            .histogram(metrics::MUNMAP_NS)
            .unwrap()
            .mean();
        // Fig. 6: ≈70% improvement; interference makes the concurrent case
        // even more lopsided. Require at least 50%.
        assert!(
            l_latr < l_linux * 0.5,
            "latr {l_latr:.0}ns vs linux {l_linux:.0}ns"
        );
    }

    #[test]
    fn frames_are_released_after_two_ticks() {
        let m = run_latr(4, 5);
        // After the run (with shutdown drain) nothing leaks.
        assert_eq!(m.frames.allocated_count(), 0);
        assert_eq!(
            m.stats.counter(metrics::LATR_DEFERRED_FRAMES),
            4 * 5,
            "every anonymous page must pass through the lazy list"
        );
        // ...and none leaves it before its two ticks are up.
        let latency = m.stats.histogram(metrics::LATR_RECLAIM_LATENCY_NS).unwrap();
        let grace = u64::from(LatrConfig::default().reclaim_ticks) * m.tick_period();
        assert!(
            latency.min() >= grace,
            "a package was released {} ns after its publish, inside the {grace} ns grace",
            latency.min()
        );
    }

    #[test]
    fn reclamation_invariant_holds() {
        let m = run_latr(16, 30);
        assert_eq!(m.check_reclamation_invariant(), None);
        assert_eq!(m.check_mapping_coherence(), None);
    }

    #[test]
    fn sweeps_do_invalidate_remote_entries() {
        let m = run_latr(8, 10);
        assert!(
            m.stats.counter(metrics::LATR_SWEEP_HITS) > 0,
            "remote cores must pick up states at their ticks"
        );
    }

    /// Two tasks share an mm; task 0 mmap/touch/munmaps in a tight burst
    /// (well under one scheduler tick) while task 1 keeps its core's bit
    /// in the cpumask — overflowing the state queue. After `bursts`
    /// unmaps, task 0 lingers asleep so the adaptive fallback's low-water
    /// exit can be observed.
    struct Burst {
        mapped: Vec<VaRange>,
        phase: u8,
        unmapped: usize,
        bursts: usize,
        linger: u32,
    }

    impl Burst {
        fn new(bursts: usize, linger: u32) -> Self {
            Burst {
                mapped: Vec::new(),
                phase: 0,
                unmapped: 0,
                bursts,
                linger,
            }
        }
    }

    impl Workload for Burst {
        fn setup(&mut self, machine: &mut Machine) {
            let mm = machine.create_process();
            machine.spawn_task(mm, CpuId(0));
            machine.spawn_task(mm, CpuId(1));
        }
        fn next_op(&mut self, machine: &mut Machine, task: TaskId) -> Op {
            if task.index() == 1 {
                // Keep the second core's bit in the cpumask; touch the
                // most recent mapping so entries are really shared.
                return match self.mapped.last() {
                    Some(r) if self.phase == 1 => Op::Access {
                        vpn: r.start,
                        write: false,
                    },
                    _ => Op::Sleep(1_000),
                };
            }
            match self.phase {
                0 => {
                    self.phase = 1;
                    Op::MmapAnon { pages: 1 }
                }
                1 => {
                    let r = machine.task(task).last_mmap.unwrap();
                    self.mapped.push(r);
                    self.phase = 2;
                    Op::Access {
                        vpn: r.start,
                        write: true,
                    }
                }
                _ => {
                    self.phase = 0;
                    if let Some(r) = self.mapped.pop() {
                        self.unmapped += 1;
                        if self.unmapped > self.bursts {
                            return Op::Exit;
                        }
                        Op::Munmap { range: r }
                    } else if self.linger > 0 {
                        self.linger -= 1;
                        Op::Sleep(latr_sim::MILLISECOND)
                    } else {
                        Op::Exit
                    }
                }
            }
        }
    }

    fn run_burst(bursts: usize, linger: u32, config: LatrConfig) -> Machine {
        let mut machine = Machine::new(MachineConfig::new(Topology::preset(
            MachinePreset::Commodity2S16C,
        )));
        machine.run(
            Box::new(Burst::new(bursts, linger)),
            Box::new(LatrPolicy::new(config)),
            SECOND,
        );
        machine
    }

    /// Overflowing the 64-entry queue must fall back to IPIs, not lose
    /// shootdowns.
    #[test]
    fn queue_overflow_falls_back_to_ipis() {
        // 200 munmaps in well under one tick (each ~2 µs) with a 64-slot
        // queue: must overflow.
        let machine = run_burst(200, 0, LatrConfig::default());
        assert!(
            machine.stats.counter(metrics::LATR_FALLBACK_IPIS) > 0,
            "a 200-unmap burst within one tick must overflow 64 slots"
        );
        // Adaptive fallback (default-on) must have flipped to sync mode on
        // the first overflow instead of burning a failed publish per op.
        assert!(
            machine.stats.counter(metrics::LATR_ADAPTIVE_ENTERS) >= 1,
            "overflow must trigger the adaptive sync-mode transition"
        );
        assert_eq!(machine.check_reclamation_invariant(), None);
        assert_eq!(machine.check_mapping_coherence(), None);
    }

    /// Fallback accounting under overflow: while sync mode is engaged,
    /// every routed op counts as both a fallback IPI round and an
    /// adaptive sync op; once the burst ends and occupancy drains below
    /// the low-water mark, the policy exits sync mode exactly once.
    #[test]
    fn overflow_fallback_accounting_balances() {
        let m = run_burst(200, 20, LatrConfig::default());
        let fallback = m.stats.counter(metrics::LATR_FALLBACK_IPIS);
        let sync_ops = m.stats.counter(metrics::LATR_ADAPTIVE_SYNC_OPS);
        let enters = m.stats.counter(metrics::LATR_ADAPTIVE_ENTERS);
        assert!(fallback > 0);
        assert!(sync_ops > 0, "ops during sync mode must be accounted");
        // Every sync-mode op and every hard overflow increments the
        // fallback counter; sync-mode ops can never exceed it.
        assert!(
            fallback >= sync_ops,
            "fallback {fallback} < sync ops {sync_ops}"
        );
        // With the adaptive transition, at most `enters` publishes failed
        // outright: the rest were routed without touching a queue. (An
        // enter triggered by the occupancy high-water mark rather than a
        // hard overflow has no fallback round of its own, hence ≤.)
        assert!(enters >= 1);
        assert!(
            fallback <= sync_ops + enters,
            "fallback {fallback} > sync ops {sync_ops} + enters {enters}"
        );
        // The linger phase drains the queues: sync mode must have exited.
        assert_eq!(m.stats.counter(metrics::LATR_ADAPTIVE_EXITS), enters);
        // Fallback rounds are real shootdowns with real IPIs.
        assert!(m.stats.counter(metrics::SHOOTDOWNS) > 0);
        assert!(m.stats.counter(metrics::IPIS_SENT) > 0);
        assert_eq!(m.check_reclamation_invariant(), None);
        assert_eq!(m.check_mapping_coherence(), None);
    }

    /// With the adaptive fallback disabled, every overflowing op burns a
    /// failed publish: fallback rounds accumulate, no adaptive
    /// transitions are ever recorded, and nothing is lost.
    #[test]
    fn overflow_without_adaptive_fallback_burns_per_op() {
        let config = LatrConfig {
            adaptive_fallback: false,
            ..LatrConfig::default()
        };
        let m = run_burst(200, 20, config);
        assert!(m.stats.counter(metrics::LATR_FALLBACK_IPIS) > 1);
        assert_eq!(m.stats.counter(metrics::LATR_ADAPTIVE_ENTERS), 0);
        assert_eq!(m.stats.counter(metrics::LATR_ADAPTIVE_EXITS), 0);
        assert_eq!(m.stats.counter(metrics::LATR_ADAPTIVE_SYNC_OPS), 0);
        assert!(m.stats.counter(metrics::SHOOTDOWNS) > 0);
        assert_eq!(m.check_reclamation_invariant(), None);
        assert_eq!(m.check_mapping_coherence(), None);
    }

    /// The per-sweep spec check fires when the pending bitmap loses a
    /// target: a state names CPU 1, but CPU 1's row no longer flags the
    /// publisher's queue, so the sweep would skip a state the full scan
    /// invalidates.
    #[test]
    #[cfg_attr(
        debug_assertions,
        should_panic(expected = "sweep diverged from the full scan")
    )]
    fn sweep_check_catches_a_lost_pending_bit() {
        let mut machine = Machine::new(MachineConfig::new(Topology::preset(
            MachinePreset::Commodity2S16C,
        )));
        let mut policy = LatrPolicy::new(LatrConfig::default());
        policy.ensure_queues(machine.topology().num_cpus());
        let targets = CpuMask::from_cpus([CpuId(1)]);
        policy.queues[0].publish(LatrState {
            id: 0,
            range: VaRange::new(Vpn(0x100), 1),
            mm: MmId(0),
            kind: StateKind::Free,
            cpus: targets,
            pte_done: true,
            published: Time::ZERO,
            round: None,
        });
        policy.pending.mark(&targets, CpuId(0));
        policy.pending.take_row(CpuId(1));
        policy.sweep(&mut machine, CpuId(1));
    }

    /// In healthy runs the degradation machinery must be invisible: no
    /// watchdog escalations, no adaptive transitions.
    #[test]
    fn degradation_mechanisms_stay_idle_on_healthy_runs() {
        let m = run_latr(8, 10);
        assert_eq!(m.stats.counter(metrics::LATR_WATCHDOG_ESCALATIONS), 0);
        assert_eq!(m.stats.counter(metrics::LATR_WATCHDOG_IPIS), 0);
        assert_eq!(m.stats.counter(metrics::LATR_ADAPTIVE_ENTERS), 0);
        assert_eq!(m.stats.counter(metrics::LATR_ADAPTIVE_SYNC_OPS), 0);
    }
}
