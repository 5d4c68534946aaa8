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
use crate::state::{LatrState, StateKind, StateQueue};
use crate::sweep_index::PendingSweepMap;
use latr_arch::{CpuId, CpuMask};
use latr_kernel::TaskId;
use latr_kernel::{metrics, FlushKind, FlushOutcome, Machine, ShootdownTxn, TlbPolicy};
use latr_mem::{MmId, Pfn, Pressure, VaRange, Vpn};
use latr_sim::{Nanos, Time};
use std::collections::{HashMap, HashSet};

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
    /// State ids with a watchdog escalation round in flight.
    escalated: HashSet<u64>,
    /// In-flight watchdog sync rounds: txn id → escalated state id.
    watchdog_rounds: HashMap<u64, u64>,
    /// Fast-sweep index: which queues each CPU's next sweep must visit.
    pending: PendingSweepMap,
    /// Sync mode was forced by min-watermark pressure: the exit
    /// hysteresis additionally requires every node back at Normal.
    pressure_sync_active: bool,
    /// Pressure-expedited states: id → when pressure first expedited it
    /// (feeds the `latr_expedite_latency_ns` tick-bound histogram when
    /// the gated package finally releases).
    expedited_at: HashMap<u64, Time>,
    /// Reusable arenas for the sweep hot path (no per-sweep allocation).
    scratch_relevant: Vec<(MmId, VaRange, StateKind, bool)>,
    /// Reusable gate-id set for the reclaim paths (no per-tick allocation).
    scratch_blocked: HashSet<u64>,
    /// Reusable due-package vector for the reclaim paths.
    scratch_due: Vec<crate::reclaim::DeferredReclaim>,
}

/// Why a gated state is being finished by force: the two callers share
/// one mechanism (owner-local sweep + targeted IPIs) but separate books.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Escalation {
    /// The sweep watchdog: the state's bitmask outlived `watchdog_ticks`.
    Watchdog,
    /// Memory pressure wants the gated package's frames back now.
    Pressure,
}

impl LatrPolicy {
    /// Creates the policy with the given configuration. Queues are sized
    /// lazily on the first call (the machine's CPU count isn't known yet).
    pub fn new(config: LatrConfig) -> Self {
        LatrPolicy {
            config,
            queues: Vec::new(),
            reclaim: LazyReclaimQueue::new(),
            next_state_id: 0,
            sync_mode: false,
            escalated: HashSet::new(),
            watchdog_rounds: HashMap::new(),
            pending: PendingSweepMap::new(),
            pressure_sync_active: false,
            expedited_at: HashMap::new(),
            scratch_relevant: Vec::new(),
            scratch_blocked: HashSet::new(),
            scratch_due: Vec::new(),
        }
    }

    /// The policy's configuration.
    pub fn config(&self) -> &LatrConfig {
        &self.config
    }

    /// Frames currently parked on the lazy-reclaim queue (§6.4's memory
    /// overhead).
    pub fn parked_bytes(&self) -> u64 {
        self.reclaim.parked_bytes()
    }

    /// Whether the adaptive fallback currently routes shootdowns
    /// synchronously.
    pub fn in_sync_mode(&self) -> bool {
        self.sync_mode
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
    fn enter_sync_mode(&mut self, machine: &mut Machine, why: &str) {
        if !self.config.adaptive_fallback || self.sync_mode {
            return;
        }
        self.sync_mode = true;
        machine.stats.inc(metrics::id::LATR_ADAPTIVE_ENTERS);
        if machine.trace.is_enabled() {
            let now = machine.now();
            machine.trace.push(
                now,
                "latr",
                format!("adaptive fallback enters sync mode ({why})"),
            );
        }
    }

    /// Occupancy high-water check for `queue` after a publish.
    fn check_enter_pressure(&mut self, machine: &mut Machine, queue: usize) {
        if !self.config.adaptive_fallback || self.sync_mode {
            return;
        }
        let q = &self.queues[queue];
        if q.active_count() * 100 >= FALLBACK_ENTER_PCT * q.capacity() {
            self.enter_sync_mode(machine, "queue occupancy above high-water mark");
        }
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
        let mut overdue: Vec<(usize, u64)> = Vec::new();
        for (qi, q) in self.queues.iter().enumerate() {
            if q.active_count() == 0 {
                continue;
            }
            for s in q.iter_active() {
                if !s.cpus.is_empty()
                    && now.saturating_since(s.published) >= threshold
                    && !self.escalated.contains(&s.id)
                {
                    overdue.push((qi, s.id));
                }
            }
        }
        for (qi, id) in overdue {
            self.escalate_state(machine, qi, id, Escalation::Watchdog);
        }
    }

    /// Finishes state `id` of queue `qi` by force: the owning core sweeps
    /// its own bit locally (no self-IPI), targeted IPIs go to exactly the
    /// laggard cores, and the in-flight round is tracked so
    /// [`on_sync_complete`] can retire the state. Shared by the sweep
    /// watchdog and memory-pressure expedition — one mechanism, two sets
    /// of books. Callers collect the ids first and escalate them in turn;
    /// one escalation touches only its own state, and retiring removes
    /// only empty-mask states, so every collected state is still live.
    fn escalate_state(&mut self, machine: &mut Machine, qi: usize, id: u64, why: Escalation) {
        let s = self.queues[qi]
            .iter_active()
            .find(|s| s.id == id)
            .expect("an escalated state is live");
        let (mm, range, kind, pte_done, cpus) = (s.mm, s.range, s.kind, s.pte_done, s.cpus);
        let now = machine.now();
        match why {
            Escalation::Watchdog => machine.stats.inc(metrics::id::LATR_WATCHDOG_ESCALATIONS),
            Escalation::Pressure => machine.stats.inc(metrics::id::LATR_EXPEDITED_SWEEPS),
        }
        let owner = CpuId(qi as u16);
        let pages: Vec<Vpn> = range.iter().collect();
        if kind == StateKind::Migration && !pte_done {
            // Assume the first-sweeper duty nobody performed.
            machine.apply_numa_hint(owner, mm, range.start);
        }
        let mut laggards = cpus;
        if laggards.test(owner) {
            // The owner sweeps its own bit locally — no self-IPI.
            machine.invalidate_tlb_pages(owner, mm, &pages);
            machine.oracle_note_sweep(owner, mm, range);
            machine.charge_debt(
                owner,
                machine.costs().local_invalidation(pages.len() as u32),
            );
            laggards.clear(owner);
        }
        for s in self.queues[qi].iter_active_mut() {
            if s.id == id {
                s.pte_done = true;
                s.cpus.clear(owner);
            }
        }
        if laggards.is_empty() {
            self.queues[qi].retire_completed();
            return;
        }
        let (ipi_metric, verb) = match why {
            Escalation::Watchdog => (metrics::id::LATR_WATCHDOG_IPIS, "watchdog escalates"),
            Escalation::Pressure => (
                metrics::id::LATR_EXPEDITED_IPIS,
                "memory pressure expedites",
            ),
        };
        machine.stats.add(ipi_metric, laggards.count() as u64);
        if machine.trace.is_enabled() {
            machine.trace.push(
                now,
                "latr",
                format!(
                    "{verb} state {id} {range:?}: {} laggard cores get IPIs",
                    laggards.count()
                ),
            );
        }
        let txn = machine.begin_sync_shootdown(owner, mm, pages, laggards, 0);
        self.watchdog_rounds.insert(txn.0, id);
        self.escalated.insert(id);
    }

    /// Memory pressure wants parked frames back: finish the oldest states
    /// that actually gate a parked package — the watchdog's mechanism,
    /// fired early — so the packages release at the next reclamation tick
    /// or allocation stall instead of waiting out the sweep schedule.
    /// Bounded work: at most [`EXPEDITE_BATCH`] states per call, states already
    /// being escalated are skipped, and states gating nothing are never
    /// touched (sweeping them frees no memory).
    fn expedite_gated(&mut self, machine: &mut Machine) {
        if !self.config.pressure_escalation {
            return;
        }
        self.ensure_queues(machine.topology().num_cpus());
        let gates: HashSet<u64> = self.reclaim.gate_ids().collect();
        if gates.is_empty() {
            return;
        }
        let now = machine.now();
        // (publish time, state id, queue) of every live gated state.
        let mut oldest: Vec<(Time, u64, usize)> = Vec::new();
        for (qi, q) in self.queues.iter().enumerate() {
            if q.active_count() == 0 {
                continue;
            }
            for s in q.iter_active() {
                if !s.cpus.is_empty() && gates.contains(&s.id) && !self.escalated.contains(&s.id) {
                    oldest.push((s.published, s.id, qi));
                }
            }
        }
        // Oldest first; state id breaks publish-time ties deterministically.
        oldest.sort_unstable();
        oldest.truncate(EXPEDITE_BATCH);
        for (_, id, qi) in oldest {
            self.expedited_at.entry(id).or_insert(now);
            self.escalate_state(machine, qi, id, Escalation::Pressure);
        }
    }

    /// Ids of states whose CPU bitmask has not cleared — exactly the
    /// gates that must hold their packages. Takes (and refills) the
    /// pooled scratch set so the per-tick reclaim paths allocate nothing
    /// in steady state; callers hand it back via `scratch_blocked`.
    fn blocked_ids(&mut self) -> HashSet<u64> {
        let mut blocked = std::mem::take(&mut self.scratch_blocked);
        blocked.clear();
        blocked.extend(
            self.queues
                .iter()
                .filter(|q| q.active_count() > 0)
                .flat_map(StateQueue::iter_active)
                .filter(|s| !s.cpus.is_empty())
                .map(|s| s.id),
        );
        blocked
    }

    /// Releases every parked package past its deadline whose gate (if
    /// any) has cleared. Shared by the background reclamation tick and
    /// the direct-reclaim stall path (`who` labels the trace). Returns
    /// the number of frames released.
    fn release_due(&mut self, machine: &mut Machine, blocked: &HashSet<u64>, who: &str) -> u64 {
        let now = machine.now();
        let mut released = 0u64;
        let mut due = std::mem::take(&mut self.scratch_due);
        due.clear();
        self.reclaim
            .due_into(now, |id| blocked.contains(&id), &mut due);
        for entry in due.drain(..) {
            machine.stats.record(
                metrics::id::LATR_RECLAIM_LATENCY_NS,
                now.saturating_since(entry.published),
            );
            machine.stats.add(
                metrics::id::LATR_RECLAIM_RELEASED_FRAMES,
                entry.pkg.frames.len() as u64,
            );
            // The escalation tick bound: pressure → release, per package.
            if let Some(t) = entry.gate.and_then(|g| self.expedited_at.remove(&g)) {
                machine.stats.record(
                    metrics::id::LATR_EXPEDITE_LATENCY_NS,
                    now.saturating_since(t),
                );
            }
            released += entry.pkg.frames.len() as u64;
            let pkg = entry.pkg;
            if machine.trace.is_enabled() {
                machine.trace.push(
                    now,
                    "latr",
                    format!(
                        "{who} frees {} frames{}",
                        pkg.frames.len(),
                        pkg.va.map(|r| format!(" + VA {r:?}")).unwrap_or_default()
                    ),
                );
            }
            machine.release_reclaim_deferred(pkg);
        }
        self.scratch_due = due;
        released
    }

    /// Visits one state queue during a sweep by `cpu`: invalidate and
    /// trace every state naming `cpu`, clear our bit, retire emptied
    /// slots. Returns `(cost, hits)` — `(sweep_empty, 0)` when nothing in
    /// the queue named us. Shared by the reference full scan and the
    /// pending-bitmap fast path so the two cannot drift.
    fn sweep_queue(&mut self, machine: &mut Machine, cpu: CpuId, qi: usize) -> (Nanos, u64) {
        let mut relevant = std::mem::take(&mut self.scratch_relevant);
        relevant.clear();
        // One fused pass: snapshot the fields the apply loop needs (in
        // particular `pte_done` *before* this sweep marks it), clear our
        // bit, and mark migration PTEs done. The machine-side apply loop
        // below never reads the queues, so folding the old second
        // clear-bits pass into the gather is invisible to it.
        self.queues[qi].for_each_active_mut(|state| {
            if state.cpus.test(cpu) {
                relevant.push((state.mm, state.range, state.kind, state.pte_done));
                state.cpus.clear(cpu);
                if state.kind == StateKind::Migration {
                    state.pte_done = true;
                }
            }
        });
        if relevant.is_empty() {
            self.scratch_relevant = relevant;
            return (machine.costs().latr_sweep_empty, 0);
        }
        let mut cost = 0;
        let mut hits = 0u64;
        // Batch-apply per `(mm, tick)` group: consecutive states from the
        // same address space — the common shape when one hot mm published
        // a burst of ops inside a tick window — share a single PCID
        // resolution and skip the per-state scratch page vector. Per-state
        // cost, trace, and oracle calls are unchanged, so a grouped sweep
        // is bit-identical to the one-call-per-state form.
        let mut gi = 0;
        while gi < relevant.len() {
            let mm = relevant[gi].0;
            let mut ge = gi + 1;
            while ge < relevant.len() && relevant[ge].0 == mm {
                ge += 1;
            }
            let pcid = machine.sweep_pcid(mm);
            for &(_, range, kind, pte_done) in &relevant[gi..ge] {
                cost += machine.costs().latr_sweep_hit;
                if kind == StateKind::Migration && !pte_done {
                    // First sweeper performs the page-table unmap (§4.3).
                    machine.apply_numa_hint(cpu, mm, range.start);
                    cost += machine.costs().pte_op;
                    if machine.trace.is_enabled() {
                        let now = machine.now();
                        machine.trace.push(
                            now,
                            "latr",
                            format!("{cpu} sweeps {range:?}: first core, clears PTE"),
                        );
                    }
                } else if machine.trace.is_enabled() {
                    let now = machine.now();
                    machine.trace.push(
                        now,
                        "latr",
                        format!("{cpu} sweeps {range:?}: local TLB invalidation"),
                    );
                }
                machine.invalidate_tlb_range_pcid(cpu, pcid, range);
                machine.oracle_note_sweep(cpu, mm, range);
                cost += machine.costs().local_invalidation(range.pages as u32);
                hits += 1;
            }
            gi = ge;
        }
        self.scratch_relevant = relevant;
        self.queues[qi].retire_completed();
        (cost, hits)
    }

    /// The sweep (§4.1): for each active state naming `cpu`, invalidate
    /// locally and clear the bit; retire states whose masks emptied.
    /// Returns the CPU time consumed.
    ///
    /// The reference path scans every core's queue; the fast path visits
    /// only the queues flagged in `cpu`'s pending-bitmap row (see
    /// [`PendingSweepMap`] for the staleness argument) and charges the
    /// unvisited queues the same empty-probe cost the reference scan
    /// would, so cost, traces, stats and oracle calls are bit-identical.
    fn sweep(&mut self, machine: &mut Machine, cpu: CpuId) -> Nanos {
        self.ensure_queues(machine.topology().num_cpus());
        let nq = self.queues.len();
        let mut cost = 0;
        let mut hits = 0u64;
        if self.config.reference_sweep {
            for qi in 0..nq {
                let (c, h) = self.sweep_queue(machine, cpu, qi);
                cost += c;
                hits += h;
            }
        } else {
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
                // A visit that found nothing (stale bit) costs the same
                // as any other empty probe, folded in below.
            }
            cost += machine.costs().latr_sweep_empty * (nq as u64 - hit_queues);
        }
        machine.llc.charge_latr_sweep(nq as u64);
        if hits > 0 {
            machine.stats.add(metrics::id::LATR_SWEEP_HITS, hits);
        }
        cost
    }
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

        // Adaptive fallback: while sync mode is on, don't burn a failed
        // publish per op — route straight to IPIs.
        if self.config.adaptive_fallback && self.sync_mode {
            machine.stats.inc(metrics::id::LATR_FALLBACK_IPIS);
            machine.stats.inc(metrics::id::LATR_ADAPTIVE_SYNC_OPS);
            return machine.sync_flush(initiator, mm, pages, start_delay);
        }

        let state = LatrState {
            id: self.next_state_id(),
            range,
            mm,
            kind: StateKind::Free,
            cpus: targets,
            pte_done: true,
            published: machine.now(),
        };
        let state_id = state.id;
        // An injected overflow storm forces the publish to fail as if the
        // queue were full (chaos testing of the fallback paths).
        let published = if machine.fault_force_overflow() {
            None
        } else {
            self.queues[initiator.index()].publish(state)
        };
        match published {
            Some(slot) => {
                self.pending.mark(&targets, initiator);
                machine.oracle_note_publish(initiator, mm, range, targets, false);
                machine.stats.inc(metrics::id::LATR_STATES_SAVED);
                machine.llc.charge_latr_save();
                if machine.trace.is_enabled() {
                    let now = machine.now();
                    machine.trace.push(
                        now,
                        "latr",
                        format!(
                            "{initiator} saves state[{slot}] {range:?} for {} cores (free)",
                            targets.count()
                        ),
                    );
                }
                // Park the freed VA + frames for two scheduler ticks,
                // gated on the state's bitmask clearing (the deadline
                // alone is unsafe under stalled sweepers or lost IPIs).
                // The +1 ns breaks exact ties with the sweep events at
                // the deadline instant.
                if let Some(pkg) = machine.take_pending_reclaim() {
                    machine
                        .stats
                        .add(metrics::id::LATR_DEFERRED_FRAMES, pkg.frames.len() as u64);
                    let now = machine.now();
                    let deadline =
                        now + self.config.reclaim_ticks as u64 * machine.tick_period() + 1;
                    let gate = self.config.gate_reclaim.then_some(state_id);
                    // Parked frames are reclamation debt: the allocator's
                    // per-node ledger must know memory exists that a sweep
                    // (not an OOM kill) will recover.
                    machine.note_reclaim_debt(&pkg);
                    self.reclaim.defer_gated(deadline, now, gate, pkg);
                }
                self.check_enter_pressure(machine, initiator.index());
                FlushOutcome::Deferred {
                    local_ns: machine.costs().latr_state_save,
                    defer_reclaim: true,
                }
            }
            None => {
                // Queue full: fall back to the IPI mechanism (§4.2), and
                // under adaptive fallback stay synchronous until occupancy
                // drains.
                machine.stats.inc(metrics::id::LATR_FALLBACK_IPIS);
                self.enter_sync_mode(machine, "state queue overflow");
                machine.sync_flush(initiator, mm, pages, start_delay)
            }
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
                if machine.trace.is_enabled() {
                    let now = machine.now();
                    machine.trace.push(
                        now,
                        "latr",
                        "adaptive fallback returns to lazy mode (queues drained)".to_string(),
                    );
                }
            }
        }
        // §6.4 memory-overhead accounting: sample how much physical memory
        // is parked awaiting reclamation before releasing what is due.
        machine
            .stats
            .record(metrics::id::LATR_PARKED_BYTES, self.reclaim.parked_bytes());
        // Release everything past its deadline whose covering state has
        // retired (empty mask). Blocked ids are the still-live states.
        let blocked = self.blocked_ids();
        // Honest gate accounting (whether or not a watchdog runs): count
        // packages overdue but still held by an uncleared bitmask.
        let held = self
            .reclaim
            .overdue_gated(machine.now(), |id| blocked.contains(&id));
        if held > 0 {
            machine.stats.add(metrics::id::LATR_GATE_HELD, held as u64);
        }
        self.release_due(machine, &blocked, "background reclaim");
        self.scratch_blocked = blocked;
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

    fn on_memory_pressure(
        &mut self,
        machine: &mut Machine,
        node: latr_arch::NodeId,
        level: Pressure,
    ) {
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
                    self.enter_sync_mode(machine, "free frames below the min watermark");
                    machine.stats.inc(metrics::id::LATR_PRESSURE_SYNC_ENTERS);
                    self.pressure_sync_active = true;
                }
            }
        }
        let _ = node;
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
        let blocked = self.blocked_ids();
        let released = self.release_due(machine, &blocked, "direct reclaim");
        self.scratch_blocked = blocked;
        self.expedite_gated(machine);
        released
    }

    fn on_sync_complete(&mut self, machine: &mut Machine, txn: &ShootdownTxn) {
        // Only watchdog escalation rounds concern us; ordinary sync
        // shootdowns (mprotect, overflow fallback) have no covering state.
        let Some(state_id) = self.watchdog_rounds.remove(&txn.id.0) else {
            return;
        };
        self.escalated.remove(&state_id);
        // The state may have been swept naturally while the round was in
        // flight — then there is nothing left to clear.
        let Some((qi, mm, range, cpus)) = self.queues.iter().enumerate().find_map(|(qi, q)| {
            let s = q.iter_active().find(|s| s.id == state_id)?;
            Some((qi, s.mm, s.range, s.cpus))
        }) else {
            return;
        };
        // Every laggard's TLB was invalidated by the IPI handler (which
        // happened-before this last ACK): their sweep duty is done.
        for cpu in cpus.iter() {
            machine.oracle_note_sweep(cpu, mm, range);
        }
        for s in self.queues[qi].iter_active_mut() {
            if s.id == state_id {
                for cpu in cpus.iter() {
                    s.cpus.clear(cpu);
                }
            }
        }
        self.queues[qi].retire_completed();
        if machine.trace.is_enabled() {
            let now = machine.now();
            machine.trace.push(
                now,
                "latr",
                format!("watchdog round for state {state_id} complete; state retired"),
            );
        }
    }

    fn numa_hint_unmap(&mut self, machine: &mut Machine, cpu: CpuId, mm: MmId, vpn: Vpn) -> bool {
        self.ensure_queues(machine.topology().num_cpus());
        // "This state includes the CPU bitmask of all the cores" —
        // including the recording core, which unmaps at its own next tick.
        let targets: CpuMask = machine.mm(mm).cpumask;
        if targets.is_empty() {
            return false;
        }
        // Adaptive fallback covers migration unmaps too: decline lazily
        // and let the machine run the synchronous hint-unmap.
        if self.config.adaptive_fallback && self.sync_mode {
            machine.stats.inc(metrics::id::LATR_FALLBACK_IPIS);
            machine.stats.inc(metrics::id::LATR_ADAPTIVE_SYNC_OPS);
            return false;
        }
        if machine.fault_force_overflow() {
            machine.stats.inc(metrics::id::LATR_FALLBACK_IPIS);
            self.enter_sync_mode(machine, "state queue overflow");
            return false;
        }
        let state = LatrState {
            id: self.next_state_id(),
            range: VaRange::new(vpn, 1),
            mm,
            kind: StateKind::Migration,
            cpus: targets,
            pte_done: false,
            published: machine.now(),
        };
        match self.queues[cpu.index()].publish(state) {
            Some(slot) => {
                self.pending.mark(&targets, cpu);
                machine.oracle_note_publish(cpu, mm, VaRange::new(vpn, 1), targets, true);
                machine.stats.inc(metrics::id::LATR_STATES_SAVED);
                machine.llc.charge_latr_save();
                machine.charge_debt(cpu, machine.costs().latr_state_save);
                if machine.trace.is_enabled() {
                    let now = machine.now();
                    machine.trace.push(
                        now,
                        "latr",
                        format!("{cpu} saves state[{slot}] {vpn:?} (migration, PTE untouched)"),
                    );
                }
                self.check_enter_pressure(machine, cpu.index());
                true
            }
            None => {
                machine.stats.inc(metrics::id::LATR_FALLBACK_IPIS);
                self.enter_sync_mode(machine, "state queue overflow");
                false
            }
        }
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
        self.escalated.clear();
        self.watchdog_rounds.clear();
        self.expedited_at.clear();
        self.pressure_sync_active = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use latr_arch::{MachinePreset, Topology};
    use latr_kernel::{Machine, MachineConfig, Op, Workload};
    use latr_sim::{MICROSECOND, SECOND};

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
