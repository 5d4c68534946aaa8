//! Fault-plan queries, memory-pressure watermarks, reclamation debt,
//! the allocation stall and the pressure fault sites.

use super::{Machine, ReclaimPackage};
use crate::trace::TraceRecord;
use latr_arch::CpuId;
use latr_mem::{AllocError, Pfn, Pressure};
use latr_sim::Nanos;

impl Machine {
    /// Whether an injected overflow storm wants the current state publish
    /// to fail. Counts the forced overflow; the policy calls this once per
    /// publish attempt.
    pub fn fault_force_overflow(&mut self) -> bool {
        let now = self.now();
        let forced = self
            .injector
            .as_ref()
            .is_some_and(|inj| inj.storm_active(now));
        if forced {
            self.stats.inc(crate::metrics::id::FAULTS_FORCED_OVERFLOWS);
        }
        forced
    }

    /// Whether an overflow storm is active right now, without counting
    /// anything — the adaptive-fallback hysteresis peeks at this to avoid
    /// flapping back to lazy mode mid-storm.
    pub fn fault_storm_active(&self) -> bool {
        let now = self.now();
        self.injector
            .as_ref()
            .is_some_and(|inj| inj.storm_active(now))
    }

    /// Whether `cpu` is inside an injected sweep stall right now.
    pub fn fault_stalled(&self, cpu: CpuId) -> bool {
        let now = self.now();
        self.injector
            .as_ref()
            .is_some_and(|inj| inj.stalled(cpu.index(), now))
    }

    /// Whether an injected reclaim-stall window covers this instant — the
    /// reclamation kthread must skip its tick (the storm that lets debt
    /// pile up while allocations keep draining the pool).
    pub fn fault_reclaim_stalled(&self) -> bool {
        let now = self.now();
        self.injector
            .as_ref()
            .is_some_and(|inj| inj.reclaim_stalled(now))
    }

    /// The injected watermark boost right now (watermark-flap fault
    /// sites raise the effective watermarks for their window, making the
    /// pressure classification flap without any real allocation).
    pub fn watermark_boost(&self) -> u64 {
        let now = self.now();
        self.injector.as_ref().map_or(0, |inj| inj.flap_boost(now))
    }

    // ---- memory pressure ---------------------------------------------------
    //
    // Per-node low/min watermarks (Linux zone-watermark analogue) guard
    // against LATR's worst case: the free pool draining while perfectly
    // freed frames sit gated in lazy reclamation. Crossings are edge
    // detected and fed to the policy; allocation failures take a stall
    // path that lets the policy expedite reclamation before the machine
    // declares OOM.

    /// Whether watermark pressure signalling is configured on this run.
    pub fn pressure_enabled(&self) -> bool {
        self.frames.low_watermark() > 0 || self.frames.min_watermark() > 0
    }

    /// The worst pressure across all nodes.
    pub fn worst_pressure(&self) -> Pressure {
        let boost = self.watermark_boost();
        (0..self.frames.nodes())
            .map(|n| {
                self.frames
                    .pressure_boosted(latr_arch::NodeId(n as u8), boost)
            })
            .max()
            .unwrap_or(Pressure::Normal)
    }

    /// Machine-wide reclamation debt: frames parked in lazy reclamation
    /// (freed by the VM, final reference held by a deferred queue).
    pub fn reclaim_debt_total(&self) -> u64 {
        self.frames.reclaim_debt_total()
    }

    /// Re-evaluates every node against its watermarks, counting
    /// transitions and firing
    /// [`TlbPolicy::on_memory_pressure`](crate::TlbPolicy::on_memory_pressure)
    /// on each edge. A no-op when watermarks are unconfigured, so healthy runs
    /// stay event-identical. Safe to call while the policy is detached
    /// (the hook is simply skipped; the policy re-reads pressure on its
    /// next tick).
    pub fn poll_pressure(&mut self) {
        if !self.pressure_enabled() {
            return;
        }
        let boost = self.watermark_boost();
        for n in 0..self.frames.nodes() {
            let node = latr_arch::NodeId(n as u8);
            let level = self.frames.pressure_boosted(node, boost);
            let prev = self.pressure_level[n];
            if level == prev {
                continue;
            }
            self.pressure_level[n] = level;
            match level {
                Pressure::Min => self.stats.inc(crate::metrics::id::MEM_PRESSURE_MIN_EVENTS),
                Pressure::Low if prev == Pressure::Normal => {
                    self.stats.inc(crate::metrics::id::MEM_PRESSURE_LOW_EVENTS);
                }
                Pressure::Low => {} // easing back from Min; recovery counts at Normal
                Pressure::Normal => self.stats.inc(crate::metrics::id::MEM_PRESSURE_RECOVERIES),
            }
            let free = self.frames.free_on_node(node);
            self.emit(TraceRecord::PressureEdge(node.0, prev, level, free));
            if self.policy.is_some() {
                self.with_policy(|p, m| p.on_memory_pressure(m, node, level));
            }
        }
    }

    /// The allocation-stall slow path: every free list is empty, so the
    /// faulting CPU stalls while the policy expedites reclamation (the
    /// direct-reclaim analogue). Returns the stall time to charge to the
    /// faulting op; the caller retries the allocation once afterwards.
    pub(super) fn alloc_stall(&mut self, cpu: CpuId, node: latr_arch::NodeId) -> Nanos {
        self.stats.inc(crate::metrics::id::ALLOC_STALLS);
        let released = if self.policy.is_some() {
            self.with_policy(|p, m| p.on_alloc_stall(m, cpu, node))
        } else {
            0
        };
        let stall = if released > 0 {
            // The policy freed `released` frames synchronously; the staller
            // pays their release plus one PTE-ish bookkeeping op.
            self.costs.frame_op * released + self.costs.pte_op
        } else {
            // Nothing reclaimable right now: the task waits out a
            // scheduler tick hoping background reclamation catches up.
            self.costs.sched_tick_period
        };
        self.stats.record(crate::metrics::id::ALLOC_STALL_NS, stall);
        self.emit(TraceRecord::AllocStall(cpu, node.0, released));
        stall
    }

    /// [`frame_alloc`](Self::frame_alloc) through the stall path: on
    /// exhaustion, stall, let the policy expedite, retry once. The second
    /// failure is a real OOM event. Returns the outcome plus the stall
    /// time the caller must charge to the faulting op.
    pub(super) fn frame_alloc_stalling(
        &mut self,
        cpu: CpuId,
        node: latr_arch::NodeId,
    ) -> (Result<Pfn, AllocError>, Nanos) {
        match self.frame_alloc(latr_verify::Ctx::Cpu(cpu), node, false) {
            Ok(p) => {
                self.poll_pressure();
                (Ok(p), 0)
            }
            Err(_) => {
                let stall = self.alloc_stall(cpu, node);
                let retry = self.frame_alloc(latr_verify::Ctx::Cpu(cpu), node, false);
                if retry.is_err() {
                    self.stats.inc(crate::metrics::id::OOM_EVENTS);
                }
                self.poll_pressure();
                (retry, stall)
            }
        }
    }

    /// Notes reclamation debt for a package the policy is about to defer:
    /// each frame whose parked reference is the final one is a
    /// freed-but-parked frame on its home node until the package is
    /// released through
    /// [`release_reclaim_deferred`](Self::release_reclaim_deferred).
    pub fn note_reclaim_debt(&mut self, pkg: &ReclaimPackage) {
        for pfn in self.reclaim_frames.get(pkg.frames) {
            self.frames.park_debt(pfn);
        }
    }

    /// [`release_reclaim`](Self::release_reclaim) for packages that went
    /// through [`note_reclaim_debt`](Self::note_reclaim_debt): settles the
    /// debt ledger, releases the frames, and re-polls the watermarks so a
    /// recovery is signalled as soon as the pool refills.
    pub fn release_reclaim_deferred(&mut self, pkg: ReclaimPackage) {
        for pfn in self.reclaim_frames.get(pkg.frames) {
            self.frames.unpark_debt(pfn);
        }
        self.release_reclaim(pkg);
        self.poll_pressure();
    }

    /// Applies the plan's pressure fault sites at the reclamation tick:
    /// allocation bursts grab frames on their node for the window and
    /// return them afterwards; watermark flaps are counted on their
    /// rising edge; reclaim-stall windows count each tick they suppress.
    pub(super) fn pressure_faults_tick(&mut self) {
        let now = self.now();
        let Some(inj) = self.injector.as_ref() else {
            return;
        };
        let (num_bursts, num_flaps) = (inj.plan().bursts.len(), inj.plan().flaps.len());
        if inj.reclaim_stalled(now) {
            self.stats.inc(crate::metrics::id::FAULTS_RECLAIM_STALLS);
        }
        // The sites are read by index, one copy at a time: cloning the
        // plan's lists would allocate at every tick.
        fn plan(m: &Machine) -> &latr_faults::FaultPlan {
            m.injector.as_ref().expect("injector attached").plan()
        }
        for i in 0..num_bursts {
            let b = plan(self).bursts[i];
            let active = b.active_at(now.as_ns());
            if active && !self.burst_applied[i] {
                self.burst_applied[i] = true;
                self.stats.inc(crate::metrics::id::FAULTS_ALLOC_BURSTS);
                let node = latr_arch::NodeId(b.node);
                for _ in 0..b.frames {
                    match self.frame_alloc(latr_verify::Ctx::Kthread, node, true) {
                        Ok(p) => self.burst_held[i].push(p),
                        // Node already dry: the burst has done its damage.
                        Err(_) => break,
                    }
                }
                self.emit(TraceRecord::BurstGrab(self.burst_held[i].len(), b.node));
            } else if !active && self.burst_applied[i] && !self.burst_held[i].is_empty() {
                let held = std::mem::take(&mut self.burst_held[i]);
                self.emit(TraceRecord::BurstReturn(held.len(), b.node));
                for p in held {
                    self.frame_dec_ref(None, p);
                }
            }
        }
        for i in 0..num_flaps {
            let f = plan(self).flaps[i];
            if f.active_at(now.as_ns()) && !self.flap_counted[i] {
                self.flap_counted[i] = true;
                self.stats.inc(crate::metrics::id::FAULTS_WATERMARK_FLAPS);
            }
        }
    }
}
