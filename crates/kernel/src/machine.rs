//! The simulated machine: cores, address spaces, event loop, syscalls.
//!
//! One [`Machine`] is one experiment run: a topology, a cost model, a
//! [`TlbPolicy`](crate::TlbPolicy), a [`Workload`] and a seed. Tasks are
//! pinned one-per-core (the paper pins workers and disables
//! hyperthreading); context switching is modelled through explicit
//! [`Op::Yield`] ops, and cross-CPU interference flows through interrupt
//! "time debt" injected into whatever op a core is executing when an IPI
//! lands.

use crate::event::Event;
use crate::mmlock::{LockMode, MmLock};
use crate::numa::{NumaConfig, NumaRuntime, NumaStats};
use crate::ops::{Op, OpResult, Workload};
use crate::shootdown::{FlushKind, FlushOutcome, ShootdownTxn, TlbPolicy, TxnId};
use crate::task::{Task, TaskId, TaskState};
use latr_arch::{CostModel, CpuId, CpuMask, IpiFabric, LlcModel, Tlb, TlbEntry, Topology};
use latr_faults::{FaultInjector, FaultPlan, IpiFault, TickFault};
use latr_mem::{
    AllocError, FileId, FrameAllocator, MapKind, MmId, MmStruct, PageCache, Pfn, Pressure, Prot,
    PteFlags, VaRange, Vpn,
};
use latr_sim::{EventQueue, Nanos, QueueBackend, SimRng, StatsRegistry, Time, TraceRing};
use std::collections::HashMap;

/// Configuration of one simulation run.
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// The machine layout (sockets, cores, TLB sizes).
    pub topology: Topology,
    /// The latency constants.
    pub costs: CostModel,
    /// RNG seed; same seed + same workload = identical run.
    pub seed: u64,
    /// Physical frames per NUMA node.
    pub frames_per_node: u64,
    /// Trace ring capacity (0 = tracing off).
    pub trace_capacity: usize,
    /// Baseline LLC miss ratio of the application (Table 4 modelling).
    pub llc_base_miss_ratio: f64,
    /// Whether PCIDs tag TLB entries (§4.5; Linux 4.10 default is off).
    pub pcid_enabled: bool,
    /// Tickless kernel (§7, `CONFIG_NO_HZ`): idle cores skip their
    /// scheduler ticks entirely. Safe for Latr because an idle core is in
    /// no `mm_cpumask`, so no state ever names it; its TLB was flushed on
    /// the way to idle.
    pub tickless: bool,
    /// AutoNUMA configuration.
    pub numa: NumaConfig,
    /// Whether the translation-coherence oracle shadows the run (on by
    /// default). The oracle is a pure observer; it costs some memory and
    /// time but never changes behaviour.
    pub oracle: bool,
    /// Deterministic fault plan to inject (chaos testing). `None` — and
    /// any plan for which [`FaultPlan::is_active`] is false — leaves the
    /// run event-for-event identical to a build without fault injection:
    /// the injector's RNG is forked off the seed, never the main stream,
    /// and the IPI retransmit timer is only armed while a plan is active.
    pub faults: Option<FaultPlan>,
    /// Which event queue drives the run: `Fast` (calendar queue, the
    /// default) or `Reference` (binary heap, the executable spec). Both
    /// deliver the exact same event order, so fingerprints are
    /// bit-identical across them.
    pub engine: QueueBackend,
    /// Per-node low (early-warning) free-frame watermark. Crossing it
    /// fires the policy's [`TlbPolicy::on_memory_pressure`] hook so lazy
    /// reclamation can be expedited before the pool drains. `0` together
    /// with `min_watermark_frames = 0` disables pressure signalling — the
    /// default, which keeps healthy runs event-identical to builds
    /// without the pressure layer.
    pub low_watermark_frames: u64,
    /// Per-node min (reserve floor) watermark; must be ≤ the low one.
    /// Below it forward progress must not depend on lazy timing any more
    /// (Latr falls back to synchronous shootdown per mm).
    pub min_watermark_frames: u64,
}

impl MachineConfig {
    /// A config over the given topology with calibrated costs and sensible
    /// defaults (NUMA balancing off, as in §6.1's free-operation runs).
    pub fn new(topology: Topology) -> Self {
        MachineConfig {
            topology,
            costs: CostModel::calibrated(),
            seed: 0x1a7_12a7,
            frames_per_node: 1 << 20, // 4 GiB per node — ample for workloads
            trace_capacity: 0,
            llc_base_miss_ratio: 0.05,
            pcid_enabled: false,
            tickless: false,
            numa: NumaConfig::disabled(),
            oracle: true,
            faults: None,
            engine: QueueBackend::default(),
            low_watermark_frames: 0,
            min_watermark_frames: 0,
        }
    }

    /// Enables memory-pressure signalling with the given per-node
    /// watermarks (in frames).
    pub fn with_watermarks(mut self, low: u64, min: u64) -> Self {
        self.low_watermark_frames = low;
        self.min_watermark_frames = min;
        self
    }
}

/// Per-core execution state.
#[derive(Debug)]
pub struct Core {
    /// This core's id.
    pub id: CpuId,
    /// The core's TLB model.
    pub tlb: Tlb,
    /// The task pinned here, if any.
    pub current: Option<TaskId>,
}

/// The per-core scalars touched on every event, in structure-of-arrays
/// layout: `Core` carries the TLB model (kilobytes per core), so keeping
/// these flags inside it strides each access across the whole `Core`
/// array. Packed into four dense vectors they fit a handful of cache
/// lines for all 120 cores of the large preset.
#[derive(Debug, Default)]
struct CoreHot {
    /// Whether an op is in flight.
    busy: Vec<bool>,
    /// Interrupt time injected into the in-flight op.
    debt: Vec<Nanos>,
    /// Guards stale `OpComplete` events after debt rescheduling.
    op_generation: Vec<u64>,
    /// When the in-flight op started (for op latency accounting).
    op_started: Vec<Time>,
}

impl CoreHot {
    fn new(ncpus: usize) -> CoreHot {
        CoreHot {
            busy: vec![false; ncpus],
            debt: vec![0; ncpus],
            op_generation: vec![0; ncpus],
            op_started: vec![Time::ZERO; ncpus],
        }
    }
}

/// FNV-1a parameters for the incremental event-stream fingerprint.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

#[inline]
fn fold_u64(h: &mut u64, x: u64) {
    // Word-at-a-time polynomial accumulation: one multiply per word
    // instead of the eight dependent byte rounds FNV-1a would cost on
    // the per-event path. Each step is a bijection of the running state
    // (odd multiplier, then add), so a differing word can never cancel
    // out of the fold; `fold_finish` adds the avalanche when the value
    // is rendered.
    *h = h.wrapping_mul(FNV_PRIME).wrapping_add(x);
}

/// Finalizer applied when the running fold is *read*: two xor-shift
/// multiply rounds (splitmix64's) so low-entropy tails still flip high
/// and low digits of the rendered value.
fn fold_finish(h: u64) -> u64 {
    let mut z = h.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Folds one delivered event into the running fingerprint: the delivery
/// time plus a compact `(tag, a, b, c)` encoding of the payload. Both
/// queue backends deliver the exact same `(time, id)` sequence, so the
/// fold is bit-identical across `fast` and `reference`.
fn fold_event(fold: &mut u64, time: Time, event: &Event) {
    let (tag, a, b, c) = match *event {
        Event::TaskStep(t) => (1, t.0 as u64, 0, 0),
        Event::OpComplete {
            cpu,
            task,
            generation,
        } => (2, cpu.0 as u64, task.0 as u64, generation),
        Event::SchedTick(cpu) => (3, cpu.0 as u64, 0, 0),
        Event::IpiDeliver { target, txn } => (4, target.0 as u64, txn.0, 0),
        Event::AckArrive { txn, from } => (5, txn.0, from.0 as u64, 0),
        Event::TxnRetry(txn) => (6, txn.0, 0, 0),
        Event::ReclaimTick => (7, 0, 0, 0),
        Event::NumaScan(mm) => (8, mm.0 as u64, 0, 0),
        Event::NumaFaultRetry { task, vpn } => (9, task.0 as u64, vpn, 0),
        Event::PolicyTimer(token) => (10, token, 0, 0),
        Event::LockGranted(t) => (11, t.0 as u64, 0, 0),
    };
    fold_u64(fold, time.as_ns());
    fold_u64(fold, tag);
    fold_u64(fold, a);
    fold_u64(fold, b);
    fold_u64(fold, c);
}

/// A deferred-release package: the frames and VA range whose reuse must
/// wait for the TLB shootdown to complete.
#[derive(Debug, Clone)]
pub struct ReclaimPackage {
    /// The address space the VA belongs to.
    pub mm: MmId,
    /// Frame references to drop.
    pub frames: Vec<Pfn>,
    /// VA range to unblock.
    pub va: Option<VaRange>,
}

/// The simulated machine. See the module documentation for the model.
pub struct Machine {
    topology: Topology,
    costs: CostModel,
    fabric: IpiFabric,
    queue: EventQueue<Event>,
    /// Per-core state, indexed by CPU id.
    pub cores: Vec<Core>,
    /// The per-event core scalars, in structure-of-arrays layout.
    hot: CoreHot,
    mms: Vec<MmStruct>,
    /// Dense copy of each mm's PCID (`mm_pcid[mm] == mms[mm].pcid`): the
    /// TLB paths read a PCID on every access, and a `u16` array is
    /// cache-dense where `MmStruct` is hundreds of bytes wide.
    mm_pcid: Vec<u16>,
    /// Persistent PCID → address-space index (slot per PCID value, which
    /// is 12-bit). Maintained by `create_process`; replaces the per-call
    /// map the coherence checker used to build.
    pcid_mms: Vec<Vec<u32>>,
    /// The physical frame allocator.
    pub frames: FrameAllocator,
    /// The shared page cache.
    pub page_cache: PageCache,
    tasks: Vec<Task>,
    /// Metric counters and histograms for the run.
    pub stats: StatsRegistry,
    /// Debug trace ring.
    pub trace: TraceRing,
    /// The run's deterministic RNG.
    pub rng: SimRng,
    /// The LLC perturbation model.
    pub llc: LlcModel,
    policy: Option<Box<dyn TlbPolicy>>,
    workload: Option<Box<dyn Workload>>,
    txns: HashMap<u64, ShootdownTxn>,
    next_txn: u64,
    pending_reclaim: Option<ReclaimPackage>,
    numa: NumaRuntime,
    pcid_enabled: bool,
    tickless: bool,
    live_tasks: usize,
    end_time: Time,
    // Hint faults waiting for a lazy NUMA unmap to finish (§4.4).
    blocked_faults: HashMap<u32, (Vpn, bool)>,
    // Per-task in-flight ops (keyed by raw task id).
    in_flight: HashMap<u32, Op>,
    // Pages currently swapped out, keyed by (mm, vpn).
    swapped: std::collections::HashSet<(u32, u64)>,
    // Pages the compactor wants migrated on their next (hint) fault.
    compact_pending: std::collections::HashSet<(u32, u64)>,
    // Per-mm mmap_sem locks, parallel to `mms`.
    locks: Vec<MmLock>,
    // mmap_sem holds per task.
    lock_held: HashMap<u32, LockMode>,
    // Ops waiting for the mmap_sem.
    parked: HashMap<u32, Op>,
    // Scratch vectors for the unmap/op-completion hot paths: taken with
    // `mem::take`, cleared, filled, and put back, so their capacity
    // survives across events and the steady state never allocates.
    scratch_removed: Vec<(Vpn, latr_mem::Pte)>,
    scratch_pages: Vec<(Vpn, Pfn)>,
    scratch_vmas: Vec<latr_mem::Vma>,
    scratch_granted: Vec<TaskId>,
    // Recycled `ReclaimPackage::frames` vectors: `release_reclaim` parks
    // the emptied vector here and the next unmap reuses it.
    frame_vec_pool: Vec<Vec<Pfn>>,
    // Running FNV-1a fold over the delivered event stream (time + payload
    // per event) — the O(1) incremental fingerprint.
    fold: u64,
    // The fault injector executing the configured plan, when one is active.
    injector: Option<FaultInjector>,
    // Last-signalled pressure per node (edge detection for watermark events).
    pressure_level: Vec<latr_mem::Pressure>,
    // Frames whose final reference is parked in a lazy-reclamation queue
    // (the reclamation-debt ledger; see `note_reclaim_debt`).
    debt_parked: std::collections::HashSet<Pfn>,
    // Frames grabbed by injected allocation bursts, one slot per plan site.
    burst_held: Vec<Vec<Pfn>>,
    // Whether each burst window has been applied (edge detection).
    burst_applied: Vec<bool>,
    // Whether each watermark-flap window has been counted.
    flap_counted: Vec<bool>,
    // The coherence oracle shadowing this run, when enabled.
    oracle: Option<latr_verify::CoherenceOracle>,
}

impl Machine {
    /// Builds a machine from its configuration.
    pub fn new(config: MachineConfig) -> Self {
        let ncpus = config.topology.num_cpus();
        let cores = (0..ncpus)
            .map(|i| Core {
                id: CpuId(i as u16),
                tlb: Tlb::new(
                    config.topology.l1_dtlb_entries() as usize,
                    config.topology.l2_tlb_entries() as usize,
                ),
                current: None,
            })
            .collect();
        let mut frames = FrameAllocator::new(config.topology.num_nodes(), config.frames_per_node);
        frames.set_watermarks(config.low_watermark_frames, config.min_watermark_frames);
        let (num_bursts, num_flaps) = config
            .faults
            .as_ref()
            .map_or((0, 0), |p| (p.bursts.len(), p.flaps.len()));
        let num_nodes = config.topology.num_nodes();
        let mut machine = Machine {
            fabric: IpiFabric::new(config.topology.clone(), config.costs.clone()),
            queue: EventQueue::with_backend(config.engine),
            cores,
            hot: CoreHot::new(ncpus),
            mms: Vec::new(),
            mm_pcid: Vec::new(),
            pcid_mms: vec![Vec::new(); 1 << 12],
            frames,
            page_cache: PageCache::new(),
            tasks: Vec::new(),
            stats: StatsRegistry::new(),
            trace: TraceRing::with_capacity(config.trace_capacity),
            rng: SimRng::new(config.seed),
            llc: LlcModel::new(config.llc_base_miss_ratio),
            policy: None,
            workload: None,
            txns: HashMap::new(),
            next_txn: 0,
            pending_reclaim: None,
            numa: NumaRuntime::new(config.numa),
            pcid_enabled: config.pcid_enabled,
            tickless: config.tickless,
            live_tasks: 0,
            end_time: Time::MAX,
            topology: config.topology,
            costs: config.costs,
            blocked_faults: HashMap::new(),
            in_flight: HashMap::new(),
            swapped: std::collections::HashSet::new(),
            compact_pending: std::collections::HashSet::new(),
            locks: Vec::new(),
            lock_held: HashMap::new(),
            parked: HashMap::new(),
            scratch_removed: Vec::new(),
            scratch_pages: Vec::new(),
            scratch_vmas: Vec::new(),
            scratch_granted: Vec::new(),
            frame_vec_pool: Vec::new(),
            fold: FNV_OFFSET,
            injector: config.faults.filter(FaultPlan::is_active).map(|plan| {
                // The injector's randomness comes from a fork keyed off the
                // machine seed, so attaching a plan never perturbs the main
                // RNG stream (the fork here uses a throwaway root).
                let mut root = SimRng::new(config.seed);
                FaultInjector::new(plan, root.fork(latr_faults::FAULT_STREAM))
            }),
            pressure_level: vec![latr_mem::Pressure::Normal; num_nodes],
            debt_parked: std::collections::HashSet::new(),
            burst_held: vec![Vec::new(); num_bursts],
            burst_applied: vec![false; num_bursts],
            flap_counted: vec![false; num_flaps],
            oracle: config
                .oracle
                .then(|| latr_verify::CoherenceOracle::new(ncpus)),
        };
        if machine.oracle.is_some() {
            // Exact shadow mirroring needs the TLB to report capacity
            // evictions; the wrappers drain the log after every fill.
            for core in &mut machine.cores {
                core.tlb.set_eviction_tracking(true);
            }
        }
        machine
    }

    // ---- accessors --------------------------------------------------------

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.queue.now()
    }

    /// The machine's topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The cost model.
    pub fn costs(&self) -> &CostModel {
        &self.costs
    }

    /// The scheduler tick period.
    pub fn tick_period(&self) -> Nanos {
        self.costs.sched_tick_period
    }

    /// An address space by id.
    ///
    /// # Panics
    ///
    /// Panics for an unknown id.
    pub fn mm(&self, id: MmId) -> &MmStruct {
        &self.mms[id.0 as usize]
    }

    /// Mutable access to an address space.
    pub fn mm_mut(&mut self, id: MmId) -> &mut MmStruct {
        &mut self.mms[id.0 as usize]
    }

    /// A task by id.
    pub fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id.index()]
    }

    /// Number of address spaces.
    pub fn num_mms(&self) -> usize {
        self.mms.len()
    }

    /// All tasks (for workloads to enumerate).
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// The address space currently active on `cpu`.
    pub fn current_mm(&self, cpu: CpuId) -> Option<MmId> {
        self.cores[cpu.index()]
            .current
            .map(|t| self.tasks[t.index()].mm)
    }

    /// NUMA balancing statistics for the run.
    pub fn numa_stats(&self) -> &NumaStats {
        self.numa.stats()
    }

    // ---- fault injection ---------------------------------------------------

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
            self.stats.inc(crate::metrics::FAULTS_FORCED_OVERFLOWS);
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

    // ---- coherence oracle --------------------------------------------------
    //
    // Every TLB and frame-lifetime mutation below goes through a thin
    // wrapper that mirrors the action into the shadow oracle
    // (crates/verify) when it is enabled. Policies call the
    // `oracle_note_*` methods unconditionally; they do nothing while the
    // oracle is off.

    /// The oracle's verdict: the first coherence violation detected, if
    /// any. `None` when the run is clean (or the oracle is disabled).
    pub fn oracle_violation(&self) -> Option<&latr_verify::Violation> {
        self.oracle.as_ref().and_then(|o| o.violation())
    }

    /// How many events the oracle observed (0 when disabled); lets tests
    /// assert the oracle actually shadowed the run.
    pub fn oracle_events_observed(&self) -> u64 {
        self.oracle.as_ref().map_or(0, |o| o.events_observed())
    }

    /// Called by the policy when it publishes a Latr state, so the oracle
    /// tracks the pending bitmask and the publish→sweep ordering edge.
    pub fn oracle_note_publish(
        &mut self,
        initiator: CpuId,
        mm: MmId,
        range: VaRange,
        targets: CpuMask,
        migration: bool,
    ) {
        if let Some(o) = self.oracle.as_mut() {
            o.note_publish(initiator, mm, range, targets, migration, self.queue.now());
        }
    }

    /// Called by the policy when `cpu` sweeps the states covering
    /// `(mm, range)`: its local invalidations are done and its bits clear.
    pub fn oracle_note_sweep(&mut self, cpu: CpuId, mm: MmId, range: VaRange) {
        if let Some(o) = self.oracle.as_mut() {
            o.note_sweep(cpu, mm, range, self.queue.now());
        }
    }

    /// Installs a translation into `cpu`'s TLB, mirroring the fill — and
    /// any capacity evictions it displaced — into the oracle.
    fn tlb_insert(&mut self, cpu: CpuId, entry: TlbEntry) {
        self.cores[cpu.index()].tlb.insert(entry);
        if self.oracle.is_some() {
            let now = self.now();
            let evicted = self.cores[cpu.index()].tlb.take_evicted();
            let allocated = self.frames.is_allocated(Pfn(entry.pfn));
            if let Some(o) = self.oracle.as_mut() {
                o.note_evictions(cpu, &evicted, now);
                o.note_fill(
                    cpu,
                    entry.pcid,
                    Vpn(entry.vpn),
                    Pfn(entry.pfn),
                    allocated,
                    now,
                );
            }
        }
    }

    /// TLB lookup on `cpu`; a hit is mirrored as an access through the
    /// cached translation (the oracle checks the frame is still live).
    fn tlb_lookup(&mut self, cpu: CpuId, pcid: u16, vpn: Vpn) -> Option<TlbEntry> {
        let hit = self.cores[cpu.index()].tlb.lookup(pcid, vpn.0);
        if self.oracle.is_some() {
            let now = self.now();
            // An L2→L1 promotion can itself displace an L1 slot.
            let evicted = self.cores[cpu.index()].tlb.take_evicted();
            let allocated = hit.map(|e| self.frames.is_allocated(Pfn(e.pfn)));
            if let Some(o) = self.oracle.as_mut() {
                o.note_evictions(cpu, &evicted, now);
                if let (Some(e), Some(allocated)) = (hit, allocated) {
                    o.note_hit(cpu, pcid, vpn, Pfn(e.pfn), allocated, now);
                }
            }
        }
        hit
    }

    /// Invalidates one page of `cpu`'s TLB (`INVLPG`).
    fn tlb_invalidate(&mut self, cpu: CpuId, pcid: u16, vpn: Vpn) -> bool {
        let any = self.cores[cpu.index()].tlb.invalidate_page(pcid, vpn.0);
        if let Some(o) = self.oracle.as_mut() {
            o.note_invalidate(cpu, pcid, vpn, self.queue.now());
        }
        any
    }

    /// Flushes `cpu`'s whole TLB.
    fn tlb_flush_all(&mut self, cpu: CpuId) {
        self.cores[cpu.index()].tlb.flush_all();
        if let Some(o) = self.oracle.as_mut() {
            o.note_flush_all(cpu, self.queue.now());
        }
    }

    /// Allocates a frame near `node` on behalf of `cpu`, checking reuse
    /// against the oracle's shadow TLBs.
    fn frame_alloc(&mut self, cpu: CpuId, node: latr_arch::NodeId) -> Result<Pfn, AllocError> {
        let pfn = self.frames.alloc(node);
        if let (Ok(p), Some(o)) = (pfn, self.oracle.as_mut()) {
            o.note_alloc(latr_verify::Ctx::Cpu(cpu), p, self.queue.now());
        }
        pfn
    }

    /// Like [`frame_alloc`](Self::frame_alloc) but with no fallback node.
    fn frame_alloc_exact(
        &mut self,
        cpu: CpuId,
        node: latr_arch::NodeId,
    ) -> Result<Pfn, AllocError> {
        let pfn = self.frames.alloc_exact(node);
        if let (Ok(p), Some(o)) = (pfn, self.oracle.as_mut()) {
            o.note_alloc(latr_verify::Ctx::Cpu(cpu), p, self.queue.now());
        }
        pfn
    }

    /// [`frame_alloc_exact`](Self::frame_alloc_exact) attributed to a
    /// kernel thread — the injected allocation-burst sites, which model an
    /// external consumer draining the node (another subsystem's storm).
    fn frame_alloc_exact_kthread(&mut self, node: latr_arch::NodeId) -> Result<Pfn, AllocError> {
        let pfn = self.frames.alloc_exact(node);
        if let (Ok(p), Some(o)) = (pfn, self.oracle.as_mut()) {
            o.note_alloc(latr_verify::Ctx::Kthread, p, self.queue.now());
        }
        pfn
    }

    /// Drops one reference to `pfn`, attributed to `cpu` (or to the
    /// reclamation kthread when `None`). A drop to refcount zero makes the
    /// frame reusable — the moment the oracle checks nothing still caches
    /// a translation to it.
    ///
    /// # Panics
    ///
    /// Panics on a typed [`latr_mem::FreeError`]: the kernel's own frame
    /// bookkeeping dropping a reference it does not hold is unrecoverable.
    fn frame_dec_ref(&mut self, cpu: Option<CpuId>, pfn: Pfn) -> u32 {
        let rc = self
            .frames
            .dec_ref(pfn)
            .unwrap_or_else(|e| panic!("kernel frame bookkeeping broken: {e}"));
        if let (0, Some(o)) = (rc, self.oracle.as_mut()) {
            let ctx = cpu.map_or(latr_verify::Ctx::Kthread, latr_verify::Ctx::Cpu);
            o.note_free(ctx, pfn, self.queue.now());
        }
        rc
    }

    /// [`PageCache::frame_for`] with alloc mirroring: a first-touch fill
    /// allocates the backing frame inside the cache, detected via the
    /// allocator's total-allocation counter.
    fn page_cache_frame_for(
        &mut self,
        cpu: CpuId,
        file: FileId,
        page: u64,
        node: latr_arch::NodeId,
    ) -> Result<Pfn, AllocError> {
        let before = self.frames.total_allocations();
        let pfn = self
            .page_cache
            .frame_for(file, page, node, &mut self.frames);
        if let (Ok(p), Some(o)) = (pfn, self.oracle.as_mut()) {
            if self.frames.total_allocations() > before {
                o.note_alloc(latr_verify::Ctx::Cpu(cpu), p, self.queue.now());
            }
        }
        pfn
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

    /// Current pressure of `node`, including any injected watermark flap.
    pub fn pressure_of(&self, node: latr_arch::NodeId) -> Pressure {
        self.frames.pressure_boosted(node, self.watermark_boost())
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

    /// Frames on `node` parked in lazy reclamation (freed by the VM, final
    /// reference held by a deferred queue).
    pub fn reclaim_debt(&self, node: latr_arch::NodeId) -> u64 {
        self.frames.reclaim_debt(node)
    }

    /// Machine-wide reclamation debt.
    pub fn reclaim_debt_total(&self) -> u64 {
        self.frames.reclaim_debt_total()
    }

    /// Re-evaluates every node against its watermarks, counting
    /// transitions and firing [`TlbPolicy::on_memory_pressure`] on each
    /// edge. A no-op when watermarks are unconfigured, so healthy runs
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
                Pressure::Min => self.stats.inc(crate::metrics::MEM_PRESSURE_MIN_EVENTS),
                Pressure::Low if prev == Pressure::Normal => {
                    self.stats.inc(crate::metrics::MEM_PRESSURE_LOW_EVENTS);
                }
                Pressure::Low => {} // easing back from Min; recovery counts at Normal
                Pressure::Normal => self.stats.inc(crate::metrics::MEM_PRESSURE_RECOVERIES),
            }
            if self.trace.is_enabled() {
                let now = self.now();
                let free = self.frames.free_on_node(node);
                self.trace.push(
                    now,
                    "pressure",
                    format!("node{n} {prev:?} -> {level:?} ({free} frames free)"),
                );
            }
            if self.policy.is_some() {
                self.with_policy(|p, m| p.on_memory_pressure(m, node, level));
            }
        }
    }

    /// The allocation-stall slow path: every free list is empty, so the
    /// faulting CPU stalls while the policy expedites reclamation (the
    /// direct-reclaim analogue). Returns the stall time to charge to the
    /// faulting op; the caller retries the allocation once afterwards.
    fn alloc_stall(&mut self, cpu: CpuId, node: latr_arch::NodeId) -> Nanos {
        self.stats.inc(crate::metrics::ALLOC_STALLS);
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
        self.stats.record(crate::metrics::ALLOC_STALL_NS, stall);
        if self.trace.is_enabled() {
            let now = self.now();
            self.trace.push(
                now,
                "pressure",
                format!(
                    "{cpu} alloc stall on node{} ({released} frames expedited)",
                    node.0
                ),
            );
        }
        stall
    }

    /// [`frame_alloc`](Self::frame_alloc) through the stall path: on
    /// exhaustion, stall, let the policy expedite, retry once. The second
    /// failure is a real OOM event. Returns the outcome plus the stall
    /// time the caller must charge to the faulting op.
    fn frame_alloc_stalling(
        &mut self,
        cpu: CpuId,
        node: latr_arch::NodeId,
    ) -> (Result<Pfn, AllocError>, Nanos) {
        match self.frame_alloc(cpu, node) {
            Ok(p) => {
                self.poll_pressure();
                (Ok(p), 0)
            }
            Err(_) => {
                let stall = self.alloc_stall(cpu, node);
                let retry = self.frame_alloc(cpu, node);
                if retry.is_err() {
                    self.stats.inc(crate::metrics::OOM_EVENTS);
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
        for &pfn in &pkg.frames {
            if self.frames.refcount(pfn) == 1 && self.debt_parked.insert(pfn) {
                let node = self.frames.node_of(pfn);
                self.frames.note_debt(node, 1);
            }
        }
    }

    /// [`release_reclaim`](Self::release_reclaim) for packages that went
    /// through [`note_reclaim_debt`](Self::note_reclaim_debt): settles the
    /// debt ledger, releases the frames, and re-polls the watermarks so a
    /// recovery is signalled as soon as the pool refills.
    pub fn release_reclaim_deferred(&mut self, pkg: ReclaimPackage) {
        for &pfn in &pkg.frames {
            if self.debt_parked.remove(&pfn) {
                let node = self.frames.node_of(pfn);
                self.frames.settle_debt(node, 1);
            }
        }
        self.release_reclaim(pkg);
        self.poll_pressure();
    }

    /// Applies the plan's pressure fault sites at the reclamation tick:
    /// allocation bursts grab frames on their node for the window and
    /// return them afterwards; watermark flaps are counted on their
    /// rising edge; reclaim-stall windows count each tick they suppress.
    fn pressure_faults_tick(&mut self) {
        let now = self.now();
        let (bursts, flaps, stalled) = match self.injector.as_ref() {
            Some(inj) => (
                inj.plan().bursts.clone(),
                inj.plan().flaps.clone(),
                inj.reclaim_stalled(now),
            ),
            None => return,
        };
        if stalled {
            self.stats.inc(crate::metrics::FAULTS_RECLAIM_STALLS);
        }
        for (i, b) in bursts.iter().enumerate() {
            let active = b.active_at(now.as_ns());
            if active && !self.burst_applied[i] {
                self.burst_applied[i] = true;
                self.stats.inc(crate::metrics::FAULTS_ALLOC_BURSTS);
                let node = latr_arch::NodeId(b.node);
                for _ in 0..b.frames {
                    match self.frame_alloc_exact_kthread(node) {
                        Ok(p) => self.burst_held[i].push(p),
                        // Node already dry: the burst has done its damage.
                        Err(_) => break,
                    }
                }
                if self.trace.is_enabled() {
                    let grabbed = self.burst_held[i].len();
                    self.trace.push(
                        now,
                        "fault",
                        format!("allocation burst grabs {grabbed} frames on node{}", b.node),
                    );
                }
            } else if !active && self.burst_applied[i] && !self.burst_held[i].is_empty() {
                let held = std::mem::take(&mut self.burst_held[i]);
                if self.trace.is_enabled() {
                    self.trace.push(
                        now,
                        "fault",
                        format!(
                            "allocation burst returns {} frames to node{}",
                            held.len(),
                            b.node
                        ),
                    );
                }
                for p in held {
                    self.frame_dec_ref(None, p);
                }
            }
        }
        for (i, f) in flaps.iter().enumerate() {
            if f.active_at(now.as_ns()) && !self.flap_counted[i] {
                self.flap_counted[i] = true;
                self.stats.inc(crate::metrics::FAULTS_WATERMARK_FLAPS);
            }
        }
    }

    // ---- setup -------------------------------------------------------------

    /// Creates a new process (address space). When PCIDs are enabled each
    /// mm gets a distinct tag (§4.5).
    pub fn create_process(&mut self) -> MmId {
        let id = MmId(self.mms.len() as u32);
        let mut mm = MmStruct::new(id);
        if self.pcid_enabled {
            mm.pcid = (id.0 % 4094 + 1) as u16;
        }
        self.mm_pcid.push(mm.pcid);
        self.pcid_mms[mm.pcid as usize].push(id.0);
        self.mms.push(mm);
        self.locks.push(MmLock::new());
        id
    }

    /// Dense PCID lookup for the TLB hot paths.
    #[inline]
    fn pcid_of(&self, mm: MmId) -> u16 {
        self.mm_pcid[mm.0 as usize]
    }

    /// Spawns a task of `mm` pinned to `core`.
    ///
    /// # Panics
    ///
    /// Panics if the core already has a task (the simulation pins one task
    /// per core).
    pub fn spawn_task(&mut self, mm: MmId, core: CpuId) -> TaskId {
        assert!(
            self.cores[core.index()].current.is_none(),
            "{core} already has a task"
        );
        let id = TaskId(self.tasks.len() as u32);
        self.tasks.push(Task::new(id, mm, core));
        self.cores[core.index()].current = Some(id);
        self.mms[mm.0 as usize].cpu_activated(core);
        self.live_tasks += 1;
        id
    }

    /// Registers a page-cache file of `pages` pages.
    pub fn register_file(&mut self, pages: u64) -> FileId {
        self.page_cache.register_file(pages)
    }

    // ---- the event loop ----------------------------------------------------

    /// Runs `workload` under `policy` for `duration` simulated nanoseconds
    /// (or until all tasks exit). Returns the boxes for post-run
    /// inspection.
    pub fn run(
        &mut self,
        mut workload: Box<dyn Workload>,
        policy: Box<dyn TlbPolicy>,
        duration: Nanos,
    ) -> (Box<dyn Workload>, Box<dyn TlbPolicy>) {
        workload.setup(self);
        assert!(self.live_tasks > 0, "workload created no tasks");
        self.workload = Some(workload);
        self.policy = Some(policy);
        self.end_time = self.now() + duration;

        // Kick every task.
        for i in 0..self.tasks.len() {
            self.queue
                .schedule_after(0, Event::TaskStep(TaskId(i as u32)));
        }
        // Staggered scheduler ticks: "these scheduler ticks are not
        // synchronized across all the cores" (§3).
        let period = self.costs.sched_tick_period;
        for cpu in 0..self.cores.len() {
            let stagger = (period * cpu as u64) / self.cores.len() as u64;
            self.queue
                .schedule_after(stagger.max(1), Event::SchedTick(CpuId(cpu as u16)));
        }
        // Background reclamation tick (used by Latr's kernel thread).
        self.queue.schedule_after(period, Event::ReclaimTick);
        // AutoNUMA scanner.
        if self.numa.config().enabled {
            let scan = self.numa.config().scan_period;
            for mm in 0..self.mms.len() {
                self.queue
                    .schedule_after(scan, Event::NumaScan(MmId(mm as u32)));
            }
        }

        while let Some(next) = self.queue.peek_time() {
            if next > self.end_time || self.live_tasks == 0 {
                break;
            }
            let (time, event) = self.queue.pop().expect("peeked");
            fold_event(&mut self.fold, time, &event);
            self.handle(event);
        }

        // The run is over: the shutdown drain below frees parked frames
        // "after the final event", which is not a race — stop checking.
        if let Some(o) = self.oracle.as_mut() {
            o.close();
        }
        let mut policy = self.policy.take().expect("policy present");
        policy.on_shutdown(self);
        // Reap forked-but-never-run address spaces so leak checks see a
        // clean machine (their cpumask never had a CPU, so no TLB can
        // cache their translations).
        for i in 0..self.mms.len() {
            if self.mms[i].cpumask.is_empty() {
                self.exit_mmap(MmId(i as u32), None);
            }
        }
        let workload = self.workload.take().expect("workload present");
        (workload, policy)
    }

    fn handle(&mut self, event: Event) {
        match event {
            Event::TaskStep(task) => self.task_step(task),
            Event::OpComplete {
                cpu,
                task,
                generation,
            } => self.op_complete(cpu, task, generation),
            Event::SchedTick(cpu) => self.sched_tick(cpu),
            Event::IpiDeliver { target, txn } => self.ipi_deliver(target, txn),
            Event::AckArrive { txn, from } => self.ack_arrive(txn, from),
            Event::TxnRetry(txn) => self.txn_retry(txn),
            Event::ReclaimTick => {
                // Pressure fault sites (allocation bursts, watermark
                // flaps) apply before the policy's tick so the kthread
                // observes the world it must react to.
                self.pressure_faults_tick();
                self.poll_pressure();
                self.with_policy(|policy, machine| policy.on_reclaim_tick(machine));
                let period = self.costs.sched_tick_period;
                self.queue.schedule_after(period, Event::ReclaimTick);
            }
            Event::NumaScan(mm) => self.numa_scan(mm),
            Event::NumaFaultRetry { task, vpn } => self.numa_fault_retry(task, Vpn(vpn)),
            Event::PolicyTimer(token) => {
                self.with_policy(|policy, machine| policy.on_timer(machine, token));
            }
            Event::LockGranted(task) => self.lock_granted(task),
        }
    }

    /// Runs `f` with the policy detached so it can borrow the machine.
    fn with_policy<R>(&mut self, f: impl FnOnce(&mut dyn TlbPolicy, &mut Machine) -> R) -> R {
        let mut policy = self.policy.take().expect("policy re-entered");
        let r = f(policy.as_mut(), self);
        self.policy = Some(policy);
        r
    }

    fn with_workload<R>(&mut self, f: impl FnOnce(&mut dyn Workload, &mut Machine) -> R) -> R {
        let mut w = self.workload.take().expect("workload re-entered");
        let r = f(w.as_mut(), self);
        self.workload = Some(w);
        r
    }

    // ---- mmap_sem ------------------------------------------------------------

    /// Acquires `task`'s mm lock, or parks the task until it is granted.
    /// Returns whether the lock is held after the call. Idempotent for a
    /// task that already holds the requested mode (re-execution after a
    /// grant).
    fn acquire_mm_lock(&mut self, task: TaskId, mode: LockMode) -> bool {
        if self.lock_held.get(&task.0).copied() == Some(mode) {
            return true;
        }
        let mm = self.tasks[task.index()].mm;
        if self.locks[mm.0 as usize].acquire(task, mode) {
            self.lock_held.insert(task.0, mode);
            true
        } else {
            self.stats.inc("mmap_sem_waits");
            false
        }
    }

    fn release_mm_lock(&mut self, task: TaskId) {
        if self.lock_held.remove(&task.0).is_some() {
            let mm = self.tasks[task.index()].mm;
            let mut granted = std::mem::take(&mut self.scratch_granted);
            granted.clear();
            self.locks[mm.0 as usize].release_into(task, &mut granted);
            for &g in &granted {
                self.queue.schedule_after(0, Event::LockGranted(g));
            }
            self.scratch_granted = granted;
        }
    }

    fn lock_granted(&mut self, task: TaskId) {
        if !self.tasks[task.index()].is_live() {
            // The grantee exited while queued; pass the lock on.
            let mm = self.tasks[task.index()].mm;
            let mut granted = std::mem::take(&mut self.scratch_granted);
            granted.clear();
            self.locks[mm.0 as usize].release_into(task, &mut granted);
            for &g in &granted {
                self.queue.schedule_after(0, Event::LockGranted(g));
            }
            self.scratch_granted = granted;
            return;
        }
        let mode = if self.locks[self.tasks[task.index()].mm.0 as usize].writer() == Some(task) {
            LockMode::Write
        } else {
            LockMode::Read
        };
        self.lock_held.insert(task.0, mode);
        let op = self
            .parked
            .remove(&task.0)
            .expect("granted task has a parked op");
        self.execute_op(task, op);
    }

    /// Whether executing `op` requires the mm lock, and in which mode.
    fn lock_mode_for(&self, task: TaskId, op: &Op) -> Option<LockMode> {
        match *op {
            Op::MmapAnon { .. }
            | Op::MmapFile { .. }
            | Op::Munmap { .. }
            | Op::MadviseFree { .. }
            | Op::Mprotect { .. }
            | Op::Mremap { .. }
            | Op::SwapOut { .. }
            | Op::Dedup { .. }
            | Op::Compact { .. }
            | Op::Fork => Some(LockMode::Write),
            Op::Access { vpn, write } => {
                // Only a fault takes mmap_sem (for reading); a plain TLB
                // refill walks the page table locklessly.
                let t = &self.tasks[task.index()];
                let mm = &self.mms[t.mm.0 as usize];
                if let Some(entry) = self.cores[t.core.index()].tlb.peek(mm.pcid, vpn.0) {
                    if !write || entry.writable {
                        return None;
                    }
                }
                match mm.page_table.lookup(vpn) {
                    Some(pte) if !pte.flags.numa_hint && (!write || pte.flags.writable) => None,
                    _ => Some(LockMode::Read),
                }
            }
            _ => None,
        }
    }

    // ---- task stepping -----------------------------------------------------

    fn task_step(&mut self, task: TaskId) {
        if !self.tasks[task.index()].is_live() {
            return;
        }
        let op = self.with_workload(|w, m| w.next_op(m, task));
        self.execute_op(task, op);
    }

    fn execute_op(&mut self, task_id: TaskId, op: Op) {
        if let Some(mode) = self.lock_mode_for(task_id, &op) {
            if !self.acquire_mm_lock(task_id, mode) {
                self.parked.insert(task_id.0, op);
                return;
            }
        }
        let cpu = self.tasks[task_id.index()].core;
        match op {
            Op::Compute(ns) => {
                self.llc.charge_app_accesses(ns / 10);
                self.begin_op(cpu, task_id, op, ns.max(1));
            }
            Op::Sleep(ns) => {
                // Sleeping consumes no CPU: step again later, reporting the
                // op as complete immediately.
                self.tasks[task_id.index()].ops_completed += 1;
                self.with_workload(|w, m| {
                    w.on_op_complete(m, task_id, OpResult { op, latency: ns })
                });
                self.queue
                    .schedule_after(ns.max(1), Event::TaskStep(task_id));
            }
            Op::Yield => {
                self.stats.inc(crate::metrics::CONTEXT_SWITCHES);
                let mut cost = self.costs.context_switch;
                // An injected sweep stall suppresses the context-switch
                // sweep too (the core is inside a non-preemptible section;
                // the "switch" models involuntary kernel work).
                let now = self.now();
                let stalled = self
                    .injector
                    .as_ref()
                    .is_some_and(|inj| inj.stalled(cpu.index(), now));
                if stalled {
                    self.stats.inc(crate::metrics::FAULTS_SWEEP_STALLS);
                } else {
                    cost += self.with_policy(|p, m| p.on_context_switch(m, cpu));
                }
                if !self.pcid_enabled {
                    // CR3 write on the way back flushes the TLB (§4.5).
                    self.tlb_flush_all(cpu);
                    cost += self.costs.full_flush;
                }
                self.begin_op(cpu, task_id, op, cost.max(1));
            }
            Op::Access { vpn, write } => {
                match self.access_page(task_id, vpn, write) {
                    AccessOutcome::Done(cost) => self.begin_op(cpu, task_id, op, cost.max(1)),
                    AccessOutcome::BlockedOnNuma => {
                        // Op stays in flight; a NumaFaultRetry will finish it.
                        self.blocked_faults.insert(task_id.0, (vpn, write));
                        self.hot.busy[cpu.index()] = true;
                        self.hot.op_started[cpu.index()] = self.now();
                        let retry = self.numa.config().fault_retry;
                        self.queue.schedule_after(
                            retry,
                            Event::NumaFaultRetry {
                                task: task_id,
                                vpn: vpn.0,
                            },
                        );
                    }
                }
            }
            Op::AccessBatch {
                range,
                accesses,
                write,
            } => {
                let mut cost = 0;
                for _ in 0..accesses {
                    let page = range.start.0 + self.rng.below(range.pages.max(1));
                    match self.access_page(task_id, Vpn(page), write) {
                        AccessOutcome::Done(c) => cost += c,
                        // Batches model steady-state working sets; a blocked
                        // hint fault inside one is treated as its retry
                        // latency.
                        AccessOutcome::BlockedOnNuma => cost += self.numa.config().fault_retry,
                    }
                }
                self.begin_op(cpu, task_id, op, cost.max(1));
            }
            Op::MmapAnon { pages } => {
                let mm = self.tasks[task_id.index()].mm;
                let range = self.mm_mut(mm).mmap_anon(pages, Prot::READ_WRITE);
                self.tasks[task_id.index()].last_mmap = Some(range);
                let cost = self.costs.syscall_overhead + self.costs.vma_op;
                self.begin_op(cpu, task_id, op, cost);
            }
            Op::MmapFile {
                file,
                offset,
                pages,
            } => {
                let mm = self.tasks[task_id.index()].mm;
                let range = self.mm_mut(mm).mmap_file(file, offset, pages, Prot::READ);
                self.tasks[task_id.index()].last_mmap = Some(range);
                let cost = self.costs.syscall_overhead + self.costs.vma_op;
                self.begin_op(cpu, task_id, op, cost);
            }
            Op::Munmap { range } => self.do_unmap(task_id, op, range, FlushKind::Unmap),
            Op::MadviseFree { range } => self.do_unmap(task_id, op, range, FlushKind::MadviseFree),
            Op::Mprotect { range, prot } => self.do_mprotect(task_id, op, range, prot),
            Op::Mremap { range } => self.do_mremap(task_id, op, range),
            Op::SwapOut { range } => self.do_swap_out(task_id, op, range),
            Op::Dedup { range } => self.do_dedup(task_id, op, range),
            Op::Compact { range } => self.do_compact(task_id, op, range),
            Op::Fork => self.do_fork(task_id, op),
            Op::Exit => {
                debug_assert!(
                    !self.lock_held.contains_key(&task_id.0),
                    "task exits while holding mmap_sem"
                );
                let t = &mut self.tasks[task_id.index()];
                t.state = TaskState::Done;
                let mm = t.mm;
                let core = t.core;
                self.cores[core.index()].current = None;
                self.mms[mm.0 as usize].cpu_deactivated(core);
                // Leaving a core idle flushes its TLB on the way out
                // (idle lazy-TLB would defer this; either way no stale
                // user entries survive for the next owner).
                self.tlb_flush_all(core);
                // Last thread out tears the address space down
                // (exit_mmap): with an empty mm_cpumask no remote TLBs can
                // cache its translations, so frames free immediately.
                if self.mms[mm.0 as usize].cpumask.is_empty() {
                    self.exit_mmap(mm, Some(core));
                }
                self.live_tasks -= 1;
            }
        }
    }

    /// Starts an op of the given CPU cost; completion is scheduled and may
    /// be delayed by interrupt debt.
    fn begin_op(&mut self, cpu: CpuId, task: TaskId, _op: Op, cost: Nanos) {
        let now = self.now();
        let i = cpu.index();
        self.hot.busy[i] = true;
        self.hot.op_started[i] = now;
        self.hot.op_generation[i] += 1;
        let generation = self.hot.op_generation[i];
        self.queue.schedule_after(
            cost,
            Event::OpComplete {
                cpu,
                task,
                generation,
            },
        );
        // Stash the op so completion can report it.
        self.in_flight.insert(task.0, _op);
    }

    fn op_complete(&mut self, cpu: CpuId, task: TaskId, generation: u64) {
        let now = self.now();
        let i = cpu.index();
        if generation != self.hot.op_generation[i] {
            return; // superseded by a debt extension
        }
        if self.hot.debt[i] > 0 {
            let debt = self.hot.debt[i];
            self.hot.debt[i] = 0;
            self.hot.op_generation[i] += 1;
            let generation = self.hot.op_generation[i];
            self.queue.schedule_after(
                debt,
                Event::OpComplete {
                    cpu,
                    task,
                    generation,
                },
            );
            return;
        }
        self.hot.busy[i] = false;
        let latency = now - self.hot.op_started[i];
        let op = self
            .in_flight
            .remove(&task.0)
            .expect("completed op was in flight");
        self.tasks[task.index()].ops_completed += 1;
        self.release_mm_lock(task);
        match op {
            Op::Munmap { .. } => self.stats.record(crate::metrics::MUNMAP_NS, latency),
            Op::MadviseFree { .. } => self.stats.record(crate::metrics::MADVISE_NS, latency),
            _ => {}
        }
        self.with_workload(|w, m| w.on_op_complete(m, task, OpResult { op, latency }));
        if self.tasks[task.index()].is_live() {
            self.queue.schedule_after(0, Event::TaskStep(task));
        }
    }

    // ---- memory access & faults ---------------------------------------------

    fn access_page(&mut self, task_id: TaskId, vpn: Vpn, write: bool) -> AccessOutcome {
        let task = &self.tasks[task_id.index()];
        let cpu = task.core;
        let mm_id = task.mm;
        let pcid = self.pcid_of(mm_id);
        self.llc.charge_app_accesses(1);

        if let Some(entry) = self.tlb_lookup(cpu, pcid, vpn) {
            if !write || entry.writable {
                return AccessOutcome::Done(2); // TLB hit: ~free
            }
            // Write through a read-only entry: fall through to the fault
            // path after invalidating the stale entry.
            self.tlb_invalidate(cpu, pcid, vpn);
        }

        let mut cost = self.costs.tlb_miss_walk;
        let pte = self.mms[mm_id.0 as usize].page_table.lookup(vpn);
        match pte {
            Some(pte) if pte.flags.numa_hint => {
                // NUMA hint fault (§4.3).
                self.stats.inc(crate::metrics::HINT_FAULTS);
                let proceed = self.with_policy(|p, m| p.numa_fault_may_proceed(m, mm_id, vpn));
                if !proceed {
                    return AccessOutcome::BlockedOnNuma;
                }
                cost += self.numa_hint_fault(task_id, vpn, write);
                AccessOutcome::Done(cost)
            }
            Some(pte) => {
                let mut pte = pte;
                let mut writable = pte.flags.writable;
                if write && !writable {
                    let vma_allows_write = self.mms[mm_id.0 as usize]
                        .vmas
                        .find(vpn)
                        .map(|v| v.prot.write)
                        .unwrap_or(false);
                    if vma_allows_write {
                        // Copy-on-write break: a new private frame, and an
                        // ownership change that must reach every core
                        // synchronously (Table 1's CoW row — identical
                        // under every policy, charged analytically).
                        cost += self.cow_break(task_id, vpn, &mut pte);
                        writable = true;
                    } else {
                        // True protection fault.
                        cost += self.costs.page_fault;
                        self.stats.inc("protection_faults");
                    }
                }
                self.mms[mm_id.0 as usize].page_table.update(vpn, |p| {
                    p.flags.accessed = true;
                    if write && writable {
                        p.flags.dirty = true;
                    }
                });
                self.tlb_insert(
                    cpu,
                    TlbEntry {
                        pcid,
                        vpn: vpn.0,
                        pfn: pte.pfn.0,
                        writable,
                    },
                );
                AccessOutcome::Done(cost)
            }
            None => {
                // Demand-paging fault.
                cost += self.demand_fault(task_id, vpn, write);
                AccessOutcome::Done(cost)
            }
        }
    }

    /// Breaks copy-on-write sharing of `vpn`: allocates a private frame,
    /// copies, re-points the PTE writable, and charges the synchronous
    /// ownership-change shootdown. Updates `pte` to the new entry and
    /// returns the CPU cost.
    fn cow_break(&mut self, task_id: TaskId, vpn: Vpn, pte: &mut latr_mem::Pte) -> Nanos {
        let task = &self.tasks[task_id.index()];
        let cpu = task.core;
        let mm_id = task.mm;
        let node = self.topology.node_of(cpu);
        let mut cost = self.costs.page_fault;
        self.stats.inc("cow_breaks");
        let old = pte.pfn;
        if self.frames.refcount(old) > 1 {
            let (alloc, stall) = self.frame_alloc_stalling(cpu, node);
            cost += stall;
            let Ok(new) = alloc else {
                return cost;
            };
            cost += self.costs.page_copy + self.costs.frame_op;
            self.frame_dec_ref(Some(cpu), old);
            pte.pfn = new;
        }
        pte.flags.writable = true;
        let new_pfn = pte.pfn;
        self.mms[mm_id.0 as usize].page_table.update(vpn, |p| {
            p.pfn = new_pfn;
            p.flags.writable = true;
        });
        cost += self.costs.pte_op;
        let pcid = self.pcid_of(mm_id);
        self.tlb_invalidate(cpu, pcid, vpn);
        // Remote read-only translations of the old frame must go before
        // the writer proceeds. (`CpuMask` is `Copy`; iterating a snapshot
        // avoids collecting the sharers into a heap vector.)
        let sharers = self.mms[mm_id.0 as usize].cpumask;
        let remote = sharers.count().saturating_sub(1);
        if remote > 0 {
            cost += self.costs.estimate_linux_shootdown(&self.topology, remote);
            for sharer in sharers.iter() {
                if sharer != cpu {
                    self.invalidate_tlb_pages(sharer, mm_id, &[vpn]);
                }
            }
        }
        cost
    }

    fn demand_fault(&mut self, task_id: TaskId, vpn: Vpn, write: bool) -> Nanos {
        self.stats.inc(crate::metrics::PAGE_FAULTS);
        let task = &self.tasks[task_id.index()];
        let cpu = task.core;
        let mm_id = task.mm;
        let node = self.topology.node_of(cpu);
        let mut cost = self.costs.page_fault;

        let vma = match self.mms[mm_id.0 as usize].vmas.find(vpn) {
            Some(v) => *v,
            None => {
                // Access to unmapped VA: a segfault. The paper's §4.4 notes
                // Latr turns use-after-unmap into a (delayed) fault; we
                // count it and treat the op as a no-op.
                self.stats.inc("segfaults");
                return cost;
            }
        };
        if self.swapped.remove(&(mm_id.0, vpn.0)) {
            // Swap-in: the page's previous contents come back from the
            // backing store.
            cost += self.costs.swap_in;
            self.stats.inc("swap_ins");
        }
        let pfn = match vma.kind {
            MapKind::Anon => {
                let (alloc, stall) = self.frame_alloc_stalling(cpu, node);
                cost += stall;
                match alloc {
                    Ok(p) => p,
                    Err(_) => return cost,
                }
            }
            MapKind::File { .. } => {
                let (file, page) = vma.file_page_of(vpn).expect("file vma");
                let first = self.page_cache_frame_for(cpu, file, page, node);
                let read_in = match first {
                    Ok(p) => Ok(p),
                    Err(_) => {
                        // Same stall-then-retry dance as the anon path; a
                        // page-cache read-in is an allocation like any other.
                        cost += self.alloc_stall(cpu, node);
                        let retry = self.page_cache_frame_for(cpu, file, page, node);
                        if retry.is_err() {
                            self.stats.inc(crate::metrics::OOM_EVENTS);
                        }
                        self.poll_pressure();
                        retry
                    }
                };
                match read_in {
                    Ok(p) => {
                        // The mapping holds its own reference.
                        self.frames
                            .inc_ref(p)
                            .expect("page cache holds a live reference");
                        p
                    }
                    Err(_) => return cost,
                }
            }
        };
        cost += self.costs.frame_op + self.costs.pte_op;
        let writable = vma.prot.write;
        let mm = &mut self.mms[mm_id.0 as usize];
        mm.page_table.map(
            vpn,
            pfn,
            PteFlags {
                writable,
                accessed: true,
                dirty: write && writable,
                numa_hint: false,
            },
        );
        let pcid = mm.pcid;
        self.tlb_insert(
            cpu,
            TlbEntry {
                pcid,
                vpn: vpn.0,
                pfn: pfn.0,
                writable,
            },
        );
        cost
    }

    // ---- unmap paths ----------------------------------------------------------

    fn do_unmap(&mut self, task_id: TaskId, op: Op, range: VaRange, kind: FlushKind) {
        let task = &self.tasks[task_id.index()];
        let cpu = task.core;
        let mm_id = task.mm;

        // The unmap hot path runs on scratch vectors (capacity retained
        // across calls) and a recycled frames vector: in steady state it
        // performs no heap allocation, which `tests/zero_alloc.rs` gates.
        // VMA bookkeeping (munmap removes VMAs; madvise keeps them).
        if kind == FlushKind::Unmap {
            let mut vmas = std::mem::take(&mut self.scratch_vmas);
            vmas.clear();
            self.mms[mm_id.0 as usize].munmap_vmas_into(&range, &mut vmas);
            self.scratch_vmas = vmas;
        }
        let mut removed = std::mem::take(&mut self.scratch_removed);
        removed.clear();
        self.mms[mm_id.0 as usize]
            .page_table
            .unmap_range_into(&range, &mut removed);
        let mut pages = std::mem::take(&mut self.scratch_pages);
        pages.clear();
        pages.extend(removed.iter().map(|&(v, pte)| (v, pte.pfn)));
        // Unmapping cancels any swap/compaction bookkeeping for the range.
        for vpn in range.iter() {
            self.swapped.remove(&(mm_id.0, vpn.0));
            self.compact_pending.remove(&(mm_id.0, vpn.0));
        }

        // Initiator-side cost: syscall, VMA surgery, PTE clears, per-sharer
        // bookkeeping, local TLB invalidation.
        let mut local = self.costs.syscall_overhead + self.costs.vma_op;
        local += self.costs.pte_op * removed.len() as u64;
        let sharer_mask = self.mms[mm_id.0 as usize].cpumask;
        for sharer in sharer_mask.iter() {
            if sharer != cpu {
                local += self
                    .costs
                    .unmap_per_sharer(self.topology.cpu_hops(cpu, sharer));
            }
        }
        local += self.costs.local_invalidation(removed.len() as u32);
        let pcid = self.pcid_of(mm_id);
        if removed.len() as u32 > self.costs.full_flush_threshold {
            self.tlb_flush_all(cpu);
        } else {
            for &(vpn, _) in &removed {
                self.tlb_invalidate(cpu, pcid, vpn);
            }
        }

        // Block the VA and stage the frames; who releases them depends on
        // the policy's outcome.
        let blocked_va = if kind == FlushKind::Unmap && !range.is_empty() {
            self.mms[mm_id.0 as usize].block_va(range);
            Some(range)
        } else {
            None
        };
        let mut frames = self.frame_vec_pool.pop().unwrap_or_default();
        frames.extend(pages.iter().map(|&(_, p)| p));
        self.pending_reclaim = Some(ReclaimPackage {
            mm: mm_id,
            frames,
            va: blocked_va,
        });

        let outcome = self.with_policy(|p, m| {
            p.flush_others(m, cpu, Some(task_id), mm_id, range, &pages, kind, local)
        });
        self.scratch_removed = removed;
        self.scratch_pages = pages;
        self.finish_flush(task_id, cpu, op, local, outcome);
    }

    fn do_mprotect(&mut self, task_id: TaskId, op: Op, range: VaRange, prot: Prot) {
        let task = &self.tasks[task_id.index()];
        let cpu = task.core;
        let mm_id = task.mm;

        self.mms[mm_id.0 as usize].vmas.protect_range(&range, prot);
        let mut pages = Vec::new();
        let mut count = 0u32;
        for vpn in range.iter() {
            if let Some(pte) = self.mms[mm_id.0 as usize].page_table.update(vpn, |p| {
                p.flags.writable = prot.write;
            }) {
                pages.push((vpn, pte.pfn));
                count += 1;
            }
        }
        let mut local = self.costs.syscall_overhead + self.costs.vma_op;
        local += self.costs.pte_op * count as u64;
        local += self.costs.local_invalidation(count);
        let pcid = self.pcid_of(mm_id);
        for &(vpn, _) in &pages {
            self.tlb_invalidate(cpu, pcid, vpn);
        }
        // Permission changes must reach the whole system synchronously
        // (Table 1); frames are untouched.
        self.pending_reclaim = Some(ReclaimPackage {
            mm: mm_id,
            frames: Vec::new(),
            va: None,
        });
        let outcome = self.with_policy(|p, m| {
            p.flush_others(
                m,
                cpu,
                Some(task_id),
                mm_id,
                range,
                &pages,
                FlushKind::Synchronous,
                local,
            )
        });
        self.finish_flush(task_id, cpu, op, local, outcome);
    }

    /// Applies a policy's flush decision to the in-flight op.
    fn finish_flush(
        &mut self,
        task_id: TaskId,
        cpu: CpuId,
        op: Op,
        local_ns: Nanos,
        outcome: FlushOutcome,
    ) {
        match outcome {
            FlushOutcome::Sync {
                txn,
                local_ns: extra,
            } => {
                // Reclaim package must have been attached to the txn.
                assert!(
                    self.pending_reclaim.is_none(),
                    "sync outcome must route reclaim through the txn"
                );
                self.tasks[task_id.index()].state = TaskState::BlockedOnShootdown;
                let wait_start = self.now() + local_ns + extra;
                let t = self
                    .txns
                    .get_mut(&txn.0)
                    .expect("sync outcome with unknown txn");
                t.blocked_task = Some(task_id);
                t.wait_started = wait_start;
                self.hot.busy[cpu.index()] = true;
                self.hot.op_started[cpu.index()] = self.now();
                self.in_flight.insert(task_id.0, op);
                // Completion comes from the last ACK.
            }
            FlushOutcome::Deferred {
                local_ns: extra,
                defer_reclaim,
            } => {
                if defer_reclaim {
                    assert!(
                        self.pending_reclaim.is_none(),
                        "deferring policy must take the reclaim package"
                    );
                } else if let Some(pkg) = self.pending_reclaim.take() {
                    self.release_reclaim(pkg);
                }
                self.begin_op(cpu, task_id, op, (local_ns + extra).max(1));
            }
        }
    }

    /// `mremap()` to a fresh range: the mapping moves, so the old
    /// translations must be invalidated synchronously under every policy
    /// (Table 1's "Remap" row).
    fn do_mremap(&mut self, task_id: TaskId, op: Op, range: VaRange) {
        let task = &self.tasks[task_id.index()];
        let cpu = task.core;
        let mm_id = task.mm;
        let pcid = self.pcid_of(mm_id);

        let pieces = self.mms[mm_id.0 as usize].munmap_vmas(&range);
        let moved = self.mms[mm_id.0 as usize].page_table.unmap_range(&range);
        let new_range = self.mms[mm_id.0 as usize].find_free_va(range.pages.max(1));
        // Re-create the VMA pieces at the new base.
        for piece in pieces {
            let offset = piece.range.start.0 - range.start.0;
            self.mms[mm_id.0 as usize].vmas.insert(latr_mem::Vma {
                range: VaRange::new(new_range.start.offset(offset), piece.range.pages),
                kind: piece.kind,
                prot: piece.prot,
            });
        }
        // Move the PTEs: same frames, new virtual pages.
        for &(vpn, pte) in &moved {
            let offset = vpn.0 - range.start.0;
            self.mms[mm_id.0 as usize].page_table.map(
                new_range.start.offset(offset),
                pte.pfn,
                pte.flags,
            );
        }
        self.tasks[task_id.index()].last_mmap = Some(new_range);
        self.stats.inc("mremaps");

        let mut local = self.costs.syscall_overhead + 2 * self.costs.vma_op;
        local += 2 * self.costs.pte_op * moved.len() as u64;
        local += self.costs.local_invalidation(moved.len() as u32);
        if moved.len() as u32 > self.costs.full_flush_threshold {
            self.tlb_flush_all(cpu);
        } else {
            for &(vpn, _) in &moved {
                self.tlb_invalidate(cpu, pcid, vpn);
            }
        }
        let pages: Vec<(Vpn, Pfn)> = moved.iter().map(|&(v, p)| (v, p.pfn)).collect();
        self.mms[mm_id.0 as usize].block_va(range);
        self.pending_reclaim = Some(ReclaimPackage {
            mm: mm_id,
            frames: Vec::new(),
            va: Some(range),
        });
        let outcome = self.with_policy(|p, m| {
            p.flush_others(
                m,
                cpu,
                Some(task_id),
                mm_id,
                range,
                &pages,
                FlushKind::Synchronous,
                local,
            )
        });
        self.finish_flush(task_id, cpu, op, local, outcome);
    }

    /// Swaps a range out: PTEs cleared, frames released after the (lazy-
    /// able) shootdown, pages marked so the next touch pays a swap-in.
    fn do_swap_out(&mut self, task_id: TaskId, op: Op, range: VaRange) {
        let task = &self.tasks[task_id.index()];
        let cpu = task.core;
        let mm_id = task.mm;
        let pcid = self.pcid_of(mm_id);

        let removed = self.mms[mm_id.0 as usize].page_table.unmap_range(&range);
        for &(vpn, _) in &removed {
            self.swapped.insert((mm_id.0, vpn.0));
        }
        self.stats.add("swap_outs", removed.len() as u64);

        let mut local = self.costs.syscall_overhead;
        local += (self.costs.pte_op + self.costs.swap_out) * removed.len() as u64;
        local += self.costs.local_invalidation(removed.len() as u32);
        if removed.len() as u32 > self.costs.full_flush_threshold {
            self.tlb_flush_all(cpu);
        } else {
            for &(vpn, _) in &removed {
                self.tlb_invalidate(cpu, pcid, vpn);
            }
        }
        let pages: Vec<(Vpn, Pfn)> = removed.iter().map(|&(v, p)| (v, p.pfn)).collect();
        self.pending_reclaim = Some(ReclaimPackage {
            mm: mm_id,
            frames: pages.iter().map(|&(_, p)| p).collect(),
            va: None,
        });
        let outcome = self.with_policy(|p, m| {
            p.flush_others(
                m,
                cpu,
                Some(task_id),
                mm_id,
                range,
                &pages,
                FlushKind::Swap,
                local,
            )
        });
        self.finish_flush(task_id, cpu, op, local, outcome);
    }

    /// KSM-style deduplication: write-protect page pairs (a synchronous
    /// ownership change, charged analytically and identical under every
    /// policy), merge odd pages onto their even neighbours, then free the
    /// duplicate frames through the policy's (lazy-able) flush — stale
    /// read-only translations keep reading identical bytes until swept.
    fn do_dedup(&mut self, task_id: TaskId, op: Op, range: VaRange) {
        let task = &self.tasks[task_id.index()];
        let cpu = task.core;
        let mm_id = task.mm;
        let pcid = self.pcid_of(mm_id);

        let mut local = self.costs.syscall_overhead;
        let mut lazy_pages: Vec<(Vpn, Pfn)> = Vec::new();
        let mut dup_frames: Vec<Pfn> = Vec::new();
        let mut protected = 0u32;
        let mut k = 0;
        while k + 1 < range.pages {
            let a = range.start.offset(k);
            let b = range.start.offset(k + 1);
            k += 2;
            let (Some(pa), Some(pb)) = (
                self.mms[mm_id.0 as usize].page_table.lookup(a),
                self.mms[mm_id.0 as usize].page_table.lookup(b),
            ) else {
                continue;
            };
            if pa.flags.numa_hint || pb.flags.numa_hint || pa.pfn == pb.pfn {
                continue;
            }
            local += self.costs.page_compare;
            // Write-protect both sides (sync part).
            for vpn in [a, b] {
                let pte = self.mms[mm_id.0 as usize]
                    .page_table
                    .update(vpn, |p| p.flags.writable = false)
                    .expect("present above");
                let _ = pte;
                protected += 1;
                self.tlb_invalidate(cpu, pcid, vpn);
            }
            // Merge b onto a's frame; the duplicate frame frees lazily.
            self.frames
                .inc_ref(pa.pfn)
                .expect("dedup source frame is mapped, hence live");
            self.mms[mm_id.0 as usize]
                .page_table
                .update(b, |p| p.pfn = pa.pfn);
            dup_frames.push(pb.pfn);
            lazy_pages.push((b, pb.pfn));
            local += 3 * self.costs.pte_op;
            self.stats.inc("dedup_merges");
        }
        local += self.costs.local_invalidation(protected);
        // The protection change must be system-wide before merging is
        // safe; charge the synchronous round analytically (identical for
        // every policy — Table 1's ownership row).
        let remote = self.mms[mm_id.0 as usize].cpumask.count().saturating_sub(1);
        if protected > 0 && remote > 0 {
            local += self.costs.estimate_linux_shootdown(&self.topology, remote);
            // Remote cores drop the protected translations now.
            let vpns: Vec<Vpn> = lazy_pages
                .iter()
                .flat_map(|&(b, _)| [Vpn(b.0 - 1), b])
                .collect();
            let sharers: Vec<CpuId> = self.mms[mm_id.0 as usize].cpumask.iter().collect();
            for sharer in sharers {
                if sharer != cpu {
                    self.invalidate_tlb_pages(sharer, mm_id, &vpns);
                }
            }
        }
        self.pending_reclaim = Some(ReclaimPackage {
            mm: mm_id,
            frames: dup_frames,
            va: None,
        });
        let outcome = self.with_policy(|p, m| {
            p.flush_others(
                m,
                cpu,
                Some(task_id),
                mm_id,
                range,
                &lazy_pages,
                FlushKind::MadviseFree,
                local,
            )
        });
        self.finish_flush(task_id, cpu, op, local, outcome);
    }

    /// Physical-memory compaction: lazily unmap the range exactly like
    /// AutoNUMA hint-unmaps; the next touch migrates each page to a fresh
    /// frame (§7 notes compaction "performs similar mechanism as
    /// AutoNUMA's page migration").
    fn do_compact(&mut self, task_id: TaskId, op: Op, range: VaRange) {
        let task = &self.tasks[task_id.index()];
        let cpu = task.core;
        let mm_id = task.mm;
        let mut local = self.costs.syscall_overhead;
        let candidates: Vec<Vpn> = self.mms[mm_id.0 as usize]
            .page_table
            .mapped_in(&range)
            .into_iter()
            .filter(|(_, pte)| !pte.flags.numa_hint)
            .map(|(v, _)| v)
            .collect();
        for vpn in candidates {
            self.compact_pending.insert((mm_id.0, vpn.0));
            self.stats.inc("compact_pages");
            local += self.costs.pte_op / 2; // scan + isolate bookkeeping
            let handled = self.with_policy(|p, m| p.numa_hint_unmap(m, cpu, mm_id, vpn));
            if !handled {
                self.sync_numa_hint_unmap(cpu, mm_id, vpn);
            }
        }
        self.begin_op(cpu, task_id, op, local.max(1));
    }

    /// `fork()`: clone the address space with copy-on-write semantics.
    /// Every writable parent page becomes read-only in both address
    /// spaces — an ownership change that must reach all cores
    /// synchronously (Table 1).
    fn do_fork(&mut self, task_id: TaskId, op: Op) {
        let task = &self.tasks[task_id.index()];
        let cpu = task.core;
        let parent = task.mm;
        let pcid = self.pcid_of(parent);
        let child = self.create_process();
        self.stats.inc("forks");

        let vmas: Vec<latr_mem::Vma> = self.mms[parent.0 as usize].vmas.iter().copied().collect();
        let mut downgraded: Vec<(Vpn, Pfn)> = Vec::new();
        let mut local = self.costs.syscall_overhead + self.costs.vma_op * vmas.len() as u64;
        for vma in vmas {
            self.mms[child.0 as usize].vmas.insert(vma);
            let present = self.mms[parent.0 as usize].page_table.mapped_in(&vma.range);
            for (vpn, pte) in present {
                if pte.flags.numa_hint {
                    continue;
                }
                // Share the frame read-only on both sides.
                self.frames
                    .inc_ref(pte.pfn)
                    .expect("forked frame is mapped, hence live");
                let mut flags = pte.flags;
                let was_writable = flags.writable;
                flags.writable = false;
                self.mms[child.0 as usize]
                    .page_table
                    .map(vpn, pte.pfn, flags);
                local += 2 * self.costs.pte_op;
                if was_writable {
                    self.mms[parent.0 as usize]
                        .page_table
                        .update(vpn, |p| p.flags.writable = false);
                    self.tlb_invalidate(cpu, pcid, vpn);
                    downgraded.push((vpn, pte.pfn));
                }
            }
        }
        local += self.costs.local_invalidation(downgraded.len() as u32);
        self.tasks[task_id.index()].last_fork = Some(child);

        if downgraded.is_empty() {
            self.begin_op(cpu, task_id, op, local.max(1));
            return;
        }
        let range = VaRange::new(
            downgraded.first().expect("non-empty").0,
            downgraded.last().expect("non-empty").0 .0
                - downgraded.first().expect("non-empty").0 .0
                + 1,
        );
        self.pending_reclaim = Some(ReclaimPackage {
            mm: parent,
            frames: Vec::new(),
            va: None,
        });
        let outcome = self.with_policy(|p, m| {
            p.flush_others(
                m,
                cpu,
                Some(task_id),
                parent,
                range,
                &downgraded,
                FlushKind::Synchronous,
                local,
            )
        });
        self.finish_flush(task_id, cpu, op, local, outcome);
    }

    // ---- synchronous shootdown machinery ---------------------------------------

    /// Creates a synchronous shootdown transaction from `initiator` to
    /// `targets`, scheduling the IPI deliveries after `start_delay` of
    /// initiator-side work. The staged reclaim package (if any) rides on
    /// the transaction and is applied when the last ACK arrives.
    ///
    /// # Panics
    ///
    /// Panics if `targets` is empty — policies must handle that case as a
    /// purely local flush.
    pub fn begin_sync_shootdown(
        &mut self,
        initiator: CpuId,
        mm: MmId,
        pages: Vec<Vpn>,
        targets: CpuMask,
        start_delay: Nanos,
    ) -> TxnId {
        assert!(!targets.is_empty(), "sync shootdown needs targets");
        let id = TxnId(self.next_txn);
        self.next_txn += 1;
        self.stats.inc(crate::metrics::SHOOTDOWNS);
        self.stats
            .add(crate::metrics::IPIS_SENT, targets.count() as u64);
        let start = self.now() + start_delay;
        self.schedule_ipi_deliveries(initiator, &targets, start, id);
        if self.injector.is_some() {
            // Injected plans can drop deliveries; arm the retransmit timer
            // so a lost IPI stalls the round by at most one tick period.
            self.queue
                .schedule(start + self.costs.sched_tick_period, Event::TxnRetry(id));
        }
        if let Some(o) = self.oracle.as_mut() {
            o.note_ipi_send(initiator, id.0, targets, self.queue.now());
        }
        let reclaim = self.pending_reclaim.take();
        let (frames_to_release, va_to_unblock) = match reclaim {
            Some(pkg) => (pkg.frames, pkg.va),
            None => (Vec::new(), None),
        };
        self.txns.insert(
            id.0,
            ShootdownTxn {
                id,
                initiator,
                blocked_task: None,
                mm,
                pending: {
                    let mut m = targets;
                    m.clear(initiator);
                    m
                },
                pages,
                frames_to_release,
                va_to_unblock,
                started: self.now(),
                wait_started: start,
            },
        );
        if self.trace.is_enabled() {
            self.trace.push(
                self.now(),
                "ipi",
                format!(
                    "{initiator} multicasts shootdown to {} cores",
                    targets.count()
                ),
            );
        }
        id
    }

    /// Multicasts `IpiDeliver` events for one shootdown round, routing
    /// each delivery through the fault injector (drop / delay / deliver).
    fn schedule_ipi_deliveries(
        &mut self,
        initiator: CpuId,
        targets: &CpuMask,
        start: Time,
        txn: TxnId,
    ) {
        let schedule = self.fabric.multicast(initiator, targets, start);
        for &(target, at) in &schedule.deliveries {
            let fault = self
                .injector
                .as_mut()
                .map_or(IpiFault::Deliver, FaultInjector::ipi_fault);
            let at = match fault {
                IpiFault::Drop => {
                    self.stats.inc(crate::metrics::FAULTS_IPI_DROPPED);
                    if self.trace.is_enabled() {
                        let now = self.now();
                        self.trace
                            .push(now, "fault", format!("IPI to {target} dropped"));
                    }
                    continue;
                }
                IpiFault::Delay(d) => {
                    self.stats.inc(crate::metrics::FAULTS_IPI_DELAYED);
                    at + d
                }
                IpiFault::Deliver => at,
            };
            self.queue.schedule(at, Event::IpiDeliver { target, txn });
        }
    }

    /// Retransmit timer: while a synchronous round still has un-ACKed
    /// targets, re-multicast to exactly those cores and re-arm. Duplicate
    /// deliveries are harmless — a completed transaction's events are
    /// dropped by the `txns` lookup, and re-clearing a pending bit is
    /// idempotent. Only runs under an active fault plan.
    fn txn_retry(&mut self, txn_id: TxnId) {
        let (initiator, pending) = match self.txns.get(&txn_id.0) {
            Some(t) => (t.initiator, t.pending),
            None => return, // completed; let the timer die
        };
        if pending.is_empty() {
            return;
        }
        self.stats.inc(crate::metrics::IPI_RETRIES);
        self.stats
            .add(crate::metrics::IPIS_SENT, pending.count() as u64);
        let start = self.now();
        self.schedule_ipi_deliveries(initiator, &pending, start, txn_id);
        if let Some(o) = self.oracle.as_mut() {
            // Overwrites the txn's send clock with a later one — safe:
            // the retransmitted IPIs happen-after this instant.
            o.note_ipi_send(initiator, txn_id.0, pending, self.queue.now());
        }
        self.queue.schedule(
            start + self.costs.sched_tick_period,
            Event::TxnRetry(txn_id),
        );
        if self.trace.is_enabled() {
            self.trace.push(
                start,
                "fault",
                format!(
                    "{initiator} retransmits shootdown to {} cores",
                    pending.count()
                ),
            );
        }
    }

    fn ipi_deliver(&mut self, target: CpuId, txn_id: TxnId) {
        // Take the page list out of the transaction instead of cloning it
        // (one heap allocation per IPI otherwise); it is restored before
        // this handler returns.
        let (initiator, pages, pcid) = match self.txns.get_mut(&txn_id.0) {
            Some(t) => {
                let pcid = self.mm_pcid[t.mm.0 as usize];
                (t.initiator, std::mem::take(&mut t.pages), pcid)
            }
            None => return, // already completed (shouldn't happen)
        };
        self.stats.inc(crate::metrics::IPIS_HANDLED);
        self.llc.charge_interrupt();

        // "Handling interrupts on remote cores ... might be delayed due
        // to temporarily disabled interrupts" (§2.1): a busy core defers
        // the handler by a uniformly random disabled window.
        let busy = self.hot.busy[target.index()];
        let irq_delay = if busy {
            self.rng.below(self.costs.irq_disabled_max)
        } else {
            0
        };
        // The handler happens-after the initiator's send: join clocks
        // before mirroring the handler's invalidations.
        if let Some(o) = self.oracle.as_mut() {
            o.note_ipi_deliver(target, txn_id.0, self.queue.now());
        }
        if pages.len() as u32 > self.costs.full_flush_threshold {
            self.tlb_flush_all(target);
        } else {
            for vpn in &pages {
                self.tlb_invalidate(target, pcid, *vpn);
            }
        }
        let handler =
            self.costs.interrupt_overhead + self.costs.local_invalidation(pages.len() as u32);
        // The handler steals time from whatever the core was doing.
        if self.hot.busy[target.index()] {
            self.hot.debt[target.index()] += handler;
        }
        let ack_latency = self.fabric.ack_latency(initiator, target);
        self.queue.schedule_after(
            irq_delay + handler + ack_latency,
            Event::AckArrive {
                txn: txn_id,
                from: target,
            },
        );
        if self.trace.is_enabled() {
            self.trace.push(
                self.now(),
                "ipi",
                format!("{target} handles shootdown IPI ({} pages)", pages.len()),
            );
        }
        if let Some(t) = self.txns.get_mut(&txn_id.0) {
            t.pages = pages;
        }
    }

    fn ack_arrive(&mut self, txn_id: TxnId, from: CpuId) {
        let (initiator, done) = {
            let txn = match self.txns.get_mut(&txn_id.0) {
                Some(t) => t,
                None => return,
            };
            txn.pending.clear(from);
            (txn.initiator, txn.pending.is_empty())
        };
        // The initiator happens-after the acknowledging core's handler.
        if let Some(o) = self.oracle.as_mut() {
            o.note_ack(initiator, from, txn_id.0, done, self.queue.now());
        }
        if !done {
            return;
        }
        let txn = self.txns.remove(&txn_id.0).expect("txn present");
        let wait = self.now().saturating_since(txn.wait_started);
        self.stats.record(crate::metrics::SHOOTDOWN_NS, wait);
        // Tell the policy before releasing: a watchdog-escalated round
        // must clear the escalated state's bits so gated reclamation sees
        // it retired.
        self.with_policy(|p, m| p.on_sync_complete(m, &txn));
        // Frames free on the initiating core, after every ACK (the sync
        // protocol's guarantee).
        self.release_reclaim_on(
            Some(txn.initiator),
            ReclaimPackage {
                mm: txn.mm,
                frames: txn.frames_to_release,
                va: txn.va_to_unblock,
            },
        );
        if let Some(task_id) = txn.blocked_task {
            self.tasks[task_id.index()].state = TaskState::Running;
            let cpu = txn.initiator;
            self.hot.op_generation[cpu.index()] += 1;
            let generation = self.hot.op_generation[cpu.index()];
            self.queue.schedule_after(
                0,
                Event::OpComplete {
                    cpu,
                    task: task_id,
                    generation,
                },
            );
        }
    }

    /// Tears down an address space whose last task exited: unmaps every
    /// VMA and drops the mapping references on their frames.
    fn exit_mmap(&mut self, mm_id: MmId, on: Option<CpuId>) {
        let ranges: Vec<VaRange> = self.mms[mm_id.0 as usize]
            .vmas
            .iter()
            .map(|v| v.range)
            .collect();
        for range in ranges {
            self.mms[mm_id.0 as usize].munmap_vmas(&range);
            let removed = self.mms[mm_id.0 as usize].page_table.unmap_range(&range);
            for (_, pte) in removed {
                self.frame_dec_ref(on, pte.pfn);
            }
            for vpn in range.iter() {
                self.swapped.remove(&(mm_id.0, vpn.0));
                self.compact_pending.remove(&(mm_id.0, vpn.0));
            }
        }
    }

    // ---- reclamation helpers ------------------------------------------------------

    /// Takes the reclaim package staged by the current unmap, transferring
    /// ownership of frame release and VA unblocking to the caller (the
    /// Latr policy's lazy lists).
    pub fn take_pending_reclaim(&mut self) -> Option<ReclaimPackage> {
        self.pending_reclaim.take()
    }

    /// Releases a reclaim package: drops one reference per frame and
    /// unblocks the VA range. Frees are attributed to the reclamation
    /// kthread (callers are `kreclaimd`-style deferred paths; the
    /// synchronous-ACK path uses [`release_reclaim_on`](Self::release_reclaim_on)
    /// internally).
    pub fn release_reclaim(&mut self, pkg: ReclaimPackage) {
        self.release_reclaim_on(None, pkg);
    }

    /// [`release_reclaim`](Self::release_reclaim) with an explicit
    /// releasing core (`None` = the reclamation kthread).
    fn release_reclaim_on(&mut self, on: Option<CpuId>, mut pkg: ReclaimPackage) {
        for pfn in pkg.frames.drain(..) {
            self.frame_dec_ref(on, pfn);
        }
        // Park the emptied frames vector for the next unmap to reuse (the
        // pool is bounded by the number of packages concurrently staged).
        if pkg.frames.capacity() > 0 && self.frame_vec_pool.len() < 64 {
            self.frame_vec_pool.push(pkg.frames);
        }
        if let Some(va) = pkg.va {
            self.mms[pkg.mm.0 as usize].unblock_va(&va);
        }
    }

    /// Invalidates `pages` of `mm` in `cpu`'s TLB, applying the full-flush
    /// threshold. Returns how many entries were actually present. Used by
    /// Latr's state sweep.
    pub fn invalidate_tlb_pages(&mut self, cpu: CpuId, mm: MmId, pages: &[Vpn]) -> usize {
        let pcid = self.pcid_of(mm);
        if pages.len() as u32 > self.costs.full_flush_threshold {
            self.tlb_flush_all(cpu);
            pages.len()
        } else {
            pages
                .iter()
                .filter(|&&vpn| self.tlb_invalidate(cpu, pcid, vpn))
                .count()
        }
    }

    /// The PCID a sweep burst invalidates under — resolved once per
    /// `(mm, tick)` group by the policy's batch-apply path and fed to
    /// [`invalidate_tlb_range_pcid`](Self::invalidate_tlb_range_pcid)
    /// for every state in the group.
    pub fn sweep_pcid(&self, mm: MmId) -> u16 {
        self.pcid_of(mm)
    }

    /// [`invalidate_tlb_pages`](Self::invalidate_tlb_pages) for one
    /// contiguous state range with the PCID already resolved. The
    /// full-flush threshold still applies per range, and the oracle sees
    /// the same per-page stream, so a grouped sweep is bit-identical to
    /// the one-call-per-state form — it just skips the per-state
    /// `mm → pcid` lookup and the scratch page vector.
    pub fn invalidate_tlb_range_pcid(&mut self, cpu: CpuId, pcid: u16, range: VaRange) -> usize {
        if range.pages as u32 > self.costs.full_flush_threshold {
            self.tlb_flush_all(cpu);
            range.pages as usize
        } else {
            range
                .iter()
                .filter(|&vpn| self.tlb_invalidate(cpu, pcid, vpn))
                .count()
        }
    }

    /// Adds interrupt-style time debt to whatever `cpu` is executing.
    pub fn charge_debt(&mut self, cpu: CpuId, ns: Nanos) {
        if self.hot.busy[cpu.index()] {
            self.hot.debt[cpu.index()] += ns;
        }
    }

    /// Schedules a [`TlbPolicy::on_timer`] callback after `delay`.
    pub fn schedule_policy_timer(&mut self, delay: Nanos, token: u64) {
        self.queue.schedule_after(delay, Event::PolicyTimer(token));
    }

    // ---- scheduler ticks --------------------------------------------------------

    fn sched_tick(&mut self, cpu: CpuId) {
        let period = self.costs.sched_tick_period;
        // Tickless kernels skip the tick on idle cores (§7): an idle core
        // is in no mm_cpumask, so no Latr state can name it, and its TLB
        // was flushed when it went idle.
        if self.tickless && self.cores[cpu.index()].current.is_none() {
            self.stats.inc("ticks_skipped_idle");
            self.queue.schedule_after(period, Event::SchedTick(cpu));
            return;
        }
        // Consult the fault plan: a stalled core keeps time (and its next
        // tick) but must not sweep; a missed tick is skipped entirely; a
        // jittered tick pushes the *next* one late, modelling a slow timer.
        let mut next_in = period;
        if self.injector.is_some() {
            let now = self.now();
            let fault = self
                .injector
                .as_mut()
                .map_or(TickFault::Run, |inj| inj.tick_fault(cpu.index(), now));
            match fault {
                TickFault::Stalled => {
                    self.stats.inc(crate::metrics::FAULTS_SWEEP_STALLS);
                    self.queue.schedule_after(period, Event::SchedTick(cpu));
                    return;
                }
                TickFault::Miss => {
                    self.stats.inc(crate::metrics::FAULTS_TICKS_MISSED);
                    self.queue.schedule_after(period, Event::SchedTick(cpu));
                    return;
                }
                TickFault::Jitter(d) => {
                    self.stats.inc(crate::metrics::FAULTS_TICK_JITTER);
                    next_in = period + d;
                }
                TickFault::Run => {}
            }
        }
        self.stats.inc(crate::metrics::SCHED_TICKS);
        let mut cost = self.costs.sched_tick_work;
        cost += self.with_policy(|p, m| p.on_sched_tick(m, cpu));
        self.charge_debt(cpu, cost);
        self.queue.schedule_after(next_in, Event::SchedTick(cpu));
    }

    // ---- AutoNUMA ------------------------------------------------------------------

    fn numa_scan(&mut self, mm_id: MmId) {
        let batch = self
            .numa
            .next_scan_batch(mm_id, &self.mms[mm_id.0 as usize]);
        if !batch.is_empty() {
            // task_numa_work runs in the context of one of the process'
            // tasks; charge the first CPU in the cpumask.
            let cpu = self.mms[mm_id.0 as usize]
                .cpumask
                .first()
                .unwrap_or(CpuId(0));
            for vpn in batch {
                let handled = self.with_policy(|p, m| p.numa_hint_unmap(m, cpu, mm_id, vpn));
                if !handled {
                    self.sync_numa_hint_unmap(cpu, mm_id, vpn);
                }
            }
        }
        let period = self.numa.config().scan_period;
        self.queue.schedule_after(period, Event::NumaScan(mm_id));
    }

    /// The Linux path: set the hint protection and synchronously shoot the
    /// page down everywhere (Fig. 3a).
    fn sync_numa_hint_unmap(&mut self, cpu: CpuId, mm_id: MmId, vpn: Vpn) {
        self.apply_numa_hint(cpu, mm_id, vpn);
        let mut targets = self.mms[mm_id.0 as usize].cpumask;
        targets.clear(cpu);
        if targets.is_empty() {
            return;
        }
        self.pending_reclaim = None;
        let _txn = self.begin_sync_shootdown(cpu, mm_id, vec![vpn], targets, 0);
        // The scanner runs in task context: the initiating CPU eats the
        // synchronous wait as debt.
        let est = self
            .costs
            .estimate_linux_shootdown(&self.topology, targets.count());
        self.charge_debt(cpu, est);
    }

    /// Sets the NUMA-hint protection on a PTE and invalidates the calling
    /// CPU's own TLB entry. Shared by the sync path and Latr's first
    /// sweeper (§4.3: "the first core performs the page table unmap").
    pub fn apply_numa_hint(&mut self, cpu: CpuId, mm_id: MmId, vpn: Vpn) {
        let pcid = self.pcid_of(mm_id);
        self.mms[mm_id.0 as usize]
            .page_table
            .update(vpn, |p| p.flags.numa_hint = true);
        self.tlb_invalidate(cpu, pcid, vpn);
    }

    fn numa_fault_retry(&mut self, task_id: TaskId, vpn: Vpn) {
        if !self.tasks[task_id.index()].is_live() {
            return;
        }
        let Some(&(blocked_vpn, write)) = self.blocked_faults.get(&task_id.0) else {
            return;
        };
        debug_assert_eq!(blocked_vpn, vpn);
        let mm_id = self.tasks[task_id.index()].mm;
        let proceed = self.with_policy(|p, m| p.numa_fault_may_proceed(m, mm_id, vpn));
        if !proceed {
            let retry = self.numa.config().fault_retry;
            self.queue.schedule_after(
                retry,
                Event::NumaFaultRetry {
                    task: task_id,
                    vpn: vpn.0,
                },
            );
            return;
        }
        self.blocked_faults.remove(&task_id.0);
        let cost = self.numa_hint_fault(task_id, vpn, write);
        let cpu = self.tasks[task_id.index()].core;
        self.hot.op_generation[cpu.index()] += 1;
        let generation = self.hot.op_generation[cpu.index()];
        self.queue.schedule_after(
            cost.max(1),
            Event::OpComplete {
                cpu,
                task: task_id,
                generation,
            },
        );
    }

    /// Handles a NUMA hint fault that may proceed: clears the hint and
    /// possibly migrates the page toward the faulting node. Returns the
    /// fault's CPU cost.
    fn numa_hint_fault(&mut self, task_id: TaskId, vpn: Vpn, write: bool) -> Nanos {
        let task = &self.tasks[task_id.index()];
        let cpu = task.core;
        let mm_id = task.mm;
        let node = self.topology.node_of(cpu);
        let mut cost = self.costs.page_fault;
        // The policy has just allowed this hint fault to proceed; the
        // oracle checks every bit of any covering migration state cleared
        // first (§4.4).
        if let Some(o) = self.oracle.as_mut() {
            o.note_migration_proceed(cpu, mm_id, vpn, self.queue.now());
        }

        let Some(pte) = self.mms[mm_id.0 as usize].page_table.lookup(vpn) else {
            return cost;
        };
        let home = self.frames.node_of(pte.pfn);
        let force_compact = self.compact_pending.remove(&(mm_id.0, vpn.0));
        // Compaction migrates within the home node (defragmentation);
        // NUMA balancing migrates toward the accessing node.
        let target = if force_compact { home } else { node };
        let migrate = force_compact || self.numa.should_migrate(mm_id, vpn, node, home);
        if migrate {
            if let Ok(new_pfn) = self.frame_alloc_exact(cpu, target) {
                // Copy, remap, release the old frame. The migration itself
                // performs a synchronous unmap+flush in both Linux and Latr
                // (§4.3 leaves the migration path unmodified); charge its
                // analytic cost.
                cost += self.costs.page_copy + self.costs.pte_op + self.costs.frame_op;
                let remote = self.mms[mm_id.0 as usize].cpumask.count().saturating_sub(1);
                if remote > 0 {
                    cost += self.costs.estimate_linux_shootdown(&self.topology, remote);
                }
                let old = pte.pfn;
                self.mms[mm_id.0 as usize].page_table.update(vpn, |p| {
                    p.pfn = new_pfn;
                    p.flags.numa_hint = false;
                    p.flags.accessed = true;
                });
                self.frame_dec_ref(Some(cpu), old);
                self.stats.inc(crate::metrics::MIGRATIONS);
                self.numa.note_migration();
            } else {
                // Target node full: abort the migration, keep the page.
                self.mms[mm_id.0 as usize]
                    .page_table
                    .update(vpn, |p| p.flags.numa_hint = false);
            }
        } else {
            self.mms[mm_id.0 as usize]
                .page_table
                .update(vpn, |p| p.flags.numa_hint = false);
        }
        let pte = self.mms[mm_id.0 as usize].page_table.lookup(vpn).unwrap();
        let pcid = self.pcid_of(mm_id);
        self.tlb_insert(
            cpu,
            TlbEntry {
                pcid,
                vpn: vpn.0,
                pfn: pte.pfn.0,
                writable: pte.flags.writable,
            },
        );
        if write {
            self.mms[mm_id.0 as usize]
                .page_table
                .update(vpn, |p| p.flags.dirty = true);
        }
        cost
    }

    // ---- invariant checking (used heavily by tests) -------------------------------

    /// Checks the paper's central invariant (§3): every translation cached
    /// in any TLB must point at a frame that is still allocated (a
    /// refcount above zero). Returns the first violation, or `None` when
    /// the machine is consistent.
    pub fn check_reclamation_invariant(&self) -> Option<InvariantViolation> {
        for core in &self.cores {
            for entry in core.tlb.iter_entries() {
                if !self.frames.is_allocated(Pfn(entry.pfn)) {
                    return Some(InvariantViolation::StaleTranslationToFreedFrame {
                        cpu: core.id,
                        vpn: entry.vpn,
                        pfn: entry.pfn,
                    });
                }
            }
        }
        None
    }

    /// Checks that no TLB disagrees with the page tables about a *present*
    /// mapping's target frame — stale entries may only point at frames that
    /// are still referenced (that is the Latr relaxation), but a *present*
    /// PTE must never be cached with a different frame.
    pub fn check_mapping_coherence(&self) -> Option<InvariantViolation> {
        // The pcid → address-space relation is maintained persistently by
        // `create_process` (entries × mms would blow up on 120-core runs
        // where the checkers execute inside test loops).
        for core in &self.cores {
            for entry in core.tlb.iter_entries() {
                for &i in &self.pcid_mms[entry.pcid as usize] {
                    let i = i as usize;
                    if let Some(pte) = self.mms[i].page_table.lookup(Vpn(entry.vpn)) {
                        if !pte.flags.numa_hint && pte.pfn.0 != entry.pfn {
                            return Some(InvariantViolation::MappingMismatch {
                                cpu: core.id,
                                vpn: entry.vpn,
                                cached: entry.pfn,
                                mapped: pte.pfn.0,
                            });
                        }
                    }
                }
            }
        }
        None
    }

    /// Number of events the queue has delivered so far — the simulator's
    /// raw unit of work, reported by the hot-path benchmarks.
    pub fn events_delivered(&self) -> u64 {
        self.queue.delivered()
    }

    /// The incremental event-stream fingerprint: a polynomial fold over
    /// every delivered event's `(time, payload)`, updated in O(1) per
    /// event and finalized on read. Two runs deliver identical event
    /// streams iff their folds match — the determinism gate the benches
    /// use without paying for the full [`fingerprint`](Self::fingerprint)
    /// render. The fold is also a line of the rendered fingerprint, so
    /// the differential suites gate it automatically.
    pub fn fingerprint_fold(&self) -> u64 {
        fold_finish(self.fold)
    }

    /// Fingerprints the run for determinism and differential comparisons:
    /// final clock, delivered-event count, every counter, every histogram
    /// summary, and the rendered trace ring. Two runs are event-identical
    /// iff their fingerprints are byte-identical — counters and histograms
    /// live in ordered maps, so the rendering is stable across processes
    /// and builds.
    pub fn fingerprint(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "end={}", self.now().as_ns());
        let _ = writeln!(out, "events={}", self.queue.delivered());
        let _ = writeln!(out, "fold={:016x}", fold_finish(self.fold));
        for (name, value) in self.stats.counters() {
            let _ = writeln!(out, "{name}={value}");
        }
        for (name, hist) in self.stats.histograms() {
            let _ = writeln!(out, "{name}: {}", hist.summary());
        }
        for entry in self.trace.iter() {
            let _ = writeln!(out, "{entry}");
        }
        out
    }
}

/// A machine-level safety violation found by the invariant checkers.
///
/// The [`Display`](std::fmt::Display) form matches the strings the checkers
/// used to return directly, so assertion messages (and tests grepping
/// them) are unchanged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InvariantViolation {
    /// A TLB caches a translation to a frame whose refcount reached zero —
    /// the §3 reclamation invariant is broken and the core could access
    /// reused memory.
    StaleTranslationToFreedFrame {
        /// The core whose TLB holds the stale entry.
        cpu: CpuId,
        /// The cached virtual page number.
        vpn: u64,
        /// The freed frame it still points at.
        pfn: u64,
    },
    /// A TLB disagrees with a *present* PTE about the target frame (stale
    /// entries may only point at still-referenced frames — that is the
    /// Latr relaxation — but never shadow a live remapping).
    MappingMismatch {
        /// The core whose TLB holds the conflicting entry.
        cpu: CpuId,
        /// The cached virtual page number.
        vpn: u64,
        /// The frame the TLB caches.
        cached: u64,
        /// The frame the PTE actually maps.
        mapped: u64,
    },
}

impl std::fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            InvariantViolation::StaleTranslationToFreedFrame { cpu, vpn, pfn } => {
                write!(f, "{cpu} caches vpn {vpn:#x} -> freed frame {pfn:#x}")
            }
            InvariantViolation::MappingMismatch {
                cpu,
                vpn,
                cached,
                mapped,
            } => {
                write!(
                    f,
                    "{cpu} caches vpn {vpn:#x} -> {cached:#x} but PTE says {mapped:#x}"
                )
            }
        }
    }
}

enum AccessOutcome {
    Done(Nanos),
    BlockedOnNuma,
}
