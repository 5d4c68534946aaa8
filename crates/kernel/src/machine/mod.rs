//! The simulated machine: cores, address spaces, event loop, syscalls.
//!
//! One [`Machine`] is one experiment run: a topology, a cost model, a
//! [`TlbPolicy`](crate::TlbPolicy), a [`Workload`] and a seed. Tasks are
//! pinned one-per-core (the paper pins workers and disables
//! hyperthreading); context switching is modelled through explicit
//! [`Op::Yield`] ops, and cross-CPU interference flows through interrupt
//! "time debt" injected into whatever op a core is executing when an IPI
//! lands.
//!
//! The child modules split the machine along its seams; the crate
//! documentation has the map.

mod check;
mod fault;
mod mmap_sem;
mod pressure;
mod tlb;
mod txn;
mod vm_ops;

pub use check::InvariantViolation;
pub use txn::{FrameSpan, ReclaimPackage};

use check::{fold_event, FNV_OFFSET};
use fault::AccessOutcome;

use crate::event::Event;
use crate::mmlock::{LockMode, MmLock};
use crate::numa::{NumaConfig, NumaRuntime};
use crate::ops::{Op, OpResult, Workload};
use crate::shootdown::TlbPolicy;
use crate::task::{Task, TaskId, TaskState};
use crate::trace::{TraceRecord, TraceRing};
use latr_arch::{CostModel, CpuId, IpiFabric, LlcModel, Tlb, Topology};
use latr_faults::{FaultInjector, FaultPlan, TickFault};
use latr_mem::{FileId, FrameAllocator, MmId, MmStruct, PageCache, Pfn, Prot, Vpn};
use latr_sim::{EventQueue, Nanos, SimRng, Time};

/// Configuration of one simulation run.
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// The machine layout (sockets, cores, TLB sizes).
    pub topology: Topology,
    /// The latency constants.
    pub costs: CostModel,
    /// RNG seed; same seed + same workload = identical run.
    pub seed: u64,
    /// Physical frames per NUMA node. This is a capacity, not a cost:
    /// frames cost nothing until a run touches them, so the default 4 GiB
    /// per node allocates nothing at construction.
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
    /// time but never changes behaviour. During [`Machine::run`] it checks
    /// on a worker thread of its own, and its verdict is read after the
    /// run; the worker takes a second core for as long as the run lasts.
    /// What that costs on a measured host is in DESIGN §8.1.
    pub oracle: bool,
    /// Deterministic fault plan to inject (chaos testing). `None` — and
    /// any plan for which [`FaultPlan::is_active`] is false — leaves the
    /// run event-for-event identical to a build without fault injection:
    /// the injector's RNG is forked off the seed, never the main stream,
    /// and the IPI retransmit timer is only armed while a plan is active.
    pub faults: Option<FaultPlan>,
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

    /// Checks the configuration for values no run can use.
    ///
    /// ```
    /// use latr_arch::{MachinePreset, Topology};
    /// use latr_kernel::{ConfigError, MachineConfig};
    /// let mut config = MachineConfig::new(Topology::preset(MachinePreset::Commodity2S16C));
    /// assert_eq!(config.validate(), Ok(()));
    /// config.costs.sched_tick_period = 0;
    /// assert_eq!(config.validate(), Err(ConfigError::ZeroTickPeriod));
    /// config.costs.sched_tick_period = 1_000_000;
    /// config.llc_base_miss_ratio = f64::NAN;
    /// assert_eq!(config.validate(), Err(ConfigError::MissRatioOutOfRange));
    /// ```
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.costs.sched_tick_period == 0 {
            return Err(ConfigError::ZeroTickPeriod);
        }
        if !(0.0..=1.0).contains(&self.llc_base_miss_ratio) {
            return Err(ConfigError::MissRatioOutOfRange);
        }
        let (low, min) = (self.low_watermark_frames, self.min_watermark_frames);
        if min > low {
            return Err(ConfigError::MinWatermarkAboveLow { low, min });
        }
        Ok(())
    }
}

/// Why [`MachineConfig::validate`] refuses a configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// `costs.sched_tick_period` is zero: every scheduler and reclaim
    /// tick would reschedule itself at the same instant, so a run would
    /// never end.
    ZeroTickPeriod,
    /// `llc_base_miss_ratio` is NaN or outside `[0, 1]`: no access stream
    /// misses a negative or above-total share of the time, and the LLC
    /// model's miss carry is exact only for ratios in range.
    MissRatioOutOfRange,
    /// The min (reserve floor) watermark sits above the low
    /// (early-warning) one.
    MinWatermarkAboveLow {
        /// `low_watermark_frames`.
        low: u64,
        /// `min_watermark_frames`.
        min: u64,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroTickPeriod => write!(f, "costs.sched_tick_period must be nonzero"),
            ConfigError::MissRatioOutOfRange => {
                write!(f, "llc_base_miss_ratio must be within [0, 1]")
            }
            ConfigError::MinWatermarkAboveLow { low, min } => {
                write!(f, "min watermark {min} above low watermark {low}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

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

/// The kernel's per-task bookkeeping, one slot per [`TaskId`] (pushed by
/// `spawn_task`, indexed by `TaskId::index`).
#[derive(Debug, Default)]
struct TaskSlot {
    /// The op executing or blocked on a hint fault, until it completes.
    in_flight: Option<Op>,
    /// The op waiting for the mmap_sem, until the lock is granted.
    parked: Option<Op>,
    /// The mmap_sem mode this task holds.
    lock_held: Option<LockMode>,
    /// A hint fault `(vpn, write)` waiting for a lazy NUMA unmap to
    /// finish (§4.4).
    blocked_fault: Option<(Vpn, bool)>,
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
    /// Persistent PCID → address-space index, one slot per PCID value up
    /// to the highest in use. Maintained by `create_process`; replaces the
    /// per-call map the coherence checker used to build.
    pcid_mms: Vec<Vec<u32>>,
    /// The physical frame allocator.
    pub frames: FrameAllocator,
    /// The shared page cache.
    pub page_cache: PageCache,
    tasks: Vec<Task>,
    /// Per-task kernel bookkeeping, parallel to `tasks`.
    slots: Vec<TaskSlot>,
    /// Metric counters and histograms for the run.
    pub stats: crate::metrics::Registry,
    /// The trace ring: typed records, rendered only when read.
    pub trace: TraceRing,
    /// The run's deterministic RNG.
    pub rng: SimRng,
    /// The LLC perturbation model.
    pub llc: LlcModel,
    policy: Option<Box<dyn TlbPolicy>>,
    workload: Option<Box<dyn Workload>>,
    txns: txn::TxnTable,
    next_txn: u64,
    pending_reclaim: Option<ReclaimPackage>,
    numa: NumaRuntime,
    pcid_enabled: bool,
    tickless: bool,
    live_tasks: usize,
    end_time: Time,
    // Pages currently swapped out, keyed by (mm, vpn).
    swapped: std::collections::HashSet<(u32, u64)>,
    // Pages the compactor wants migrated on their next (hint) fault.
    compact_pending: std::collections::HashSet<(u32, u64)>,
    // Per-mm mmap_sem locks, parallel to `mms`.
    locks: Vec<MmLock>,
    // Scratch vectors for the unmap/op-completion hot paths: taken with
    // `mem::take`, cleared, filled, and put back, so their capacity
    // survives across events and the steady state never allocates.
    scratch_removed: Vec<(Vpn, latr_mem::Pte)>,
    scratch_pages: Vec<(Vpn, Pfn)>,
    scratch_vmas: Vec<latr_mem::Vma>,
    scratch_granted: Vec<TaskId>,
    scratch_deliveries: Vec<(CpuId, Time)>,
    // The frames of every staged reclaim package; each package holds a
    // span of it.
    reclaim_frames: txn::ReclaimFrames,
    // Recycled `ShootdownTxn::pages` vectors, parked when a round
    // completes and refilled by the next one.
    page_vec_pool: Vec<Vec<Vpn>>,
    // Running FNV-1a fold over the delivered event stream (time + payload
    // per event) — the O(1) incremental fingerprint.
    fold: u64,
    // The fault injector executing the configured plan, when one is active.
    injector: Option<FaultInjector>,
    // Last-signalled pressure per node (edge detection for watermark events).
    pressure_level: Vec<latr_mem::Pressure>,
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
    ///
    /// # Panics
    ///
    /// Panics if [`MachineConfig::validate`] refuses `config`.
    pub fn new(config: MachineConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid MachineConfig: {e}");
        }
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
        // Each burst's hold list is sized up front (a burst grabs at most
        // one node's frames), so applying a burst mid-run allocates nothing.
        let burst_held = config.faults.as_ref().map_or_else(Vec::new, |p| {
            p.bursts
                .iter()
                .map(|b| Vec::with_capacity(b.frames.min(config.frames_per_node) as usize))
                .collect()
        });
        let num_nodes = config.topology.num_nodes();
        let mut machine = Machine {
            fabric: IpiFabric::new(config.topology.clone(), config.costs.clone()),
            queue: EventQueue::new(),
            cores,
            hot: CoreHot::new(ncpus),
            mms: Vec::new(),
            mm_pcid: Vec::new(),
            pcid_mms: Vec::new(),
            frames,
            page_cache: PageCache::new(),
            tasks: Vec::new(),
            slots: Vec::new(),
            stats: crate::metrics::Registry::default(),
            trace: TraceRing::with_capacity(config.trace_capacity),
            rng: SimRng::new(config.seed),
            llc: LlcModel::new(config.llc_base_miss_ratio),
            policy: None,
            workload: None,
            txns: txn::TxnTable::default(),
            next_txn: 0,
            pending_reclaim: None,
            numa: NumaRuntime::new(config.numa),
            pcid_enabled: config.pcid_enabled,
            tickless: config.tickless,
            live_tasks: 0,
            end_time: Time::MAX,
            topology: config.topology,
            costs: config.costs,
            swapped: std::collections::HashSet::new(),
            compact_pending: std::collections::HashSet::new(),
            locks: Vec::new(),
            scratch_removed: Vec::new(),
            scratch_pages: Vec::new(),
            scratch_vmas: Vec::new(),
            scratch_granted: Vec::new(),
            scratch_deliveries: Vec::new(),
            reclaim_frames: txn::ReclaimFrames::default(),
            page_vec_pool: Vec::new(),
            fold: FNV_OFFSET,
            injector: config.faults.filter(FaultPlan::is_active).map(|plan| {
                // The injector's randomness comes from a fork keyed off the
                // machine seed, so attaching a plan never perturbs the main
                // RNG stream (the fork here uses a throwaway root).
                let mut root = SimRng::new(config.seed);
                FaultInjector::new(plan, root.fork(latr_faults::FAULT_STREAM))
            }),
            pressure_level: vec![latr_mem::Pressure::Normal; num_nodes],
            burst_held,
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
    #[inline]
    pub fn now(&self) -> Time {
        self.queue.now()
    }

    /// Records `record` in the trace ring at the current instant (a
    /// branch when tracing is off; never allocates).
    #[inline]
    pub fn emit(&mut self, record: TraceRecord) {
        if self.trace.is_enabled() {
            let now = self.now();
            self.trace.push(now, record);
        }
    }

    /// The machine's topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The cost model.
    #[inline]
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
        let pcid = mm.pcid as usize;
        if self.pcid_mms.len() <= pcid {
            self.pcid_mms.resize_with(pcid + 1, Vec::new);
        }
        self.pcid_mms[pcid].push(id.0);
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
        self.slots.push(TaskSlot::default());
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
    ///
    /// # Panics
    ///
    /// Panics if the workload creates no task, and re-raises a panic of
    /// the coherence oracle's worker thread.
    pub fn run(
        &mut self,
        mut workload: Box<dyn Workload>,
        policy: Box<dyn TlbPolicy>,
        duration: Nanos,
    ) -> (Box<dyn Workload>, Box<dyn TlbPolicy>) {
        workload.setup(self);
        assert!(self.live_tasks > 0, "workload created no tasks");
        // The oracle feeds nothing back, so it checks the run on a worker
        // thread of its own (joined below).
        if let Some(o) = self.oracle.as_mut() {
            o.start_worker();
        }
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

        while self.live_tasks > 0 {
            let Some((time, event)) = self.queue.pop_until(self.end_time) else {
                break;
            };
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
        if let Some(o) = self.oracle.as_mut() {
            o.join_worker();
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
                self.slots[task_id.index()].parked = Some(op);
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
                self.stats.inc(crate::metrics::id::CONTEXT_SWITCHES);
                let mut cost = self.costs.context_switch;
                // An injected sweep stall suppresses the context-switch
                // sweep too (the core is inside a non-preemptible section;
                // the "switch" models involuntary kernel work).
                if self.fault_stalled(cpu) {
                    self.stats.inc(crate::metrics::id::FAULTS_SWEEP_STALLS);
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
                        self.slots[task_id.index()].blocked_fault = Some((vpn, write));
                        self.start_op(cpu, task_id, op);
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
            Op::Munmap { range } | Op::MadviseFree { range } => self.do_unmap(task_id, op, range),
            Op::Mprotect { range, prot } => self.do_mprotect(task_id, op, range, prot),
            Op::Mremap { range } => self.do_mremap(task_id, op, range),
            Op::SwapOut { range } => self.do_swap_out(task_id, op, range),
            Op::Dedup { range } => self.do_dedup(task_id, op, range),
            Op::Compact { range } => self.do_compact(task_id, op, range),
            Op::Fork => self.do_fork(task_id, op),
            Op::Exit => {
                debug_assert!(
                    self.slots[task_id.index()].lock_held.is_none(),
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

    /// Marks `cpu` busy with `task`'s `op` from now on, stashing the op so
    /// completion can report it.
    fn start_op(&mut self, cpu: CpuId, task: TaskId, op: Op) {
        let i = cpu.index();
        self.hot.busy[i] = true;
        self.hot.op_started[i] = self.now();
        self.slots[task.index()].in_flight = Some(op);
    }

    /// Starts an op of the given CPU cost; completion is scheduled and may
    /// be delayed by interrupt debt.
    fn begin_op(&mut self, cpu: CpuId, task: TaskId, op: Op, cost: Nanos) {
        self.start_op(cpu, task, op);
        self.complete_after(cpu, task, cost);
    }

    /// Schedules the in-flight op of `task` on `cpu` to complete after
    /// `delay`, superseding any completion already scheduled for it.
    pub(super) fn complete_after(&mut self, cpu: CpuId, task: TaskId, delay: Nanos) {
        let i = cpu.index();
        self.hot.op_generation[i] += 1;
        let generation = self.hot.op_generation[i];
        self.queue.schedule_after(
            delay,
            Event::OpComplete {
                cpu,
                task,
                generation,
            },
        );
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
            self.complete_after(cpu, task, debt);
            return;
        }
        self.hot.busy[i] = false;
        let latency = now - self.hot.op_started[i];
        let op = self.slots[task.index()]
            .in_flight
            .take()
            .expect("completed op was in flight");
        self.tasks[task.index()].ops_completed += 1;
        self.release_mm_lock(task);
        match op {
            Op::Munmap { .. } => self.stats.record(crate::metrics::id::MUNMAP_NS, latency),
            Op::MadviseFree { .. } => self.stats.record(crate::metrics::id::MADVISE_NS, latency),
            _ => {}
        }
        self.with_workload(|w, m| w.on_op_complete(m, task, OpResult { op, latency }));
        if self.tasks[task.index()].is_live() {
            self.queue.schedule_after(0, Event::TaskStep(task));
        }
    }

    /// Adds interrupt-style time debt to whatever `cpu` is executing.
    #[inline]
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
            self.stats.inc(crate::metrics::id::TICKS_SKIPPED_IDLE);
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
                    self.stats.inc(crate::metrics::id::FAULTS_SWEEP_STALLS);
                    self.queue.schedule_after(period, Event::SchedTick(cpu));
                    return;
                }
                TickFault::Miss => {
                    self.stats.inc(crate::metrics::id::FAULTS_TICKS_MISSED);
                    self.queue.schedule_after(period, Event::SchedTick(cpu));
                    return;
                }
                TickFault::Jitter(d) => {
                    self.stats.inc(crate::metrics::id::FAULTS_TICK_JITTER);
                    next_in = period + d;
                }
                TickFault::Run => {}
            }
        }
        self.stats.inc(crate::metrics::id::SCHED_TICKS);
        let mut cost = self.costs.sched_tick_work;
        cost += self.with_policy(|p, m| p.on_sched_tick(m, cpu));
        self.charge_debt(cpu, cost);
        self.queue.schedule_after(next_in, Event::SchedTick(cpu));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use latr_arch::MachinePreset;

    fn config() -> MachineConfig {
        MachineConfig::new(Topology::preset(MachinePreset::Commodity2S16C))
    }

    #[test]
    fn validate_accepts_the_defaults() {
        assert_eq!(config().validate(), Ok(()));
        assert_eq!(config().with_watermarks(16, 16).validate(), Ok(()));
        for ratio in [0.0, 1.0] {
            let mut config = config();
            config.llc_base_miss_ratio = ratio;
            assert_eq!(config.validate(), Ok(()));
        }
    }

    #[test]
    fn validate_rejects_a_zero_tick_period() {
        let mut config = config();
        config.costs.sched_tick_period = 0;
        assert_eq!(config.validate(), Err(ConfigError::ZeroTickPeriod));
    }

    #[test]
    fn validate_rejects_a_negative_miss_ratio() {
        let mut config = config();
        config.llc_base_miss_ratio = -0.01;
        assert_eq!(config.validate(), Err(ConfigError::MissRatioOutOfRange));
    }

    #[test]
    fn validate_rejects_a_miss_ratio_above_one() {
        let mut config = config();
        config.llc_base_miss_ratio = 1.01;
        assert_eq!(config.validate(), Err(ConfigError::MissRatioOutOfRange));
    }

    #[test]
    fn validate_rejects_a_nan_miss_ratio() {
        let mut config = config();
        config.llc_base_miss_ratio = f64::NAN;
        assert_eq!(config.validate(), Err(ConfigError::MissRatioOutOfRange));
    }

    #[test]
    fn validate_rejects_min_watermark_above_low() {
        assert_eq!(
            config().with_watermarks(8, 24).validate(),
            Err(ConfigError::MinWatermarkAboveLow { low: 8, min: 24 })
        );
    }

    #[test]
    #[should_panic(expected = "invalid MachineConfig: costs.sched_tick_period must be nonzero")]
    fn machine_new_refuses_an_invalid_config() {
        let mut config = config();
        config.costs.sched_tick_period = 0;
        Machine::new(config);
    }
}
