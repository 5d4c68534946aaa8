//! Hook-level timing from outside `Machine::run`.
//!
//! [`TimedPolicy`] and [`TimedWorkload`] wrap the real policy and workload,
//! forward every trait method, and time each call. The machine calls a
//! hook with the other side detached, so hooks never nest and each timed
//! call is that hook's self time. The workload wrapper also samples
//! `latr-mem` state when an mmap is issued, and the policy wrapper samples
//! `latr-kernel` gauges on every reclaim tick.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use latr_arch::{CpuId, NodeId};
use latr_kernel::{
    FlushKind, FlushOutcome, Machine, Op, OpResult, ShootdownTxn, TaskId, TlbPolicy, Workload,
};
use latr_mem::{MmId, Pfn, Pressure, VaRange, Vpn};
use latr_sim::{Histogram, Nanos};

/// Every timed hook. The names are the per-layer metric prefixes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Hook {
    Setup,
    NextOp,
    OnOpComplete,
    FlushOthers,
    SchedTick,
    ContextSwitch,
    ReclaimTick,
    MemoryPressure,
    AllocStall,
    NumaHintUnmap,
    NumaFaultMayProceed,
    SyncComplete,
    Timer,
    Shutdown,
}

impl Hook {
    pub const ALL: [Hook; 14] = [
        Hook::Setup,
        Hook::NextOp,
        Hook::OnOpComplete,
        Hook::FlushOthers,
        Hook::SchedTick,
        Hook::ContextSwitch,
        Hook::ReclaimTick,
        Hook::MemoryPressure,
        Hook::AllocStall,
        Hook::NumaHintUnmap,
        Hook::NumaFaultMayProceed,
        Hook::SyncComplete,
        Hook::Timer,
        Hook::Shutdown,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Hook::Setup => "workloads.setup",
            Hook::NextOp => "workloads.next_op",
            Hook::OnOpComplete => "workloads.on_op_complete",
            Hook::FlushOthers => "policy.flush_others",
            Hook::SchedTick => "policy.sched_tick",
            Hook::ContextSwitch => "policy.context_switch",
            Hook::ReclaimTick => "policy.reclaim_tick",
            Hook::MemoryPressure => "policy.memory_pressure",
            Hook::AllocStall => "policy.alloc_stall",
            Hook::NumaHintUnmap => "policy.numa_hint_unmap",
            Hook::NumaFaultMayProceed => "policy.numa_fault_may_proceed",
            Hook::SyncComplete => "policy.sync_complete",
            Hook::Timer => "policy.timer",
            Hook::Shutdown => "policy.shutdown",
        }
    }
}

/// The `find_free_va` replay's span name.
pub const REPLAY: &str = "mem.find_free_va";

/// One timed call in 256 is kept as a trace span, up to this many.
const SPAN_EVERY: u64 = 256;
const SPAN_CAP: usize = 100_000;
/// Every 8th mmap replays the VA search.
const REPLAY_EVERY: u64 = 8;

/// Calls, total time and the latency distribution of one hook.
#[derive(Debug, Default)]
pub struct HookStats {
    pub calls: u64,
    pub total_ns: u64,
    pub hist: Histogram,
}

/// A sampled span: what ran, when (ns since the run started), how long.
#[derive(Clone, Copy, Debug)]
struct Span {
    name: &'static str,
    start_ns: u64,
    dur_ns: u64,
}

/// Everything the wrappers measure during one traced run.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    pub hooks: Vec<HookStats>,
    pub replay: HookStats,
    timed_calls: u64,
    spans: Vec<Span>,
    mmaps: u64,
    pub blocked_va_sum: u64,
    pub blocked_va_samples: u64,
    pub blocked_va_max: u64,
    pub reclaim_debt_max: u64,
    pub frames_allocated_max: u64,
}

impl Recorder {
    /// A recorder whose span buffer is allocated up front, so recording
    /// never allocates while the machine runs.
    pub fn new() -> Rc<RefCell<Recorder>> {
        Rc::new(RefCell::new(Recorder {
            origin: Instant::now(),
            hooks: Hook::ALL.iter().map(|_| HookStats::default()).collect(),
            replay: HookStats::default(),
            timed_calls: 0,
            spans: Vec::with_capacity(SPAN_CAP),
            mmaps: 0,
            blocked_va_sum: 0,
            blocked_va_samples: 0,
            blocked_va_max: 0,
            reclaim_debt_max: 0,
            frames_allocated_max: 0,
        }))
    }

    pub fn hook(&self, hook: Hook) -> &HookStats {
        &self.hooks[hook as usize]
    }

    /// Total time inside every hook.
    pub fn hooks_ns(&self) -> u64 {
        self.hooks.iter().map(|h| h.total_ns).sum()
    }

    fn record(&mut self, name: &'static str, hook: Option<Hook>, start: Instant, end: Instant) {
        let dur_ns = u64::try_from((end - start).as_nanos()).unwrap_or(u64::MAX);
        let stats = match hook {
            Some(h) => &mut self.hooks[h as usize],
            None => &mut self.replay,
        };
        stats.calls += 1;
        stats.total_ns += dur_ns;
        stats.hist.record(dur_ns);
        self.timed_calls += 1;
        if self.timed_calls.is_multiple_of(SPAN_EVERY) && self.spans.len() < SPAN_CAP {
            let start_ns = u64::try_from((start - self.origin).as_nanos()).unwrap_or(u64::MAX);
            self.spans.push(Span {
                name,
                start_ns,
                dur_ns,
            });
        }
    }

    /// The sampled spans as Chrome trace-event JSON (open in Perfetto or
    /// `chrome://tracing`). Each layer gets its own track.
    pub fn chrome_trace(&self, workload: &str) -> String {
        let mut out = String::from("{\"traceEvents\": [\n");
        let _ = write!(
            out,
            "{{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, \
             \"args\": {{\"name\": \"{workload}\"}}}}"
        );
        for s in &self.spans {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let tid = match layer {
                "workloads" => 1,
                "policy" => 2,
                _ => 3,
            };
            let _ = write!(
                out,
                ",\n{{\"name\": \"{}\", \"cat\": \"{layer}\", \"ph\": \"X\", \"pid\": 1, \
                 \"tid\": {tid}, \"ts\": {:.3}, \"dur\": {:.3}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

fn timed<R>(rec: &RefCell<Recorder>, hook: Hook, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let r = f();
    let end = Instant::now();
    rec.borrow_mut().record(hook.name(), Some(hook), start, end);
    r
}

/// A [`TlbPolicy`] that times every hook of the policy it wraps.
pub struct TimedPolicy {
    inner: Box<dyn TlbPolicy>,
    rec: Rc<RefCell<Recorder>>,
}

impl TimedPolicy {
    pub fn new(inner: Box<dyn TlbPolicy>, rec: Rc<RefCell<Recorder>>) -> Self {
        TimedPolicy { inner, rec }
    }
}

impl TlbPolicy for TimedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn flush_others(
        &mut self,
        machine: &mut Machine,
        initiator: CpuId,
        task: Option<TaskId>,
        mm: MmId,
        range: VaRange,
        pages: &[(Vpn, Pfn)],
        kind: FlushKind,
        start_delay: Nanos,
    ) -> FlushOutcome {
        timed(&self.rec, Hook::FlushOthers, || {
            self.inner.flush_others(
                machine,
                initiator,
                task,
                mm,
                range,
                pages,
                kind,
                start_delay,
            )
        })
    }

    fn on_sched_tick(&mut self, machine: &mut Machine, cpu: CpuId) -> Nanos {
        timed(&self.rec, Hook::SchedTick, || {
            self.inner.on_sched_tick(machine, cpu)
        })
    }

    fn on_context_switch(&mut self, machine: &mut Machine, cpu: CpuId) -> Nanos {
        timed(&self.rec, Hook::ContextSwitch, || {
            self.inner.on_context_switch(machine, cpu)
        })
    }

    fn on_reclaim_tick(&mut self, machine: &mut Machine) {
        timed(&self.rec, Hook::ReclaimTick, || {
            self.inner.on_reclaim_tick(machine)
        });
        let mut rec = self.rec.borrow_mut();
        rec.reclaim_debt_max = rec.reclaim_debt_max.max(machine.reclaim_debt_total());
        let allocated = machine.frames.allocated_count() as u64;
        rec.frames_allocated_max = rec.frames_allocated_max.max(allocated);
    }

    fn on_memory_pressure(&mut self, machine: &mut Machine, node: NodeId, level: Pressure) {
        timed(&self.rec, Hook::MemoryPressure, || {
            self.inner.on_memory_pressure(machine, node, level)
        })
    }

    fn on_alloc_stall(&mut self, machine: &mut Machine, cpu: CpuId, node: NodeId) -> u64 {
        timed(&self.rec, Hook::AllocStall, || {
            self.inner.on_alloc_stall(machine, cpu, node)
        })
    }

    fn numa_hint_unmap(&mut self, machine: &mut Machine, cpu: CpuId, mm: MmId, vpn: Vpn) -> bool {
        timed(&self.rec, Hook::NumaHintUnmap, || {
            self.inner.numa_hint_unmap(machine, cpu, mm, vpn)
        })
    }

    fn numa_fault_may_proceed(&mut self, machine: &mut Machine, mm: MmId, vpn: Vpn) -> bool {
        timed(&self.rec, Hook::NumaFaultMayProceed, || {
            self.inner.numa_fault_may_proceed(machine, mm, vpn)
        })
    }

    fn on_sync_complete(&mut self, machine: &mut Machine, txn: &ShootdownTxn) {
        timed(&self.rec, Hook::SyncComplete, || {
            self.inner.on_sync_complete(machine, txn)
        })
    }

    fn on_timer(&mut self, machine: &mut Machine, token: u64) {
        timed(&self.rec, Hook::Timer, || {
            self.inner.on_timer(machine, token)
        })
    }

    fn on_shutdown(&mut self, machine: &mut Machine) {
        timed(&self.rec, Hook::Shutdown, || {
            self.inner.on_shutdown(machine)
        })
    }
}

/// A [`Workload`] that times every hook of the workload it wraps and
/// replays the VA search on a sample of the mmaps it issues.
pub struct TimedWorkload {
    inner: Box<dyn Workload>,
    rec: Rc<RefCell<Recorder>>,
}

impl TimedWorkload {
    pub fn new(inner: Box<dyn Workload>, rec: Rc<RefCell<Recorder>>) -> Self {
        TimedWorkload { inner, rec }
    }
}

impl Workload for TimedWorkload {
    fn setup(&mut self, machine: &mut Machine) {
        timed(&self.rec, Hook::Setup, || self.inner.setup(machine))
    }

    fn next_op(&mut self, machine: &mut Machine, task: TaskId) -> Op {
        let op = timed(&self.rec, Hook::NextOp, || {
            self.inner.next_op(machine, task)
        });
        if let Op::MmapAnon { pages } | Op::MmapFile { pages, .. } = op {
            let mm = machine.mm(machine.task(task).mm);
            let mut rec = self.rec.borrow_mut();
            let blocked = mm.blocked_ranges().len() as u64;
            rec.blocked_va_sum += blocked;
            rec.blocked_va_samples += 1;
            rec.blocked_va_max = rec.blocked_va_max.max(blocked);
            rec.mmaps += 1;
            if rec.mmaps.is_multiple_of(REPLAY_EVERY) {
                // `find_free_va` takes `&self`: the search the kernel is
                // about to run for this mmap, priced without changing it.
                let start = Instant::now();
                black_box(mm.find_free_va(black_box(pages)));
                let end = Instant::now();
                rec.record(REPLAY, None, start, end);
            }
        }
        op
    }

    fn on_op_complete(&mut self, machine: &mut Machine, task: TaskId, result: OpResult) {
        timed(&self.rec, Hook::OnOpComplete, || {
            self.inner.on_op_complete(machine, task, result)
        })
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}
