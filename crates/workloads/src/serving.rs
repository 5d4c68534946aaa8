//! The open-loop serving workload behind `BENCH_serving.json` (PR 10).
//!
//! The closed-loop [`ApacheWorkload`](crate::ApacheWorkload) measures
//! *throughput*: each worker starts its next request the instant the
//! previous one finishes, so shootdown stalls shrink the request count
//! but never show up as queueing. Tail latency needs the opposite
//! shape — an **open loop**, where requests arrive on their own clock
//! whether or not the server keeps up. Every microsecond a worker loses
//! to a synchronous shootdown (or to `mmap_sem` held across one) turns
//! into queueing delay for the requests behind it, which is exactly the
//! p99/p999 inflation Latr's lazy path removes.
//!
//! Each worker core owns a deterministic arrival stream (Poisson, or an
//! on/off-modulated bursty variant) generated from a per-worker
//! [`SimRng`] fork, so runs replay bit-identically and the benches can
//! pin them by [`Machine::fingerprint`]. Workers are
//! partitioned into several processes (many mms): threads of one process
//! share an address space — and its `mmap_sem` and shootdown targets —
//! while separate processes stress the per-`(mm, tick)` sweep grouping.
//!
//! A request is the Apache cycle with page-cache churn: parse (compute),
//! `mmap()` a randomly chosen slice of one of the process's page-cache
//! files (occasionally an anonymous buffer instead), touch every mapped
//! page, send (compute), `munmap()`. Request latency — arrival to unmap
//! completion, queueing included — lands in the
//! [`metrics::SERVING_REQUEST_NS`] histogram.

use latr_arch::CpuId;
use latr_kernel::{metrics, Machine, Op, OpResult, TaskId, Workload};
use latr_mem::{FileId, VaRange};
use latr_sim::{Nanos, SimRng, MILLISECOND};

/// Mean inter-arrival time per worker (ns): 60 µs is moderate load on the
/// calibrated cost model, so the tail is queueing-driven, not saturation.
const MEAN_INTERARRIVAL_NS: f64 = 60_000.0;

/// How request arrivals are spread over time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ArrivalProcess {
    /// Memoryless arrivals: exponential inter-arrival times with the
    /// workload's mean.
    Poisson,
    /// On/off-modulated Poisson: inside the first `on_pct` percent of
    /// every `period`, the arrival rate is `factor`× the base; outside
    /// it, `1/factor`×. Same mean count per period, much spikier queues.
    Bursty {
        /// Modulation period (ns).
        period: Nanos,
        /// Percentage of the period spent in the burst (1..=99).
        on_pct: u8,
        /// Rate multiplier inside the burst window.
        factor: f64,
    },
}

/// Per-request phases of one worker (the in-service request).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// No request in service: waiting on the arrival stream.
    Idle,
    Map,
    Touch(u64, u64),
    Send,
    Unmap,
}

/// The open-loop serving workload.
#[derive(Debug)]
pub struct ServingWorkload {
    workers: usize,
    procs: usize,
    requests_per_worker: u64,
    arrivals: ArrivalProcess,
    parse_ns: Nanos,
    send_ns: Nanos,
    file_pages: u64,
    files_per_proc: usize,
    seed: u64,
    // Per-process page-cache file sets, filled by `setup`.
    files: Vec<Vec<FileId>>,
    // Per-worker state.
    rng: Vec<SimRng>,
    next_arrival: Vec<u64>,
    arrival: Vec<u64>,
    served: Vec<u64>,
    phase: Vec<Phase>,
    mapped: Vec<Option<VaRange>>,
    linger: Vec<u8>,
}

impl ServingWorkload {
    /// An open-loop server: `workers` worker cores split round-robin
    /// across `procs` processes, each worker admitting
    /// `requests_per_worker` requests from its own Poisson stream
    /// (mean inter-arrival 60 µs).
    ///
    /// # Panics
    ///
    /// Panics if `workers` or `procs` is zero, or `procs > workers`.
    pub fn new(workers: usize, procs: usize, requests_per_worker: u64) -> Self {
        assert!(workers > 0, "need at least one worker");
        assert!(
            procs > 0 && procs <= workers,
            "procs must be in 1..=workers"
        );
        ServingWorkload {
            workers,
            procs,
            requests_per_worker,
            arrivals: ArrivalProcess::Poisson,
            parse_ns: 4_000,
            send_ns: 7_000,
            file_pages: 16,
            files_per_proc: 4,
            seed: 0x5e21,
            files: Vec::new(),
            rng: Vec::new(),
            next_arrival: Vec::new(),
            arrival: Vec::new(),
            served: Vec::new(),
            phase: Vec::new(),
            mapped: Vec::new(),
            linger: Vec::new(),
        }
    }

    /// Overrides the arrival process (default Poisson).
    #[must_use]
    pub fn with_arrivals(mut self, arrivals: ArrivalProcess) -> Self {
        if let ArrivalProcess::Bursty { period, on_pct, .. } = arrivals {
            assert!(period > 0, "burst period must be positive");
            assert!((1..=99).contains(&on_pct), "on_pct must be in 1..=99");
        }
        self.arrivals = arrivals;
        self
    }

    /// Overrides the arrival-stream seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Total requests the run will admit.
    pub fn total_requests(&self) -> u64 {
        self.workers as u64 * self.requests_per_worker
    }

    /// Inter-arrival sample for worker `i`'s stream, for a request
    /// arriving at absolute time `at`.
    fn interarrival(&mut self, i: usize, at: u64) -> u64 {
        let mean = match self.arrivals {
            ArrivalProcess::Poisson => MEAN_INTERARRIVAL_NS,
            ArrivalProcess::Bursty {
                period,
                on_pct,
                factor,
            } => {
                let in_burst = (at % period) * 100 < period * u64::from(on_pct);
                if in_burst {
                    MEAN_INTERARRIVAL_NS / factor
                } else {
                    MEAN_INTERARRIVAL_NS * factor
                }
            }
        };
        self.rng[i].exp(mean)
    }
}

impl Workload for ServingWorkload {
    fn name(&self) -> &str {
        "serving"
    }

    fn setup(&mut self, machine: &mut Machine) {
        self.files = (0..self.procs)
            .map(|_| {
                (0..self.files_per_proc)
                    .map(|_| machine.register_file(self.file_pages))
                    .collect()
            })
            .collect();
        // Round-robin workers over processes: threads of one process
        // share an mm (and its mmap_sem / shootdown targets).
        let mms: Vec<_> = (0..self.procs).map(|_| machine.create_process()).collect();
        for c in 0..self.workers {
            machine.spawn_task(mms[c % self.procs], CpuId(c as u16));
        }
        let mut root = SimRng::new(self.seed);
        self.rng = (0..self.workers).map(|i| root.fork(i as u64)).collect();
        // First arrivals are themselves exponential draws, staggering the
        // streams from t=0.
        self.next_arrival = (0..self.workers)
            .map(|i| self.rng[i].exp(MEAN_INTERARRIVAL_NS))
            .collect();
        self.arrival = vec![0; self.workers];
        self.served = vec![0; self.workers];
        self.phase = vec![Phase::Idle; self.workers];
        self.mapped = vec![None; self.workers];
        self.linger = vec![14; self.workers];
    }

    fn next_op(&mut self, machine: &mut Machine, task: TaskId) -> Op {
        let i = task.index();
        match self.phase[i] {
            Phase::Idle => {
                if self.served[i] >= self.requests_per_worker {
                    // Done admitting: linger across scheduler ticks so
                    // lazy reclamation retires while cores still sweep.
                    if self.linger[i] == 0 {
                        return Op::Exit;
                    }
                    self.linger[i] -= 1;
                    return Op::Sleep(MILLISECOND);
                }
                let now = machine.now().as_ns();
                if self.next_arrival[i] > now {
                    // Open loop: the server is ahead of its arrival
                    // stream — sleep until the next request lands.
                    return Op::Sleep(self.next_arrival[i] - now);
                }
                // Admit the request that arrived at `next_arrival` (it may
                // have queued behind the previous one — that delay is the
                // latency being measured) and draw the one after it.
                let arrived = self.next_arrival[i];
                self.arrival[i] = arrived;
                self.next_arrival[i] = arrived + self.interarrival(i, arrived);
                self.phase[i] = Phase::Map;
                Op::Compute(self.parse_ns)
            }
            Phase::Map => {
                // Page-cache churn: a random slice of a random file of
                // this worker's process; every 8th request or so maps an
                // anonymous response buffer instead.
                let pages = self.rng[i].range(1, 3);
                self.phase[i] = Phase::Touch(0, pages);
                if self.rng[i].chance(0.125) {
                    Op::MmapAnon { pages }
                } else {
                    let set = &self.files[i % self.procs];
                    let file = set[self.rng[i].index(set.len())];
                    let offset = self.rng[i].below(self.file_pages - pages + 1);
                    Op::MmapFile {
                        file,
                        offset,
                        pages,
                    }
                }
            }
            Phase::Touch(n, pages) => {
                let range = self.mapped[i].expect("mapped before touch");
                self.phase[i] = if n + 1 < pages {
                    Phase::Touch(n + 1, pages)
                } else {
                    Phase::Send
                };
                Op::Access {
                    vpn: range.start.offset(n),
                    write: n == 0,
                }
            }
            Phase::Send => {
                self.phase[i] = Phase::Unmap;
                Op::Compute(self.send_ns)
            }
            Phase::Unmap => {
                self.phase[i] = Phase::Idle;
                Op::Munmap {
                    range: self.mapped[i].take().expect("mapped before unmap"),
                }
            }
        }
    }

    fn on_op_complete(&mut self, machine: &mut Machine, task: TaskId, result: OpResult) {
        let i = task.index();
        match result.op {
            Op::MmapFile { .. } | Op::MmapAnon { .. } => {
                self.mapped[i] = machine.task(task).last_mmap;
            }
            Op::Munmap { .. } => {
                // One request served end to end: arrival → unmap done.
                let latency = machine.now().as_ns().saturating_sub(self.arrival[i]);
                machine
                    .stats
                    .record(metrics::id::SERVING_REQUEST_NS, latency);
                machine.stats.inc(metrics::id::WORK_UNITS);
                self.served[i] += 1;
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{run_experiment, PolicyKind};
    use latr_arch::{MachinePreset, Topology};
    use latr_kernel::MachineConfig;
    use latr_sim::SECOND;

    fn run(policy: PolicyKind, arrivals: ArrivalProcess) -> (crate::ExperimentResult, Machine) {
        let wl = ServingWorkload::new(16, 4, 40).with_arrivals(arrivals);
        let (res, machine) = run_experiment(
            MachineConfig::new(Topology::preset(MachinePreset::Commodity2S16C)),
            policy,
            Box::new(wl),
            10 * SECOND,
        );
        assert_eq!(machine.check_reclamation_invariant(), None);
        assert_eq!(machine.check_mapping_coherence(), None);
        (res, machine)
    }

    #[test]
    fn serves_every_admitted_request() {
        let (res, machine) = run(PolicyKind::latr_default(), ArrivalProcess::Poisson);
        assert_eq!(res.work_units, 16 * 40);
        let h = machine
            .stats
            .histogram(metrics::SERVING_REQUEST_NS)
            .expect("request latencies recorded");
        assert_eq!(h.count(), 16 * 40);
        // Only page-cache residency survives the run (file frames are
        // kept by the cache, not leaked by requests).
        assert!(
            machine.frames.allocated_count() <= 4 * 4 * 16,
            "no frames beyond the page cache: {}",
            machine.frames.allocated_count()
        );
    }

    #[test]
    fn bursty_arrivals_inflate_the_tail() {
        let (_, calm) = run(PolicyKind::Linux, ArrivalProcess::Poisson);
        let (_, bursty) = run(
            PolicyKind::Linux,
            ArrivalProcess::Bursty {
                period: 4 * MILLISECOND,
                on_pct: 25,
                factor: 3.0,
            },
        );
        let p99 = |m: &Machine| {
            m.stats
                .histogram(metrics::SERVING_REQUEST_NS)
                .expect("histogram")
                .summary()
                .p99
        };
        assert!(
            p99(&bursty) > p99(&calm),
            "burst p99 {} must exceed calm p99 {}",
            p99(&bursty),
            p99(&calm)
        );
    }

    #[test]
    fn latency_includes_queueing_delay() {
        // Overloaded: a 2 µs mean inter-arrival (a 30× burst over the
        // whole run), far faster than service, so latency must grow well
        // past the per-request service time.
        let wl = ServingWorkload::new(4, 2, 30).with_arrivals(ArrivalProcess::Bursty {
            period: 10 * SECOND,
            on_pct: 99,
            factor: 30.0,
        });
        let (res, machine) = run_experiment(
            MachineConfig::new(Topology::preset(MachinePreset::Commodity2S16C)),
            PolicyKind::Linux,
            Box::new(wl),
            10 * SECOND,
        );
        assert_eq!(res.work_units, 4 * 30);
        let s = machine
            .stats
            .histogram(metrics::SERVING_REQUEST_NS)
            .expect("histogram")
            .summary();
        assert!(
            s.max > 100_000,
            "overload must queue: max latency {} ns",
            s.max
        );
    }

    #[test]
    fn streams_are_deterministic() {
        let (a, ma) = run(PolicyKind::latr_default(), ArrivalProcess::Poisson);
        let (b, mb) = run(PolicyKind::latr_default(), ArrivalProcess::Poisson);
        assert_eq!(a.work_units, b.work_units);
        assert_eq!(ma.fingerprint(), mb.fingerprint());
    }

    #[test]
    #[should_panic(expected = "procs must be in 1..=workers")]
    fn too_many_procs_panics() {
        let _ = ServingWorkload::new(2, 3, 1);
    }

    #[test]
    #[should_panic(expected = "on_pct must be in 1..=99")]
    fn bad_burst_window_panics() {
        let _ = ServingWorkload::new(2, 1, 1).with_arrivals(ArrivalProcess::Bursty {
            period: MILLISECOND,
            on_pct: 0,
            factor: 2.0,
        });
    }
}
