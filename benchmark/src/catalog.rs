//! The metric catalog: every metric the benchmark reports, with its unit,
//! direction and bound, and how each is derived from the children's
//! reports. `BENCHMARK.json` at the repository root lists the same names.

use crate::rep::Rep;

/// Whether a lower or a higher value is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the simulator sees on the host.
/// All of them are lower-is-better and apply to every workload.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// Allowed worsening of the median, as a share of the baseline.
    pub bound: f64,
    /// The value one child reports.
    value: fn(&Rep) -> f64,
}

impl EndToEnd {
    pub fn value(&self, rep: &Rep) -> f64 {
        (self.value)(rep)
    }
}

pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        bound: 0.25,
        value: |r| r.get("wall_ns") / 1e9,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
        value: |r| r.get("setup_ns") / 1e9,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        bound: 0.06,
        value: |r| r.get("peak_rss_kib") / 1024.0,
    },
];

/// The simulated results, as `(name, histogram, percentile)`. They repeat
/// exactly for a seed, so they are gated exactly: every repetition must
/// reproduce the fingerprint, which covers every histogram, and
/// `--repeat-check` compares each value. They are not in `BENCHMARK.json`:
/// several exist on some workloads only, and the histogram's buckets make
/// the munmap and reclaim-lag percentiles read the same on every seed.
pub const SIMULATED: [(&str, &str, &str); 6] = [
    ("sim_request_p50_us", "request", "p50_ns"),
    ("sim_request_p999_us", "request", "p999_ns"),
    ("sim_munmap_p50_us", "munmap", "p50_ns"),
    ("sim_munmap_p999_us", "munmap", "p999_ns"),
    ("sim_shootdown_p999_us", "shootdown", "p999_ns"),
    ("sim_reclaim_lag_p999_us", "reclaim_lag", "p999_ns"),
];

/// What a per-layer value is computed from.
pub struct LayerInput<'a> {
    /// The traced pass.
    pub traced: &'a Rep,
    /// Median untraced wall time, in ns.
    pub plain_wall_ns: f64,
    /// The oracle-off twin, on a workload that runs the oracle.
    pub twin: Option<&'a Rep>,
}

impl LayerInput<'_> {
    /// A value the traced child reported.
    fn t(&self, key: &str) -> f64 {
        self.traced.get(key)
    }

    /// A host time the traced child reported in ns, in ms.
    fn ms(&self, key: &str) -> f64 {
        self.t(key) / 1e6
    }

    fn events(&self) -> f64 {
        self.t("events").max(1.0)
    }

    /// Machine self time: traced wall minus every hook and the replay.
    fn machine_self_ns(&self) -> f64 {
        self.t("wall_ns") - self.t("hooks_ns") - self.t("replay.total_ns")
    }
}

/// A per-layer metric, read from the traced pass.
#[derive(Clone, Copy, Debug)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    value: fn(&LayerInput) -> f64,
}

impl PerLayer {
    pub fn value(&self, input: &LayerInput) -> f64 {
        (self.value)(input)
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    value: fn(&LayerInput) -> f64,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        value,
    }
}

use Better::{Higher, Lower};

/// Every per-layer metric. README.md maps each to the end-to-end metric
/// and workload it should move.
pub const PER_LAYER: [PerLayer; 43] = [
    layer("workloads.next_op.calls", "count", Lower, |i| {
        i.t("workloads.next_op.calls")
    }),
    layer("workloads.next_op.self_ms", "ms", Lower, |i| {
        i.ms("workloads.next_op.self_ns")
    }),
    layer("workloads.on_op_complete.self_ms", "ms", Lower, |i| {
        i.ms("workloads.on_op_complete.self_ns")
    }),
    layer("policy.flush_others.calls", "count", Lower, |i| {
        i.t("policy.flush_others.calls")
    }),
    layer("policy.flush_others.self_ms", "ms", Lower, |i| {
        i.ms("policy.flush_others.self_ns")
    }),
    layer("policy.flush_others.p99_ns", "ns", Lower, |i| {
        i.t("policy.flush_others.p99_ns")
    }),
    layer("policy.sched_tick.calls", "count", Lower, |i| {
        i.t("policy.sched_tick.calls")
    }),
    layer("policy.sched_tick.self_ms", "ms", Lower, |i| {
        i.ms("policy.sched_tick.self_ns")
    }),
    layer("policy.sched_tick.p99_ns", "ns", Lower, |i| {
        i.t("policy.sched_tick.p99_ns")
    }),
    layer("policy.reclaim_tick.calls", "count", Lower, |i| {
        i.t("policy.reclaim_tick.calls")
    }),
    layer("policy.reclaim_tick.self_ms", "ms", Lower, |i| {
        i.ms("policy.reclaim_tick.self_ns")
    }),
    layer("policy.reclaim_tick.p99_ns", "ns", Lower, |i| {
        i.t("policy.reclaim_tick.p99_ns")
    }),
    layer("policy.context_switch.self_ms", "ms", Lower, |i| {
        i.ms("policy.context_switch.self_ns")
    }),
    layer("policy.sync_complete.self_ms", "ms", Lower, |i| {
        i.ms("policy.sync_complete.self_ns")
    }),
    layer("core.states_saved", "count", Lower, |i| i.t("states_saved")),
    layer("core.sweep_hits", "count", Higher, |i| i.t("sweep_hits")),
    layer("core.sweep_hits_per_tick", "1/tick", Higher, |i| {
        i.t("sweep_hits") / i.t("sched_ticks").max(1.0)
    }),
    layer("core.fallback_ipis", "count", Lower, |i| {
        i.t("fallback_ipis")
    }),
    layer("core.released_frames", "count", Higher, |i| {
        i.t("released_frames")
    }),
    layer("core.reclaim_debt_max", "frames", Lower, |i| {
        i.t("reclaim_debt_max")
    }),
    layer("mem.find_free_va.samples", "count", Higher, |i| {
        i.t("replay.samples")
    }),
    layer("mem.find_free_va.self_ms", "ms", Lower, |i| {
        i.ms("replay.total_ns")
    }),
    layer("mem.find_free_va.p50_ns", "ns", Lower, |i| {
        i.t("replay.p50_ns")
    }),
    layer("mem.find_free_va.p99_ns", "ns", Lower, |i| {
        i.t("replay.p99_ns")
    }),
    layer("mem.blocked_va.mean", "ranges", Lower, |i| {
        i.t("blocked_va.mean")
    }),
    layer("mem.blocked_va.max", "ranges", Lower, |i| {
        i.t("blocked_va.max")
    }),
    layer("mem.page_faults", "count", Lower, |i| i.t("page_faults")),
    layer("mem.frames_allocated_max", "frames", Lower, |i| {
        i.t("frames_allocated_max")
    }),
    layer("arch.tlb.lookups", "count", Lower, |i| i.t("tlb_lookups")),
    layer("arch.tlb.miss_ratio", "ratio", Lower, |i| {
        i.t("tlb_misses") / i.t("tlb_lookups").max(1.0)
    }),
    layer("arch.tlb.invalidations", "count", Lower, |i| {
        i.t("tlb_invalidations")
    }),
    layer("arch.tlb.full_flushes", "count", Lower, |i| {
        i.t("tlb_full_flushes")
    }),
    layer("arch.ipis_sent", "count", Lower, |i| i.t("ipis_sent")),
    layer("kernel.self_ms", "ms", Lower, |i| i.machine_self_ns() / 1e6),
    layer("kernel.self_ns_per_event", "ns", Lower, |i| {
        i.machine_self_ns() / i.events()
    }),
    layer("kernel.shootdowns", "count", Lower, |i| i.t("shootdowns")),
    layer("kernel.mmap_sem_waits", "count", Lower, |i| {
        i.t("mmap_sem_waits")
    }),
    layer("kernel.sched_ticks", "count", Lower, |i| i.t("sched_ticks")),
    layer("sim.events", "count", Lower, |i| i.t("events")),
    layer("sim.ns_per_event", "ns", Lower, |i| {
        i.plain_wall_ns / i.events()
    }),
    layer("verify.oracle_ns_per_event", "ns", Lower, |i| {
        i.twin
            .map_or(0.0, |w| (i.plain_wall_ns - w.get("wall_ns")) / i.events())
    }),
    layer("verify.oracle_events_observed", "count", Higher, |i| {
        i.t("oracle_events")
    }),
    layer("trace.overhead_frac", "ratio", Lower, |i| {
        let traced_ns = i.t("wall_ns") - i.t("replay.total_ns");
        (traced_ns - i.plain_wall_ns) / i.plain_wall_ns
    }),
];
