//! Well-known statistics recorded by the machine, and the [`Registry`]
//! that holds them.
//!
//! Every metric is declared once, in the `metrics!` table below. Each row
//! gives the name constant, its kind and its name string, and the table
//! generates:
//!
//! * the `pub const NAME: &str` constants that workloads, tests and the
//!   bench harness read by;
//! * one typed write id per metric in [`id`] — a [`CounterId`] or a
//!   [`HistogramId`], so writing to the wrong kind does not compile;
//! * the name table the read path resolves names through.
//!
//! The rows are in name order, and a row's index is its id: readout walks
//! the table, so it comes out in name order with no sort.

use latr_sim::Histogram;

/// Write id of a counter, taken by [`Registry::inc`] and [`Registry::add`].
#[derive(Clone, Copy, Debug)]
pub struct CounterId(u8);

/// Write id of a histogram, taken by [`Registry::record`].
#[derive(Clone, Copy, Debug)]
pub struct HistogramId(u8);

macro_rules! metrics {
    ($($(#[doc = $doc:literal])* $id:ident: $kind:ident = $name:literal,)*) => {
        $($(#[doc = $doc])* pub const $id: &str = $name;)*

        /// Every metric name, indexed by id.
        const NAMES: &[&str] = &[$($name),*];

        /// Typed write ids, one per metric, named like its name constant.
        pub mod id {
            // Numbers the rows, so each id is its row's index; `repr(u8)`
            // turns a 257th row into a compile error, not a wrapped id.
            #[allow(non_camel_case_types, clippy::upper_case_acronyms)]
            #[repr(u8)]
            enum Row {
                $($id),*
            }
            $($(#[doc = $doc])* pub const $id: super::$kind = super::$kind(Row::$id as u8);)*
        }

        /// Each name constant with its id's row.
        #[cfg(test)]
        const ROWS: &[(&str, u8)] = &[$(($id, id::$id.0)),*];
    };
}

metrics! {
    /// ABIS access-bit tracking operations.
    ABIS_TRACK_OPS: CounterId = "abis_track_ops",
    /// Time spent stalled in allocation (ns histogram; p50/p99/p999 are
    /// the storm-resilience headline numbers).
    ALLOC_STALL_NS: HistogramId = "alloc_stall_ns",
    /// Allocations that found every free list empty and took the stall
    /// path (the direct-reclaim analogue).
    ALLOC_STALLS: CounterId = "alloc_stalls",
    /// Pages queued for migration by compaction.
    COMPACT_PAGES: CounterId = "compact_pages",
    /// Context switches performed.
    CONTEXT_SWITCHES: CounterId = "context_switches",
    /// Copy-on-write breaks: a write to a shared read-only page.
    COW_BREAKS: CounterId = "cow_breaks",
    /// Page pairs merged by deduplication.
    DEDUP_MERGES: CounterId = "dedup_merges",
    /// Injected allocation-burst windows applied.
    FAULTS_ALLOC_BURSTS: CounterId = "faults_alloc_bursts",
    /// State publishes forced to overflow by an injected storm.
    FAULTS_FORCED_OVERFLOWS: CounterId = "faults_forced_overflows",
    /// IPI deliveries delayed by the fault injector.
    FAULTS_IPI_DELAYED: CounterId = "faults_ipi_delayed",
    /// IPI deliveries dropped by the fault injector.
    FAULTS_IPI_DROPPED: CounterId = "faults_ipi_dropped",
    /// Reclamation-kthread ticks suppressed by an injected reclaim stall.
    FAULTS_RECLAIM_STALLS: CounterId = "faults_reclaim_stalls",
    /// Sweeps suppressed because the core was inside an injected stall.
    FAULTS_SWEEP_STALLS: CounterId = "faults_sweep_stalls",
    /// Scheduler ticks jittered late by the fault injector.
    FAULTS_TICK_JITTER: CounterId = "faults_tick_jitter",
    /// Scheduler ticks skipped by the fault injector.
    FAULTS_TICKS_MISSED: CounterId = "faults_ticks_missed",
    /// Injected watermark-flap windows applied.
    FAULTS_WATERMARK_FLAPS: CounterId = "faults_watermark_flaps",
    /// `fork()` calls.
    FORKS: CounterId = "forks",
    /// NUMA hint faults taken.
    HINT_FAULTS: CounterId = "hint_faults",
    /// Shootdown retransmit rounds (lost-IPI recovery; injection only).
    IPI_RETRIES: CounterId = "ipi_retries",
    /// IPI interrupts handled on remote cores.
    IPIS_HANDLED: CounterId = "ipis_handled",
    /// Individual IPIs sent.
    IPIS_SENT: CounterId = "ipis_sent",
    /// Adaptive-fallback transitions into synchronous mode.
    LATR_ADAPTIVE_ENTERS: CounterId = "latr_adaptive_enters",
    /// Adaptive-fallback transitions back to lazy mode.
    LATR_ADAPTIVE_EXITS: CounterId = "latr_adaptive_exits",
    /// Operations routed synchronously while adaptive fallback was active.
    LATR_ADAPTIVE_SYNC_OPS: CounterId = "latr_adaptive_sync_ops",
    /// Frames whose reclamation Latr deferred.
    LATR_DEFERRED_FRAMES: CounterId = "latr_deferred_frames",
    /// Pressure→release latency of expedited packages (ns histogram; the
    /// escalation tick bound is asserted over its max).
    LATR_EXPEDITE_LATENCY_NS: HistogramId = "latr_expedite_latency_ns",
    /// Targeted IPIs sent by pressure expedition (subset of `ipis_sent`).
    LATR_EXPEDITED_IPIS: CounterId = "latr_expedited_ipis",
    /// Gated reclamation packages expedited by memory pressure (their
    /// owner swept out of turn).
    LATR_EXPEDITED_SWEEPS: CounterId = "latr_expedited_sweeps",
    /// Latr fallback IPI rounds (state queue full).
    LATR_FALLBACK_IPIS: CounterId = "latr_fallback_ipis",
    /// Gated packages already past their reclaim deadline but still held
    /// because the gating state's CPU bitmask has not cleared — counted
    /// every reclamation tick, watchdog or no watchdog, so the
    /// degradation counters stay honest when `watchdog_ticks = 0`.
    LATR_GATE_HELD: CounterId = "latr_gate_held",
    /// Bytes parked on Latr's lazy-reclaim queue, sampled at every
    /// reclamation tick (histogram; §6.4's memory overhead).
    LATR_PARKED_BYTES: HistogramId = "latr_parked_bytes",
    /// Sync-mode entries forced by min-watermark pressure (subset of
    /// `latr_adaptive_enters`).
    LATR_PRESSURE_SYNC_ENTERS: CounterId = "latr_pressure_sync_enters",
    /// Publish→release latency of lazily reclaimed packages (ns histogram).
    LATR_RECLAIM_LATENCY_NS: HistogramId = "latr_reclaim_latency_ns",
    /// Frames actually released by Latr's deferred reclamation.
    LATR_RECLAIM_RELEASED_FRAMES: CounterId = "latr_reclaim_released_frames",
    /// Latr states saved (written by the Latr policy).
    LATR_STATES_SAVED: CounterId = "latr_states_saved",
    /// Latr sweeps that invalidated at least one entry.
    LATR_SWEEP_HITS: CounterId = "latr_sweep_hits",
    /// Latr watchdog escalations: states whose bitmask outlived
    /// `watchdog_ticks` and were finished with targeted IPIs.
    LATR_WATCHDOG_ESCALATIONS: CounterId = "latr_watchdog_escalations",
    /// Targeted IPIs sent by the watchdog (subset of `ipis_sent`).
    LATR_WATCHDOG_IPIS: CounterId = "latr_watchdog_ipis",
    /// End-to-end latency of `madvise(DONTNEED/FREE)` calls.
    MADVISE_NS: HistogramId = "madvise_ns",
    /// Nodes crossing their low watermark (Normal → Low transitions).
    MEM_PRESSURE_LOW_EVENTS: CounterId = "mem_pressure_low_events",
    /// Nodes crossing their min watermark (reserve floor breached).
    MEM_PRESSURE_MIN_EVENTS: CounterId = "mem_pressure_min_events",
    /// Nodes recovering back above the low watermark.
    MEM_PRESSURE_RECOVERIES: CounterId = "mem_pressure_recoveries",
    /// Pages migrated across NUMA nodes.
    MIGRATIONS: CounterId = "migrations",
    /// Writers and readers that found the mmap_sem held and parked.
    MMAP_SEM_WAITS: CounterId = "mmap_sem_waits",
    /// `mremap()` calls.
    MREMAPS: CounterId = "mremaps",
    /// End-to-end latency of `munmap()` calls (ns histogram).
    MUNMAP_NS: HistogramId = "munmap_ns",
    /// Allocations that failed even after the stall-and-retry path.
    OOM_EVENTS: CounterId = "oom_events",
    /// Page faults taken.
    PAGE_FAULTS: CounterId = "page_faults",
    /// Writes through a read-only mapping whose VMA forbids writing.
    PROTECTION_FAULTS: CounterId = "protection_faults",
    /// Scheduler ticks delivered.
    SCHED_TICKS: CounterId = "sched_ticks",
    /// Accesses to unmapped virtual addresses.
    SEGFAULTS: CounterId = "segfaults",
    /// Open-loop request latency of the serving workload, arrival to
    /// munmap completion (ns histogram; the `BENCH_serving.json` tail
    /// curves are its p50/p99/p999).
    SERVING_REQUEST_NS: HistogramId = "serving_request_ns",
    /// Latency of the remote-shootdown portion of an munmap (ns histogram).
    SHOOTDOWN_NS: HistogramId = "shootdown_ns",
    /// Remote-invalidation rounds initiated (one per munmap/madvise/
    /// mprotect/NUMA-scan that needed remote cores) — "TLB shootdowns" in
    /// the paper's figures.
    SHOOTDOWNS: CounterId = "shootdowns",
    /// Demand faults that brought a swapped-out page back.
    SWAP_INS: CounterId = "swap_ins",
    /// Pages swapped out.
    SWAP_OUTS: CounterId = "swap_outs",
    /// Scheduler ticks a tickless kernel skipped on idle cores.
    TICKS_SKIPPED_IDLE: CounterId = "ticks_skipped_idle",
    /// Workload-level completed units (requests, iterations).
    WORK_UNITS: CounterId = "work_units",
}

const N: usize = NAMES.len();

/// The run's counters and histograms: one slot of each per metric, indexed
/// by id.
///
/// A write is an array index, with no hashing and — after a histogram's
/// first sample allocates its buckets — no allocation, which is what the
/// zero-steady-state-allocation contract of the simulator requires
/// (`tests/zero_alloc.rs`). A slot is `Some` once written, `add(_, 0)`
/// included, so readout lists exactly the written metrics, in name order.
///
/// ```
/// use latr_kernel::metrics::{self, id, Registry};
/// let mut stats = Registry::default();
/// stats.inc(id::SHOOTDOWNS);
/// stats.record(id::MUNMAP_NS, 1_500);
/// assert_eq!(stats.counter(metrics::SHOOTDOWNS), 1);
/// assert_eq!(stats.histogram(metrics::MUNMAP_NS).unwrap().count(), 1);
/// ```
///
/// A counter id does not fit a histogram write:
///
/// ```compile_fail
/// let mut stats = latr_kernel::metrics::Registry::default();
/// stats.record(latr_kernel::metrics::id::SHOOTDOWNS, 1_500);
/// ```
#[derive(Debug)]
pub struct Registry {
    counters: [Option<u64>; N],
    histograms: [Option<Histogram>; N],
}

impl Default for Registry {
    fn default() -> Self {
        Registry {
            counters: [None; N],
            histograms: [const { None }; N],
        }
    }
}

/// The id row of `name`, if it is a metric (cold: reads only).
fn row(name: &str) -> Option<usize> {
    NAMES.binary_search(&name).ok()
}

impl Registry {
    /// Increments a counter by one.
    #[inline]
    pub fn inc(&mut self, id: CounterId) {
        self.add(id, 1);
    }

    /// Adds `n` to a counter.
    #[inline]
    pub fn add(&mut self, id: CounterId, n: u64) {
        *self.counters[id.0 as usize].get_or_insert(0) += n;
    }

    /// Records a sample into a histogram.
    #[inline]
    pub fn record(&mut self, id: HistogramId, value: u64) {
        self.histograms[id.0 as usize]
            .get_or_insert_with(Histogram::new)
            .record(value);
    }

    /// Current value of the named counter (0 if never written).
    pub fn counter(&self, name: &str) -> u64 {
        row(name).and_then(|i| self.counters[i]).unwrap_or(0)
    }

    /// Returns the named histogram, if any samples were recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms[row(name)?].as_ref()
    }

    /// Iterates over all written counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        NAMES
            .iter()
            .zip(&self.counters)
            .filter_map(|(&name, value)| Some((name, (*value)?)))
    }

    /// Iterates over all written histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &Histogram)> {
        NAMES
            .iter()
            .zip(&self.histograms)
            .filter_map(|(&name, hist)| Some((name, hist.as_ref()?)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_counters_and_histograms() {
        let mut r = Registry::default();
        r.inc(id::SHOOTDOWNS);
        r.add(id::SHOOTDOWNS, 2);
        r.record(id::MUNMAP_NS, 1500);
        r.record(id::MUNMAP_NS, 2500);
        assert_eq!(r.counter(SHOOTDOWNS), 3);
        assert_eq!(r.histogram(MUNMAP_NS).unwrap().count(), 2);

        // Unknown names read as 0 and None; an unwritten metric is absent.
        assert_eq!(r.counter("missing"), 0);
        assert!(r.histogram("missing").is_none());
        assert_eq!(r.counter(IPIS_SENT), 0);
        assert!(r.histogram(SHOOTDOWN_NS).is_none());
        assert!(r.counters().map(|(n, _)| n).eq(["shootdowns"]));

        // `add(_, 0)` lists the metric; readout is in name order whatever
        // the write order.
        r.inc(id::WORK_UNITS);
        r.add(id::IPIS_SENT, 0);
        r.inc(id::ABIS_TRACK_OPS);
        let counters: Vec<(&str, u64)> = r.counters().collect();
        assert_eq!(
            counters,
            [
                ("abis_track_ops", 1),
                ("ipis_sent", 0),
                ("shootdowns", 3),
                ("work_units", 1)
            ]
        );
        let hists: Vec<&str> = r.histograms().map(|(n, _)| n).collect();
        assert_eq!(hists, ["munmap_ns"]);

        // Every name constant resolves to its own id, and the table is in
        // strict name order (which also makes the names unique).
        for &(name, id) in ROWS {
            assert_eq!(row(name), Some(id as usize), "{name}");
        }
        assert!(NAMES.windows(2).all(|w| w[0] < w[1]));
    }
}
