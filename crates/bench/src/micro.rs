//! The micro-benchmark rows behind `BENCH_micro.json`: one operation
//! each, timed by [`time`] as ns per iteration, median and quartiles.
//!
//! The rt rows are the real-hardware counterpart of the paper's Table 5:
//! a Latr state saved and drained by three sweeps (paper: 132.3 ns to
//! save), a state sweep (paper: 158.0 ns) and a synchronous cross-thread
//! "shootdown" (paper: 1594.2 ns for Linux's IPI round). The rest price
//! the simulator's hot paths and substrates: the publish probe, the
//! sweep tick and its full-scan spec, the overflow fallback, the event
//! queue, the blocked-VA search, the oracle's sweep, the TLB, the page
//! table, the IPI fabric and the histogram. Each row sets up its state,
//! then times its closure; the closure's count per batch is the row's own
//! constant, sized so a full batch lasts a few milliseconds on a 2-vCPU
//! x86-64 host.

use std::hint::{black_box, spin_loop};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use latr_arch::{
    CostModel, CpuId, CpuMask, IpiFabric, MachinePreset, Tlb, TlbEntry, Topology, PCID_NONE,
};
use latr_core::rt::{
    CachePadded, RtInvalidation, RtRegistry, ShardedReclaimer, SoftTlb, SoftTlbTable,
};
use latr_core::{LatrConfig, LatrState, StateKind, StateQueue};
use latr_kernel::{Machine, MachineConfig};
use latr_mem::{MmId, MmStruct, PageTable, Pfn, Prot, PteFlags, VaRange, Vpn};
use latr_sim::{EventQueue, Histogram, SimRng, Time, SECOND};
use latr_verify::{CoherenceOracle, Note};
use latr_workloads::{PolicyKind, SweepStorm};

use crate::bench::Report;
use crate::report::{each, host_cpus, row, time, Float, Object, Rows, Spread};

/// How a row is measured: its timer alone, or its timer and the sweep
/// hits the timed batches found, per iteration (the contended sweep rows,
/// whose price depends on whether their sweeps found states at all).
#[derive(Clone, Copy)]
enum Measure {
    Timed(fn(bool) -> Spread),
    TimedWithHits(fn(bool) -> (Spread, f64)),
}

use Measure::{Timed, TimedWithHits};

impl Measure {
    /// The row's timing, and its sweep hits per iteration if it counts
    /// them.
    fn run(self, quick: bool) -> (Spread, Option<f64>) {
        match self {
            Timed(row) => (row(quick), None),
            TimedWithHits(row) => {
                let (spread, hits) = row(quick);
                (spread, Some(hits))
            }
        }
    }
}

/// Every row, in report order: its name (EXPERIMENTS.md and DESIGN.md
/// cite rows by it) and how it is measured at full (`false`) or
/// `--quick` (`true`) size.
const ROWS: [(&str, Measure); 30] = [
    ("rt_publish_and_drain_3_sweeps", Timed(rt_publish_and_drain)),
    ("rt_sweep_one_hit", Timed(rt_sweep_one_hit)),
    ("rt_sweep_empty_16_queues", Timed(rt_sweep_empty)),
    ("sync_shootdown_baseline", Timed(sync_shootdown_baseline)),
    ("rt_reclaim_defer_collect", Timed(rt_reclaim_defer_collect)),
    ("soft_tlb_cached_lookup", Timed(soft_tlb_cached_lookup)),
    (
        "rt_sweep_contended_2_publishers",
        TimedWithHits(|q| rt_sweep_contended(q, 2)),
    ),
    (
        "rt_sweep_contended_6_publishers",
        TimedWithHits(|q| rt_sweep_contended(q, 6)),
    ),
    (
        "tick_counter_unpadded_contended",
        Timed(tick_counter_unpadded),
    ),
    ("tick_counter_padded_contended", Timed(tick_counter_padded)),
    (
        "rt_sweep_tick_120c_fast_pending",
        Timed(|q| rt_sweep_tick(q, true)),
    ),
    (
        "rt_sweep_tick_120c_reference_scan",
        Timed(|q| rt_sweep_tick(q, false)),
    ),
    (
        "state_queue_publish_retire_half_full",
        Timed(state_queue_publish),
    ),
    (
        "event_queue_fast_calendar",
        Timed(event_queue_fast_calendar),
    ),
    ("machine_new_120c", Timed(machine_new_120c)),
    (
        "machine_overflow_fallback_8c",
        Timed(machine_overflow_fallback),
    ),
    ("mm_find_free_va_depth_0", Timed(|q| mm_find_free_va(q, 0))),
    (
        "mm_find_free_va_depth_160",
        Timed(|q| mm_find_free_va(q, 160)),
    ),
    (
        "mm_find_free_va_depth_300",
        Timed(|q| mm_find_free_va(q, 300)),
    ),
    (
        "mm_block_unblock_depth_160",
        Timed(|q| mm_block_unblock(q, 160)),
    ),
    (
        "mm_block_unblock_depth_300",
        Timed(|q| mm_block_unblock(q, 300)),
    ),
    ("oracle_sweep_live_0", Timed(|q| oracle_sweep(q, 0))),
    ("oracle_sweep_live_3000", Timed(|q| oracle_sweep(q, 3000))),
    ("tlb_lookup_hit", Timed(tlb_lookup_hit)),
    ("tlb_insert", Timed(tlb_insert)),
    (
        "tlb_serving_request_120_cores",
        Timed(tlb_serving_request_120),
    ),
    ("page_table_map_unmap", Timed(page_table_map_unmap)),
    ("page_table_range_scan_512", Timed(page_table_range_scan)),
    ("ipi_multicast_schedule_120", Timed(ipi_multicast_schedule)),
    ("histogram_record", Timed(histogram_record)),
];

/// One timed row of the document.
struct MicroRow {
    name: &'static str,
    ns_per_iter: Spread,
    sweep_hits_per_iter: Option<f64>,
}

/// Times every row.
pub(crate) fn run(quick: bool) -> Report {
    let rows = each(
        ROWS,
        |(name, measure)| {
            let (ns_per_iter, sweep_hits_per_iter) = measure.run(quick);
            MicroRow {
                name,
                ns_per_iter,
                sweep_hits_per_iter,
            }
        },
        micro_row,
    );
    let document = Object::new()
        .field("bench", "micro")
        .field("quick", quick)
        .field("host_cpus", host_cpus())
        .field("rows", Rows::of(&rows, micro_row));
    Report {
        document,
        failure: None,
    }
}

fn micro_row(r: &MicroRow) -> Object {
    let row = row!(r; name, ns_per_iter);
    match r.sweep_hits_per_iter {
        Some(hits) => row.field("sweep_hits_per_iter", Float(hits, 3)),
        None => row,
    }
}

/// Times `body` while `neighbours` threads each call `spin(i)`, for `i`
/// in `1..=neighbours`, until it is done.
fn time_beside<R>(
    quick: bool,
    iters: u64,
    neighbours: usize,
    spin: impl Fn(usize) + Sync,
    body: impl FnMut() -> R,
) -> Spread {
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        for i in 1..=neighbours {
            let (stop, spin) = (&stop, &spin);
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    spin(i);
                }
            });
        }
        let spread = time(quick, iters, body);
        stop.store(true, Ordering::Relaxed);
        spread
    })
}

fn inv() -> RtInvalidation {
    RtInvalidation {
        mm: 1,
        start: 0x4_0000,
        end: 0x4_1000,
    }
}

/// One publish to three targets plus the three sweeps that drain it, so
/// the queue never fills: a full state round trip, not a save alone.
fn rt_publish_and_drain(quick: bool) -> Spread {
    let registry = RtRegistry::new(4, 64);
    let targets = CpuMask::from_cpus([1, 2, 3].map(CpuId));
    let mut drained = Vec::new();
    time(quick, 20_000, || {
        let idx = registry.publish(0, black_box(inv()), targets).unwrap();
        drained.clear();
        for core in 1..4 {
            registry.sweep_into(core, &mut drained);
        }
        (idx, drained.len())
    })
}

fn rt_sweep_one_hit(quick: bool) -> Spread {
    let registry = RtRegistry::new(2, 64);
    let core_1 = CpuMask::from_cpus([CpuId(1)]);
    time(quick, 50_000, || {
        registry.publish(0, inv(), core_1).unwrap();
        registry.sweep(1)
    })
}

fn rt_sweep_empty(quick: bool) -> Spread {
    let registry = RtRegistry::new(16, 64);
    time(quick, 200_000, || registry.sweep(5))
}

/// The synchronous baseline: wake a remote thread and wait for its ACK,
/// the user-space analogue of an IPI + ACK round (the cost Latr removes
/// from the critical path).
fn sync_shootdown_baseline(quick: bool) -> Spread {
    let (lock, cv) = (Mutex::new(0u32), Condvar::new());
    let acks = AtomicU64::new(0);
    let remote = |_: usize| {
        let mut request = lock.lock().expect("no holder panics");
        if *request != 1 {
            request = cv
                .wait_timeout(request, Duration::from_millis(50))
                .expect("no holder panics")
                .0;
        }
        if *request == 1 {
            // "Invalidate" and ACK.
            *request = 0;
            acks.fetch_add(1, Ordering::Release);
        }
    };
    time_beside(quick, 2_000, 1, remote, || {
        let before = acks.load(Ordering::Acquire);
        *lock.lock().expect("no holder panics") = 1;
        cv.notify_all();
        while acks.load(Ordering::Acquire) == before {
            spin_loop();
        }
    })
}

fn rt_reclaim_defer_collect(quick: bool) -> Spread {
    let registry = RtRegistry::new(2, 64);
    let reclaimer: ShardedReclaimer<u64> = ShardedReclaimer::new(2, 2);
    time(quick, 20_000, || {
        reclaimer.defer(&registry, 0, black_box(7));
        for core in [0, 1, 0, 1] {
            registry.sweep(core);
        }
        reclaimer.collect(&registry, 0)
    })
}

fn soft_tlb_cached_lookup(quick: bool) -> Spread {
    let registry = Arc::new(RtRegistry::new(2, 64));
    let table = Arc::new(SoftTlbTable::new(registry));
    for k in 0..256 {
        table.map_key(k, k + 1000);
    }
    let mut tlb = SoftTlb::new(1, table);
    for k in 0..256 {
        tlb.lookup(k);
    }
    let mut k = 0u64;
    time(quick, 500_000, || {
        k = (k + 1) % 256;
        tlb.lookup(black_box(k))
    })
}

/// `publishers` threads hammer one sweeper's queue set while the timed
/// thread sweeps: how much the sweep degrades against
/// `rt_sweep_one_hit`'s quiet run. Also returns the states the timed
/// sweeps found, per sweep: near 0 means the publishers rarely ran
/// beside the sweeper and the row priced mostly-empty sweeps.
fn rt_sweep_contended(quick: bool, publishers: usize) -> (Spread, f64) {
    let registry = RtRegistry::new(publishers + 1, 256);
    let sweeper = CpuMask::from_cpus([CpuId(0)]);
    let mut buf = Vec::new();
    let mut hits = 0usize;
    let publish = |core| {
        // On overflow, spin until the sweeper drains.
        let _ = registry.publish(core, inv(), sweeper);
        spin_loop();
    };
    let spread = time_beside(quick, 2_000, publishers, publish, || {
        buf.clear();
        registry.sweep_into(0, &mut buf);
        hits += buf.len();
        buf.len()
    });
    let sweeps = spread.iters * spread.batches as u64;
    (spread, hits as f64 / sweeps as f64)
}

/// Three neighbours bump the counters beside the timed thread's own.
/// Unpadded, the four counters share one or two cache lines, so every
/// neighbour bump steals the timed counter's line (false sharing);
/// padded, that line stays private.
fn tick_counter_contended<T: Sync>(
    quick: bool,
    counters: &[T],
    slot: fn(&T) -> &AtomicU64,
) -> Spread {
    let bump = |i: usize| {
        slot(&counters[i]).fetch_add(1, Ordering::Release);
    };
    time_beside(quick, 200_000, counters.len() - 1, bump, || {
        slot(&counters[0]).fetch_add(1, Ordering::Release)
    })
}

fn tick_counter_unpadded(quick: bool) -> Spread {
    let counters: [AtomicU64; 4] = Default::default();
    tick_counter_contended(quick, &counters, |c| c)
}

fn tick_counter_padded(quick: bool) -> Spread {
    let counters: [CachePadded<AtomicU64>; 4] =
        std::array::from_fn(|_| CachePadded::new(AtomicU64::new(0)));
    tick_counter_contended(quick, &counters, |c| c)
}

/// One scheduler tick's sweep on a busy 120-core machine, fast
/// (`sweep_into`'s pending-row drain) or reference (`full_scan_into`
/// over all 120 queues): the O(cores²·slots) term the pending row
/// removes, measured at the rt layer where the sweep and its spec are
/// both public.
fn rt_sweep_tick(quick: bool, pending: bool) -> Spread {
    let registry = RtRegistry::new(120, 64);
    let core_1 = CpuMask::from_cpus([CpuId(1)]);
    let mut buf = Vec::with_capacity(1);
    time(quick, 50_000, || {
        // One state targeted at core 1, then core 1's tick.
        registry.publish(0, inv(), core_1).unwrap();
        buf.clear();
        if pending {
            registry.sweep_into(1, &mut buf);
        } else {
            registry.full_scan_into(1, &mut buf);
        }
        buf.len()
    })
}

fn state(id: u64, cpus: CpuMask) -> LatrState {
    LatrState {
        id,
        range: VaRange::new(Vpn(0x5_5550 + id % 512), 1),
        mm: MmId(1),
        kind: StateKind::Free,
        cpus,
        pte_done: false,
        published: Time::ZERO,
        round: None,
    }
}

/// The word-scan publish probe against a half-full 64-slot queue: the
/// per-munmap cost on the simulation's hot path.
fn state_queue_publish(quick: bool) -> Spread {
    let mut q = StateQueue::new(64);
    let targets = CpuMask::from_cpus([CpuId(1)]);
    // Half the slots stay occupied so every probe has words to skip.
    for i in 0..32 {
        q.publish(state(i, CpuMask::first_n(2))).unwrap();
    }
    let mut id = 100u64;
    time(quick, 100_000, || {
        id += 1;
        q.publish(state(id, targets)).unwrap();
        // Sweep cpu 1 and retire, so occupancy returns to 32 for the
        // next probe (the standing states also name cpu 0 and stay).
        q.clear_cpu_everywhere(CpuId(1));
        q.retire_completed()
    })
}

/// The event queue under the simulator's access pattern: schedule in the
/// near future, pop the earliest, over a standing population.
fn event_queue_fast_calendar(quick: bool) -> Spread {
    let mut q: EventQueue<u64> = EventQueue::new();
    for i in 0..256 {
        q.schedule(Time::from_ns(i * 37), i);
    }
    let mut t = 0u64;
    time(quick, 200_000, || {
        t += 211;
        q.schedule(Time::from_ns(t), t);
        q.pop()
    })
}

/// The benchmark's set-up on the 120-core preset: `Machine::new` from a
/// clone of one configuration (oracle and trace ring off), then the
/// default Latr policy's build, and both dropped again.
fn machine_new_120c(quick: bool) -> Spread {
    let mut config = MachineConfig::new(Topology::preset(MachinePreset::LargeNuma8S120C));
    config.trace_capacity = 0;
    config.oracle = false;
    time(quick, 2_000, || {
        let machine = Machine::new(config.clone());
        (machine, PolicyKind::latr_default().build())
    })
}

/// The overflow→IPI fallback under pressure: a 4-slot queue driven past
/// capacity every round, covering the adaptive enter/exit hysteresis.
fn machine_overflow_fallback(quick: bool) -> Spread {
    time(quick, 20, || {
        let mut config = MachineConfig::new(Topology::preset(MachinePreset::Commodity2S16C));
        config.seed = 11;
        config.trace_capacity = 0;
        let latr = LatrConfig {
            states_per_core: 4,
            ..LatrConfig::default()
        };
        let mut machine = Machine::new(config);
        machine.run(
            Box::new(SweepStorm::new(8, 6).with_sleep(0)),
            PolicyKind::Latr(latr).build(),
            SECOND,
        );
        machine.now()
    })
}

/// An address space shaped like a serving process at `depth` lazily
/// blocked ranges: 1- and 2-page buffers packed from the mmap floor with a
/// 1-page hole every 32 ranges (too small for the probe), then a few live
/// buffers past the run.
fn serving_mm(depth: usize) -> MmStruct {
    let mut mm = MmStruct::new(MmId(1));
    let mut at = mm.find_free_va(1).start;
    for i in 0..depth {
        if i % 32 == 16 {
            at = at.offset(1);
        }
        let range = VaRange::new(at, 1 + i as u64 % 2);
        mm.block_va(range);
        at = range.end();
    }
    for _ in 0..5 {
        mm.mmap_anon(2, Prot::READ_WRITE);
    }
    mm
}

/// The mmap-time search of the blocked-VA list at the depths serving
/// reaches (mean ~160, max ~300). The search walks the list's coverage
/// edges, not its ranges: the packed ranges cancel into one run per
/// 1-page hole, so a 2-page probe takes `depth / 32 + 1` steps past the
/// blocked runs, then the live buffers.
fn mm_find_free_va(quick: bool, depth: usize) -> Spread {
    let mm = serving_mm(depth);
    assert_eq!(mm.blocked_ranges().len(), depth);
    time(quick, 100_000, || mm.find_free_va(black_box(2)))
}

/// The cost the edge index moves into the list's updates: block the range
/// the next 2-page mmap would take, then unblock it (one munmap and one
/// reclamation) at serving depths.
fn mm_block_unblock(quick: bool, depth: usize) -> Spread {
    let mut mm = serving_mm(depth);
    let next = mm.find_free_va(2);
    time(quick, 50_000, || {
        mm.block_va(black_box(next));
        mm.unblock_va(&next)
    })
}

/// The oracle's side of one Latr sweep on the 120-core preset: publish a
/// state naming cpu1, then cpu1 sweeps it, with `live` other states live
/// (serving under the oracle peaks at ~3,100). The keyed state table
/// makes the sweep independent of the live count.
fn oracle_sweep(quick: bool, live: u64) -> Spread {
    let (cpu1, cpu2) = (CpuId(1), CpuId(2));
    let (only1, only2) = (CpuMask::from_cpus([cpu1]), CpuMask::from_cpus([cpu2]));
    let (mm, swept) = (MmId(1), VaRange::new(Vpn(0x10), 1));
    let publish = |range| Note::Publish {
        initiator: cpu2,
        mm,
        range,
        migration: false,
    };
    let mut oracle = CoherenceOracle::new(120);
    for i in 0..live {
        let range = VaRange::new(Vpn(0x1000 + i), 1);
        oracle.note(Time::ZERO, publish(range), Some(only2));
    }
    time(quick, 50_000, || {
        oracle.note(Time::ZERO, publish(swept), Some(only1));
        let sweep = Note::Sweep {
            cpu: cpu1,
            mm,
            range: black_box(swept),
        };
        oracle.note(Time::ZERO, sweep, None);
    })
}

/// A 64/1024-entry TLB holding pages `0..512`.
fn warm_tlb() -> Tlb {
    let mut tlb = Tlb::new(64, 1024);
    for v in 0..512u64 {
        tlb.insert(TlbEntry {
            pcid: PCID_NONE,
            vpn: v,
            pfn: v + 9000,
            writable: true,
        });
    }
    tlb
}

fn tlb_lookup_hit(quick: bool) -> Spread {
    let mut tlb = warm_tlb();
    let mut v = 0u64;
    time(quick, 200_000, || {
        v = (v + 1) % 512;
        tlb.lookup(PCID_NONE, black_box(v))
    })
}

fn tlb_insert(quick: bool) -> Spread {
    let mut tlb = warm_tlb();
    let mut v = 0u64;
    time(quick, 200_000, || {
        v = v.wrapping_add(1);
        tlb.insert(TlbEntry {
            pcid: PCID_NONE,
            vpn: v,
            pfn: v,
            writable: false,
        });
    })
}

/// The TLB layer in serving's shape on the 120-core preset: each
/// iteration gives every core's TLB one request — two cold misses
/// filled from the page walk, their invalidation at unmap, and three
/// invalidations of pages it never cached (the Latr sweeps of peer
/// requests). Request VPNs roll over the 512 pages above the mmap floor
/// that a serving address space's lazily blocked VA list cycles through,
/// beside 32 file pages per core that stay cached, so every set of all
/// 120 TLBs is in play and the row prices the layer's cache footprint as
/// well as its probes.
fn tlb_serving_request_120(quick: bool) -> Spread {
    const FLOOR: u64 = 0x5_5550;
    const SPREAD: u64 = 512;
    let topology = Topology::preset(MachinePreset::LargeNuma8S120C);
    let (l1, l2) = (
        topology.l1_dtlb_entries() as usize,
        topology.l2_tlb_entries() as usize,
    );
    let entry = |vpn: u64| TlbEntry {
        pcid: PCID_NONE,
        vpn,
        pfn: vpn ^ 0xF00,
        writable: true,
    };
    let mut tlbs: Vec<Tlb> = (0..topology.num_cpus() as u64)
        .map(|core| {
            let mut tlb = Tlb::new(l1, l2);
            for page in 0..32 {
                tlb.insert(entry(FLOOR + 0x1_0000 + core * 64 + page));
            }
            tlb
        })
        .collect();
    let mut round = 0u64;
    time(quick, 200, || {
        round += 1;
        for (core, tlb) in (0u64..).zip(tlbs.iter_mut()) {
            let v = FLOOR + (round * 2 + core * 37) % SPREAD;
            for vpn in [v, v + 1] {
                if tlb.lookup(PCID_NONE, vpn).is_none() {
                    tlb.insert(entry(vpn));
                }
            }
            for vpn in [v, v + 1] {
                tlb.invalidate_page(PCID_NONE, vpn);
            }
            for k in 1..=3 {
                tlb.invalidate_page(PCID_NONE, FLOOR + (v + 82 * k) % SPREAD);
            }
        }
    })
}

fn page_table_map_unmap(quick: bool) -> Spread {
    let mut pt = PageTable::new();
    let mut v = 0u64;
    time(quick, 200_000, || {
        v = v.wrapping_add(0x1003);
        pt.map(Vpn(v & 0xFFFF_FFFF), Pfn(v), PteFlags::default());
        pt.unmap(Vpn(v & 0xFFFF_FFFF))
    })
}

fn page_table_range_scan(quick: bool) -> Spread {
    let mut pt = PageTable::new();
    for i in 0..512u64 {
        pt.map(Vpn(0x100 + i), Pfn(i), PteFlags::default());
    }
    time(quick, 1_000, || {
        pt.mapped_in(&VaRange::new(Vpn(0x100), 512))
    })
}

fn ipi_multicast_schedule(quick: bool) -> Spread {
    let fabric = IpiFabric::new(
        Topology::preset(MachinePreset::LargeNuma8S120C),
        CostModel::calibrated(),
    );
    let targets = CpuMask::first_n(120);
    let mut deliveries = Vec::with_capacity(120);
    time(quick, 10_000, || {
        deliveries.clear();
        fabric.multicast(CpuId(0), &targets, Time::ZERO, &mut deliveries)
    })
}

fn histogram_record(quick: bool) -> Spread {
    let mut h = Histogram::new();
    let mut rng = SimRng::new(1);
    time(quick, 1_000_000, || {
        h.record(black_box(rng.below(1_000_000)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Quick mode times every row at least once, so no row can rot
    /// uncompiled or unrun.
    #[test]
    fn quick_mode_runs_every_row() {
        for (name, measure) in ROWS {
            let (s, hits) = measure.run(true);
            assert!(s.iters >= 1 && s.batches >= 1, "{name}: {s:?}");
            assert!(s.median.is_finite(), "{name}: {s:?}");
            assert!(
                hits.is_none_or(|h| h.is_finite() && h >= 0.0),
                "{name}: {hits:?}"
            );
        }
    }
}
