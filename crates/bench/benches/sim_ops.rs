//! Criterion benches of the simulation substrates: per-event costs that
//! determine how fast the experiment harness itself runs.

use criterion::{criterion_group, criterion_main, Criterion};
use latr_arch::{
    CostModel, CpuId, CpuMask, IpiFabric, MachinePreset, Tlb, TlbEntry, Topology, PCID_NONE,
};
use latr_mem::{PageTable, Pfn, PteFlags, VaRange, Vpn};
use latr_sim::{EventQueue, Histogram, SimRng, Time};
use std::hint::black_box;

fn bench_tlb(c: &mut Criterion) {
    let mut tlb = Tlb::new(64, 1024);
    for v in 0..512u64 {
        tlb.insert(TlbEntry {
            pcid: PCID_NONE,
            vpn: v,
            pfn: v + 9000,
            writable: true,
        });
    }
    let mut v = 0u64;
    c.bench_function("tlb_lookup_hit", |b| {
        b.iter(|| {
            v = (v + 1) % 512;
            black_box(tlb.lookup(PCID_NONE, black_box(v)))
        })
    });
    c.bench_function("tlb_insert", |b| {
        b.iter(|| {
            v = v.wrapping_add(1);
            tlb.insert(TlbEntry {
                pcid: PCID_NONE,
                vpn: v,
                pfn: v,
                writable: false,
            });
        })
    });
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
fn bench_tlb_serving_120(c: &mut Criterion) {
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
    c.bench_function("tlb_serving_request_120_cores", |b| {
        b.iter(|| {
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
    });
}

fn bench_page_table(c: &mut Criterion) {
    let mut pt = PageTable::new();
    let mut v = 0u64;
    c.bench_function("page_table_map_unmap", |b| {
        b.iter(|| {
            v = v.wrapping_add(0x1003);
            pt.map(Vpn(v & 0xFFFF_FFFF), Pfn(v), PteFlags::default());
            black_box(pt.unmap(Vpn(v & 0xFFFF_FFFF)));
        })
    });
    for i in 0..512u64 {
        pt.map(Vpn(0x100 + i), Pfn(i), PteFlags::default());
    }
    c.bench_function("page_table_range_scan_512", |b| {
        b.iter(|| black_box(pt.mapped_in(&VaRange::new(Vpn(0x100), 512))))
    });
}

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue_schedule_pop", |b| {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut t = 0u64;
        b.iter(|| {
            t += 1;
            q.schedule(Time::from_ns(t), t);
            black_box(q.pop())
        })
    });
}

fn bench_ipi_schedule(c: &mut Criterion) {
    let fabric = IpiFabric::new(
        Topology::preset(MachinePreset::LargeNuma8S120C),
        CostModel::calibrated(),
    );
    let targets = CpuMask::first_n(120);
    let mut deliveries = Vec::with_capacity(120);
    c.bench_function("ipi_multicast_schedule_120", |b| {
        b.iter(|| {
            deliveries.clear();
            black_box(fabric.multicast(CpuId(0), &targets, Time::ZERO, &mut deliveries))
        })
    });
}

fn bench_stats(c: &mut Criterion) {
    let mut h = Histogram::new();
    let mut rng = SimRng::new(1);
    c.bench_function("histogram_record", |b| {
        b.iter(|| h.record(black_box(rng.below(1_000_000))))
    });
}

criterion_group!(
    benches,
    bench_tlb,
    bench_tlb_serving_120,
    bench_page_table,
    bench_event_queue,
    bench_ipi_schedule,
    bench_stats
);
criterion_main!(benches);
