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
    bench_page_table,
    bench_event_queue,
    bench_ipi_schedule,
    bench_stats
);
criterion_main!(benches);
