//! Criterion regression gate for the simulator's hot paths: the publish
//! probe, the sweep tick, the overflow fallback, the event queue, the
//! blocked-VA search and the oracle's sweep. The rt sweep tick is also
//! measured on its public full-scan spec, a visible record of what the
//! pending row buys; `cargo bench -p latr-bench --bench hotpath` prints
//! both.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use latr_arch::{CpuMask, MachinePreset, Topology};
use latr_core::rt::{RtInvalidation, RtRegistry};
use latr_core::{LatrConfig, LatrState, StateKind, StateQueue};
use latr_kernel::MachineConfig;
use latr_mem::{MmId, MmStruct, Prot, VaRange, Vpn};
use latr_sim::{EventQueue, Time, SECOND};
use latr_verify::CoherenceOracle;
use latr_workloads::{PolicyKind, SweepStorm};

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
fn bench_state_queue_publish(c: &mut Criterion) {
    let mut q = StateQueue::new(64);
    let targets = CpuMask::from_cpus([latr_arch::CpuId(1)]);
    // Half the slots stay occupied so every probe has words to skip.
    for i in 0..32 {
        q.publish(state(i, CpuMask::first_n(2))).unwrap();
    }
    let mut id = 100u64;
    c.bench_function("state_queue_publish_retire_half_full", |b| {
        b.iter(|| {
            id += 1;
            q.publish(state(id, targets)).unwrap();
            // Sweep cpu 1 and retire, so occupancy returns to 32 for the
            // next probe (the standing states also name cpu 0 and stay).
            q.clear_cpu_everywhere(latr_arch::CpuId(1));
            black_box(q.retire_completed())
        })
    });
}

/// One scheduler tick's sweep on a busy 120-core machine, fast
/// (`sweep_into`'s pending-row drain) vs reference (`full_scan_into`
/// over all 120 queues): the O(cores²·slots) term the pending row
/// removes, measured at the rt layer where the runtime sweep and its
/// spec are both public.
fn bench_rt_sweep_tick(c: &mut Criterion) {
    let cores = 120;
    for (name, pending) in [
        ("rt_sweep_tick_120c_fast_pending", true),
        ("rt_sweep_tick_120c_reference_scan", false),
    ] {
        let registry = RtRegistry::new(cores, 64);
        let core_1 = CpuMask::from_cpus([latr_arch::CpuId(1)]);
        let mut buf = Vec::with_capacity(1);
        c.bench_function(name, |b| {
            b.iter(|| {
                // One state targeted at core 1, then core 1's tick.
                registry
                    .publish(
                        0,
                        RtInvalidation {
                            mm: 7,
                            start: 0x1000,
                            end: 0x2000,
                        },
                        core_1,
                    )
                    .unwrap();
                buf.clear();
                if pending {
                    registry.sweep_into(1, &mut buf);
                } else {
                    registry.full_scan_into(1, &mut buf);
                }
                black_box(buf.len())
            })
        });
    }
}

/// The event queue under the simulator's actual access pattern —
/// schedule near-future, pop earliest.
fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue_fast_calendar", |b| {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut t = 0u64;
        // A standing population, as in a live machine.
        for i in 0..256 {
            q.schedule(Time::from_ns(i * 37), i);
        }
        b.iter(|| {
            t += 211;
            q.schedule(Time::from_ns(t), t);
            black_box(q.pop())
        })
    });
}

/// An end-to-end sweep-heavy machine run: the number the `hotpath`
/// binary reports, in regression-gate form.
fn bench_machine_sweep_storm(c: &mut Criterion) {
    c.bench_function("machine_sweep_storm_16c_fast", |b| {
        b.iter(|| {
            let mut config = MachineConfig::new(Topology::preset(MachinePreset::Commodity2S16C));
            config.seed = 7;
            config.trace_capacity = 0;
            let mut machine = latr_kernel::Machine::new(config);
            machine.run(
                Box::new(SweepStorm::new(16, 3)),
                PolicyKind::Latr(LatrConfig::default()).build(),
                SECOND,
            );
            black_box(machine.now())
        })
    });
}

/// The overflow→IPI fallback under pressure: a 4-slot queue driven past
/// capacity every round, covering the adaptive enter/exit hysteresis.
fn bench_machine_overflow_fallback(c: &mut Criterion) {
    c.bench_function("machine_overflow_fallback_8c", |b| {
        b.iter(|| {
            let mut config = MachineConfig::new(Topology::preset(MachinePreset::Commodity2S16C));
            config.seed = 11;
            config.trace_capacity = 0;
            let latr = LatrConfig {
                states_per_core: 4,
                ..LatrConfig::default()
            };
            let mut machine = latr_kernel::Machine::new(config);
            machine.run(
                Box::new(SweepStorm::new(8, 6).with_sleep(0)),
                PolicyKind::Latr(latr).build(),
                SECOND,
            );
            black_box(machine.now())
        })
    });
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
fn bench_mm_find_free_va(c: &mut Criterion) {
    for depth in [0, 160, 300] {
        let mm = serving_mm(depth);
        assert_eq!(mm.blocked_ranges().len(), depth);
        c.bench_function(&format!("mm_find_free_va_depth_{depth}"), |b| {
            b.iter(|| black_box(mm.find_free_va(black_box(2))))
        });
    }
}

/// The cost the edge index moves into the list's updates: block the range
/// the next 2-page mmap would take, then unblock it — one munmap and one
/// reclamation — at serving depths.
fn bench_mm_block_unblock(c: &mut Criterion) {
    for depth in [160, 300] {
        let mut mm = serving_mm(depth);
        let next = mm.find_free_va(2);
        c.bench_function(&format!("mm_block_unblock_depth_{depth}"), |b| {
            b.iter(|| {
                mm.block_va(black_box(next));
                black_box(mm.unblock_va(&next))
            })
        });
    }
}

/// The oracle's side of one Latr sweep on the 120-core preset: publish a
/// state naming cpu1, then cpu1 sweeps it, with 0 or 3,000 other states
/// live (serving under the oracle peaks at ~3,100). The keyed state table
/// makes the sweep independent of the live count.
fn bench_oracle_sweep(c: &mut Criterion) {
    let (cpu1, cpu2) = (latr_arch::CpuId(1), latr_arch::CpuId(2));
    let (only1, only2) = (CpuMask::from_cpus([cpu1]), CpuMask::from_cpus([cpu2]));
    let swept = VaRange::new(Vpn(0x10), 1);
    for live in [0u64, 3000] {
        let mut oracle = CoherenceOracle::new(120);
        for i in 0..live {
            let range = VaRange::new(Vpn(0x1000 + i), 1);
            oracle.note_publish(cpu2, MmId(1), range, only2, false, Time::ZERO);
        }
        c.bench_function(&format!("oracle_sweep_live_{live}"), |b| {
            b.iter(|| {
                oracle.note_publish(cpu2, MmId(1), swept, only1, false, Time::ZERO);
                oracle.note_sweep(cpu1, MmId(1), black_box(swept), Time::ZERO);
            })
        });
    }
}

criterion_group!(
    benches,
    bench_state_queue_publish,
    bench_rt_sweep_tick,
    bench_event_queue,
    bench_machine_sweep_storm,
    bench_machine_overflow_fallback,
    bench_mm_find_free_va,
    bench_mm_block_unblock,
    bench_oracle_sweep
);
criterion_main!(benches);
