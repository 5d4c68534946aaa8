//! Criterion benches of the lock-free Latr runtime — the real-hardware
//! counterpart of Table 5: a state saved and drained by three sweeps
//! (paper: 132.3 ns to save), a state sweep (paper: 158.0 ns), and a
//! synchronous cross-thread "shootdown" baseline (paper: 1594.2 ns for
//! Linux's IPI round).

use criterion::{criterion_group, criterion_main, Criterion};
use latr_arch::{CpuId, CpuMask};
use latr_core::rt::{
    CachePadded, RtInvalidation, RtRegistry, ShardedReclaimer, SoftTlb, SoftTlbTable,
};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

fn inv() -> RtInvalidation {
    RtInvalidation {
        mm: 1,
        start: 0x4_0000,
        end: 0x4_1000,
    }
}

/// One publish to three targets plus the three sweeps that drain it, so
/// the queue never fills: the row is a full state round trip, not a
/// save alone.
fn bench_publish(c: &mut Criterion) {
    let registry = RtRegistry::new(4, 64);
    let targets = CpuMask::from_cpus([1, 2, 3].map(CpuId));
    let mut drained = Vec::new();
    c.bench_function("rt_publish_and_drain_3_sweeps", |b| {
        b.iter(|| {
            let idx = registry.publish(0, black_box(inv()), targets).unwrap();
            drained.clear();
            for core in 1..4 {
                registry.sweep_into(core, &mut drained);
            }
            black_box((idx, &drained));
        })
    });
}

fn bench_sweep_hit(c: &mut Criterion) {
    let registry = RtRegistry::new(2, 64);
    let core_1 = CpuMask::from_cpus([CpuId(1)]);
    c.bench_function("rt_sweep_one_hit (Table 5: sweep ~158ns)", |b| {
        b.iter(|| {
            registry.publish(0, inv(), core_1).unwrap();
            black_box(registry.sweep(1));
        })
    });
}

fn bench_sweep_empty(c: &mut Criterion) {
    let registry = RtRegistry::new(16, 64);
    c.bench_function("rt_sweep_empty_16_queues", |b| {
        b.iter(|| black_box(registry.sweep(5)))
    });
}

fn bench_reclaimer(c: &mut Criterion) {
    let registry = RtRegistry::new(2, 64);
    let reclaimer: ShardedReclaimer<u64> = ShardedReclaimer::new(2, 2);
    c.bench_function("rt_reclaim_defer_collect", |b| {
        b.iter(|| {
            reclaimer.defer(&registry, 0, black_box(7));
            registry.sweep(0);
            registry.sweep(1);
            registry.sweep(0);
            registry.sweep(1);
            black_box(reclaimer.collect(&registry, 0));
        })
    });
}

fn bench_soft_tlb(c: &mut Criterion) {
    let registry = Arc::new(RtRegistry::new(2, 64));
    let table = Arc::new(SoftTlbTable::new(registry));
    for k in 0..256 {
        table.map_key(k, k + 1000);
    }
    let mut tlb = SoftTlb::new(1, Arc::clone(&table));
    for k in 0..256 {
        tlb.lookup(k);
    }
    let mut k = 0u64;
    c.bench_function("soft_tlb_cached_lookup", |b| {
        b.iter(|| {
            k = (k + 1) % 256;
            black_box(tlb.lookup(black_box(k)))
        })
    });
}

/// The contended shapes (ISSUE 5): N publisher threads hammer one
/// sweeper's queue set while the measured thread sweeps. This is the
/// regime the sharded/padded work targets — the interesting number is
/// how much the sweep degrades versus `rt_sweep_one_hit`'s quiet run.
fn bench_contended_sweep(c: &mut Criterion) {
    for publishers in [2usize, 6] {
        let cores = publishers + 1;
        let registry = Arc::new(RtRegistry::new(cores, 256));
        let sweeper = CpuMask::from_cpus([CpuId(0)]);
        let stop = Arc::new(AtomicBool::new(false));
        let threads: Vec<_> = (1..cores)
            .map(|core| {
                let r = Arc::clone(&registry);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        // Target only the sweeper (core 0); on overflow
                        // spin until it drains.
                        let _ = r.publish(core, inv(), sweeper);
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        let mut buf = Vec::new();
        c.bench_function(
            &format!("rt_sweep_contended_{publishers}_publishers"),
            |b| {
                b.iter(|| {
                    buf.clear();
                    registry.sweep_into(0, &mut buf);
                    black_box(buf.len())
                })
            },
        );
        stop.store(true, Ordering::Relaxed);
        for t in threads {
            let _ = t.join();
        }
    }
}

/// Padded vs unpadded per-core tick counters: neighbours hammer the
/// adjacent counters while the measured thread bumps its own. With the
/// unpadded layout all 8 counters share one or two cache lines, so every
/// neighbour bump steals the measured core's line (false sharing); the
/// padded layout keeps the measured counter's line private.
fn bench_tick_counter_padding(c: &mut Criterion) {
    const NEIGHBOURS: usize = 3;

    fn run<T: Send + Sync + 'static>(
        c: &mut Criterion,
        name: &str,
        counters: Arc<Vec<T>>,
        slot: fn(&T) -> &AtomicU64,
    ) {
        let stop = Arc::new(AtomicBool::new(false));
        let threads: Vec<_> = (1..=NEIGHBOURS)
            .map(|i| {
                let counters = Arc::clone(&counters);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        slot(&counters[i]).fetch_add(1, Ordering::Release);
                    }
                })
            })
            .collect();
        c.bench_function(name, |b| {
            b.iter(|| slot(&counters[0]).fetch_add(1, Ordering::Release))
        });
        stop.store(true, Ordering::Relaxed);
        for t in threads {
            let _ = t.join();
        }
    }

    let unpadded: Arc<Vec<AtomicU64>> =
        Arc::new((0..=NEIGHBOURS).map(|_| AtomicU64::new(0)).collect());
    run(c, "tick_counter_unpadded_contended", unpadded, |s| s);

    let padded: Arc<Vec<CachePadded<AtomicU64>>> = Arc::new(
        (0..=NEIGHBOURS)
            .map(|_| CachePadded::new(AtomicU64::new(0)))
            .collect(),
    );
    run(c, "tick_counter_padded_contended", padded, |s| s);
}

/// The synchronous baseline: wake a remote thread and wait for its ACK —
/// the user-space analogue of an IPI + ACK round (the cost Latr removes
/// from the critical path).
fn bench_sync_shootdown_baseline(c: &mut Criterion) {
    let state = Arc::new((Mutex::new(0u32), Condvar::new()));
    let stop = Arc::new(AtomicBool::new(false));
    let acks = Arc::new(AtomicU64::new(0));
    let remote = {
        let state = Arc::clone(&state);
        let stop = Arc::clone(&stop);
        let acks = Arc::clone(&acks);
        std::thread::spawn(move || {
            let (lock, cv) = &*state;
            let mut guard = lock.lock().unwrap();
            loop {
                while *guard != 1 {
                    if stop.load(Ordering::Relaxed) {
                        return;
                    }
                    let (g, _) = cv
                        .wait_timeout(guard, std::time::Duration::from_millis(50))
                        .unwrap();
                    guard = g;
                }
                // "Invalidate" and ACK.
                *guard = 0;
                acks.fetch_add(1, Ordering::Release);
                cv.notify_all();
            }
        })
    };
    c.bench_function("sync_shootdown_baseline (Table 5: linux ~1594ns)", |b| {
        b.iter(|| {
            let (lock, cv) = &*state;
            let before = acks.load(Ordering::Acquire);
            {
                let mut guard = lock.lock().unwrap();
                *guard = 1;
                cv.notify_all();
            }
            while acks.load(Ordering::Acquire) == before {
                std::hint::spin_loop();
            }
        })
    });
    stop.store(true, Ordering::Relaxed);
    state.1.notify_all();
    let _ = remote.join();
}

criterion_group!(
    benches,
    bench_publish,
    bench_sweep_hit,
    bench_sweep_empty,
    bench_reclaimer,
    bench_soft_tlb,
    bench_contended_sweep,
    bench_tick_counter_padding,
    bench_sync_shootdown_baseline
);
criterion_main!(benches);
