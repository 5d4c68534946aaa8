//! The rt scaling benchmark behind `BENCH_rt_scale.json`.
//!
//! Unlike the simulator benches, this one runs *real* `std::thread`
//! threads — one per "core" at 4, 16, 64 and 120 — through the
//! munmap-heavy [`crate::rt_loop`] worker loop, fault-free. Two engines
//! are compared:
//!
//! * **`lazy-sharded`** — the rt runtime stack: pending-row sweep and
//!   `ShardedReclaimer` (per-core FIFO shards gated on the cached
//!   reclamation frontier). The full-scan sweep and the mutexed
//!   `RtReclaimer` are executable specs for the tests, not engines here.
//! * **`sync-ipi`** — the synchronous baseline Latr removes: every unmap
//!   rendezvouses with every other thread through per-thread padded
//!   mailboxes (request/ack sequence numbers) before returning.
//!
//! Every lazy run carries the loop's reclamation **canary**: with no
//! core excluded it checks sampled collects against the ground truth
//! `min_tick() ≥ due`. A trip means the cached frontier (or a shard)
//! released memory while some core could still hold a stale
//! translation, and the bench fails rather than report a tainted speedup.
//!
//! The machine running this is almost certainly smaller than 120
//! hardware threads; the point of the oversubscribed shapes is the
//! *contention structure* (lazy sweeps vs a rendezvous with every other
//! thread), which oversubscription amplifies rather than hides.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

use latr_core::rt::sync::RwLock;
use latr_core::rt::CachePadded;

use crate::bench::Report;
use crate::report::{each, percentile, row, Float, Object, Rows};
use crate::rt_loop::{run_window, Rig, ThreadStats, GRACE, KEYSPACE, LOOKUPS_PER_ROUND};

/// Runs both engines at every thread count.
pub(crate) fn run(quick: bool) -> Report {
    let shapes = rt_scale_threads(quick)
        .iter()
        .flat_map(|&threads| ENGINES.map(|engine| (engine, threads)));
    let points = each(
        shapes,
        |(engine, threads)| run_rt_scale_point(engine, threads, rt_scale_duration(quick, threads)),
        point_row,
    );
    let why = "canary violated: an item was reclaimed before its grace elapsed; the run is unsafe";
    Report::new(rt_scale_json(&points, quick), canary_passed(&points), why)
}

/// What one engine's window measured: each thread's tallies, the
/// window's wall-clock ns, whether the canary held, and the publishes
/// refused on a full queue.
type Window = (Vec<ThreadStats>, u128, bool, u64);

/// An engine: its label and the function that runs it on `threads`
/// threads for a window.
type Engine = (&'static str, fn(usize, Duration) -> Window);

/// The engines the benchmark compares, in report order.
const ENGINES: [Engine; 2] = [("lazy-sharded", run_lazy), ("sync-ipi", run_sync)];

/// One engine × thread-count measurement.
#[derive(Clone, Debug, Default)]
struct RtScalePoint {
    /// Engine label.
    engine: &'static str,
    /// Real OS threads driven.
    threads: usize,
    /// Wall-clock nanoseconds for the measured window.
    wall_ns: u128,
    /// Lookups + unmaps completed across all threads.
    ops: u64,
    /// Unmap rounds completed.
    unmaps: u64,
    /// Publishes refused on a full queue (lazy engine only).
    overflows: u64,
    /// Items the reclaimer handed back during the window.
    collected: u64,
    /// `ops` per wall-clock second — the headline number.
    ops_per_sec: f64,
    /// Median sampled sweep latency (ns; 0 for sync-ipi).
    sweep_p50_ns: u64,
    /// 99th-percentile sampled sweep latency (ns; 0 for sync-ipi).
    sweep_p99_ns: u64,
    /// Mean ticks between an item's due and its collection.
    reclaim_lag_ticks: f64,
    /// Whether every collected item passed the ground-truth due check.
    canary_ok: bool,
}

/// The thread counts a run measures.
fn rt_scale_threads(quick: bool) -> &'static [usize] {
    if quick {
        &[4, 16]
    } else {
        &[4, 16, 64, 120]
    }
}

/// The measured window per (engine, shape) point. Oversubscribed shapes
/// get a longer window so every thread still sees meaningful CPU time —
/// otherwise OS scheduling noise drowns the engine difference.
fn rt_scale_duration(quick: bool, threads: usize) -> Duration {
    let base = if quick { 80 } else { 400 };
    Duration::from_millis(base * (threads as u64).div_ceil(32).max(1))
}

/// Runs `worker` on `threads` threads for `duration`; returns each
/// thread's tallies and the window's wall-clock ns.
fn measure(
    threads: usize,
    duration: Duration,
    stop: &AtomicBool,
    worker: impl Fn(usize) -> ThreadStats + Sync,
) -> (Vec<ThreadStats>, u128) {
    let ((), joined, wall_ns) = run_window(threads, duration, stop, worker, || ());
    let per_thread = joined.into_iter().map(|r| r.expect("bench thread"));
    (per_thread.collect(), wall_ns)
}

/// Runs one (engine, thread-count) point for `duration` and measures it.
fn run_rt_scale_point(
    (engine, window): Engine,
    threads: usize,
    duration: Duration,
) -> RtScalePoint {
    let (per_thread, wall_ns, canary_ok, overflows) = window(threads, duration);
    let t = ThreadStats::total(per_thread);
    RtScalePoint {
        engine,
        threads,
        wall_ns,
        ops: t.ops,
        unmaps: t.unmaps,
        overflows,
        collected: t.collected,
        ops_per_sec: t.ops as f64 * 1e9 / wall_ns as f64,
        sweep_p50_ns: percentile(&t.sweep_ns, 0.50),
        sweep_p99_ns: percentile(&t.sweep_ns, 0.99),
        reclaim_lag_ticks: if t.lag.is_empty() {
            0.0
        } else {
            t.lag.iter().sum::<u64>() as f64 / t.lag.len() as f64
        },
        canary_ok,
    }
}

/// The rt runtime stack, run through the shared worker loop.
fn run_lazy(threads: usize, duration: Duration) -> Window {
    let rig = Rig::new(threads, None);
    let worker = |core| rig.worker(core, None).0;
    let (per_thread, wall_ns) = measure(threads, duration, &rig.stop, worker);
    // Queue-side counters come from the registry's unified snapshot; a
    // fault-free run also ends with no core excluded.
    let reg_stats = rig.registry.stats();
    debug_assert_eq!(reg_stats.excluded_cores, 0);
    let canary_ok = rig.canary_ok.load(Ordering::Acquire);
    (per_thread, wall_ns, canary_ok, reg_stats.overflows)
}

/// One thread's shootdown mailbox: request/ack sequence numbers on their
/// own cache lines (the rendezvous is the point, not the line ping-pong).
struct Mailbox {
    req: CachePadded<AtomicU64>,
    ack: CachePadded<AtomicU64>,
}

/// Per-request handler cost the user-space mailbox cannot model on its
/// own: a real shootdown *interrupts* the target core — the paper's
/// Linux baseline pays ~1.6µs per IPI round (Table 5), most of it
/// interrupt entry/exit that a user-space atomic exchange simply does
/// not have. Each serviced request spins for roughly that entry/exit
/// cost; without it, oversubscription makes the baseline unrealistically
/// cheap (a blocked initiator costs nothing globally when the OS just
/// schedules another thread over it).
const IPI_HANDLER_SPINS: u32 = 400;

fn service_mailbox(mailbox: &Mailbox, cache: &mut HashMap<u64, u64>) {
    let r = mailbox.req.load(Ordering::Acquire);
    let mut a = mailbox.ack.load(Ordering::Relaxed);
    while a < r {
        // One interrupt per outstanding request: entry/exit cost, then
        // the handler's full-flush fallback, then the ack.
        for _ in 0..IPI_HANDLER_SPINS {
            std::hint::spin_loop();
        }
        cache.clear();
        a += 1;
        mailbox.ack.store(a, Ordering::Release);
    }
}

/// Synchronous mailbox rendezvous on every unmap.
fn run_sync(threads: usize, duration: Duration) -> Window {
    let table: RwLock<HashMap<u64, u64>> = RwLock::new(HashMap::new());
    for k in 0..KEYSPACE {
        table.write().insert(k, k + 1000);
    }
    let mailboxes: Vec<Mailbox> = (0..threads)
        .map(|_| Mailbox {
            req: CachePadded::new(AtomicU64::new(0)),
            ack: CachePadded::new(AtomicU64::new(0)),
        })
        .collect();
    let stop = AtomicBool::new(false);
    let worker = |core: usize| {
        let mut cache: HashMap<u64, u64> = HashMap::new();
        let mut stats = ThreadStats::default();
        let mut expected = vec![0u64; threads];
        let mut round = 0u64;
        while !stop.load(Ordering::Relaxed) {
            service_mailbox(&mailboxes[core], &mut cache);
            for i in 0..LOOKUPS_PER_ROUND {
                let key = (round.wrapping_mul(7) + i) % KEYSPACE;
                let hit = match cache.get(&key) {
                    Some(&v) => Some(v),
                    None => {
                        let v = table.read().get(&key).copied();
                        if let Some(v) = v {
                            cache.insert(key, v);
                        }
                        v
                    }
                };
                black_box(hit);
            }
            stats.ops += LOOKUPS_PER_ROUND;
            let key = (core as u64).wrapping_mul(31).wrapping_add(round) % KEYSPACE;
            table.write().remove(&key);
            cache.remove(&key);
            // The synchronous shootdown: bump every other thread's request
            // line, then spin until each has acked — servicing our own
            // mailbox meanwhile so two publishers can't deadlock each other.
            for (t, exp) in expected.iter_mut().enumerate() {
                if t != core {
                    *exp = mailboxes[t].req.fetch_add(1, Ordering::AcqRel) + 1;
                }
            }
            let mut acked = true;
            'wait: for t in (0..threads).filter(|&t| t != core) {
                while mailboxes[t].ack.load(Ordering::Acquire) < expected[t] {
                    service_mailbox(&mailboxes[core], &mut cache);
                    if stop.load(Ordering::Relaxed) {
                        acked = false;
                        break 'wait;
                    }
                    std::thread::yield_now();
                }
            }
            // Reclamation is immediate once everyone acked.
            table.write().insert(key, key + 1000);
            if acked {
                stats.unmaps += 1;
                stats.ops += 1;
            }
            round = round.wrapping_add(1);
        }
        stats
    };
    let (per_thread, wall_ns) = measure(threads, duration, &stop, worker);
    (per_thread, wall_ns, true, 0)
}

/// Whether every point's canary held.
fn canary_passed(points: &[RtScalePoint]) -> bool {
    points.iter().all(|p| p.canary_ok)
}

/// One point's row of the document.
fn point_row(p: &RtScalePoint) -> Object {
    row!(p; engine, threads, wall_ns, ops, unmaps, overflows, collected, ops_per_sec: 1,
            sweep_p50_ns, sweep_p99_ns, reclaim_lag_ticks: 2, canary_ok)
}

/// The measurement set as the `BENCH_rt_scale.json` document.
fn rt_scale_json(points: &[RtScalePoint], quick: bool) -> Object {
    // lazy-sharded ops/sec ÷ sync-ipi's, per thread count.
    let engine = |name: &'static str| points.iter().filter(move |p| p.engine == name);
    let lazy_vs_sync = engine("lazy-sharded").filter_map(|lazy| {
        let sync = engine("sync-ipi").find(|s| s.threads == lazy.threads)?;
        let ratio = lazy.ops_per_sec / sync.ops_per_sec.max(1e-9);
        Some((format!("lazy_vs_sync_at_{}", lazy.threads), Float(ratio, 2)))
    });
    Object::new()
        .field("bench", "rt_scale")
        .field("workload", "munmap-heavy soft-tlb loop")
        .field("quick", quick)
        .field("grace_ticks", GRACE)
        .field("points", Rows::of(points, point_row))
        .field("canary_passed", canary_passed(points))
        .fields(lazy_vs_sync)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(
        engine: &'static str,
        threads: usize,
        ops_per_sec: f64,
        canary_ok: bool,
    ) -> RtScalePoint {
        RtScalePoint {
            engine,
            threads,
            ops_per_sec,
            canary_ok,
            ..RtScalePoint::default()
        }
    }

    #[test]
    fn canary_failure_is_reported() {
        let healthy = [
            point("lazy-sharded", 16, 400.0, true),
            point("sync-ipi", 16, 50.0, true),
        ];
        let json = rt_scale_json(&healthy, true).render();
        assert!(json.contains("\"canary_passed\": true"));
        assert!(json.contains("\"lazy_vs_sync_at_16\": 8.00"));
        let points = [point("lazy-sharded", 4, 1.0, false)];
        assert!(!canary_passed(&points));
        let json = rt_scale_json(&points, false).render();
        assert!(json.contains("\"canary_passed\": false"));
        assert!(
            !json.contains("lazy_vs_sync"),
            "no sync-ipi point to pair with"
        );
    }

    #[test]
    fn tiny_live_run_on_every_engine() {
        for engine in ENGINES {
            let p = run_rt_scale_point(engine, 3, Duration::from_millis(25));
            assert_eq!(p.threads, 3);
            assert!(p.ops > 0, "{} did no work", p.engine);
            assert!(p.canary_ok, "{} tripped the canary", p.engine);
            if p.engine != "sync-ipi" {
                assert!(p.unmaps > 0, "{} never unmapped", p.engine);
                assert!(p.sweep_p99_ns >= p.sweep_p50_ns);
            }
        }
    }
}
