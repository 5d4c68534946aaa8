//! Concurrency stress for the lock-free runtime beyond what the crate's
//! unit tests cover: wide (multi-word) CPU masks exercising the CAS-based
//! retirement race, publisher/sweeper/reclaimer pipelines, and queue-slot
//! recycling under pressure. Every sweep loop goes through the `_into`
//! variants with a reused buffer — the steady state allocates nothing.

use latr_arch::{CpuId, CpuMask};
use latr_core::rt::{RtInvalidation, RtReclaimer, RtRegistry, ShardedReclaimer};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn inv(tag: u64) -> RtInvalidation {
    RtInvalidation {
        mm: tag,
        start: tag * 0x1000,
        end: tag * 0x1000 + 0x1000,
    }
}

/// The machine sizes the stress suite runs at (ISSUE 4): a 4-core
/// desktop, the paper's 16-core commodity box, and the 120-core NUMA
/// monster whose masks span two words. `wide_mask_retirement` adds a
/// 136-core shape on top so the three-word cross-word race stays
/// covered.
const SHAPES: [usize; 3] = [4, 16, 120];

/// Broadcast states to every other core, swept by the reference full
/// scan; the emptiness observation races across mask words at the larger
/// shapes, so retirement must stay exactly-once (the counter would
/// underflow loudly otherwise).
#[test]
fn wide_mask_retirement_is_exactly_once() {
    for cores in [4, 16, 120, 136] {
        wide_mask_retirement_at(cores, RtRegistry::full_scan_into);
    }
}

/// The same broadcast race driven through the runtime sweep's
/// pending-row drain: it must deliver each state to each target exactly
/// once at every shape too.
#[test]
fn wide_mask_retirement_is_exactly_once_via_pending_sweep() {
    for cores in [4, 16, 120, 136] {
        wide_mask_retirement_at(cores, RtRegistry::sweep_into);
    }
}

fn wide_mask_retirement_at(cores: usize, sweep: fn(&RtRegistry, usize, &mut Vec<RtInvalidation>)) {
    let registry = Arc::new(RtRegistry::new(cores, 128));
    let total = if cores >= 120 { 300u64 } else { 600u64 };

    // Targets: every core except 0.
    let mut others = CpuMask::first_n(cores);
    others.clear(CpuId(0));
    let publisher = {
        let r = Arc::clone(&registry);
        std::thread::spawn(move || {
            let mut published = 0u64;
            while published < total {
                if r.publish(0, inv(published), others).is_ok() {
                    published += 1;
                } else {
                    std::thread::yield_now();
                }
            }
        })
    };
    // Four sweeper threads, each responsible for a band of cores, all
    // reusing one sweep buffer for their whole lifetime.
    let done = Arc::new(AtomicBool::new(false));
    let sweepers: Vec<_> = (0..4)
        .map(|band| {
            let r = Arc::clone(&registry);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let my_cores: Vec<usize> = (1..cores).filter(|c| c % 4 == band).collect();
                let mut seen = vec![0u64; total as usize];
                let mut buf = Vec::new();
                loop {
                    let mut progress = false;
                    for &core in &my_cores {
                        buf.clear();
                        sweep(&r, core, &mut buf);
                        for w in &buf {
                            seen[w.mm as usize] += 1;
                            progress = true;
                        }
                    }
                    if !progress && done.load(Ordering::Acquire) {
                        // One final pass to drain stragglers.
                        for &core in &my_cores {
                            buf.clear();
                            sweep(&r, core, &mut buf);
                            for w in &buf {
                                seen[w.mm as usize] += 1;
                            }
                        }
                        break;
                    }
                    std::thread::yield_now();
                }
                seen
            })
        })
        .collect();
    publisher.join().expect("publisher");
    // Let the sweepers drain everything, then signal.
    loop {
        if registry.queue(0).active_count() == 0 {
            break;
        }
        std::thread::yield_now();
    }
    done.store(true, Ordering::Release);
    let mut per_state = vec![0u64; total as usize];
    for s in sweepers {
        for (i, n) in s.join().expect("sweeper").into_iter().enumerate() {
            per_state[i] += n;
        }
    }
    // Every state must have been delivered exactly once to each of the
    // `cores - 1` targets.
    for (i, &n) in per_state.iter().enumerate() {
        assert_eq!(
            n,
            (cores - 1) as u64,
            "state {i} delivered {n} times at {cores} cores"
        );
    }
    // Counter checks go through the unified stats snapshot (ISSUE 6):
    // same numbers, one consistent read, and a fault-free run must end
    // with every core live.
    let stats = registry.stats();
    assert_eq!(stats.states_saved, total);
    assert_eq!(stats.excluded_cores, 0);
    assert_eq!(registry.queue(0).active_count(), 0, "all slots recycled");
}

/// Full pipeline: publisher frees "objects" through the reclaimer while
/// sweepers tick; no object may be handed back before the tick frontier
/// reaches the due the engine itself stamped at deferral. Runs both
/// reclaimers, called directly: the reference `RtReclaimer` (mutexed
/// VecDeque + O(cores) scan, due `min_live_tick() + grace`) and the
/// runtime `ShardedReclaimer` (per-core FIFO + cached frontier, due
/// `tick_of(core) + grace`).
#[test]
fn reclaim_pipeline_respects_grace_under_concurrency() {
    for cores in SHAPES {
        // Fewer objects at the bigger shapes: the frontier needs every
        // one of `cores - 1` ticker threads to advance, so each object
        // costs more wall-clock as the machine grows.
        let total = match cores {
            0..=8 => 2_000u64,
            9..=32 => 800,
            _ => 150,
        };
        let reference = RtReclaimer::new(GRACE);
        reclaim_pipeline_at(
            cores,
            total,
            "reference",
            // Other cores may raise the minimum before `defer` reads it,
            // so the engine's due is at least this one.
            |r| r.min_live_tick() + GRACE,
            |r, item| reference.defer(r, item),
            |r, out| reference.collect_into(r, out),
        );
        let sharded = ShardedReclaimer::new(GRACE, cores);
        reclaim_pipeline_at(
            cores,
            total,
            "sharded",
            // Exactly the engine's due: only this thread ticks core 0.
            |r| r.tick_of(0) + GRACE,
            |r, item| sharded.defer(r, 0, item),
            |r, out| sharded.collect_into(r, 0, out),
        );
    }
}

/// The grace both engines wait, in sweep cycles (the paper's two).
const GRACE: u64 = 2;

/// Drives one reclaimer through the pipeline from core 0: `due` is the
/// tick the engine will release an object deferred now at, `defer` parks
/// an `(object, due)` pair, `collect_into` appends what is due.
fn reclaim_pipeline_at(
    cores: usize,
    total: u64,
    engine: &str,
    due: impl Fn(&RtRegistry) -> u64,
    defer: impl Fn(&RtRegistry, (u64, u64)),
    collect_into: impl Fn(&RtRegistry, &mut Vec<(u64, u64)>),
) {
    let registry = Arc::new(RtRegistry::new(cores, 256));
    let stop = Arc::new(AtomicBool::new(false));

    let tickers: Vec<_> = (1..cores)
        .map(|core| {
            let r = Arc::clone(&registry);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut buf = Vec::new();
                while !stop.load(Ordering::Acquire) {
                    buf.clear();
                    r.sweep_into(core, &mut buf);
                    std::thread::yield_now();
                }
            })
        })
        .collect();

    let mut collected = Vec::new();
    let mut released = Vec::new();
    // Collects what is due; the frontier must have reached each object's
    // due by then.
    let mut collect = |collected: &mut Vec<u64>| {
        released.clear();
        collect_into(&registry, &mut released);
        for &(obj, due) in &released {
            assert!(
                registry.min_tick() >= due,
                "{engine}: object {obj} released early: frontier {} due {due}",
                registry.min_tick(),
            );
            collected.push(obj);
        }
    };
    let mut sweep_buf = Vec::new();
    for i in 0..total {
        defer(&registry, (i, due(&registry)));
        sweep_buf.clear();
        registry.sweep_into(0, &mut sweep_buf);
        collect(&mut collected);
    }
    stop.store(true, Ordering::Release);
    for t in tickers {
        t.join().expect("ticker");
    }
    // Quiesce: the sharded engine stamps dues off the *publisher's* tick
    // (conservative), so every core must catch up to core 0 plus grace
    // before the stragglers become due. Each round sweeps every core once,
    // so the frontier steps through every value up to the target, and a
    // collect after each round sees the instant one tick before each
    // straggler's due: an engine releasing a tick early is caught here
    // even when the ticker threads lagged core 0 throughout the run.
    let target = registry.tick_of(0) + GRACE;
    while registry.min_tick() < target {
        collect(&mut collected);
        for core in 0..cores {
            sweep_buf.clear();
            registry.sweep_into(core, &mut sweep_buf);
        }
    }
    registry.advance_frontier();
    collect(&mut collected);
    assert_eq!(collected.len() as u64, total, "{cores} cores {engine}");
    assert!(collected.windows(2).all(|w| w[0] < w[1]), "FIFO order");
    // With no exclusions the live minimum and the all-core minimum are
    // the same frontier, and the cache never leads either.
    let stats = registry.stats();
    assert_eq!(stats.min_live_tick, stats.min_tick);
    assert!(stats.cached_frontier <= stats.min_live_tick);
    assert_eq!(stats.excluded_cores, 0);
}

/// Slot recycling: a tiny queue cycled many times must never deliver a
/// torn state (mm/start/end always belong together).
#[test]
fn recycled_slots_never_tear() {
    // The registry is sized to the shape but the race is always between
    // core 0 (publisher) and the machine's last core (sweeper): at 120
    // cores the target bit lives in the second mask word.
    for cores in SHAPES {
        let rounds = if cores >= 120 { 5_000u64 } else { 20_000 };
        recycled_slots_at(cores, rounds);
    }
}

fn recycled_slots_at(cores: usize, rounds: u64) {
    let registry = Arc::new(RtRegistry::new(cores, 2));
    let target = cores - 1;
    let sweeper = {
        let r = Arc::clone(&registry);
        std::thread::spawn(move || {
            let mut delivered = 0u64;
            let mut buf = Vec::new();
            while delivered < rounds {
                buf.clear();
                r.sweep_into(target, &mut buf);
                for w in &buf {
                    // Consistency of the payload triple.
                    assert_eq!(w.start, w.mm * 0x1000, "torn state {w:?}");
                    assert_eq!(w.end, w.mm * 0x1000 + 0x1000, "torn state {w:?}");
                    delivered += 1;
                }
                std::thread::yield_now();
            }
        })
    };
    let targets = CpuMask::from_cpus([CpuId(target as u16)]);
    let mut published = 0u64;
    while published < rounds {
        if registry.publish(0, inv(published), targets).is_ok() {
            published += 1;
        } else {
            std::thread::yield_now();
        }
    }
    sweeper.join().expect("sweeper");
    let stats = registry.stats();
    assert_eq!(stats.states_saved, rounds, "{cores} cores");
    assert_eq!(stats.excluded_cores, 0);
}
