//! The long-running robustness soak behind `BENCH_soak.json`.
//!
//! Where `rt_scale` measures *throughput* of a healthy runtime, the soak
//! measures *survival* of a faulted one: real worker threads drive the
//! same munmap-heavy soft-TLB loop ([`crate::rt_loop`]) for seconds to
//! minutes while a seeded [`ThreadFaultInjector`] stalls sweepers, drops
//! publish wakeups, suppresses frontier announces, and kills threads
//! outright — one by panic mid-sweep (exercising the [`SweepGuard`]
//! panic fence), one by silent exit (exercising the [`FrontierWatchdog`]
//! path). A monitor thread plays the role of a kernel housekeeping
//! timer: it runs the watchdog scan and books death recoveries and stuck
//! exclusions for the report. Every point runs the one rt runtime stack
//! (labelled `sharded`: pending-row sweep, `ShardedReclaimer`, cached
//! frontier) at the fixed grace [`GRACE`]; nothing is retuned during a
//! run.
//!
//! Every run is gated by the loop's ground-truth canary, whose exclusion
//! epoch makes windows spanning an exclusion or rejoin skip only the
//! *strict* check (the structural guarantees are still loom/proptest
//! checked). A trip means memory was handed back while a live core could
//! still hold a stale translation, and the soak fails.
//!
//! Pass criteria ([`soak_passed`]): zero canary trips, every *fired*
//! thread death excluded within the recovery bound ([`soak_timeouts`]),
//! and no live core stuck excluded past that same bound (a healthy
//! excluded core rejoins on its very next tick).
//!
//! [`SweepGuard`]: latr_core::rt::SweepGuard
//! [`FrontierWatchdog`]: latr_core::rt::FrontierWatchdog

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use latr_faults::{ThreadFaultInjector, ThreadFaultPlan};

use crate::bench::Report;
use crate::report::{each, percentile, row, Object, Rows};
use crate::rt_loop::{run_window, Rig, ThreadStats, GRACE};

/// Monitor (watchdog scan) cadence.
const MONITOR_PERIOD: Duration = Duration::from_millis(25);

/// Soaks every thread count.
pub(crate) fn run(quick: bool) -> Report {
    let points = each(
        soak_threads(quick),
        |&threads| {
            let seed = 0xA5_0AC + threads as u64;
            run_soak_point(threads, soak_duration(quick), soak_plan(threads), seed)
        },
        point_row,
    );
    let why = "canary trip, unrecovered thread death, or stuck exclusion";
    Report::new(soak_json(&points, quick), soak_passed(&points), why)
}

/// One thread-count soak measurement.
#[derive(Clone, Debug, Default)]
struct SoakPoint {
    /// Engine label (always `sharded`, so rows pair with earlier files).
    engine: &'static str,
    /// Real OS threads driven.
    threads: usize,
    /// Wall-clock nanoseconds for the measured window.
    wall_ns: u128,
    /// Lookups + unmaps completed across all threads.
    ops: u64,
    /// Loop rounds completed across all threads.
    rounds: u64,
    /// Unmap rounds completed.
    unmaps: u64,
    /// Items the reclaimer handed back.
    collected: u64,
    /// Publishes refused on a full queue (from the registry snapshot).
    overflows: u64,
    /// `overflows / (overflows + states_saved)`.
    overflow_rate: f64,
    /// Median sampled reclaim lag (ticks past due at collection).
    reclaim_lag_p50: u64,
    /// 99th-percentile sampled reclaim lag.
    reclaim_lag_p99: u64,
    /// Maximum sampled reclaim lag.
    reclaim_lag_max: u64,
    /// Whether every sampled collect passed the ground-truth due check.
    canary_ok: bool,
    /// Scheduled deaths that actually fired during the window.
    deaths_fired: usize,
    /// Fired deaths whose core the runtime excluded.
    deaths_recovered: usize,
    /// Worst death-to-exclusion latency, in milliseconds.
    max_recovery_ms: f64,
    /// The bound `max_recovery_ms` is held to.
    recovery_bound_ms: f64,
    /// Watchdog exclusions of stalled (not dead) cores.
    stall_exclusions: u64,
    /// Panic-fence poisons (should cover exactly the panic deaths).
    panic_poisons: u64,
    /// Excluded cores that flushed and rejoined — every one of these is
    /// a recovered frontier stall.
    frontier_stall_recoveries: u64,
    /// Undelivered states reaped from dead cores' queue slots.
    reaped_states: u64,
    /// Live (non-dead) cores that stayed excluded past the recovery
    /// bound without rejoining — a genuine stuck frontier stall, as
    /// observed by the monitor during the window (teardown-time
    /// exclusions of already-exited workers never count).
    unrecovered_stalls: usize,
}

/// The thread counts a soak run drives.
fn soak_threads(quick: bool) -> &'static [usize] {
    if quick {
        &[16]
    } else {
        &[16, 64, 120]
    }
}

/// The soak window per shape.
fn soak_duration(quick: bool) -> Duration {
    Duration::from_secs(if quick { 4 } else { 20 })
}

/// A shape's watchdog timeout, and the recovery bound a fired death is
/// held to. Oversubscribed shapes get a longer leash, since on a small
/// host a perfectly healthy thread can go unscheduled for hundreds of
/// milliseconds. The bound is twice the timeout (ageing past the
/// timeout, plus one full monitor scan of slack) plus a large constant
/// for scheduling noise on oversubscribed hosts.
fn soak_timeouts(threads: usize) -> (Duration, Duration) {
    let watchdog = Duration::from_millis(if threads > 64 { 1000 } else { 500 });
    (watchdog, watchdog * 2 + Duration::from_secs(5))
}

/// The default fault plan for a shape: background stalls, wakeup drops
/// and announce suppression on every thread, plus (when the shape has
/// threads to spare) one panic death and one silent death early in the
/// run.
fn soak_plan(threads: usize) -> ThreadFaultPlan {
    let mut plan = ThreadFaultPlan::default()
        .with_stalls(0.002, 200)
        .with_wakeup_drops(0.01)
        .with_announce_delays(0.05);
    if threads >= 4 {
        plan = plan.with_death((threads - 1) as u16, 400, true).with_death(
            (threads - 2) as u16,
            800,
            false,
        );
    }
    plan
}

/// Runs one thread-count soak point for `duration` under `plan`,
/// seeded with `seed`.
fn run_soak_point(
    threads: usize,
    duration: Duration,
    plan: ThreadFaultPlan,
    seed: u64,
) -> SoakPoint {
    let (watchdog, recovery_bound) = soak_timeouts(threads);
    let rig = Rig::new(threads, Some(watchdog));
    let registry = &rig.registry;
    let injector = ThreadFaultInjector::new(plan.clone(), seed);
    let dead: Vec<usize> = plan
        .deaths
        .iter()
        .map(|d| usize::from(d.thread))
        .filter(|&c| c < threads)
        .collect();
    // A worker that panics cannot return its tallies, so every worker
    // leaves them here.
    let results: Mutex<Vec<ThreadStats>> = Mutex::new(Vec::new());
    // Wall-clock (ns since `epoch`) of each scheduled death firing and of
    // the monitor first observing its core excluded; 0 = not yet.
    let death_at: Vec<AtomicU64> = (0..threads).map(|_| AtomicU64::new(0)).collect();
    let recovered_at: Vec<AtomicU64> = (0..threads).map(|_| AtomicU64::new(0)).collect();
    let epoch = Instant::now();

    // The monitor: the housekeeping timer a kernel would run. Watchdog
    // scan every period, plus death-recovery and stuck-exclusion
    // bookkeeping for the report.
    let monitor = || {
        let mut excluded_since: Vec<Option<Instant>> = vec![None; threads];
        let mut stuck = vec![false; threads];
        while !rig.stop.load(Ordering::Relaxed) {
            std::thread::sleep(MONITOR_PERIOD);
            if rig.stop.load(Ordering::Relaxed) {
                // No scan during teardown: excluding a worker that is
                // already past its final rejoin check would read as a
                // stuck stall.
                break;
            }
            registry.check_watchdog();
            let now = Instant::now();
            for core in 0..threads {
                if death_at[core].load(Ordering::Acquire) != 0
                    && recovered_at[core].load(Ordering::Relaxed) == 0
                    && registry.is_excluded(core)
                {
                    recovered_at[core].store(epoch.elapsed().as_nanos() as u64, Ordering::Release);
                }
                // A live core excluded this long without its rejoin
                // landing is genuinely stuck (a healthy one rejoins on
                // its very next tick).
                if dead.contains(&core) {
                    continue;
                }
                if registry.is_excluded(core) {
                    let since = *excluded_since[core].get_or_insert(now);
                    if now.duration_since(since) > recovery_bound {
                        stuck[core] = true;
                    }
                } else {
                    excluded_since[core] = None;
                }
            }
        }
        stuck.iter().filter(|&&s| s).count()
    };

    let worker = |core: usize| {
        let (stats, died) = rig.worker(core, Some(injector.stream(core as u16)));
        if died.is_some() {
            death_at[core].store(epoch.elapsed().as_nanos() as u64, Ordering::Release);
        }
        results.lock().expect("stats lock").push(stats);
        if died == Some(true) {
            // Die mid-sweep: the guard's Drop must poison only this
            // core. A silent death just returns: the watchdog's problem.
            let _guard = registry.sweep_guard(core);
            panic!("injected death of worker {core}");
        }
    };
    // The monitor is joined first, so no watchdog scan runs while workers
    // drain (their ageing timestamps would read as stalls).
    let (unrecovered_stalls, joined, wall) =
        run_window(threads, duration, &rig.stop, worker, monitor);
    let panicked_workers = joined.iter().filter(|r| r.is_err()).count();

    // Snapshot *before* the post-run recovery wait: exclusions that
    // happen after the workers exited are teardown artifacts, not run
    // behavior.
    let run_stats = registry.stats();

    // Fallback for deaths that fired so late the monitor never saw the
    // exclusion land: keep scanning (the workers are gone, so only the
    // dead cores matter) until every fired death recovers or its bound
    // expires.
    loop {
        let now_ns = epoch.elapsed().as_nanos() as u64;
        let mut waiting = false;
        for &core in &dead {
            let died = death_at[core].load(Ordering::Acquire);
            if died == 0 || recovered_at[core].load(Ordering::Relaxed) != 0 {
                continue;
            }
            if registry.is_excluded(core) {
                recovered_at[core].store(now_ns.max(died + 1), Ordering::Release);
            } else if now_ns.saturating_sub(died) < recovery_bound.as_nanos() as u64 {
                waiting = true;
            }
        }
        if !waiting {
            break;
        }
        registry.check_watchdog();
        std::thread::sleep(Duration::from_millis(5));
    }

    // (death, recovery) times of the deaths that fired; recovery 0 = never.
    let fired: Vec<(u64, u64)> = dead
        .iter()
        .map(|&c| {
            (
                death_at[c].load(Ordering::Acquire),
                recovered_at[c].load(Ordering::Acquire),
            )
        })
        .filter(|&(died, _)| died != 0)
        .collect();
    let recoveries: Vec<u64> = fired
        .iter()
        .filter(|&&(_, rec)| rec != 0)
        .map(|&(died, rec)| rec.saturating_sub(died))
        .collect();
    assert_eq!(
        panicked_workers,
        plan.deaths
            .iter()
            .filter(|d| d.panic && death_at[usize::from(d.thread)].load(Ordering::Acquire) != 0)
            .count(),
        "only injected panic deaths may panic"
    );

    let t = ThreadStats::total(results.into_inner().expect("stats lock"));
    let denom = run_stats.overflows + run_stats.states_saved;
    SoakPoint {
        engine: "sharded",
        threads,
        wall_ns: wall,
        ops: t.ops,
        rounds: t.rounds,
        unmaps: t.unmaps,
        collected: t.collected,
        overflows: run_stats.overflows,
        overflow_rate: if denom == 0 {
            0.0
        } else {
            run_stats.overflows as f64 / denom as f64
        },
        reclaim_lag_p50: percentile(&t.lag, 0.50),
        reclaim_lag_p99: percentile(&t.lag, 0.99),
        reclaim_lag_max: t.lag.last().copied().unwrap_or(0),
        canary_ok: rig.canary_ok.load(Ordering::Acquire),
        deaths_fired: fired.len(),
        deaths_recovered: recoveries.len(),
        max_recovery_ms: recoveries.iter().max().map_or(0.0, |&ns| ns as f64 / 1e6),
        recovery_bound_ms: recovery_bound.as_nanos() as f64 / 1e6,
        stall_exclusions: run_stats.stall_exclusions,
        panic_poisons: run_stats.panic_poisons,
        frontier_stall_recoveries: run_stats.rejoins,
        reaped_states: run_stats.reaped_states,
        unrecovered_stalls,
    }
}

/// Whether every point survived: no canary trip, every fired death
/// recovered within its bound, no live core stuck excluded past it.
fn soak_passed(points: &[SoakPoint]) -> bool {
    points.iter().all(|p| {
        p.canary_ok
            && p.unrecovered_stalls == 0
            && p.deaths_recovered == p.deaths_fired
            && p.max_recovery_ms <= p.recovery_bound_ms
    })
}

/// One point's row of the document.
fn point_row(p: &SoakPoint) -> Object {
    row!(p; engine, threads, wall_ns, ops, rounds, unmaps, collected, overflows,
            overflow_rate: 4, reclaim_lag_p50, reclaim_lag_p99, reclaim_lag_max, canary_ok,
            deaths_fired, deaths_recovered, max_recovery_ms: 1, recovery_bound_ms: 1,
            stall_exclusions, panic_poisons, frontier_stall_recoveries, reaped_states,
            unrecovered_stalls)
}

/// The measurement set as the `BENCH_soak.json` document.
fn soak_json(points: &[SoakPoint], quick: bool) -> Object {
    Object::new()
        .field("bench", "soak")
        .field("workload", "munmap-heavy soft-tlb loop under thread faults")
        .field("quick", quick)
        .field("grace_ticks", GRACE)
        .field("points", Rows::of(points, point_row))
        .field("soak_passed", soak_passed(points))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(canary_ok: bool, unrecovered: usize, fired: usize, recovered: usize) -> SoakPoint {
        SoakPoint {
            canary_ok,
            unrecovered_stalls: unrecovered,
            deaths_fired: fired,
            deaths_recovered: recovered,
            ..SoakPoint::default()
        }
    }

    #[test]
    fn pass_criteria_cover_each_failure_mode() {
        assert!(soak_passed(&[point(true, 0, 2, 2)]));
        let json = |p| soak_json(&[p], true).render();
        assert!(json(point(true, 0, 2, 2)).contains("\"soak_passed\": true"));
        assert!(!soak_passed(&[point(false, 0, 2, 2)])); // canary
        assert!(!soak_passed(&[point(true, 1, 2, 2)])); // stuck stall
        assert!(!soak_passed(&[point(true, 0, 2, 1)])); // lost death
        assert!(json(point(false, 0, 2, 2)).contains("\"soak_passed\": false"));
    }

    #[test]
    fn default_plans_validate_at_every_shape() {
        for quick in [true, false] {
            for &threads in soak_threads(quick) {
                assert_eq!(soak_plan(threads).validate(), Ok(()));
            }
        }
        assert_eq!(soak_plan(2).deaths.len(), 0, "tiny shapes keep all threads");
    }

    #[test]
    fn tiny_faulted_run_survives() {
        // A miniature soak: 4 threads, a panic death and a silent death
        // early on. The panic excludes its core instantly via the sweep
        // guard; the silent one rides the 500 ms watchdog (mostly in the
        // post-run recovery wait), so the run takes around a second.
        let plan = ThreadFaultPlan::default()
            .with_stalls(0.001, 50)
            .with_wakeup_drops(0.01)
            .with_announce_delays(0.05)
            .with_death(3, 50, true)
            .with_death(2, 90, false);
        let p = run_soak_point(4, Duration::from_millis(300), plan, 7);
        assert!(p.ops > 0, "did no work");
        assert_eq!(p.deaths_fired, 2, "both deaths fire");
        assert!(p.panic_poisons >= 1, "panic fence never fired");
        // Canary held, every death excluded within its bound, no stuck
        // exclusion.
        assert!(soak_passed(std::slice::from_ref(&p)), "{p:#?}");
    }
}
