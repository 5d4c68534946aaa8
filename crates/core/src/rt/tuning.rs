//! Adaptive self-tuning for the rt reclamation path.
//!
//! A hysteresis controller in the mold of the simulator's
//! `FALLBACK_ENTER_PCT`/`FALLBACK_EXIT_PCT` pair: it watches the live
//! [`RtStats`] counters — the windowed overflow rate and the
//! `reclaim_lag_ticks` signal — and retargets two knobs on the
//! [`Reclaimer`]:
//!
//! * **Grace**: entering degraded mode (overflow pressure above the
//!   enter threshold) shrinks the grace toward `min_grace`, so parked
//!   items become due sooner and queue slots recycle faster; exiting
//!   (pressure back under the exit threshold for a window) restores the
//!   configured baseline. The floor keeps the §4.2 safety rule intact —
//!   grace never drops below the configured minimum cycles.
//! * **Wheel size**: when the observed reclaim lag outgrows the calendar
//!   window (items spilling to the O(n) overflow list), the wheel
//!   doubles, up to `max_wheel_slots`; after consecutive calm windows it
//!   halves back, down to `min_wheel_slots`. Resizes preserve dues
//!   exactly (see `ShardedReclaimer::set_wheel_slots`), so the tuner can
//!   only affect performance, never safety.
//!
//! Enter/exit thresholds are strictly ordered (enter > exit), giving the
//! controller a dead band: a workload hovering at the boundary doesn't
//! flap between modes — the same argument as the simulator's fallback
//! hysteresis.

use crate::rt::queue::RtStats;
use crate::rt::reclaim::{Reclaimer, MAX_WHEEL_SLOTS};
use crate::rt::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use crate::rt::sync::Mutex;

/// Knobs for [`RtTuner`]. `Default` mirrors the simulator's fallback
/// hysteresis shape at rt-appropriate magnitudes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RtTuningConfig {
    /// Enter degraded mode when the windowed overflow percentage reaches
    /// this (publish overflows per publish attempt, 0–100).
    pub enter_overflow_pct: u64,
    /// Exit degraded mode when it falls back below this. Must be
    /// strictly less than `enter_overflow_pct` (the hysteresis band).
    pub exit_overflow_pct: u64,
    /// Baseline grace in sweep cycles (the paper's 2).
    pub base_grace: u64,
    /// Floor the degraded mode may shrink grace to. Safety floor: never 0.
    pub min_grace: u64,
    /// Smallest wheel the calm path narrows back to.
    pub min_wheel_slots: usize,
    /// Largest wheel the lag path widens to (clamped to
    /// [`MAX_WHEEL_SLOTS`]).
    pub max_wheel_slots: usize,
    /// Consecutive calm observations required before narrowing the wheel.
    pub narrow_after_calm: u32,
}

impl Default for RtTuningConfig {
    fn default() -> Self {
        RtTuningConfig {
            enter_overflow_pct: 10,
            exit_overflow_pct: 2,
            base_grace: 2,
            min_grace: 2,
            min_wheel_slots: 8,
            max_wheel_slots: 256,
            narrow_after_calm: 2,
        }
    }
}

impl RtTuningConfig {
    /// Validates the knob ranges; [`RtTuner::new`] rejects invalid
    /// configs loudly rather than running with a meaningless controller.
    pub fn validate(&self) -> Result<(), String> {
        if self.enter_overflow_pct <= self.exit_overflow_pct {
            return Err(format!(
                "enter_overflow_pct ({}) must exceed exit_overflow_pct ({}) \
                 for hysteresis",
                self.enter_overflow_pct, self.exit_overflow_pct
            ));
        }
        if self.enter_overflow_pct > 100 {
            return Err(format!(
                "enter_overflow_pct ({}) is a percentage",
                self.enter_overflow_pct
            ));
        }
        if self.min_grace == 0 {
            return Err("min_grace must be ≥ 1 (grace 0 reclaims with no sweep)".into());
        }
        if self.base_grace < self.min_grace {
            return Err(format!(
                "base_grace ({}) below min_grace ({})",
                self.base_grace, self.min_grace
            ));
        }
        if self.min_wheel_slots == 0 || self.min_wheel_slots > self.max_wheel_slots {
            return Err(format!(
                "wheel bounds [{}, {}] are not a non-empty range",
                self.min_wheel_slots, self.max_wheel_slots
            ));
        }
        if self.max_wheel_slots > MAX_WHEEL_SLOTS {
            return Err(format!(
                "max_wheel_slots ({}) exceeds the engine clamp ({MAX_WHEEL_SLOTS})",
                self.max_wheel_slots
            ));
        }
        Ok(())
    }
}

/// What one [`RtTuner::observe`] decided (for logs and the soak report).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TuningReport {
    /// Overflow percentage over the observation window (0–100).
    pub overflow_pct: u64,
    /// The reclaim lag the decision saw.
    pub reclaim_lag_ticks: u64,
    /// Whether this observation entered degraded mode.
    pub entered_degraded: bool,
    /// Whether this observation exited degraded mode.
    pub exited_degraded: bool,
    /// Grace target after the decision.
    pub grace: u64,
    /// Wheel-size target after the decision.
    pub wheel_slots: usize,
}

/// Window state the controller keeps between observations.
#[derive(Debug, Default)]
struct TunerWindow {
    prev_saved: u64,
    prev_overflows: u64,
    calm_windows: u32,
}

/// The hysteresis controller. `observe` computes targets from an
/// [`RtStats`] snapshot; `apply` pushes them into a [`Reclaimer`]. Both
/// are safe to drive from a monitor thread while worker threads run.
#[derive(Debug)]
pub struct RtTuner {
    cfg: RtTuningConfig,
    degraded: AtomicBool,
    grace: AtomicU64,
    wheel_slots: AtomicUsize,
    enters: AtomicU64,
    exits: AtomicU64,
    widenings: AtomicU64,
    narrowings: AtomicU64,
    window: Mutex<TunerWindow>,
}

impl RtTuner {
    /// Creates a tuner from a validated config.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`RtTuningConfig::validate`].
    pub fn new(cfg: RtTuningConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid RtTuningConfig: {e}");
        }
        RtTuner {
            degraded: AtomicBool::new(false),
            grace: AtomicU64::new(cfg.base_grace),
            wheel_slots: AtomicUsize::new(cfg.min_wheel_slots),
            enters: AtomicU64::new(0),
            exits: AtomicU64::new(0),
            widenings: AtomicU64::new(0),
            narrowings: AtomicU64::new(0),
            window: Mutex::new(TunerWindow::default()),
            cfg,
        }
    }

    /// The active config.
    pub fn config(&self) -> &RtTuningConfig {
        &self.cfg
    }

    /// Whether the controller is currently in degraded mode.
    pub fn degraded(&self) -> bool {
        self.degraded.load(Ordering::Acquire)
    }

    /// Times degraded mode was entered.
    pub fn enters(&self) -> u64 {
        self.enters.load(Ordering::Relaxed)
    }

    /// Times degraded mode was exited.
    pub fn exits(&self) -> u64 {
        self.exits.load(Ordering::Relaxed)
    }

    /// Wheel widenings performed.
    pub fn widenings(&self) -> u64 {
        self.widenings.load(Ordering::Relaxed)
    }

    /// Wheel narrowings performed.
    pub fn narrowings(&self) -> u64 {
        self.narrowings.load(Ordering::Relaxed)
    }

    /// Current grace target.
    pub fn grace_target(&self) -> u64 {
        self.grace.load(Ordering::Relaxed)
    }

    /// Current wheel-size target.
    pub fn wheel_target(&self) -> usize {
        self.wheel_slots.load(Ordering::Relaxed)
    }

    /// Feeds one stats snapshot through the controller and returns what
    /// it decided. Call at a steady cadence (the "window" is simply the
    /// interval between calls).
    pub fn observe(&self, stats: &RtStats) -> TuningReport {
        let mut w = self.window.lock();
        let d_saved = stats.states_saved.saturating_sub(w.prev_saved);
        let d_over = stats.overflows.saturating_sub(w.prev_overflows);
        w.prev_saved = stats.states_saved;
        w.prev_overflows = stats.overflows;
        let attempts = d_saved.saturating_add(d_over);
        let overflow_pct = d_over
            .saturating_mul(100)
            .checked_div(attempts)
            .unwrap_or(0);

        let mut report = TuningReport {
            overflow_pct,
            reclaim_lag_ticks: stats.reclaim_lag_ticks,
            ..TuningReport::default()
        };

        // Grace hysteresis: overflow pressure means queue slots aren't
        // recycling — shrink the grace to its floor so parked states
        // free sooner; restore the baseline only once pressure clears.
        let was_degraded = self.degraded.load(Ordering::Acquire);
        if !was_degraded && overflow_pct >= self.cfg.enter_overflow_pct {
            self.degraded.store(true, Ordering::Release);
            self.grace.store(self.cfg.min_grace, Ordering::Relaxed);
            self.enters.fetch_add(1, Ordering::Relaxed);
            report.entered_degraded = true;
        } else if was_degraded && overflow_pct < self.cfg.exit_overflow_pct {
            self.degraded.store(false, Ordering::Release);
            self.grace.store(self.cfg.base_grace, Ordering::Relaxed);
            self.exits.fetch_add(1, Ordering::Relaxed);
            report.exited_degraded = true;
        }

        // Wheel sizing from the lag signal: the calendar should cover
        // lag + grace + 1 dues or far items camp on the O(n) overflow
        // list. Widen eagerly (double), narrow lazily (halve after
        // consecutive calm windows) — the same asymmetry as TCP's
        // congestion window, for the same reason.
        let wheel = self.wheel_slots.load(Ordering::Relaxed);
        let need = stats
            .reclaim_lag_ticks
            .saturating_add(self.grace.load(Ordering::Relaxed))
            .saturating_add(1);
        if need > wheel as u64 {
            w.calm_windows = 0;
            if wheel < self.cfg.max_wheel_slots {
                let next = (wheel * 2).min(self.cfg.max_wheel_slots);
                self.wheel_slots.store(next, Ordering::Relaxed);
                self.widenings.fetch_add(1, Ordering::Relaxed);
            }
        } else if need <= wheel as u64 / 4 {
            w.calm_windows += 1;
            if w.calm_windows >= self.cfg.narrow_after_calm {
                w.calm_windows = 0;
                if wheel > self.cfg.min_wheel_slots {
                    let next = (wheel / 2).max(self.cfg.min_wheel_slots);
                    self.wheel_slots.store(next, Ordering::Relaxed);
                    self.narrowings.fetch_add(1, Ordering::Relaxed);
                }
            }
        } else {
            w.calm_windows = 0;
        }

        report.grace = self.grace.load(Ordering::Relaxed);
        report.wheel_slots = self.wheel_slots.load(Ordering::Relaxed);
        report
    }

    /// Pushes the current targets into a reclaimer.
    pub fn apply<T>(&self, reclaimer: &Reclaimer<T>) {
        reclaimer.set_grace(self.grace.load(Ordering::Relaxed));
        reclaimer.set_wheel_slots(self.wheel_slots.load(Ordering::Relaxed));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rt::queue::RtRegistry;
    use crate::rt::reclaim::ReclaimBackend;

    fn stats(saved: u64, overflows: u64, lag: u64) -> RtStats {
        RtStats {
            states_saved: saved,
            overflows,
            reclaim_lag_ticks: lag,
            ..RtStats::default()
        }
    }

    #[test]
    fn default_config_validates() {
        RtTuningConfig::default().validate().unwrap();
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let base = RtTuningConfig::default();
        let bad = [
            (
                RtTuningConfig {
                    enter_overflow_pct: base.exit_overflow_pct,
                    ..base
                },
                "no hysteresis band",
            ),
            (
                RtTuningConfig {
                    min_grace: 0,
                    ..base
                },
                "grace floor of 0",
            ),
            (
                RtTuningConfig {
                    base_grace: 1,
                    ..base
                },
                "baseline below the floor",
            ),
            (
                RtTuningConfig {
                    min_wheel_slots: 512,
                    max_wheel_slots: 8,
                    ..base
                },
                "empty wheel range",
            ),
            (
                RtTuningConfig {
                    max_wheel_slots: MAX_WHEEL_SLOTS * 2,
                    ..base
                },
                "beyond the engine clamp",
            ),
            (
                RtTuningConfig {
                    enter_overflow_pct: 101,
                    ..base
                },
                "not a percentage",
            ),
        ];
        for (cfg, why) in bad {
            assert!(cfg.validate().is_err(), "{why}");
        }
    }

    #[test]
    #[should_panic(expected = "invalid RtTuningConfig")]
    fn tuner_panics_on_invalid_config() {
        let cfg = RtTuningConfig {
            min_grace: 0,
            ..RtTuningConfig::default()
        };
        let _ = RtTuner::new(cfg);
    }

    #[test]
    fn hysteresis_enters_and_exits_with_a_dead_band() {
        let cfg = RtTuningConfig {
            base_grace: 4,
            min_grace: 2,
            ..RtTuningConfig::default()
        };
        let t = RtTuner::new(cfg);
        assert!(!t.degraded());
        assert_eq!(t.grace_target(), 4);

        // Window 1: 20% overflow → enter, grace drops to the floor.
        let r = t.observe(&stats(80, 20, 0));
        assert!(r.entered_degraded);
        assert!(t.degraded());
        assert_eq!(t.grace_target(), 2);
        assert_eq!(r.overflow_pct, 20);

        // Window 2: 5% — inside the dead band (exit is 2): stay degraded.
        let r = t.observe(&stats(175, 25, 0));
        assert!(!r.exited_degraded);
        assert!(t.degraded());

        // Window 3: clean — exit, grace restored.
        let r = t.observe(&stats(375, 25, 0));
        assert!(r.exited_degraded);
        assert!(!t.degraded());
        assert_eq!(t.grace_target(), 4);
        assert_eq!(t.enters(), 1);
        assert_eq!(t.exits(), 1);
    }

    #[test]
    fn wheel_widens_on_lag_and_narrows_after_calm() {
        let t = RtTuner::new(RtTuningConfig::default());
        assert_eq!(t.wheel_target(), 8);

        // Lag 20 needs 20 + 2 + 1 = 23 buckets: double twice.
        t.observe(&stats(10, 0, 20));
        assert_eq!(t.wheel_target(), 16);
        t.observe(&stats(20, 0, 20));
        assert_eq!(t.wheel_target(), 32);
        assert_eq!(t.observe(&stats(30, 0, 20)).wheel_slots, 32, "23 ≤ 32 fits");

        // Two calm windows (need ≤ wheel/4) narrow once.
        t.observe(&stats(40, 0, 1));
        assert_eq!(t.wheel_target(), 32, "first calm window only counts");
        t.observe(&stats(50, 0, 1));
        assert_eq!(t.wheel_target(), 16);
        assert_eq!(t.widenings(), 2);
        assert_eq!(t.narrowings(), 1);

        // Clamped at the configured max.
        for i in 0..10 {
            t.observe(&stats(60 + i, 0, 10_000));
        }
        assert_eq!(t.wheel_target(), 256);
    }

    #[test]
    fn apply_pushes_targets_into_the_reclaimer() {
        let registry = RtRegistry::new(2, 8);
        let rec: Reclaimer<u32> = Reclaimer::new(ReclaimBackend::Sharded, 2, 2);
        let t = RtTuner::new(RtTuningConfig {
            base_grace: 3,
            ..RtTuningConfig::default()
        });
        t.observe(&stats(10, 0, 40)); // widen to 16
        t.apply(&rec);
        assert_eq!(rec.grace(), 3);
        assert_eq!(rec.wheel_slots(), 16);
        // The retargeted reclaimer still round-trips items.
        rec.defer(&registry, 0, 9);
        for _ in 0..4 {
            registry.sweep(0);
            registry.sweep(1);
        }
        registry.advance_frontier();
        assert_eq!(rec.collect(&registry, 0), vec![9]);
    }
}
