//! Declarative fault plans.
//!
//! A [`FaultPlan`] is pure data: it says *what* can go wrong and *when*,
//! but contains no randomness itself. The probabilistic knobs (drop/delay
//! probabilities, jitter magnitudes) are resolved at runtime by the
//! [`FaultInjector`](crate::FaultInjector)'s forked RNG stream; the
//! scheduled events (stalls, storms) are resolved purely by simulated
//! time. Both halves are therefore fully deterministic for a fixed
//! (plan, seed) pair.

use latr_sim::Nanos;

/// Probabilistic faults applied to every IPI delivery.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct IpiFaults {
    /// Probability in `[0, 1]` that an individual IPI delivery is dropped
    /// outright (never arrives; the initiator must retransmit).
    pub drop_prob: f64,
    /// Probability in `[0, 1]` that a delivery is delayed by a uniform
    /// amount in `[0, delay_max]` nanoseconds.
    pub delay_prob: f64,
    /// Maximum extra delivery latency, in nanoseconds.
    pub delay_max: Nanos,
}

/// Probabilistic faults applied to every scheduler tick.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TickFaults {
    /// Probability in `[0, 1]` that a tick is skipped entirely (no sweep,
    /// no accounting — models a missed timer interrupt).
    pub miss_prob: f64,
    /// Probability in `[0, 1]` that a tick fires late by a uniform amount
    /// in `[0, jitter_max]` nanoseconds.
    pub jitter_prob: f64,
    /// Maximum tick lateness, in nanoseconds.
    pub jitter_max: Nanos,
}

/// A scheduled per-core sweep stall: between `at` and `at + duration` the
/// core neither sweeps on ticks nor on context switches (models a long
/// non-preemptible section or a deep C-state exit). IPIs are still
/// delivered during a stall — preemption being disabled does not mask
/// interrupts — which is exactly what makes the watchdog's targeted-IPI
/// escalation effective against stalled sweepers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StalledCore {
    /// Core that stalls.
    pub cpu: u16,
    /// Simulated time (ns) at which the stall begins.
    pub at: Nanos,
    /// Length of the stall in nanoseconds.
    pub duration: Nanos,
}

/// A scheduled queue-overflow storm: between `at` and `at + duration`
/// every Latr state publish is forced to fail as if the per-core queue
/// were full, driving the policy onto its fallback path regardless of
/// actual occupancy. Used to exercise the adaptive sync-mode hysteresis.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OverflowStorm {
    /// Simulated time (ns) at which the storm begins.
    pub at: Nanos,
    /// Length of the storm in nanoseconds.
    pub duration: Nanos,
}

/// A scheduled allocation burst: at `at` a kernel-thread consumer grabs up
/// to `frames` frames on `node` and holds them until `at + duration`,
/// draining the node's free pool exactly the way another subsystem's
/// allocation storm would. The pressure paths (watermarks, expedited
/// sweeps, min-watermark sync fallback) are what it exists to exercise.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AllocBurst {
    /// NUMA node whose pool the burst drains.
    pub node: u8,
    /// Simulated time (ns) at which the burst begins.
    pub at: Nanos,
    /// How long the burst holds its frames, in nanoseconds.
    pub duration: Nanos,
    /// How many frames the burst tries to grab.
    pub frames: u64,
}

impl AllocBurst {
    /// Whether the burst's hold window covers instant `ns` (half-open).
    pub fn active_at(&self, ns: Nanos) -> bool {
        self.at <= ns && ns < self.at + self.duration
    }
}

/// A scheduled reclaim stall: between `at` and `at + duration` the
/// background reclamation kthread skips its ticks entirely, so deferred
/// packages pile up while allocations keep draining the pool — the storm
/// that separates "expedite on pressure" from "hope the kthread catches
/// up".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReclaimStall {
    /// Simulated time (ns) at which the stall begins.
    pub at: Nanos,
    /// Length of the stall in nanoseconds.
    pub duration: Nanos,
}

impl ReclaimStall {
    /// Whether the stall window covers instant `ns` (half-open).
    pub fn active_at(&self, ns: Nanos) -> bool {
        self.at <= ns && ns < self.at + self.duration
    }
}

/// A scheduled watermark flap: between `at` and `at + duration` the
/// effective watermarks are raised by `boost` frames, making nodes near
/// the line oscillate between pressure levels without any real
/// allocation — hysteresis paths must not thrash on it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WatermarkFlap {
    /// Simulated time (ns) at which the flap begins.
    pub at: Nanos,
    /// Length of the flap in nanoseconds.
    pub duration: Nanos,
    /// How many frames the watermarks are raised by.
    pub boost: u64,
}

impl WatermarkFlap {
    /// Whether the flap window covers instant `ns` (half-open).
    pub fn active_at(&self, ns: Nanos) -> bool {
        self.at <= ns && ns < self.at + self.duration
    }
}

/// A complete, deterministic description of the faults to inject into one
/// simulation run. Construct with [`FaultPlan::default`] (no faults) and
/// the chainable `with_*` builders.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// IPI delivery faults.
    pub ipi: IpiFaults,
    /// Scheduler-tick faults.
    pub tick: TickFaults,
    /// Scheduled per-core sweep stalls.
    pub stalls: Vec<StalledCore>,
    /// Scheduled queue-overflow storms.
    pub storms: Vec<OverflowStorm>,
    /// Scheduled allocation bursts (memory-pressure sites).
    pub bursts: Vec<AllocBurst>,
    /// Scheduled reclamation-kthread stalls (memory-pressure sites).
    pub reclaim_stalls: Vec<ReclaimStall>,
    /// Scheduled watermark flaps (memory-pressure sites).
    pub flaps: Vec<WatermarkFlap>,
}

impl FaultPlan {
    /// Drop each IPI delivery independently with probability `prob`.
    #[must_use]
    pub fn with_ipi_drop(mut self, prob: f64) -> Self {
        self.ipi.drop_prob = prob;
        self
    }

    /// Delay each IPI delivery with probability `prob` by a uniform
    /// amount in `[0, max]` ns.
    #[must_use]
    pub fn with_ipi_delay(mut self, prob: f64, max: Nanos) -> Self {
        self.ipi.delay_prob = prob;
        self.ipi.delay_max = max;
        self
    }

    /// Skip each scheduler tick independently with probability `prob`.
    #[must_use]
    pub fn with_tick_miss(mut self, prob: f64) -> Self {
        self.tick.miss_prob = prob;
        self
    }

    /// Jitter each scheduler tick with probability `prob` by a uniform
    /// lateness in `[0, max]` ns.
    #[must_use]
    pub fn with_tick_jitter(mut self, prob: f64, max: Nanos) -> Self {
        self.tick.jitter_prob = prob;
        self.tick.jitter_max = max;
        self
    }

    /// Stall `cpu`'s sweeps for `duration` ns starting at `at` ns.
    #[must_use]
    pub fn with_stall(mut self, cpu: u16, at: Nanos, duration: Nanos) -> Self {
        self.stalls.push(StalledCore { cpu, at, duration });
        self
    }

    /// Force every state publish to overflow for `duration` ns starting
    /// at `at` ns.
    #[must_use]
    pub fn with_storm(mut self, at: Nanos, duration: Nanos) -> Self {
        self.storms.push(OverflowStorm { at, duration });
        self
    }

    /// Grab up to `frames` frames on `node` at `at` ns and hold them for
    /// `duration` ns (an external consumer's allocation storm).
    #[must_use]
    pub fn with_burst(mut self, node: u8, at: Nanos, duration: Nanos, frames: u64) -> Self {
        self.bursts.push(AllocBurst {
            node,
            at,
            duration,
            frames,
        });
        self
    }

    /// Stall the background reclamation kthread for `duration` ns
    /// starting at `at` ns.
    #[must_use]
    pub fn with_reclaim_stall(mut self, at: Nanos, duration: Nanos) -> Self {
        self.reclaim_stalls.push(ReclaimStall { at, duration });
        self
    }

    /// Raise the effective watermarks by `boost` frames for `duration` ns
    /// starting at `at` ns.
    #[must_use]
    pub fn with_flap(mut self, at: Nanos, duration: Nanos, boost: u64) -> Self {
        self.flaps.push(WatermarkFlap {
            at,
            duration,
            boost,
        });
        self
    }

    /// Whether this plan injects anything at all. The machine only pays
    /// for fault bookkeeping (and only schedules IPI retransmit timers)
    /// when a plan is active.
    pub fn is_active(&self) -> bool {
        *self != FaultPlan::default()
    }

    /// Range-check every knob: probabilities must lie in `[0, 1]` (NaN is
    /// rejected by the interval test), scheduled windows must have a
    /// non-zero duration, and a non-zero delay/jitter probability needs a
    /// non-zero magnitude to have any effect. The builders stay unchecked
    /// for ergonomic chaining; [`FaultInjector::new`](crate::FaultInjector::new)
    /// calls this, so no malformed plan ever reaches a run.
    ///
    /// ```
    /// use latr_faults::{FaultPlan, FaultPlanError, FaultWindow};
    ///
    /// let plan = FaultPlan::default().with_storm(5, 0);
    /// let window = FaultWindow::Storm;
    /// assert_eq!(plan.validate(), Err(FaultPlanError::EmptyWindow { window, at: 5 }));
    /// ```
    pub fn validate(&self) -> Result<(), FaultPlanError> {
        let prob = |name: &'static str, value: f64| {
            if (0.0..=1.0).contains(&value) {
                Ok(())
            } else {
                Err(FaultPlanError::ProbabilityOutOfRange { name, value })
            }
        };
        prob("ipi.drop_prob", self.ipi.drop_prob)?;
        prob("ipi.delay_prob", self.ipi.delay_prob)?;
        prob("tick.miss_prob", self.tick.miss_prob)?;
        prob("tick.jitter_prob", self.tick.jitter_prob)?;
        if self.ipi.delay_prob > 0.0 && self.ipi.delay_max == 0 {
            return Err(FaultPlanError::DelayWithoutMagnitude);
        }
        if self.tick.jitter_prob > 0.0 && self.tick.jitter_max == 0 {
            return Err(FaultPlanError::JitterWithoutMagnitude);
        }
        let window = |window: FaultWindow, at: Nanos, duration: Nanos| {
            if duration == 0 {
                Err(FaultPlanError::EmptyWindow { window, at })
            } else {
                Ok(())
            }
        };
        for s in &self.stalls {
            window(FaultWindow::Stall { cpu: s.cpu }, s.at, s.duration)?;
        }
        for s in &self.storms {
            window(FaultWindow::Storm, s.at, s.duration)?;
        }
        for b in &self.bursts {
            window(FaultWindow::Burst { node: b.node }, b.at, b.duration)?;
            if b.frames == 0 {
                let (node, at) = (b.node, b.at);
                return Err(FaultPlanError::BurstWithoutFrames { node, at });
            }
        }
        for s in &self.reclaim_stalls {
            window(FaultWindow::ReclaimStall, s.at, s.duration)?;
        }
        for f in &self.flaps {
            window(FaultWindow::Flap, f.at, f.duration)?;
            if f.boost == 0 {
                return Err(FaultPlanError::FlapWithoutBoost { at: f.at });
            }
        }
        Ok(())
    }
}

/// Which scheduled window of a [`FaultPlan`] a [`FaultPlanError`] names.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultWindow {
    /// A [`StalledCore`] entry.
    Stall {
        /// The stalled core.
        cpu: u16,
    },
    /// An [`OverflowStorm`] entry.
    Storm,
    /// An [`AllocBurst`] entry.
    Burst {
        /// The drained node.
        node: u8,
    },
    /// A [`ReclaimStall`] entry.
    ReclaimStall,
    /// A [`WatermarkFlap`] entry.
    Flap,
}

impl std::fmt::Display for FaultWindow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultWindow::Stall { cpu } => write!(f, "stall of cpu{cpu}"),
            FaultWindow::Storm => write!(f, "storm"),
            FaultWindow::Burst { node } => write!(f, "burst on node{node}"),
            FaultWindow::ReclaimStall => write!(f, "reclaim stall"),
            FaultWindow::Flap => write!(f, "watermark flap"),
        }
    }
}

/// Why [`FaultPlan::validate`] refuses a plan.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultPlanError {
    /// A probability lies outside `[0, 1]` or is NaN.
    ProbabilityOutOfRange {
        /// The plan field, e.g. `"ipi.drop_prob"`.
        name: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// `ipi.delay_prob > 0` with `ipi.delay_max == 0`: every delay would
    /// be zero.
    DelayWithoutMagnitude,
    /// `tick.jitter_prob > 0` with `tick.jitter_max == 0`: every jitter
    /// would be zero.
    JitterWithoutMagnitude,
    /// A scheduled window has zero duration, so it injects nothing.
    EmptyWindow {
        /// The window.
        window: FaultWindow,
        /// Its start (ns).
        at: Nanos,
    },
    /// An allocation burst grabs zero frames.
    BurstWithoutFrames {
        /// The burst's node.
        node: u8,
        /// Its start (ns).
        at: Nanos,
    },
    /// A watermark flap raises the watermarks by zero frames.
    FlapWithoutBoost {
        /// Its start (ns).
        at: Nanos,
    },
}

impl std::fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultPlanError::ProbabilityOutOfRange { name, value } => {
                write!(f, "{name} must be in [0, 1], got {value}")
            }
            FaultPlanError::DelayWithoutMagnitude => {
                write!(f, "ipi.delay_prob > 0 requires ipi.delay_max > 0")
            }
            FaultPlanError::JitterWithoutMagnitude => {
                write!(f, "tick.jitter_prob > 0 requires tick.jitter_max > 0")
            }
            FaultPlanError::EmptyWindow { window, at } => {
                write!(f, "{window} at {at} has zero duration")
            }
            FaultPlanError::BurstWithoutFrames { node, at } => {
                write!(f, "burst on node{node} at {at} grabs zero frames")
            }
            FaultPlanError::FlapWithoutBoost { at } => {
                write!(f, "watermark flap at {at} has zero boost")
            }
        }
    }
}

impl std::error::Error for FaultPlanError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_inactive() {
        assert!(!FaultPlan::default().is_active());
        assert!(FaultPlan::default().with_ipi_drop(0.1).is_active());
        assert!(FaultPlan::default().with_stall(1, 0, 1000).is_active());
        assert!(FaultPlan::default().with_flap(0, 1000, 8).is_active());
    }

    #[test]
    fn builders_compose() {
        let plan = FaultPlan::default()
            .with_ipi_drop(0.25)
            .with_ipi_delay(0.5, 30_000)
            .with_tick_miss(0.1)
            .with_tick_jitter(0.2, 400_000)
            .with_stall(2, 1_000_000, 5_000_000)
            .with_storm(2_000_000, 3_000_000);
        assert_eq!(plan.ipi.drop_prob, 0.25);
        assert_eq!(plan.ipi.delay_max, 30_000);
        assert_eq!(plan.stalls.len(), 1);
        assert_eq!(plan.storms.len(), 1);
    }

    #[test]
    fn validate_rejects_malformed_plans() {
        let d = FaultPlan::default;
        let out_of_range = |plan: FaultPlan, want: &str| match plan.validate() {
            Err(FaultPlanError::ProbabilityOutOfRange { name, .. }) => assert_eq!(name, want),
            other => panic!("{want}: expected ProbabilityOutOfRange, got {other:?}"),
        };
        out_of_range(d().with_ipi_drop(1.5), "ipi.drop_prob");
        out_of_range(d().with_tick_miss(-0.1), "tick.miss_prob");
        out_of_range(d().with_ipi_delay(f64::NAN, 9), "ipi.delay_prob");
        out_of_range(d().with_tick_jitter(2.0, 9), "tick.jitter_prob");
        let empty = |window, at| Err(FaultPlanError::EmptyWindow { window, at });
        let cases = [
            (
                d().with_ipi_delay(0.5, 0),
                Err(FaultPlanError::DelayWithoutMagnitude),
            ),
            (
                d().with_tick_jitter(0.5, 0),
                Err(FaultPlanError::JitterWithoutMagnitude),
            ),
            (
                d().with_stall(1, 5, 0),
                empty(FaultWindow::Stall { cpu: 1 }, 5),
            ),
            (d().with_storm(5, 0), empty(FaultWindow::Storm, 5)),
            (
                d().with_burst(0, 5, 0, 9),
                empty(FaultWindow::Burst { node: 0 }, 5),
            ),
            (
                d().with_burst(0, 5, 9, 0),
                Err(FaultPlanError::BurstWithoutFrames { node: 0, at: 5 }),
            ),
            (
                d().with_reclaim_stall(5, 0),
                empty(FaultWindow::ReclaimStall, 5),
            ),
            (d().with_flap(5, 0, 4), empty(FaultWindow::Flap, 5)),
            (
                d().with_flap(5, 9, 0),
                Err(FaultPlanError::FlapWithoutBoost { at: 5 }),
            ),
        ];
        for (plan, want) in cases {
            assert_eq!(plan.validate(), want, "{plan:?}");
        }
        // A probability with its magnitude is well-formed.
        assert_eq!(d().with_ipi_delay(0.5, 100).validate(), Ok(()));
        assert_eq!(d().with_tick_jitter(0.5, 100).validate(), Ok(()));
    }

    #[test]
    fn plan_errors_read_as_before() {
        let d = FaultPlan::default;
        let cases = [
            (
                d().with_ipi_drop(1.5),
                "ipi.drop_prob must be in [0, 1], got 1.5",
            ),
            (
                d().with_ipi_delay(f64::NAN, 9),
                "ipi.delay_prob must be in [0, 1], got NaN",
            ),
            (
                d().with_ipi_delay(0.5, 0),
                "ipi.delay_prob > 0 requires ipi.delay_max > 0",
            ),
            (
                d().with_stall(1, 5, 0),
                "stall of cpu1 at 5 has zero duration",
            ),
            (
                d().with_burst(0, 5, 9, 0),
                "burst on node0 at 5 grabs zero frames",
            ),
            (
                d().with_reclaim_stall(5, 0),
                "reclaim stall at 5 has zero duration",
            ),
            (d().with_flap(5, 9, 0), "watermark flap at 5 has zero boost"),
        ];
        for (plan, want) in cases {
            assert_eq!(plan.validate().expect_err(want).to_string(), want);
        }
    }

    #[test]
    fn pressure_windows_are_half_open() {
        let b = AllocBurst {
            node: 0,
            at: 1_000,
            duration: 500,
            frames: 8,
        };
        assert!(!b.active_at(999));
        assert!(b.active_at(1_000));
        assert!(b.active_at(1_499));
        assert!(!b.active_at(1_500));
        let f = WatermarkFlap {
            at: 10,
            duration: 5,
            boost: 3,
        };
        assert!(f.active_at(10) && f.active_at(14) && !f.active_at(15));
        let s = ReclaimStall { at: 0, duration: 1 };
        assert!(s.active_at(0) && !s.active_at(1));
    }

    #[test]
    fn validate_accepts_every_builder_example() {
        let plan = FaultPlan::default()
            .with_ipi_drop(1.0)
            .with_ipi_delay(0.5, 30_000)
            .with_tick_miss(0.1)
            .with_tick_jitter(0.2, 400_000)
            .with_stall(2, 0, 5_000_000)
            .with_storm(2_000_000, 3_000_000);
        assert_eq!(plan.validate(), Ok(()));
        assert_eq!(FaultPlan::default().validate(), Ok(()));
    }
}
