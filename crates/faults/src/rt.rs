//! Thread-fault injection for the real-thread `rt` runtime.
//!
//! The simulator's [`FaultInjector`](crate::FaultInjector) perturbs a
//! deterministic machine, so every fault lands at an exact simulated
//! nanosecond. Real OS threads have no such clock — the reproducible unit
//! is the *round*: one iteration of a worker's publish/sweep loop. A
//! [`ThreadFaultPlan`] is therefore phrased in rounds, and a
//! [`ThreadFaultInjector`] hands each worker its own forked RNG stream
//! ([`ThreadFaultStream`]) so the fault sequence a given thread sees is a
//! pure function of (plan, seed, thread id) — independent of OS
//! scheduling, thread count, or what any *other* thread draws.
//!
//! Faults modeled, mirroring the failure modes the rt robustness layer
//! (`latr_core::rt`) must survive:
//!
//! * **Sweeper stalls** — a preemption window: the thread keeps running
//!   but must skip its sweep for a span of rounds, starving the cached
//!   frontier until the [`FrontierWatchdog`] excludes it.
//! * **Dropped wakeups** — a publish completes but the publisher skips
//!   whatever notification it would have sent, so sweepers only notice
//!   the work on their own schedule.
//! * **Delayed announces** — the sweeper sweeps but suppresses its
//!   frontier announce (an *unannounced* sweep), so the cached frontier
//!   lags until a forced refresh.
//! * **Thread death** — scheduled, not probabilistic: at a given round
//!   the thread either panics mid-sweep (exercising the `SweepGuard`
//!   panic fence) or silently stops (exercising the watchdog path).
//!
//! [`FrontierWatchdog`]: ../latr_core/rt/struct.FrontierWatchdog.html

use latr_sim::SimRng;

use crate::THREAD_FAULT_STREAM;

/// A scheduled thread death: at `at_round`, thread `thread` either
/// panics mid-sweep (`panic = true`) or returns from its loop without a
/// word (`panic = false`, a silent hang/exit the watchdog must catch).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ThreadDeath {
    /// Worker thread index the death applies to.
    pub thread: u16,
    /// Round at which the death fires (checked before any other fault).
    pub at_round: u64,
    /// Panic mid-sweep rather than exiting silently.
    pub panic: bool,
}

/// Per-round probabilistic and scheduled faults for real worker threads.
/// Construct with [`ThreadFaultPlan::default`] (no faults) plus the
/// chainable `with_*` builders; pure data, no randomness.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ThreadFaultPlan {
    /// Probability in `[0, 1]` that a round opens a sweeper stall.
    pub stall_prob: f64,
    /// Length of each stall, in rounds.
    pub stall_rounds: u64,
    /// Probability in `[0, 1]` that a publish round drops its wakeup.
    pub wakeup_drop_prob: f64,
    /// Probability in `[0, 1]` that a sweep round suppresses its
    /// frontier announce.
    pub announce_delay_prob: f64,
    /// Scheduled thread deaths.
    pub deaths: Vec<ThreadDeath>,
}

impl ThreadFaultPlan {
    /// Open a stall of `rounds` rounds with probability `prob` per round.
    #[must_use]
    pub fn with_stalls(mut self, prob: f64, rounds: u64) -> Self {
        self.stall_prob = prob;
        self.stall_rounds = rounds;
        self
    }

    /// Drop each publish wakeup independently with probability `prob`.
    #[must_use]
    pub fn with_wakeup_drops(mut self, prob: f64) -> Self {
        self.wakeup_drop_prob = prob;
        self
    }

    /// Suppress each sweep's frontier announce with probability `prob`.
    #[must_use]
    pub fn with_announce_delays(mut self, prob: f64) -> Self {
        self.announce_delay_prob = prob;
        self
    }

    /// Kill `thread` at `at_round` — by panic if `panic`, silently
    /// otherwise.
    #[must_use]
    pub fn with_death(mut self, thread: u16, at_round: u64, panic: bool) -> Self {
        self.deaths.push(ThreadDeath {
            thread,
            at_round,
            panic,
        });
        self
    }

    /// Whether this plan injects anything at all.
    pub fn is_active(&self) -> bool {
        *self != ThreadFaultPlan::default()
    }

    /// Range-check every knob, mirroring [`FaultPlan::validate`]: all
    /// probabilities in `[0, 1]` (NaN rejected), a non-zero stall
    /// probability needs a non-zero stall length, and at most one death
    /// per thread (a thread only dies once).
    ///
    /// ```
    /// use latr_faults::{ThreadFaultPlan, ThreadPlanError};
    ///
    /// let plan = ThreadFaultPlan::default().with_stalls(0.5, 0);
    /// assert_eq!(plan.validate(), Err(ThreadPlanError::StallWithoutLength));
    /// ```
    ///
    /// [`FaultPlan::validate`]: crate::FaultPlan::validate
    pub fn validate(&self) -> Result<(), ThreadPlanError> {
        let prob = |name: &'static str, value: f64| {
            if (0.0..=1.0).contains(&value) {
                Ok(())
            } else {
                Err(ThreadPlanError::ProbabilityOutOfRange { name, value })
            }
        };
        prob("stall_prob", self.stall_prob)?;
        prob("wakeup_drop_prob", self.wakeup_drop_prob)?;
        prob("announce_delay_prob", self.announce_delay_prob)?;
        if self.stall_prob > 0.0 && self.stall_rounds == 0 {
            return Err(ThreadPlanError::StallWithoutLength);
        }
        for (i, d) in self.deaths.iter().enumerate() {
            if self.deaths[..i].iter().any(|e| e.thread == d.thread) {
                return Err(ThreadPlanError::DuplicateDeath { thread: d.thread });
            }
        }
        Ok(())
    }
}

/// Why [`ThreadFaultPlan::validate`] refuses a plan.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ThreadPlanError {
    /// A probability lies outside `[0, 1]` or is NaN.
    ProbabilityOutOfRange {
        /// The plan field, e.g. `"stall_prob"`.
        name: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// `stall_prob > 0` with `stall_rounds == 0`: a stall would open and
    /// close in the same round, injecting nothing.
    StallWithoutLength,
    /// The thread is scheduled to die more than once.
    DuplicateDeath {
        /// The worker index.
        thread: u16,
    },
}

impl std::fmt::Display for ThreadPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ThreadPlanError::ProbabilityOutOfRange { name, value } => {
                write!(f, "{name} must be in [0, 1], got {value}")
            }
            ThreadPlanError::StallWithoutLength => {
                write!(f, "stall_prob > 0 requires stall_rounds > 0")
            }
            ThreadPlanError::DuplicateDeath { thread } => {
                write!(f, "thread {thread} has more than one death")
            }
        }
    }
}

impl std::error::Error for ThreadPlanError {}

/// Outcome of consulting a [`ThreadFaultStream`] for one round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ThreadFault {
    /// Round runs normally.
    Run,
    /// The thread is inside a stall window: publish, but skip the sweep.
    Stalled,
    /// Publish and sweep, but drop the post-publish wakeup.
    DropWakeup,
    /// Sweep without announcing to the frontier.
    DelayAnnounce,
    /// The thread dies this round: panic mid-sweep if `panic`, else
    /// return silently. Fires exactly once.
    Die {
        /// Die by panicking (vs. a silent exit).
        panic: bool,
    },
}

/// A validated [`ThreadFaultPlan`] bound to a run seed. Cheap to clone
/// and [`Send`]; each worker calls [`stream`](Self::stream) with its own
/// index to get an independent deterministic fault stream.
#[derive(Clone, Debug)]
pub struct ThreadFaultInjector {
    plan: ThreadFaultPlan,
    seed: u64,
}

impl ThreadFaultInjector {
    /// Bind `plan` to `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the plan fails [`ThreadFaultPlan::validate`] — an
    /// invalid plan would silently inject nothing (or never terminate a
    /// stall), which is worse than failing loudly at construction.
    pub fn new(plan: ThreadFaultPlan, seed: u64) -> Self {
        if let Err(e) = plan.validate() {
            panic!("invalid ThreadFaultPlan: {e}");
        }
        ThreadFaultInjector { plan, seed }
    }

    /// The plan this injector executes.
    pub fn plan(&self) -> &ThreadFaultPlan {
        &self.plan
    }

    /// The per-thread fault stream for worker `thread`. The RNG is
    /// forked from the seed per thread (golden-ratio mixing so adjacent
    /// indices land on unrelated streams), so adding or removing workers
    /// never shifts the faults any *other* worker sees.
    pub fn stream(&self, thread: u16) -> ThreadFaultStream {
        let tag = THREAD_FAULT_STREAM ^ u64::from(thread).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ThreadFaultStream {
            death: self
                .plan
                .deaths
                .iter()
                .find(|d| d.thread == thread)
                .copied(),
            plan: self.plan.clone(),
            thread,
            rng: SimRng::new(self.seed).fork(tag),
            stalled_until: 0,
            died: false,
        }
    }
}

/// One worker thread's view of the fault plan: consult
/// [`fault_at`](Self::fault_at) once per round.
#[derive(Clone, Debug)]
pub struct ThreadFaultStream {
    plan: ThreadFaultPlan,
    death: Option<ThreadDeath>,
    thread: u16,
    rng: SimRng,
    /// Exclusive end of the current stall window, in rounds.
    stalled_until: u64,
    died: bool,
}

impl ThreadFaultStream {
    /// The worker index this stream was forked for.
    pub fn thread(&self) -> u16 {
        self.thread
    }

    /// Decide the fate of round `round`. Scheduled deaths are checked
    /// first and consume no randomness; an open stall window likewise
    /// resolves purely from the round number. The remaining draws happen
    /// in a fixed order (stall, wakeup drop, announce delay) so a stream
    /// is reproducible for a fixed (plan, seed, thread, round sequence).
    pub fn fault_at(&mut self, round: u64) -> ThreadFault {
        if !self.died {
            if let Some(d) = self.death {
                if round >= d.at_round {
                    self.died = true;
                    return ThreadFault::Die { panic: d.panic };
                }
            }
        }
        if round < self.stalled_until {
            return ThreadFault::Stalled;
        }
        if self.plan.stall_prob > 0.0 && self.rng.chance(self.plan.stall_prob) {
            self.stalled_until = round + self.plan.stall_rounds;
            return ThreadFault::Stalled;
        }
        if self.plan.wakeup_drop_prob > 0.0 && self.rng.chance(self.plan.wakeup_drop_prob) {
            return ThreadFault::DropWakeup;
        }
        if self.plan.announce_delay_prob > 0.0 && self.rng.chance(self.plan.announce_delay_prob) {
            return ThreadFault::DelayAnnounce;
        }
        ThreadFault::Run
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_inactive_and_faultless() {
        assert!(!ThreadFaultPlan::default().is_active());
        let inj = ThreadFaultInjector::new(ThreadFaultPlan::default(), 42);
        let mut s = inj.stream(0);
        for round in 0..256 {
            assert_eq!(s.fault_at(round), ThreadFault::Run);
        }
    }

    #[test]
    fn streams_are_deterministic_and_per_thread_independent() {
        let plan = ThreadFaultPlan::default()
            .with_stalls(0.1, 5)
            .with_wakeup_drops(0.2)
            .with_announce_delays(0.3);
        let inj = ThreadFaultInjector::new(plan, 7);
        for thread in [0u16, 3, 119] {
            let mut a = inj.stream(thread);
            let mut b = inj.stream(thread);
            for round in 0..512 {
                assert_eq!(a.fault_at(round), b.fault_at(round));
            }
        }
        // Different threads draw from unrelated streams: over 512 rounds
        // at these rates the sequences cannot coincide.
        let (mut a, mut b) = (inj.stream(0), inj.stream(1));
        let differs = (0..512).any(|r| a.fault_at(r) != b.fault_at(r));
        assert!(differs, "thread 0 and 1 saw identical fault sequences");
    }

    #[test]
    fn stall_windows_cover_their_rounds() {
        let plan = ThreadFaultPlan::default().with_stalls(1.0, 4);
        let mut s = ThreadFaultInjector::new(plan, 1).stream(0);
        // prob 1 ⇒ round 0 opens a stall through round 3; round 4 draws
        // again and (prob 1) opens the next window immediately.
        for round in 0..16 {
            assert_eq!(s.fault_at(round), ThreadFault::Stalled, "round {round}");
        }
    }

    #[test]
    fn death_fires_exactly_once_then_the_stream_continues() {
        let plan = ThreadFaultPlan::default().with_death(2, 10, true);
        let inj = ThreadFaultInjector::new(plan, 3);
        let mut s = inj.stream(2);
        for round in 0..10 {
            assert_eq!(s.fault_at(round), ThreadFault::Run);
        }
        assert_eq!(s.fault_at(10), ThreadFault::Die { panic: true });
        // A harness that (incorrectly) keeps polling after a death must
        // not see it fire twice.
        assert_eq!(s.fault_at(11), ThreadFault::Run);
        // Other threads never see this death.
        let mut other = inj.stream(1);
        for round in 0..64 {
            assert_ne!(other.fault_at(round), ThreadFault::Die { panic: true });
        }
    }

    #[test]
    fn late_joining_thread_still_dies() {
        // A thread that first polls after its scheduled round dies on its
        // first poll rather than never.
        let plan = ThreadFaultPlan::default().with_death(0, 5, false);
        let mut s = ThreadFaultInjector::new(plan, 9).stream(0);
        assert_eq!(s.fault_at(40), ThreadFault::Die { panic: false });
    }

    #[test]
    fn invalid_plans_are_rejected() {
        let d = ThreadFaultPlan::default;
        let out_of_range = |plan: ThreadFaultPlan, want: &str| match plan.validate() {
            Err(ThreadPlanError::ProbabilityOutOfRange { name, .. }) => assert_eq!(name, want),
            other => panic!("{want}: expected ProbabilityOutOfRange, got {other:?}"),
        };
        out_of_range(d().with_stalls(1.5, 10), "stall_prob");
        out_of_range(d().with_wakeup_drops(-0.1), "wakeup_drop_prob");
        out_of_range(d().with_announce_delays(f64::NAN), "announce_delay_prob");
        assert_eq!(
            d().with_stalls(0.5, 0).validate(),
            Err(ThreadPlanError::StallWithoutLength)
        );
        assert_eq!(
            d().with_death(1, 5, true)
                .with_death(1, 9, false)
                .validate(),
            Err(ThreadPlanError::DuplicateDeath { thread: 1 })
        );
        assert_eq!(d().with_stalls(0.5, 3).validate(), Ok(()));
    }

    #[test]
    #[should_panic(expected = "invalid ThreadFaultPlan")]
    fn injector_panics_on_invalid_plan() {
        let _ = ThreadFaultInjector::new(ThreadFaultPlan::default().with_stalls(2.0, 1), 0);
    }
}
