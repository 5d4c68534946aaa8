//! Runtime fault injection.
//!
//! The injector owns its own forked [`SimRng`] stream so its draws never
//! interleave with the machine's workload randomness: a run with a plan
//! attached differs from the fault-free run only by the injected faults
//! themselves, and two runs with the same (plan, seed) are bit-identical.

use latr_sim::{Nanos, SimRng, Time};

use crate::plan::FaultPlan;

/// Outcome of consulting the injector for one IPI delivery.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IpiFault {
    /// Deliver normally.
    Deliver,
    /// The IPI is lost; the sender must eventually retransmit.
    Drop,
    /// The IPI arrives late by this many nanoseconds.
    Delay(Nanos),
}

/// Outcome of consulting the injector for one scheduler tick.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TickFault {
    /// Tick runs normally.
    Run,
    /// The core is inside a scheduled sweep stall: the tick fires (time
    /// keeps advancing) but must not sweep.
    Stalled,
    /// The timer interrupt is missed entirely: skip the tick's work.
    Miss,
    /// The tick runs but the *next* tick should be scheduled this many
    /// nanoseconds late.
    Jitter(Nanos),
}

/// A [`FaultPlan`] bound to a forked RNG stream. One injector drives one
/// simulation run; create a fresh one per run.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: SimRng,
}

impl FaultInjector {
    /// Bind `plan` to `rng`. The rng should be forked from the machine
    /// seed with [`crate::FAULT_STREAM`] so the main stream is unaffected.
    ///
    /// # Panics
    ///
    /// Panics if the plan fails [`FaultPlan::validate`] — an out-of-range
    /// probability or an empty window would silently inject nonsense,
    /// which is worse than failing loudly at construction.
    pub fn new(plan: FaultPlan, rng: SimRng) -> Self {
        if let Err(e) = plan.validate() {
            panic!("invalid FaultPlan: {e}");
        }
        FaultInjector { plan, rng }
    }

    /// The plan this injector executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Decide the fate of one IPI delivery. Draw order is fixed (drop,
    /// then delay, then delay magnitude) so traces are reproducible.
    pub fn ipi_fault(&mut self) -> IpiFault {
        if self.plan.ipi.drop_prob > 0.0 && self.rng.chance(self.plan.ipi.drop_prob) {
            return IpiFault::Drop;
        }
        if self.plan.ipi.delay_prob > 0.0 && self.rng.chance(self.plan.ipi.delay_prob) {
            let max = self.plan.ipi.delay_max;
            if max > 0 {
                return IpiFault::Delay(self.rng.below(max + 1));
            }
        }
        IpiFault::Deliver
    }

    /// Decide the fate of `cpu`'s scheduler tick at time `now`. Scheduled
    /// stalls are checked first and consume no randomness — a stalled
    /// core's outcome is a pure function of time, keeping the RNG stream
    /// aligned across plans that differ only in stall windows.
    pub fn tick_fault(&mut self, cpu: usize, now: Time) -> TickFault {
        if self.stalled(cpu, now) {
            return TickFault::Stalled;
        }
        if self.plan.tick.miss_prob > 0.0 && self.rng.chance(self.plan.tick.miss_prob) {
            return TickFault::Miss;
        }
        if self.plan.tick.jitter_prob > 0.0 && self.rng.chance(self.plan.tick.jitter_prob) {
            let max = self.plan.tick.jitter_max;
            if max > 0 {
                return TickFault::Jitter(self.rng.below(max + 1));
            }
        }
        TickFault::Run
    }

    /// Whether `cpu` is inside a scheduled sweep stall at `now`. Stalls
    /// suppress sweeping (tick and context-switch) but not IPI delivery:
    /// disabling preemption does not mask interrupts.
    pub fn stalled(&self, cpu: usize, now: Time) -> bool {
        let ns = now.as_ns();
        self.plan
            .stalls
            .iter()
            .any(|s| usize::from(s.cpu) == cpu && s.at <= ns && ns < s.at + s.duration)
    }

    /// Whether a queue-overflow storm is active at `now`.
    pub fn storm_active(&self, now: Time) -> bool {
        let ns = now.as_ns();
        self.plan
            .storms
            .iter()
            .any(|s| s.at <= ns && ns < s.at + s.duration)
    }

    /// Whether a scheduled reclaim stall covers `now` — the background
    /// reclamation kthread must skip its tick. A pure function of time,
    /// consuming no randomness.
    pub fn reclaim_stalled(&self, now: Time) -> bool {
        let ns = now.as_ns();
        self.plan.reclaim_stalls.iter().any(|s| s.active_at(ns))
    }

    /// The watermark boost in effect at `now`: the largest boost among
    /// active flap windows (overlapping flaps do not stack — the worst
    /// one wins). Pure function of time.
    pub fn flap_boost(&self, now: Time) -> u64 {
        let ns = now.as_ns();
        self.plan
            .flaps
            .iter()
            .filter(|f| f.active_at(ns))
            .map(|f| f.boost)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn injector(plan: FaultPlan) -> FaultInjector {
        let mut root = SimRng::new(42);
        FaultInjector::new(plan, root.fork(crate::FAULT_STREAM))
    }

    #[test]
    fn empty_plan_never_faults() {
        let mut inj = injector(FaultPlan::default());
        for i in 0..100 {
            assert_eq!(inj.ipi_fault(), IpiFault::Deliver);
            assert_eq!(
                inj.tick_fault(i % 4, Time::from_ns(i as u64 * 1000)),
                TickFault::Run
            );
        }
    }

    #[test]
    #[should_panic(expected = "invalid FaultPlan: ipi.drop_prob must be in [0, 1]")]
    fn new_rejects_an_invalid_plan() {
        injector(FaultPlan::default().with_ipi_drop(1.5));
    }

    #[test]
    fn drop_prob_one_always_drops() {
        let mut inj = injector(FaultPlan::default().with_ipi_drop(1.0));
        for _ in 0..32 {
            assert_eq!(inj.ipi_fault(), IpiFault::Drop);
        }
    }

    #[test]
    fn delay_is_bounded_by_delay_max() {
        let mut inj = injector(FaultPlan::default().with_ipi_delay(1.0, 5_000));
        for _ in 0..256 {
            match inj.ipi_fault() {
                IpiFault::Delay(d) => assert!(d <= 5_000),
                other => panic!("expected delay, got {other:?}"),
            }
        }
    }

    #[test]
    fn stall_windows_are_half_open_and_per_core() {
        let inj = injector(FaultPlan::default().with_stall(1, 1_000, 500));
        assert!(!inj.stalled(1, Time::from_ns(999)));
        assert!(inj.stalled(1, Time::from_ns(1_000)));
        assert!(inj.stalled(1, Time::from_ns(1_499)));
        assert!(!inj.stalled(1, Time::from_ns(1_500)));
        assert!(!inj.stalled(0, Time::from_ns(1_200)));
    }

    #[test]
    fn stalls_take_priority_and_consume_no_randomness() {
        let plan = FaultPlan::default()
            .with_tick_miss(0.5)
            .with_stall(0, 0, 1_000_000);
        let mut a = injector(plan.clone());
        let mut b = injector(plan);
        // a consults during the stall window (no draws), b does not
        // consult at all; afterwards their streams must agree.
        for i in 0..50 {
            assert_eq!(
                a.tick_fault(0, Time::from_ns(i * 1_000)),
                TickFault::Stalled
            );
        }
        for i in 0..50 {
            let t = Time::from_ns(2_000_000 + i * 1_000);
            assert_eq!(a.tick_fault(0, t), b.tick_fault(0, t));
        }
    }

    #[test]
    fn storm_windows_cover_their_interval() {
        let inj = injector(FaultPlan::default().with_storm(2_000, 1_000));
        assert!(!inj.storm_active(Time::from_ns(1_999)));
        assert!(inj.storm_active(Time::from_ns(2_000)));
        assert!(inj.storm_active(Time::from_ns(2_999)));
        assert!(!inj.storm_active(Time::from_ns(3_000)));
    }

    #[test]
    fn reclaim_stall_windows_cover_their_interval() {
        let inj = injector(FaultPlan::default().with_reclaim_stall(5_000, 2_000));
        assert!(!inj.reclaim_stalled(Time::from_ns(4_999)));
        assert!(inj.reclaim_stalled(Time::from_ns(5_000)));
        assert!(inj.reclaim_stalled(Time::from_ns(6_999)));
        assert!(!inj.reclaim_stalled(Time::from_ns(7_000)));
    }

    #[test]
    fn overlapping_flaps_take_the_worst_boost() {
        let inj = injector(
            FaultPlan::default()
                .with_flap(1_000, 2_000, 16)
                .with_flap(2_000, 2_000, 64),
        );
        assert_eq!(inj.flap_boost(Time::from_ns(0)), 0);
        assert_eq!(inj.flap_boost(Time::from_ns(1_500)), 16);
        assert_eq!(inj.flap_boost(Time::from_ns(2_500)), 64); // overlap: max, not sum
        assert_eq!(inj.flap_boost(Time::from_ns(3_500)), 64);
        assert_eq!(inj.flap_boost(Time::from_ns(4_000)), 0);
    }

    #[test]
    fn pressure_sites_consume_no_randomness() {
        let plan = FaultPlan::default()
            .with_tick_miss(0.5)
            .with_burst(0, 0, 1_000_000, 64)
            .with_reclaim_stall(0, 1_000_000)
            .with_flap(0, 1_000_000, 8);
        let mut a = injector(plan.clone());
        let mut b = injector(FaultPlan::default().with_tick_miss(0.5));
        // a consults the pure time-window helpers; the RNG streams must
        // stay aligned with a plan that has no pressure sites at all.
        for i in 0..64 {
            let t = Time::from_ns(i * 1_000);
            let _ = a.reclaim_stalled(t);
            let _ = a.flap_boost(t);
            assert_eq!(a.tick_fault(0, t), b.tick_fault(0, t));
        }
    }

    #[test]
    fn same_seed_same_fault_sequence() {
        let plan = FaultPlan::default()
            .with_ipi_drop(0.2)
            .with_ipi_delay(0.4, 10_000)
            .with_tick_miss(0.1)
            .with_tick_jitter(0.3, 50_000);
        let mut a = injector(plan.clone());
        let mut b = injector(plan);
        for i in 0..512u64 {
            assert_eq!(a.ipi_fault(), b.ipi_fault());
            let t = Time::from_ns(i * 777);
            assert_eq!(
                a.tick_fault((i % 8) as usize, t),
                b.tick_fault((i % 8) as usize, t)
            );
        }
    }
}
