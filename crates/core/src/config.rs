//! Latr configuration knobs (§4.1, §8 and the ablation benches).

/// Tunables of the Latr mechanism. Defaults match the paper; the
/// watchdog and adaptive fallback, robustness extensions beyond it,
/// default to values calibrated never to engage on healthy runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LatrConfig {
    /// Latr states per core (§4.1: 64; §8 notes the trade-off between
    /// queue size and sweep cost — ablated in `latr-bench`'s `paper ablations`).
    pub states_per_core: usize,
    /// Scheduler ticks to wait before reclaiming virtual and physical
    /// pages (§4.2: two ticks = 2 ms).
    pub reclaim_ticks: u32,
    /// Whether to also sweep on context switches (§4.1: tick *or* context
    /// switch, whichever comes first). Turning this off is an ablation.
    pub sweep_on_context_switch: bool,
    /// Sweep watchdog: if a published state's CPU bitmask has not fully
    /// cleared after this many scheduler ticks, targeted IPIs finish the
    /// laggard cores, bounding reclamation latency under stalled sweepers
    /// and lost interrupts. `0` disables the watchdog (the paper's
    /// mechanism: reclamation waits for sweeps, however long they take).
    /// The default (8 ticks) is far above the healthy-path worst case of
    /// `reclaim_ticks`, so escalations never fire in fault-free runs.
    pub watchdog_ticks: u32,
    /// Adaptive IPI fallback: under sustained queue-overflow pressure,
    /// route *new* shootdowns synchronously instead of burning a fallback
    /// round per overflow, returning to lazy mode once occupancy drains.
    /// The hysteresis marks are the policy's `FALLBACK_ENTER_PCT` and
    /// `FALLBACK_EXIT_PCT` constants.
    pub adaptive_fallback: bool,
    /// Gate each reclamation package on its covering Latr state: the
    /// package is not released — deadline or not — until the state's CPU
    /// bitmask has cleared. The deadline alone is only a proof of safety
    /// when every core actually swept; under a stalled sweeper or a lost
    /// interrupt it is not. Disabling this recovers the paper's
    /// deadline-only release (unsafe under injected faults).
    pub gate_reclaim: bool,
    /// Memory-pressure escalation (DESIGN.md §14). Each pressure event or
    /// allocation stall expedites the policy's `EXPEDITE_BATCH` oldest
    /// gated reclamation packages — owner-local sweep plus targeted IPIs,
    /// the watchdog's mechanism fired early. Below the min watermark it
    /// also forces the adaptive fallback into synchronous mode, so no
    /// *new* frees are parked while the reserve is breached; exit waits
    /// for every node to recover to Normal pressure in addition to the
    /// usual queue-drain hysteresis (requires `adaptive_fallback`). Off is
    /// the pressure bench's "bare lazy" arm.
    pub pressure_escalation: bool,
}

impl Default for LatrConfig {
    fn default() -> Self {
        LatrConfig {
            states_per_core: 64,
            reclaim_ticks: 2,
            sweep_on_context_switch: true,
            watchdog_ticks: 8,
            adaptive_fallback: true,
            gate_reclaim: true,
            pressure_escalation: true,
        }
    }
}

impl LatrConfig {
    /// Paper mechanism only: watchdog and adaptive fallback disabled.
    /// Used by the chaos suite's negative tests to demonstrate that the
    /// bare mechanism stalls indefinitely under a stalled sweeper.
    pub fn without_degradation(mut self) -> Self {
        self.watchdog_ticks = 0;
        self.adaptive_fallback = false;
        self.gate_reclaim = false;
        self
    }

    /// Checks the configuration for values no run can use.
    ///
    /// ```
    /// use latr_core::{LatrConfig, LatrConfigError};
    /// let config = LatrConfig { states_per_core: 0, ..LatrConfig::default() };
    /// assert_eq!(config.validate(), Err(LatrConfigError::NoStateSlots));
    /// assert_eq!(LatrConfig::default().validate(), Ok(()));
    /// ```
    pub fn validate(&self) -> Result<(), LatrConfigError> {
        if self.states_per_core == 0 {
            return Err(LatrConfigError::NoStateSlots);
        }
        if self.states_per_core > MAX_STATES_PER_CORE {
            return Err(LatrConfigError::TooManyStateSlots);
        }
        Ok(())
    }

    /// Lazy mechanism without the memory-pressure escalation: expedition
    /// and the min-watermark sync fallback disabled, everything else
    /// default. The pressure bench's "bare lazy" arm — an allocation
    /// storm drives this configuration through its min watermark while
    /// the default configuration rides it out.
    pub fn without_escalation(mut self) -> Self {
        self.pressure_escalation = false;
        self
    }
}

/// The most state slots a core's queue may have: a parked reclaim
/// package names its gate's slot in 16 bits.
pub const MAX_STATES_PER_CORE: usize = 1 << 16;

/// Why [`LatrConfig::validate`] refuses a configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LatrConfigError {
    /// `states_per_core` is zero: every publish would overflow, so the
    /// policy would be Linux with extra bookkeeping.
    NoStateSlots,
    /// `states_per_core` exceeds [`MAX_STATES_PER_CORE`].
    TooManyStateSlots,
}

impl std::fmt::Display for LatrConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LatrConfigError::NoStateSlots => write!(f, "states_per_core must be nonzero"),
            LatrConfigError::TooManyStateSlots => {
                write!(f, "states_per_core must be at most {MAX_STATES_PER_CORE}")
            }
        }
    }
}

impl std::error::Error for LatrConfigError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{FALLBACK_ENTER_PCT, FALLBACK_EXIT_PCT};

    #[test]
    fn defaults_match_paper() {
        let c = LatrConfig::default();
        assert_eq!(c.states_per_core, 64);
        assert_eq!(c.reclaim_ticks, 2);
        assert!(c.sweep_on_context_switch);
    }

    #[test]
    fn degradation_defaults_are_calibrated() {
        let c = LatrConfig::default();
        // The watchdog must sit far above the healthy-path sweep bound so
        // it never fires without injected faults.
        assert!(c.watchdog_ticks > c.reclaim_ticks + 1);
        assert!(c.adaptive_fallback);
        const { assert!(FALLBACK_ENTER_PCT > FALLBACK_EXIT_PCT) };
        assert!(c.gate_reclaim);
        let bare = c.without_degradation();
        assert_eq!(bare.watchdog_ticks, 0);
        assert!(!bare.adaptive_fallback);
        assert!(!bare.gate_reclaim);
    }

    #[test]
    fn validate_rejects_zero_state_slots() {
        let c = LatrConfig::default();
        assert_eq!(c.validate(), Ok(()));
        assert_eq!(c.without_degradation().validate(), Ok(()));
        let none = LatrConfig {
            states_per_core: 0,
            ..c
        };
        assert_eq!(none.validate(), Err(LatrConfigError::NoStateSlots));
        assert_eq!(
            none.validate().unwrap_err().to_string(),
            "states_per_core must be nonzero"
        );
        let most = LatrConfig {
            states_per_core: MAX_STATES_PER_CORE,
            ..c
        };
        assert_eq!(most.validate(), Ok(()));
        let past = LatrConfig {
            states_per_core: MAX_STATES_PER_CORE + 1,
            ..c
        };
        assert_eq!(past.validate(), Err(LatrConfigError::TooManyStateSlots));
        assert_eq!(
            past.validate().unwrap_err().to_string(),
            "states_per_core must be at most 65536"
        );
    }

    #[test]
    #[should_panic(expected = "invalid LatrConfig: states_per_core must be nonzero")]
    fn policy_refuses_zero_state_slots() {
        let _ = crate::LatrPolicy::new(LatrConfig {
            states_per_core: 0,
            ..LatrConfig::default()
        });
    }

    #[test]
    fn escalation_defaults_and_bare_lazy() {
        let c = LatrConfig::default();
        assert!(c.pressure_escalation);
        let bare = c.without_escalation();
        assert!(!bare.pressure_escalation);
        // Everything outside the escalation knobs is untouched.
        assert!(bare.gate_reclaim);
        assert_eq!(bare.watchdog_ticks, c.watchdog_ticks);
    }
}
