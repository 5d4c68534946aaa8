//! Latr configuration knobs (§4.1, §8 and the ablation benches).

use serde::{Deserialize, Serialize};

/// Tunables of the Latr mechanism. Defaults match the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatrConfig {
    /// Latr states per core (§4.1: 64; §8 notes the trade-off between
    /// queue size and sweep cost — ablated in `bench --bin ablations`).
    pub states_per_core: usize,
    /// Scheduler ticks to wait before reclaiming virtual and physical
    /// pages (§4.2: two ticks = 2 ms).
    pub reclaim_ticks: u32,
    /// Whether to also sweep on context switches (§4.1: tick *or* context
    /// switch, whichever comes first). Turning this off is an ablation.
    pub sweep_on_context_switch: bool,
    /// Whether lazy handling of AutoNUMA hint-unmaps is enabled (§4.3).
    pub lazy_migration: bool,
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
    pub adaptive_fallback: bool,
    /// Enter synchronous mode when a queue's occupancy reaches this
    /// percentage of its capacity (hysteresis high-water mark).
    pub fallback_enter_pct: u32,
    /// Leave synchronous mode once every queue's occupancy has drained to
    /// at most this percentage (hysteresis low-water mark).
    pub fallback_exit_pct: u32,
    /// Gate each reclamation package on its covering Latr state: the
    /// package is not released — deadline or not — until the state's CPU
    /// bitmask has cleared. The deadline alone is only a proof of safety
    /// when every core actually swept; under a stalled sweeper or a lost
    /// interrupt it is not. Disabling this recovers the paper's
    /// deadline-only release (unsafe under injected faults).
    pub gate_reclaim: bool,
    /// Run the straightforward full-scan sweep (the executable spec)
    /// instead of the pending-bitmap fast path. Both produce bit-identical
    /// event streams — the differential suite asserts it — so this knob
    /// only trades speed for obviousness. Off by default.
    #[serde(default)]
    pub reference_sweep: bool,
    /// Memory-pressure escalation (DESIGN.md §14): how many of the oldest
    /// gated reclamation packages are expedited — owner-local sweep plus
    /// targeted IPIs, the watchdog's mechanism fired early — per pressure
    /// event or allocation stall. `0` disables expedition entirely (the
    /// pressure bench's "bare lazy" arm).
    #[serde(default = "default_expedite_batch")]
    pub expedite_batch: usize,
    /// Below the min watermark, force the adaptive fallback into
    /// synchronous mode so no *new* frees are parked while the reserve is
    /// breached; exit waits for every node to recover to Normal pressure
    /// in addition to the usual queue-drain hysteresis. Requires
    /// `adaptive_fallback`.
    #[serde(default = "default_pressure_sync")]
    pub pressure_sync: bool,
}

fn default_expedite_batch() -> usize {
    8
}

fn default_pressure_sync() -> bool {
    true
}

impl Default for LatrConfig {
    fn default() -> Self {
        LatrConfig {
            states_per_core: 64,
            reclaim_ticks: 2,
            sweep_on_context_switch: true,
            lazy_migration: true,
            watchdog_ticks: 8,
            adaptive_fallback: true,
            fallback_enter_pct: 94,
            fallback_exit_pct: 25,
            gate_reclaim: true,
            reference_sweep: false,
            expedite_batch: default_expedite_batch(),
            pressure_sync: default_pressure_sync(),
        }
    }
}

impl LatrConfig {
    /// Paper-default configuration. (The watchdog and adaptive fallback
    /// are robustness extensions beyond the paper; their defaults are
    /// calibrated never to engage on healthy runs, so paper-figure
    /// reproductions are unaffected.)
    pub fn paper() -> Self {
        Self::default()
    }

    /// Paper mechanism only: watchdog and adaptive fallback disabled.
    /// Used by the chaos suite's negative tests to demonstrate that the
    /// bare mechanism stalls indefinitely under a stalled sweeper.
    pub fn without_degradation(mut self) -> Self {
        self.watchdog_ticks = 0;
        self.adaptive_fallback = false;
        self.gate_reclaim = false;
        self
    }

    /// Lazy mechanism without the memory-pressure escalation: expedition
    /// and the min-watermark sync fallback disabled, everything else
    /// default. The pressure bench's "bare lazy" arm — an allocation
    /// storm drives this configuration through its min watermark while
    /// the default configuration rides it out.
    pub fn without_escalation(mut self) -> Self {
        self.expedite_batch = 0;
        self.pressure_sync = false;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = LatrConfig::default();
        assert_eq!(c.states_per_core, 64);
        assert_eq!(c.reclaim_ticks, 2);
        assert!(c.sweep_on_context_switch);
        assert!(c.lazy_migration);
        assert_eq!(LatrConfig::paper(), c);
    }

    #[test]
    fn degradation_defaults_are_calibrated() {
        let c = LatrConfig::default();
        // The watchdog must sit far above the healthy-path sweep bound so
        // it never fires without injected faults.
        assert!(c.watchdog_ticks > c.reclaim_ticks + 1);
        assert!(c.adaptive_fallback);
        assert!(c.fallback_enter_pct > c.fallback_exit_pct);
        assert!(c.gate_reclaim);
        let bare = c.without_degradation();
        assert_eq!(bare.watchdog_ticks, 0);
        assert!(!bare.adaptive_fallback);
        assert!(!bare.gate_reclaim);
    }

    #[test]
    fn escalation_defaults_and_bare_lazy() {
        let c = LatrConfig::default();
        assert_eq!(c.expedite_batch, 8);
        assert!(c.pressure_sync);
        let bare = c.without_escalation();
        assert_eq!(bare.expedite_batch, 0);
        assert!(!bare.pressure_sync);
        // Everything outside the escalation knobs is untouched.
        assert!(bare.gate_reclaim);
        assert_eq!(bare.watchdog_ticks, c.watchdog_ticks);
    }
}
