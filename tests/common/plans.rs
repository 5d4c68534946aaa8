//! The chaos plans: one fault class each, plus the soup of all of them.
//! `tests/chaos.rs`, `tests/differential.rs` and `tests/golden_traces.rs`
//! run them, so a plan's name means the same faults in every suite.

// Each test binary compiles this module and runs a subset of the plans.
#![allow(dead_code)]

use latr_faults::FaultPlan;
use latr_sim::MILLISECOND;

/// 30 % of IPI deliveries dropped.
pub fn ipi_drop() -> FaultPlan {
    FaultPlan::default().with_ipi_drop(0.30)
}

/// Half the IPI deliveries delayed by up to 300 µs.
pub fn ipi_delay() -> FaultPlan {
    FaultPlan::default().with_ipi_delay(0.50, 300_000)
}

/// Core 1's sweeps stalled from 1 ms for 8 ms.
pub fn sweep_stall() -> FaultPlan {
    FaultPlan::default().with_stall(1, MILLISECOND, 8 * MILLISECOND)
}

/// Half the scheduler ticks jittered by up to 400 µs.
pub fn tick_jitter() -> FaultPlan {
    FaultPlan::default().with_tick_jitter(0.50, 400_000)
}

/// 35 % of scheduler ticks missed.
pub fn tick_miss() -> FaultPlan {
    FaultPlan::default().with_tick_miss(0.35)
}

/// Every publish forced to overflow from 2 ms for 3 ms.
pub fn overflow_storm() -> FaultPlan {
    FaultPlan::default().with_storm(2 * MILLISECOND, 3 * MILLISECOND)
}

/// A milder dose of every fault class at once.
pub fn soup() -> FaultPlan {
    FaultPlan::default()
        .with_ipi_drop(0.10)
        .with_ipi_delay(0.30, 200_000)
        .with_tick_miss(0.20)
        .with_tick_jitter(0.30, 200_000)
        .with_stall(2, 2 * MILLISECOND, 4 * MILLISECOND)
        .with_storm(8 * MILLISECOND, 2 * MILLISECOND)
}

/// Every plan above.
pub fn all() -> [FaultPlan; 7] {
    [
        ipi_drop(),
        ipi_delay(),
        sweep_stall(),
        tick_jitter(),
        tick_miss(),
        overflow_storm(),
        soup(),
    ]
}
