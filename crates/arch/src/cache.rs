//! Last-level-cache accounting model (Table 4).
//!
//! The paper's Table 4 shows that Latr slightly *improves* LLC miss ratios
//! for most workloads — removing IPI interrupt handlers removes the cache
//! pollution they cause — while the Latr states themselves occupy less than
//! 1 % of the LLC.
//!
//! We do not simulate individual cache lines. Instead, each workload
//! declares a base application access stream with a characteristic miss
//! ratio, and the kernel charges *perturbations*:
//!
//! * every IPI interrupt pollutes the target's cache (handler code and data
//!   evict application lines, causing extra application misses afterwards);
//! * every Latr state save/sweep touches a small number of state lines,
//!   some of which miss (cross-socket reads of remote queues).
//!
//! The resulting miss ratio `misses / accesses` is what Table 4 reports.

/// Accumulated LLC access/miss counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total LLC accesses.
    pub accesses: u64,
    /// Total LLC misses.
    pub misses: u64,
}

impl CacheStats {
    /// Miss ratio in `[0, 1]`, or 0 when there were no accesses.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// The LLC perturbation model.
///
/// ```
/// use latr_arch::LlcModel;
/// let mut llc = LlcModel::new(0.10); // app baseline: 10% misses
/// llc.charge_app_accesses(1_000_000);
/// let base = llc.stats().miss_ratio();
/// llc.charge_interrupt(); // IPI handler pollutes the cache
/// assert!(llc.stats().miss_ratio() > base);
/// ```
#[derive(Clone, Debug)]
pub struct LlcModel {
    base_miss_ratio: f64,
    stats: CacheStats,
    // Fractional-miss accumulator so tiny rates are not lost to rounding.
    fractional_misses: f64,
    /// LLC lines an IPI interrupt handler touches (code + stack + APIC
    /// bookkeeping) on the interrupted core.
    pub interrupt_lines: u64,
    /// Fraction of handler lines that miss and evict useful data, within
    /// `[0, 1]`.
    pub interrupt_miss_fraction: f64,
    /// Extra application misses caused by each interrupt's evictions.
    pub interrupt_pollution_misses: u64,
    /// Lines touched when saving one Latr state (the state entry itself).
    pub latr_save_lines: u64,
    /// Lines touched when sweeping one remote core's queue.
    pub latr_sweep_lines: u64,
    /// Fraction of Latr state lines that miss (cross-socket coherence
    /// reads), within `[0, 1]`; the states total < 1.3 % of the LLC so
    /// most stay resident.
    pub latr_miss_fraction: f64,
}

impl LlcModel {
    /// Creates a model with the workload's baseline miss ratio.
    ///
    /// # Panics
    ///
    /// Panics if `base_miss_ratio` is not within `[0, 1]`.
    pub fn new(base_miss_ratio: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&base_miss_ratio),
            "miss ratio must be in [0,1]"
        );
        LlcModel {
            base_miss_ratio,
            stats: CacheStats::default(),
            fractional_misses: 0.0,
            interrupt_lines: 8,
            interrupt_miss_fraction: 0.03,
            interrupt_pollution_misses: 1,
            latr_save_lines: 2,
            latr_sweep_lines: 1,
            latr_miss_fraction: 0.05,
        }
    }

    /// Adds `accesses` at `miss_ratio` and moves the whole misses out of
    /// the carry. Every ratio is within `[0, 1]`, so the carry is never
    /// negative and truncating it to an integer is its floor — without
    /// `f64::floor`, a library call on x86-64 without SSE4.1.
    #[inline]
    fn charge(&mut self, accesses: u64, miss_ratio: f64) {
        self.stats.accesses += accesses;
        self.fractional_misses += accesses as f64 * miss_ratio;
        let whole = self.fractional_misses as u64;
        self.stats.misses += whole;
        self.fractional_misses -= whole as f64;
    }

    /// Charges `n` ordinary application LLC accesses at the baseline miss
    /// ratio.
    #[inline]
    pub fn charge_app_accesses(&mut self, n: u64) {
        self.charge(n, self.base_miss_ratio);
    }

    /// Charges one IPI interrupt on a core: the handler's own accesses plus
    /// the application misses its evictions cause afterwards.
    #[inline]
    pub fn charge_interrupt(&mut self) {
        self.charge(self.interrupt_lines, self.interrupt_miss_fraction);
        // Pollution: application lines the handler evicted will miss when
        // re-fetched. These are application accesses that would otherwise
        // have hit.
        self.stats.accesses += self.interrupt_pollution_misses;
        self.stats.misses += self.interrupt_pollution_misses;
    }

    /// Charges one Latr state save.
    #[inline]
    pub fn charge_latr_save(&mut self) {
        self.charge(self.latr_save_lines, self.latr_miss_fraction);
    }

    /// Charges one Latr sweep over `cores` remote queues.
    #[inline]
    pub fn charge_latr_sweep(&mut self, cores: u64) {
        self.charge(self.latr_sweep_lines * cores, self.latr_miss_fraction);
    }

    /// Accumulated counts.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The workload's configured baseline miss ratio.
    pub fn base_miss_ratio(&self) -> f64 {
        self.base_miss_ratio
    }

    /// Resets counts, keeping the configuration.
    pub fn reset(&mut self) {
        self.stats = CacheStats::default();
        self.fractional_misses = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The carry as it was written before the truncating form: the
    /// executable spec of [`LlcModel::charge`].
    fn charge_with_floor(stats: &mut CacheStats, carry: &mut f64, accesses: u64, miss_ratio: f64) {
        stats.accesses += accesses;
        *carry += accesses as f64 * miss_ratio;
        let whole = carry.floor();
        stats.misses += whole as u64;
        *carry -= whole;
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random charge sequences, from single accesses to 2^40 of them
        /// at ratios across `[0, 1]` (both ends included): the truncating
        /// carry leaves the same statistics and the same carry bits as
        /// the floor after every charge.
        #[test]
        fn the_carry_matches_the_floor_form(
            charges in prop::collection::vec(
                (0u8..4, 0u64..1 << 40, 0u64..64, 0.0f64..1.0),
                0..200,
            ),
        ) {
            let mut llc = LlcModel::new(0.05);
            let (mut stats, mut carry) = (CacheStats::default(), 0.0f64);
            for (n, &(shape, large, small, ratio)) in charges.iter().enumerate() {
                let (accesses, ratio) = match shape {
                    0 => (large, ratio),
                    1 => (small, ratio),
                    2 => (small, if small % 2 == 0 { 0.0 } else { 1.0 }),
                    _ => (small, ratio * 1e-3),
                };
                llc.charge(accesses, ratio);
                charge_with_floor(&mut stats, &mut carry, accesses, ratio);
                prop_assert_eq!(llc.stats(), stats, "charge {}", n);
                prop_assert_eq!(llc.fractional_misses.to_bits(), carry.to_bits(), "charge {}", n);
            }
        }
    }

    #[test]
    fn baseline_ratio_is_reproduced() {
        let mut llc = LlcModel::new(0.25);
        llc.charge_app_accesses(1_000_000);
        let r = llc.stats().miss_ratio();
        assert!((r - 0.25).abs() < 1e-4, "ratio {r}");
    }

    #[test]
    fn interrupts_raise_miss_ratio() {
        let mut llc = LlcModel::new(0.05);
        llc.charge_app_accesses(100_000);
        let before = llc.stats().miss_ratio();
        for _ in 0..5_000 {
            llc.charge_interrupt();
        }
        let after = llc.stats().miss_ratio();
        assert!(after > before, "{before} -> {after}");
    }

    #[test]
    fn latr_overhead_is_much_smaller_than_interrupts() {
        let mut ipi = LlcModel::new(0.05);
        let mut latr = LlcModel::new(0.05);
        ipi.charge_app_accesses(1_000_000);
        latr.charge_app_accesses(1_000_000);
        for _ in 0..10_000 {
            ipi.charge_interrupt();
            latr.charge_latr_save();
            latr.charge_latr_sweep(16);
        }
        assert!(
            latr.stats().miss_ratio() < ipi.stats().miss_ratio(),
            "latr {} vs ipi {}",
            latr.stats().miss_ratio(),
            ipi.stats().miss_ratio()
        );
    }

    #[test]
    fn fractional_misses_accumulate() {
        let mut llc = LlcModel::new(0.001);
        for _ in 0..1000 {
            llc.charge_app_accesses(1);
        }
        // 1000 accesses at 0.1% should yield ~1 miss, not 0.
        assert_eq!(llc.stats().misses, 1);
    }

    #[test]
    fn reset_clears_counts_only() {
        let mut llc = LlcModel::new(0.5);
        llc.charge_app_accesses(10);
        llc.reset();
        assert_eq!(llc.stats(), CacheStats::default());
        assert_eq!(llc.base_miss_ratio(), 0.5);
    }

    #[test]
    fn empty_stats_ratio_is_zero() {
        assert_eq!(CacheStats::default().miss_ratio(), 0.0);
    }

    #[test]
    #[should_panic(expected = "miss ratio")]
    fn invalid_base_ratio_panics() {
        let _ = LlcModel::new(1.5);
    }
}
