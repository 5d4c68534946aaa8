//! An atomic CPU bitmask.
//!
//! The concurrent twin of [`latr_arch::CpuMask`], which is what it stores,
//! loads and takes whole: remote cores clear their bit with a single
//! `fetch_and`, and the one whose clear empties the mask learns it
//! atomically — that core retires the state, exactly the "last core
//! resets the active flag" step of §4.1 without any lock.

use crate::rt::sync::atomic::{AtomicU64, Ordering};
use latr_arch::{CpuMask, MAX_CPUS};

const WORDS: usize = MAX_CPUS / 64;

/// A 256-bit atomic CPU mask.
#[derive(Debug, Default)]
pub struct AtomicCpuMask {
    /// Word operations take their ordering from the caller; the fixed
    /// ones are the AcqRel RMWs of set and take, and `clear`'s SeqCst
    /// RMW and cross-word scan.
    words: [AtomicU64; WORDS],
}

impl AtomicCpuMask {
    /// Creates an empty mask.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores `mask` word by word (not one atomic snapshot). Used by the
    /// publisher before the release-store of the active flag.
    pub fn store(&self, mask: CpuMask, order: Ordering) {
        for (a, b) in self.words.iter().zip(mask.words()) {
            a.store(b, order);
        }
    }

    /// Loads the current bits, word by word.
    pub fn load(&self, order: Ordering) -> CpuMask {
        CpuMask::from_words([
            self.words[0].load(order),
            self.words[1].load(order),
            self.words[2].load(order),
            self.words[3].load(order),
        ])
    }

    /// Whether `cpu`'s bit is set.
    pub fn test(&self, cpu: usize, order: Ordering) -> bool {
        self.words[cpu / 64].load(order) & (1 << (cpu % 64)) != 0
    }

    /// Atomically clears `cpu`'s bit. Returns `(was_set, now_empty)`:
    /// whether the bit was previously set, and whether the whole mask is
    /// empty after the clear.
    ///
    /// Within one 64-CPU word the emptiness observation is exact (the
    /// `fetch_and` is atomic): exactly one clearer sees it. Across words
    /// more than one clearer may observe emptiness — only clears race and
    /// emptiness is stable once reached, so retirement acting on it must
    /// be idempotent (ours is: a compare-and-swap of the active flag, which
    /// exactly one observer wins). At least one clearer does observe it:
    /// the RMW and the scan are SeqCst, so the last two clears of
    /// different words cannot each miss the other's (with AcqRel and
    /// Acquire, C11 allows both to read the other word's stale bit and
    /// nobody retires the state).
    pub fn clear(&self, cpu: usize) -> (bool, bool) {
        let w = cpu / 64;
        let bit = 1u64 << (cpu % 64);
        let old = self.words[w].fetch_and(!bit, Ordering::SeqCst);
        let was_set = old & bit != 0;
        let mut empty = old & !bit == 0;
        if empty {
            for (i, word) in self.words.iter().enumerate() {
                if i != w && word.load(Ordering::SeqCst) != 0 {
                    empty = false;
                    break;
                }
            }
        }
        (was_set, empty)
    }

    /// Atomically sets `cpu`'s bit (release semantics: everything the
    /// setter did before — e.g. activating a state slot — is visible to
    /// whoever takes the bit with [`take`](Self::take)).
    pub fn set_bit(&self, cpu: usize) {
        self.words[cpu / 64].fetch_or(1 << (cpu % 64), Ordering::AcqRel);
    }

    /// Atomically sets `cpu`'s bit like [`set_bit`](Self::set_bit), but
    /// returns whether it was already set — the arbitration the exclusion
    /// mask needs so exactly one caller wins an exclude/poison race.
    pub fn set_returning(&self, cpu: usize) -> bool {
        let bit = 1u64 << (cpu % 64);
        self.words[cpu / 64].fetch_or(bit, Ordering::AcqRel) & bit != 0
    }

    /// Atomically takes and clears all bits, word by word (acquire
    /// semantics pairing with [`set_bit`](Self::set_bit)). Bits set
    /// concurrently with the drain land either in the returned snapshot
    /// or in the mask for the next take — never lost.
    pub fn take(&self) -> CpuMask {
        CpuMask::from_words([
            self.words[0].swap(0, Ordering::AcqRel),
            self.words[1].swap(0, Ordering::AcqRel),
            self.words[2].swap(0, Ordering::AcqRel),
            self.words[3].swap(0, Ordering::AcqRel),
        ])
    }

    /// Whether no bits are set.
    pub fn is_empty(&self, order: Ordering) -> bool {
        self.words.iter().all(|w| w.load(order) == 0)
    }

    /// Number of set bits.
    pub fn count(&self, order: Ordering) -> usize {
        self.words
            .iter()
            .map(|w| w.load(order).count_ones() as usize)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn store_test_clear() {
        let m = AtomicCpuMask::new();
        let stored = CpuMask::from_words([0b110, 0, 0, 1]);
        m.store(stored, Ordering::Release);
        assert_eq!(m.load(Ordering::Acquire), stored);
        assert!(m.test(1, Ordering::Acquire));
        assert!(m.test(2, Ordering::Acquire));
        assert!(m.test(192, Ordering::Acquire));
        assert!(!m.test(0, Ordering::Acquire));
        assert_eq!(m.count(Ordering::Acquire), 3);

        let (was_set, empty) = m.clear(1);
        assert!(was_set);
        assert!(!empty);
        let (was_set, _) = m.clear(1);
        assert!(!was_set);
        m.clear(2);
        let (was_set, empty) = m.clear(192);
        assert!(was_set);
        assert!(empty);
        assert!(m.is_empty(Ordering::Acquire));
    }

    #[test]
    fn take_drains_every_word() {
        let m = AtomicCpuMask::new();
        m.set_bit(3);
        m.set_bit(200);
        assert_eq!(m.take(), CpuMask::from_words([0b1000, 0, 0, 1 << 8]));
        assert!(m.is_empty(Ordering::Acquire));
        assert_eq!(m.take(), CpuMask::empty());
    }

    #[test]
    fn exactly_one_clear_observes_emptiness() {
        // 64 threads each clear their own bit; exactly one must see the
        // mask become empty (that thread retires the slot).
        for _ in 0..50 {
            let m = Arc::new(AtomicCpuMask::new());
            m.store(CpuMask::first_n(64), Ordering::Release);
            let saw_empty = Arc::new(AtomicU64::new(0));
            let handles: Vec<_> = (0..64)
                .map(|cpu| {
                    let m = Arc::clone(&m);
                    let saw = Arc::clone(&saw_empty);
                    std::thread::spawn(move || {
                        let (was_set, empty) = m.clear(cpu);
                        assert!(was_set);
                        if empty {
                            saw.fetch_add(1, Ordering::Relaxed);
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(
                saw_empty.load(Ordering::Relaxed),
                1,
                "exactly one clear must observe emptiness"
            );
            assert!(m.is_empty(Ordering::Acquire));
        }
    }
}
