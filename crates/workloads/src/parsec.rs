//! Synthetic PARSEC profiles (§6.2.2 Fig. 10, §6.4 Fig. 12 and Table 4).
//!
//! Fig. 10's result is driven by each benchmark's *rates* — how often it
//! frees memory (`madvise`/`munmap` → shootdowns), how often it context
//! switches (→ Latr sweeps), and its cache behaviour — not by what it
//! computes. Each [`ParsecProfile`] captures those rates, calibrated
//! against the shootdown-per-second axis of Fig. 10 and the miss ratios of
//! Table 4. The workload then runs a *fixed amount of work*, so completion
//! time is directly comparable across policies (the "normalized runtime"
//! the paper plots).
//!
//! Per iteration each task: touches its working set, computes one grain,
//! and — per its profile — occasionally frees and remaps a scratch buffer
//! (the shootdown source) or yields (the context-switch source).

use latr_arch::CpuId;
use latr_kernel::{metrics, Machine, Op, OpResult, TaskId, Workload};
use latr_mem::VaRange;
use latr_sim::Nanos;

/// Rate profile of one PARSEC benchmark.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ParsecProfile {
    /// Benchmark name.
    pub name: &'static str,
    /// Compute per iteration (ns).
    pub grain_ns: Nanos,
    /// Working-set accesses modelled per iteration.
    pub accesses_per_iter: u32,
    /// Working-set size in pages (per task).
    pub ws_pages: u64,
    /// Free a scratch buffer every this many iterations (0 = never).
    pub madvise_every: u64,
    /// Scratch buffer size in pages.
    pub scratch_pages: u64,
    /// Voluntary context switch every this many iterations (0 = never).
    pub yield_every: u64,
    /// Baseline LLC miss ratio (Table 4).
    pub llc_miss: f64,
}

impl ParsecProfile {
    /// The 13 benchmarks of Fig. 10, rates calibrated to its
    /// shootdowns-per-second axis (dedup ≈ 30 k/s, netdedup ≈ 22 k/s,
    /// vips ≈ 8 k/s, most others near zero) and Table 4's miss ratios.
    pub fn all() -> Vec<ParsecProfile> {
        vec![
            ParsecProfile {
                name: "blackscholes",
                grain_ns: 42_000,
                accesses_per_iter: 24,
                ws_pages: 1_024,
                madvise_every: 0,
                scratch_pages: 0,
                yield_every: 0,
                llc_miss: 0.06,
            },
            ParsecProfile {
                name: "bodytrack",
                grain_ns: 30_000,
                accesses_per_iter: 24,
                ws_pages: 2_048,
                madvise_every: 160,
                scratch_pages: 8,
                yield_every: 120,
                llc_miss: 0.08,
            },
            ParsecProfile {
                name: "canneal",
                grain_ns: 26_000,
                accesses_per_iter: 48,
                ws_pages: 16_384,
                madvise_every: 0,
                scratch_pages: 0,
                yield_every: 2,
                llc_miss: 0.805,
            },
            ParsecProfile {
                name: "dedup",
                grain_ns: 26_000,
                accesses_per_iter: 32,
                ws_pages: 768,
                madvise_every: 12,
                scratch_pages: 64,
                yield_every: 0,
                llc_miss: 0.183,
            },
            ParsecProfile {
                name: "facesim",
                grain_ns: 48_000,
                accesses_per_iter: 32,
                ws_pages: 4_096,
                madvise_every: 400,
                scratch_pages: 4,
                yield_every: 0,
                llc_miss: 0.12,
            },
            ParsecProfile {
                name: "ferret",
                grain_ns: 30_000,
                accesses_per_iter: 32,
                ws_pages: 4_096,
                madvise_every: 220,
                scratch_pages: 6,
                yield_every: 60,
                llc_miss: 0.48,
            },
            ParsecProfile {
                name: "fluidanimate",
                grain_ns: 38_000,
                accesses_per_iter: 32,
                ws_pages: 8_192,
                madvise_every: 300,
                scratch_pages: 4,
                yield_every: 0,
                llc_miss: 0.10,
            },
            ParsecProfile {
                name: "freqmine",
                grain_ns: 44_000,
                accesses_per_iter: 24,
                ws_pages: 4_096,
                madvise_every: 0,
                scratch_pages: 0,
                yield_every: 0,
                llc_miss: 0.09,
            },
            ParsecProfile {
                name: "netdedup",
                grain_ns: 28_000,
                accesses_per_iter: 32,
                ws_pages: 768,
                madvise_every: 22,
                scratch_pages: 64,
                yield_every: 0,
                llc_miss: 0.17,
            },
            ParsecProfile {
                name: "raytrace",
                grain_ns: 40_000,
                accesses_per_iter: 24,
                ws_pages: 2_048,
                madvise_every: 500,
                scratch_pages: 2,
                yield_every: 0,
                llc_miss: 0.07,
            },
            ParsecProfile {
                name: "streamcluster",
                grain_ns: 36_000,
                accesses_per_iter: 64,
                ws_pages: 8_192,
                madvise_every: 0,
                scratch_pages: 0,
                yield_every: 90,
                llc_miss: 0.954,
            },
            ParsecProfile {
                name: "swaptions",
                grain_ns: 32_000,
                accesses_per_iter: 24,
                ws_pages: 1_024,
                madvise_every: 600,
                scratch_pages: 2,
                yield_every: 0,
                llc_miss: 0.475,
            },
            ParsecProfile {
                name: "vips",
                grain_ns: 30_000,
                accesses_per_iter: 24,
                ws_pages: 2_048,
                madvise_every: 70,
                scratch_pages: 6,
                yield_every: 0,
                llc_miss: 0.14,
            },
        ]
    }

    /// A profile by name.
    pub fn by_name(name: &str) -> Option<ParsecProfile> {
        Self::all().into_iter().find(|p| p.name == name)
    }

    /// The Fig. 12 low-shootdown subset run at 16 cores.
    pub fn low_shootdown() -> Vec<ParsecProfile> {
        ["bodytrack", "canneal", "facesim", "ferret", "streamcluster"]
            .iter()
            .map(|n| Self::by_name(n).expect("known profile"))
            .collect()
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    Work,
    Grain,
    Free,
    Remap,
    Switch,
}

/// A fixed-work run of one [`ParsecProfile`] on `cores` cores.
#[derive(Debug)]
pub struct ParsecWorkload {
    profile: ParsecProfile,
    cores: usize,
    iters_per_task: u64,
    done: Vec<u64>,
    phase: Vec<Phase>,
    ws: Vec<Option<VaRange>>,
    scratch: Vec<Option<VaRange>>,
}

impl ParsecWorkload {
    /// Runs `profile` for `iters_per_task` iterations on each of `cores`
    /// cores (all threads of one process, as PARSEC's pthreads are).
    ///
    /// # Panics
    ///
    /// Panics if `cores` or `iters_per_task` is zero.
    pub fn new(profile: ParsecProfile, cores: usize, iters_per_task: u64) -> Self {
        assert!(cores > 0 && iters_per_task > 0);
        ParsecWorkload {
            profile,
            cores,
            iters_per_task,
            done: vec![0; cores],
            phase: vec![Phase::Work; cores],
            ws: vec![None; cores],
            scratch: vec![None; cores],
        }
    }

    /// The profile being run.
    pub fn profile(&self) -> &ParsecProfile {
        &self.profile
    }

    fn needs(&self, i: usize, every: u64) -> bool {
        every != 0 && self.done[i] > 0 && self.done[i].is_multiple_of(every)
    }
}

impl Workload for ParsecWorkload {
    fn name(&self) -> &str {
        self.profile.name
    }

    fn setup(&mut self, machine: &mut Machine) {
        let mm = machine.create_process();
        for c in 0..self.cores {
            machine.spawn_task(mm, CpuId(c as u16));
        }
    }

    fn next_op(&mut self, machine: &mut Machine, task: TaskId) -> Op {
        let i = task.index();
        if self.done[i] >= self.iters_per_task {
            return Op::Exit;
        }
        // Lazily allocate the per-task working set and scratch buffer.
        if self.ws[i].is_none() {
            return Op::MmapAnon {
                pages: self.profile.ws_pages,
            };
        }
        if self.profile.scratch_pages > 0 && self.scratch[i].is_none() {
            return Op::MmapAnon {
                pages: self.profile.scratch_pages,
            };
        }
        match self.phase[i] {
            Phase::Work => {
                // Working-set touches, then the compute grain; completion
                // of the grain advances the iteration count.
                let ws = self.ws[i].expect("working set mapped");
                self.phase[i] = Phase::Grain;
                let _ = machine;
                Op::AccessBatch {
                    range: ws,
                    accesses: self.profile.accesses_per_iter,
                    write: true,
                }
            }
            Phase::Grain => {
                self.phase[i] = if self.needs(i, self.profile.madvise_every) {
                    Phase::Free
                } else if self.needs(i, self.profile.yield_every) {
                    Phase::Switch
                } else {
                    Phase::Work
                };
                Op::Compute(self.profile.grain_ns)
            }
            Phase::Free => {
                self.phase[i] = Phase::Remap;
                Op::MadviseFree {
                    range: self.scratch[i].expect("scratch mapped"),
                }
            }
            Phase::Remap => {
                // Touch the scratch again so the next free has mapped pages
                // (MADV_FREE leaves the VMA in place; refaulting repopulates).
                self.phase[i] = if self.needs(i, self.profile.yield_every) {
                    Phase::Switch
                } else {
                    Phase::Work
                };
                let scratch = self.scratch[i].expect("scratch mapped");
                Op::AccessBatch {
                    range: scratch,
                    accesses: self.profile.scratch_pages as u32,
                    write: true,
                }
            }
            Phase::Switch => {
                self.phase[i] = Phase::Work;
                Op::Yield
            }
        }
    }

    fn on_op_complete(&mut self, machine: &mut Machine, task: TaskId, result: OpResult) {
        let i = task.index();
        match result.op {
            Op::MmapAnon { pages } => {
                let range = machine.task(task).last_mmap;
                if pages == self.profile.ws_pages && self.ws[i].is_none() {
                    self.ws[i] = range;
                } else {
                    self.scratch[i] = range;
                }
            }
            Op::Compute(_) => {
                // The grain's completion ends the iteration.
                self.done[i] += 1;
                machine.stats.inc(metrics::id::WORK_UNITS);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{run_experiment, PolicyKind};
    use latr_arch::{MachinePreset, Topology};
    use latr_kernel::MachineConfig;
    use latr_sim::SECOND;

    fn run_profile(name: &str, policy: PolicyKind, iters: u64) -> (f64, crate::ExperimentResult) {
        let profile = ParsecProfile::by_name(name).unwrap();
        let (res, machine) = run_experiment(
            MachineConfig::new(Topology::preset(MachinePreset::Commodity2S16C)),
            policy,
            Box::new(ParsecWorkload::new(profile, 16, iters)),
            30 * SECOND,
        );
        assert_eq!(machine.check_reclamation_invariant(), None);
        (res.duration_ns as f64, res)
    }

    #[test]
    fn all_profiles_present() {
        assert_eq!(ParsecProfile::all().len(), 13);
        assert!(ParsecProfile::by_name("dedup").is_some());
        assert!(ParsecProfile::by_name("nope").is_none());
        assert_eq!(ParsecProfile::low_shootdown().len(), 5);
    }

    #[test]
    fn fixed_work_completes() {
        let (_, res) = run_profile("blackscholes", PolicyKind::Linux, 50);
        assert_eq!(res.work_units, 16 * 50);
    }

    #[test]
    fn fig10_dedup_improves_under_latr() {
        let (t_linux, linux) = run_profile("dedup", PolicyKind::Linux, 1_500);
        let (t_latr, _) = run_profile("dedup", PolicyKind::latr_default(), 1_500);
        let normalized = t_latr / t_linux;
        assert!(
            normalized < 0.975,
            "dedup normalized runtime {normalized:.3}, paper reports 0.904"
        );
        assert!(
            linux.shootdowns_per_sec > 10_000.0,
            "dedup must be shootdown-heavy, got {:.0}/s",
            linux.shootdowns_per_sec
        );
    }

    #[test]
    fn fig10_canneal_pays_small_sweep_overhead() {
        let (t_linux, _) = run_profile("canneal", PolicyKind::Linux, 300);
        let (t_latr, _) = run_profile("canneal", PolicyKind::latr_default(), 300);
        let normalized = t_latr / t_linux;
        assert!(
            (1.0..1.06).contains(&normalized),
            "canneal normalized runtime {normalized:.3}, paper reports ≈1.017"
        );
    }

    #[test]
    fn fig10_quiet_benchmarks_are_unchanged() {
        let (t_linux, _) = run_profile("blackscholes", PolicyKind::Linux, 200);
        let (t_latr, _) = run_profile("blackscholes", PolicyKind::latr_default(), 200);
        let normalized = t_latr / t_linux;
        assert!(
            (0.97..1.03).contains(&normalized),
            "blackscholes normalized runtime {normalized:.3} should be ≈1"
        );
    }
}
