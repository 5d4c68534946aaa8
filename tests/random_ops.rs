//! Randomized cross-crate stress: a seeded random workload drives the full
//! machine (mmap/munmap/madvise/mprotect/access/yield on shared address
//! spaces) under every TLB-coherence policy, then the paper's invariants
//! are checked:
//!
//! * **I1** — no TLB in any core caches a translation to a freed frame
//!   (the §3 reclamation invariant);
//! * **I4** — no TLB disagrees with a present PTE about the target frame;
//! * no frames are leaked once every task exits and the policy drains.

use latr_arch::{CpuId, MachinePreset, Topology};
use latr_core::LatrConfig;
use latr_kernel::{Machine, MachineConfig, Op, TaskId, Workload};
use latr_mem::{MmId, Prot, VaRange};
use latr_sim::{SimRng, SECOND};
use latr_workloads::PolicyKind;
use proptest::prelude::*;

/// A deterministic random op generator: all randomness from one seed.
struct RandomOps {
    cores: usize,
    ops_per_task: u32,
    rng: SimRng,
    issued: Vec<u32>,
    /// Each task's address space.
    mm_of: Vec<MmId>,
    /// The ranges each task mapped and has not unmapped.
    live: Vec<Vec<VaRange>>,
}

impl RandomOps {
    fn new(seed: u64, cores: usize, ops_per_task: u32) -> Self {
        RandomOps {
            cores,
            ops_per_task,
            rng: SimRng::new(seed),
            issued: vec![0; cores],
            mm_of: Vec::with_capacity(cores),
            live: vec![Vec::new(); cores],
        }
    }
}

impl Workload for RandomOps {
    fn setup(&mut self, machine: &mut Machine) {
        // Two processes: tasks alternate between them so both shared and
        // unshared address spaces are exercised.
        let mm_a = machine.create_process();
        let mm_b = machine.create_process();
        for c in 0..self.cores {
            let mm = if c % 3 == 2 { mm_b } else { mm_a };
            machine.spawn_task(mm, CpuId(c as u16));
            self.mm_of.push(mm);
        }
    }

    fn next_op(&mut self, machine: &mut Machine, task: TaskId) -> Op {
        let i = task.index();
        if self.issued[i] >= self.ops_per_task {
            return Op::Exit;
        }
        self.issued[i] += 1;
        let _ = machine;
        let roll = self.rng.below(100);
        // Accesses reach every range mapped in the task's mm, not only its
        // own: remote TLBs then cache pages that their owner later unmaps,
        // which every shootdown and sweep must reach.
        let shared: Vec<VaRange> = (0..self.cores)
            .filter(|&j| self.mm_of[j] == self.mm_of[i])
            .flat_map(|j| self.live[j].iter().copied())
            .collect();
        let live = &mut self.live[i];
        match roll {
            0..=24 => Op::MmapAnon {
                pages: self.rng.range(1, 40),
            },
            25..=54 if !shared.is_empty() => {
                let r = shared[self.rng.index(shared.len())];
                let page = r.start.0 + self.rng.below(r.pages);
                Op::Access {
                    vpn: latr_mem::Vpn(page),
                    write: self.rng.chance(0.5),
                }
            }
            55..=69 if !live.is_empty() => {
                let r = live.swap_remove(self.rng.index(live.len()));
                Op::Munmap { range: r }
            }
            70..=76 if !live.is_empty() => {
                let r = live[self.rng.index(live.len())];
                Op::MadviseFree { range: r }
            }
            77..=82 if !live.is_empty() => {
                let r = live[self.rng.index(live.len())];
                Op::Mprotect {
                    range: r,
                    prot: if self.rng.chance(0.5) {
                        Prot::READ
                    } else {
                        Prot::READ_WRITE
                    },
                }
            }
            83..=89 => Op::Yield,
            90..=94 => Op::Sleep(self.rng.range(500, 20_000)),
            _ => Op::Compute(self.rng.range(200, 5_000)),
        }
    }

    fn on_op_complete(
        &mut self,
        machine: &mut Machine,
        task: TaskId,
        result: latr_kernel::OpResult,
    ) {
        if let Op::MmapAnon { .. } = result.op {
            if let Some(r) = machine.task(task).last_mmap {
                self.live[task.index()].push(r);
            }
        }
    }
}

/// The three machine shapes every property runs on (ISSUE 4): a tiny
/// 4-core desktop, the paper's 16-core commodity server, and the
/// 120-core 8-socket box. Tasks fill the machine; ops-per-task shrinks
/// as the core count grows so the proptest wall-clock stays bounded.
fn shapes() -> [(Topology, usize, u32); 3] {
    [
        (Topology::new(2, 2), 4, 120),
        (Topology::preset(MachinePreset::Commodity2S16C), 12, 120),
        (Topology::preset(MachinePreset::LargeNuma8S120C), 120, 20),
    ]
}

fn run_random(seed: u64, shape: usize, policy: PolicyKind) -> Machine {
    let (topology, cores, ops) = shapes()[shape].clone();
    let mut config = MachineConfig::new(topology);
    config.seed = seed;
    let mut machine = Machine::new(config);
    machine.run(
        Box::new(RandomOps::new(seed ^ 0xF00D, cores, ops)),
        policy.build(),
        5 * SECOND,
    );
    machine
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn invariants_hold_under_linux(seed in any::<u64>(), shape in 0usize..3) {
        let m = run_random(seed, shape, PolicyKind::Linux);
        prop_assert_eq!(m.check_reclamation_invariant(), None);
        prop_assert_eq!(m.check_mapping_coherence(), None);
        if let Some(v) = m.oracle_violation() {
            prop_assert!(false, "oracle violation: {}", v);
        }
    }

    #[test]
    fn invariants_hold_under_abis(seed in any::<u64>(), shape in 0usize..3) {
        let m = run_random(seed, shape, PolicyKind::Abis);
        prop_assert_eq!(m.check_reclamation_invariant(), None);
        prop_assert_eq!(m.check_mapping_coherence(), None);
        if let Some(v) = m.oracle_violation() {
            prop_assert!(false, "oracle violation: {}", v);
        }
    }

    #[test]
    fn invariants_hold_under_latr(seed in any::<u64>(), shape in 0usize..3) {
        let m = run_random(seed, shape, PolicyKind::Latr(LatrConfig::default()));
        prop_assert_eq!(m.check_reclamation_invariant(), None);
        prop_assert_eq!(m.check_mapping_coherence(), None);
        if let Some(v) = m.oracle_violation() {
            prop_assert!(false, "oracle violation: {}", v);
        }
    }

    #[test]
    fn latr_small_queues_fall_back_but_stay_correct(
        seed in any::<u64>(),
        shape in 0usize..3,
    ) {
        // A 4-slot queue under this random workload WILL overflow; the
        // fallback path must preserve the invariants at every machine
        // size (the 120-core shape overflows hardest: 119 remote bits
        // per published state).
        let cfg = LatrConfig { states_per_core: 4, ..LatrConfig::default() };
        let m = run_random(seed, shape, PolicyKind::Latr(cfg));
        prop_assert_eq!(m.check_reclamation_invariant(), None);
        prop_assert_eq!(m.check_mapping_coherence(), None);
        if let Some(v) = m.oracle_violation() {
            prop_assert!(false, "oracle violation: {}", v);
        }
    }

    #[test]
    fn no_frames_leak_after_exit(seed in any::<u64>(), shape in 0usize..3) {
        for policy in [PolicyKind::Linux, PolicyKind::Abis, PolicyKind::Latr(LatrConfig::default())] {
            let m = run_random(seed, shape, policy);
            // All tasks exited and policies drained: only page-cache-held
            // frames (none here: workload is anonymous-only) may remain.
            prop_assert_eq!(m.frames.allocated_count(), 0, "policy {}", policy.label());
        }
    }
}

#[test]
fn runs_are_deterministic() {
    for shape in 0..shapes().len() {
        for policy in [
            PolicyKind::Linux,
            PolicyKind::Abis,
            PolicyKind::Latr(LatrConfig::default()),
        ] {
            let a = run_random(42, shape, policy);
            let b = run_random(42, shape, policy);
            assert_eq!(a.now(), b.now(), "shape {shape} {}", policy.label());
            let counters_a: Vec<(String, u64)> =
                a.stats.counters().map(|(k, v)| (k.to_owned(), v)).collect();
            let counters_b: Vec<(String, u64)> =
                b.stats.counters().map(|(k, v)| (k.to_owned(), v)).collect();
            assert_eq!(counters_a, counters_b, "shape {shape} {}", policy.label());
        }
    }
}
