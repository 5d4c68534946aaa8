//! Golden-trace snapshots: seeded scenarios whose full
//! [`latr_kernel::Machine::fingerprint`] — end time, delivered-event
//! count, every counter, every histogram summary and the rendered trace —
//! is pinned byte-for-byte against committed files under `tests/golden/`.
//!
//! Seven Latr scenarios cover sweeps, munmap storms, migration, overflow
//! fallback, chaos plans and memory pressure. The `table1_*` set runs one op script per
//! Table 1 class (free, permission, swap, dedup, compaction, remap, fork)
//! under Linux, ABIS and Latr, so every PTE-invalidating path in the
//! machine is pinned under every policy.
//!
//! The snapshots are the determinism backstop for the hot-path work: any
//! change to event ordering, sweep behaviour or cost accounting shows up
//! as a diff here. In the dev profile every Latr sweep of every scenario
//! is also checked against the full scan it replaced (`LatrPolicy`'s
//! per-sweep spec check).
//!
//! To re-bless after an *intentional* behaviour change:
//!
//! ```sh
//! LATR_BLESS=1 cargo test --test golden_traces
//! git diff tests/golden/   # review every hunk before committing
//! ```

mod common;
#[path = "common/plans.rs"]
mod plans;

use std::path::PathBuf;

use common::{ScriptStep, Scripted};
use latr_arch::{MachinePreset, Topology};
use latr_core::LatrConfig;
use latr_faults::FaultPlan;
use latr_kernel::{metrics, Machine, MachineConfig, Workload};
use latr_sim::{MILLISECOND, SECOND};
use latr_workloads::{
    AllocStorm, ChaosShare, MigrationProfile, MigrationWorkload, MunmapMicrobench, PolicyKind,
    SweepStorm,
};

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"))
}

/// Compares the machine's fingerprint against the committed snapshot, or
/// rewrites the snapshot when `LATR_BLESS` is set.
fn check_golden(name: &str, machine: &Machine) {
    let path = golden_path(name);
    let got = machine.fingerprint();
    if std::env::var_os("LATR_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {}: {e}\n\
             generate it with `LATR_BLESS=1 cargo test --test golden_traces`",
            path.display()
        )
    });
    if got != want {
        let line = got
            .lines()
            .zip(want.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
        let g = got.lines().nth(line).unwrap_or("<eof>");
        let w = want.lines().nth(line).unwrap_or("<eof>");
        panic!(
            "scenario `{name}` diverged from its golden snapshot at line {line}:\n\
             got:    {g}\n\
             golden: {w}\n\
             ({} got lines vs {} golden lines; re-bless with LATR_BLESS=1 \
             only if the change is intentional)",
            got.lines().count(),
            want.lines().count()
        );
    }
}

/// Runs one golden scenario: fixed topology, seed, plan, policy and
/// workload. The machine is returned for the byte-for-byte golden
/// comparison.
fn run_scenario(
    mut config: MachineConfig,
    seed: u64,
    plan: Option<FaultPlan>,
    policy: PolicyKind,
    workload: Box<dyn Workload>,
) -> Machine {
    config.seed = seed;
    config.trace_capacity = 4096;
    config.faults = plan;
    let mut machine = Machine::new(config);
    machine.run(workload, policy.build(), SECOND);
    machine
}

fn commodity16() -> MachineConfig {
    MachineConfig::new(Topology::preset(MachinePreset::Commodity2S16C))
}

#[test]
fn golden_sweep_storm() {
    let m = run_scenario(
        commodity16(),
        0x601D_0001,
        None,
        PolicyKind::latr_default(),
        Box::new(SweepStorm::new(8, 5)),
    );
    check_golden("sweep_storm", &m);
}

#[test]
fn golden_munmap_storm() {
    let m = run_scenario(
        commodity16(),
        0x601D_0002,
        None,
        PolicyKind::latr_default(),
        Box::new(MunmapMicrobench::new(8, 16, 20)),
    );
    check_golden("munmap_storm", &m);
}

#[test]
fn golden_migration() {
    let profile = MigrationProfile::by_name("graph500").expect("profile exists");
    let m = run_scenario(
        profile.machine_config(Topology::preset(MachinePreset::Commodity2S16C)),
        0x601D_0003,
        None,
        PolicyKind::latr_default(),
        Box::new(MigrationWorkload::new(profile, 8, 30)),
    );
    check_golden("migration", &m);
}

#[test]
fn golden_overflow_fallback() {
    // A 4-slot queue under zero-sleep rounds: the overflow→IPI fallback
    // and the adaptive enter/exit hysteresis dominate the trace.
    let latr = LatrConfig {
        states_per_core: 4,
        ..LatrConfig::default()
    };
    let m = run_scenario(
        commodity16(),
        0x601D_0004,
        None,
        PolicyKind::Latr(latr),
        Box::new(SweepStorm::new(8, 12).with_sleep(0)),
    );
    check_golden("overflow_fallback", &m);
}

#[test]
fn golden_chaos_drop() {
    let m = run_scenario(
        commodity16(),
        0x601D_0005,
        Some(plans::ipi_drop()),
        PolicyKind::latr_default(),
        Box::new(ChaosShare::new(4, 12)),
    );
    check_golden("chaos_drop", &m);
}

#[test]
fn golden_chaos_soup() {
    let m = run_scenario(
        commodity16(),
        0x601D_0006,
        Some(plans::soup()),
        PolicyKind::latr_default(),
        Box::new(ChaosShare::new(4, 12)),
    );
    check_golden("chaos_soup", &m);
}

/// An allocation storm on 256-frame nodes with watermarks, core 3's
/// sweeps stalled for 30 ms and a 15-frame burst on each node. It drives
/// every pressure path of the Latr policy: expedition of the oldest gated
/// packages, the min-watermark sync fallback and its exit, direct reclaim
/// on an allocation stall that releases frames, and watchdog escalation
/// of the states the stalled core never sweeps. The counter checks keep
/// the scenario from silently losing any of them.
#[test]
fn golden_pressure_storm() {
    let mut config = commodity16().with_watermarks(72, 16);
    config.frames_per_node = 256;
    let plan = FaultPlan::default()
        .with_stall(3, MILLISECOND, 30 * MILLISECOND)
        .with_burst(0, 1_500_000, 3 * MILLISECOND, 15)
        .with_burst(1, 1_500_000, 3 * MILLISECOND, 15);
    let m = run_scenario(
        config,
        0x601D_0007,
        Some(plan),
        PolicyKind::latr_default(),
        Box::new(AllocStorm::new(16, 20, 4, 2)),
    );
    assert!(m.oracle_violation().is_none());
    for counter in [
        metrics::LATR_EXPEDITED_SWEEPS,
        metrics::LATR_PRESSURE_SYNC_ENTERS,
        metrics::LATR_ADAPTIVE_EXITS,
        metrics::ALLOC_STALLS,
        metrics::LATR_WATCHDOG_ESCALATIONS,
    ] {
        assert!(m.stats.counter(counter) > 0, "{counter} never fired");
    }
    // A stall that released frames is charged less than the tick a
    // fruitless stall waits out.
    let stalls = m.stats.histogram(metrics::ALLOC_STALL_NS).expect("stalls");
    assert!(
        stalls.summary().min < m.tick_period(),
        "no direct reclaim released frames"
    );
    check_golden("pressure_storm", &m);
}

/// Runs one Table 1 script under Linux, ABIS and Latr, checking each
/// policy's fingerprint against `table1_{name}_{policy}.txt`.
fn check_table1(name: &str, seed: u64, script: fn() -> Vec<ScriptStep>) {
    for policy in [
        PolicyKind::Linux,
        PolicyKind::Abis,
        PolicyKind::latr_default(),
    ] {
        let m = run_scenario(
            common::table1_config(),
            seed,
            None,
            policy,
            Box::new(Scripted::new(script())),
        );
        assert!(m.oracle_violation().is_none(), "{}", policy.label());
        check_golden(&format!("table1_{name}_{}", policy.label()), &m);
    }
}

#[test]
fn golden_table1_free() {
    check_table1("free", 0x601D_0011, common::free_script);
}

#[test]
fn golden_table1_mprotect() {
    check_table1("mprotect", 0x601D_0012, common::mprotect_script);
}

#[test]
fn golden_table1_swap() {
    check_table1("swap", 0x601D_0013, common::swap_script);
}

#[test]
fn golden_table1_dedup() {
    check_table1("dedup", 0x601D_0014, common::dedup_script);
}

#[test]
fn golden_table1_compact() {
    check_table1("compact", 0x601D_0015, common::compact_script);
}

#[test]
fn golden_table1_mremap() {
    check_table1("mremap", 0x601D_0016, common::mremap_script);
}

#[test]
fn golden_table1_fork() {
    check_table1("fork", 0x601D_0017, common::fork_script);
}
