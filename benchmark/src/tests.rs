use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

use latr_arch::{MachinePreset, Topology};
use latr_core::LatrConfig;
use latr_faults::FaultPlan;
use latr_kernel::{Machine, MachineConfig, Workload};
use latr_sim::SECOND;
use latr_workloads::{
    AllocStorm, MigrationProfile, MigrationWorkload, ParsecProfile, ParsecWorkload, PolicyKind,
    ServingWorkload, SweepStorm,
};

use crate::catalog::{END_TO_END, PER_LAYER};
use crate::rep::Rep;
use crate::timed::{Hook, Recorder, TimedPolicy, TimedWorkload};

fn commodity16() -> MachineConfig {
    let mut config = MachineConfig::new(Topology::preset(MachinePreset::Commodity2S16C));
    config.seed = 0xbe7c;
    config
}

/// An allocation storm squeezed through its watermarks, with allocation
/// bursts and stalled sweepers, so allocations stall and pressure fires.
fn pressure_config() -> MachineConfig {
    let mut config = commodity16().with_watermarks(72, 16);
    config.frames_per_node = 224;
    let mut plan = FaultPlan::default()
        .with_flap(3_000_000, 2_000_000, 8)
        .with_burst(0, 2_200_000, 3_000_000, 44);
    for c in (0..16).step_by(5) {
        plan = plan.with_stall(c, 1_200_000, 4_000_000);
    }
    config.faults = Some(plan);
    config
}

type MakeWorkload = Box<dyn Fn() -> Box<dyn Workload>>;

/// Runs the scenario unwrapped and wrapped; returns both fingerprints and
/// the wrapped run's recorder.
fn both(
    config: &MachineConfig,
    policy: PolicyKind,
    workload: &dyn Fn() -> Box<dyn Workload>,
) -> (String, String, Rc<RefCell<Recorder>>) {
    let mut plain = Machine::new(config.clone());
    plain.run(workload(), policy.build(), 10 * SECOND);
    let rec = Recorder::new();
    let mut wrapped = Machine::new(config.clone());
    wrapped.run(
        Box::new(TimedWorkload::new(workload(), rec.clone())),
        Box::new(TimedPolicy::new(policy.build(), rec.clone())),
        10 * SECOND,
    );
    (plain.fingerprint(), wrapped.fingerprint(), rec)
}

#[test]
fn wrapped_runs_fingerprint_like_unwrapped_ones() {
    let migration = MigrationProfile::by_name("graph500").expect("profile exists");
    let canneal = ParsecProfile::by_name("canneal").expect("profile exists");
    let scenarios: [(&str, MachineConfig, MakeWorkload); 5] = [
        (
            "serving",
            commodity16(),
            Box::new(|| Box::new(ServingWorkload::new(16, 4, 40))),
        ),
        (
            "sweep-storm",
            commodity16(),
            Box::new(|| Box::new(SweepStorm::new(16, 12).with_publishers(4))),
        ),
        (
            "alloc-storm",
            pressure_config(),
            Box::new(|| Box::new(AllocStorm::new(16, 24, 4, 2))),
        ),
        (
            "migration",
            migration.machine_config(Topology::preset(MachinePreset::Commodity2S16C)),
            Box::new(move || Box::new(MigrationWorkload::new(migration, 8, 30))),
        ),
        (
            "parsec-canneal",
            commodity16(),
            Box::new(move || Box::new(ParsecWorkload::new(canneal, 16, 20))),
        ),
    ];
    let policies = [
        PolicyKind::Linux,
        PolicyKind::Abis,
        PolicyKind::latr_default(),
        PolicyKind::Latr(LatrConfig::default().without_escalation()),
    ];
    let mut exercised = BTreeSet::new();
    for (name, config, workload) in &scenarios {
        for policy in policies {
            let (plain, wrapped, rec) = both(config, policy, workload.as_ref());
            assert_eq!(plain, wrapped, "{name} under {}", policy.label());
            let rec = rec.borrow();
            exercised.extend(
                Hook::ALL
                    .into_iter()
                    .filter(|&h| rec.hook(h).calls > 0)
                    .map(Hook::name),
            );
        }
    }
    // The matrix must reach every hook, or a wrapper that fails to forward
    // one would go unnoticed. No policy schedules timers.
    for hook in Hook::ALL {
        assert!(
            exercised.contains(hook.name()) || hook == Hook::Timer,
            "no scenario calls {}",
            hook.name()
        );
    }
}

#[test]
fn metric_names_are_well_formed_and_unique() {
    let names: Vec<&str> = END_TO_END
        .iter()
        .map(|m| m.name)
        .chain(PER_LAYER.iter().map(|m| m.name))
        .collect();
    for name in &names {
        assert!(name.len() <= 64, "{name} is too long");
        assert!(
            name.starts_with(|c: char| c.is_ascii_alphanumeric()),
            "{name} must start with a letter or digit"
        );
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "{name} has a character outside [A-Za-z0-9_.-]"
        );
    }
    let unique: BTreeSet<&str> = names.iter().copied().collect();
    assert_eq!(unique.len(), names.len(), "metric names repeat");
}

/// The `{"name": ..., "unit": ..., "better": ...}` entries of one array
/// of `BENCHMARK.json`, each as `name unit better [bound]`.
fn declared(json: &str, key: &str) -> BTreeSet<String> {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("array ends")];
    body.split('{')
        .skip(1)
        .map(|entry| {
            let field = |f: &str| {
                let at = entry.find(&format!("\"{f}\":"))? + f.len() + 3;
                let rest = entry[at..].trim_start();
                let end = rest.find([',', '}']).unwrap_or(rest.len());
                Some(rest[..end].trim().trim_matches('"').to_string())
            };
            let mut row = vec![
                field("name"),
                field("unit"),
                field("better"),
                field("bound"),
            ];
            row.retain(Option::is_some);
            row.into_iter().flatten().collect::<Vec<_>>().join(" ")
        })
        .collect()
}

#[test]
fn benchmark_json_declares_exactly_the_emitted_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let e2e: BTreeSet<String> = END_TO_END
        .iter()
        .map(|m| format!("{} {} lower {}", m.name, m.unit, m.bound))
        .collect();
    assert_eq!(declared(&json, "end_to_end"), e2e);
    let layers: BTreeSet<String> = PER_LAYER
        .iter()
        .map(|m| format!("{} {} {}", m.name, m.unit, m.better.name()))
        .collect();
    assert_eq!(declared(&json, "per_layer"), layers);
    let workloads: BTreeSet<String> = declared(&json, "workloads")
        .into_iter()
        .map(|w| w.split(' ').next().unwrap_or_default().to_string())
        .collect();
    let names: BTreeSet<String> = crate::workloads::NAMES
        .iter()
        .map(|s| s.to_string())
        .collect();
    assert_eq!(workloads, names);
}

#[test]
fn quartiles_follow_python_statistics_quantiles() {
    // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
    // == [2.75, 5.5, 8.25]
    let mut v: Vec<f64> = (1..=10).rev().map(f64::from).collect();
    assert_eq!(crate::quartiles(&mut v), (2.75, 5.5, 8.25));
    // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
    assert_eq!(crate::quartiles(&mut [3.0, 1.0]), (0.5, 2.0, 3.5));
    assert_eq!(crate::median(&mut [4.0, 1.0, 9.0]), 4.0);
}

#[test]
fn a_child_report_survives_its_line() {
    let mut rep = Rep {
        fingerprint: "00ff00ff00ff00ff".to_string(),
        failures: vec!["2 frames leaked".to_string()],
        ..Rep::default()
    };
    rep.values.insert("wall_ns".to_string(), 1.25e9);
    rep.values.insert("munmap.p50_ns".to_string(), 2688.0);
    let back = Rep::parse(&rep.to_line()).expect("parses");
    assert_eq!(back.fingerprint, rep.fingerprint);
    assert_eq!(back.values, rep.values);
    assert_eq!(back.failures, vec!["2_frames_leaked".to_string()]);
    assert!(Rep::parse("something else").is_none());
}

#[test]
fn every_workload_builds_from_a_seed() {
    for name in crate::workloads::NAMES {
        let a = crate::workloads::inputs(name, 7).expect("known workload");
        let b = crate::workloads::inputs(name, 8).expect("known workload");
        assert!(a.admitted > 0);
        assert_ne!(a.config.seed, b.config.seed, "{name} ignores the seed");
    }
    assert!(crate::workloads::inputs("nope", 7).is_none());
}
