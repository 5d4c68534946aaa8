//! Dogfood: the real rt sources must be clean against the real
//! PROTOCOL.toml and cover every spec field outside `cfg(loom)`.

use std::collections::BTreeSet;
use std::path::PathBuf;

use latr_lint::{analyze_dir, CfgEnv, ProtocolSpec};

fn rt_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../core/src/rt")
}

fn load_spec() -> ProtocolSpec {
    let text = std::fs::read_to_string(rt_dir().join("PROTOCOL.toml")).unwrap();
    ProtocolSpec::parse(&text).unwrap()
}

#[test]
fn real_rt_sources_are_protocol_clean() {
    let spec = load_spec();
    let report = analyze_dir(&spec, &rt_dir(), "crates/core/src/rt/", &CfgEnv::default()).unwrap();
    let rendered: Vec<String> = report.diagnostics.iter().map(|d| d.to_string()).collect();
    assert!(
        rendered.is_empty(),
        "rt sources violate PROTOCOL.toml:\n{}",
        rendered.join("\n")
    );
    // A vacuous pass would also be a failure: the analyzer must have
    // actually attributed a substantial number of atomic operations.
    assert!(
        report.atomic_ops >= 94,
        "only {} atomic ops attributed — attribution regressed",
        report.atomic_ops
    );
    // The only entry allowed to go uncovered is the loom-only
    // deterministic clock, whose ops sit behind cfg(loom).
    let all: BTreeSet<String> = spec
        .fields
        .iter()
        .map(|f| format!("{}::{}", f.owner, f.name))
        .collect();
    let missing: Vec<&String> = all.difference(&report.covered_fields).collect();
    assert_eq!(
        missing,
        vec!["FrontierWatchdog::clock_ns"],
        "unexpected uncovered spec fields"
    );
}
