//! Shim hygiene: the rt runtime takes every atomic and lock from
//! `rt/sync.rs`, so the `--cfg loom` build model-checks all of them. An
//! rt file that names `std::sync`/`core::sync` atomics or locks directly
//! would keep that primitive out of the loom model without any build
//! noticing. (No other lock crate is a dependency of latr-core, so the
//! compiler rejects any other spelling.)

use std::path::Path;

/// `std::sync` items the loom shim must stand in for.
const SHIMMED: [&str; 6] = ["atomic", "Mutex", "RwLock", "Condvar", "Barrier", "Once"];

/// The shimmed items `line` names through a `std::sync`/`core::sync`
/// path, comments excluded.
fn raw_primitives(line: &str) -> Vec<String> {
    let code = line.split("//").next().unwrap_or("");
    let mut found = Vec::new();
    let words = |s: &str| {
        s.split(|c: char| !(c.is_alphanumeric() || c == '_'))
            .filter(|w| !w.is_empty())
            .map(str::to_owned)
            .collect::<Vec<_>>()
    };
    for prefix in ["std::sync::", "core::sync::"] {
        for (at, _) in code.match_indices(prefix) {
            let rest = &code[at + prefix.len()..];
            // `std::sync::{a, b}` names every item in the group;
            // `std::sync::a::b` names only `a`.
            let names = match rest.strip_prefix('{') {
                Some(group) => words(group.split('}').next().unwrap_or("")),
                None => words(rest).into_iter().take(1).collect(),
            };
            for name in names.into_iter().filter(|n| SHIMMED.contains(&n.as_str())) {
                found.push(format!("{prefix}{name}"));
            }
        }
    }
    found
}

#[test]
fn rt_takes_every_atomic_and_lock_from_the_loom_shim() {
    let rt = Path::new(env!("CARGO_MANIFEST_DIR")).join("src/rt");
    let mut offences = Vec::new();
    let mut files = 0;
    for entry in std::fs::read_dir(&rt).expect("rt source directory") {
        let path = entry.expect("directory entry").path();
        if path.extension().is_none_or(|e| e != "rs") || path.ends_with("sync.rs") {
            continue;
        }
        files += 1;
        let source = std::fs::read_to_string(&path).expect("rt source file");
        for (n, line) in source.lines().enumerate() {
            for item in raw_primitives(line) {
                let file = path.file_name().unwrap_or_default().to_string_lossy();
                offences.push(format!("rt/{file}:{}: {item}", n + 1));
            }
        }
    }
    assert!(
        files >= 5,
        "found only {files} rt files under {}",
        rt.display()
    );
    assert!(
        offences.is_empty(),
        "rt code must import atomics and locks from rt/sync.rs:\n{}",
        offences.join("\n")
    );
}

#[test]
fn the_scan_sees_every_spelling() {
    for line in [
        "use std::sync::atomic::{AtomicU64, Ordering};",
        "use core::sync::atomic::AtomicBool;",
        "use std::sync::{Arc, Mutex};",
        "let m = std::sync::RwLock::new(0);",
    ] {
        assert!(!raw_primitives(line).is_empty(), "missed: {line}");
    }
    for line in [
        "use std::sync::Arc;",
        "use std::sync::mpsc;",
        "use crate::rt::sync::atomic::{AtomicU64, Ordering};",
        "// std::sync::atomic in a comment",
    ] {
        assert!(raw_primitives(line).is_empty(), "false alarm: {line}");
    }
}
