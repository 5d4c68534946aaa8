//! CLI for `latr-lint`.
//!
//! Usage:
//!   latr-lint --workspace              # locate the repo and lint crates/core/src/rt
//!   latr-lint --root DIR --protocol F  # lint an arbitrary tree against a spec
//!
//! Exits 0 when the code matches PROTOCOL.toml, 1 on any diagnostic,
//! 2 on usage or I/O errors.

use std::path::PathBuf;
use std::process::ExitCode;

use latr_lint::{analyze_dir, CfgEnv, ProtocolSpec};

fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir);
                }
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut root: Option<PathBuf> = None;
    let mut protocol: Option<PathBuf> = None;
    let mut display_prefix = String::new();
    let mut workspace = false;
    let mut quiet = false;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workspace" => workspace = true,
            "--root" => match it.next() {
                Some(v) => root = Some(PathBuf::from(v)),
                None => return usage("--root needs a value"),
            },
            "--protocol" => match it.next() {
                Some(v) => protocol = Some(PathBuf::from(v)),
                None => return usage("--protocol needs a value"),
            },
            "--quiet" | "-q" => quiet = true,
            "--help" | "-h" => {
                return usage("");
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    if workspace {
        let Some(ws) = find_workspace_root() else {
            eprintln!("latr-lint: no workspace Cargo.toml found above the current directory");
            return ExitCode::from(2);
        };
        let rt = ws.join("crates/core/src/rt");
        display_prefix = "crates/core/src/rt/".to_string();
        protocol.get_or_insert_with(|| rt.join("PROTOCOL.toml"));
        root = Some(rt);
    }
    let (Some(root), Some(protocol)) = (root, protocol) else {
        return usage("need --workspace, or both --root and --protocol");
    };

    let spec_text = match std::fs::read_to_string(&protocol) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("latr-lint: cannot read {}: {e}", protocol.display());
            return ExitCode::from(2);
        }
    };
    let spec = match ProtocolSpec::parse(&spec_text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("latr-lint: {e}");
            return ExitCode::from(2);
        }
    };

    let report = match analyze_dir(&spec, &root, &display_prefix, &CfgEnv::default()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("latr-lint: {e}");
            return ExitCode::from(2);
        }
    };

    for d in &report.diagnostics {
        println!("{d}");
    }
    if !quiet {
        eprintln!(
            "latr-lint: {} files, {} fns, {} atomic ops, {}/{} spec fields covered, {} diagnostics",
            report.files,
            report.fns,
            report.atomic_ops,
            report.covered_fields.len(),
            spec.fields.len(),
            report.diagnostics.len()
        );
    }
    if report.diagnostics.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn usage(err: &str) -> ExitCode {
    if !err.is_empty() {
        eprintln!("latr-lint: {err}");
    }
    eprintln!(
        "usage: latr-lint --workspace [--quiet]\n       latr-lint --root DIR --protocol FILE [--quiet]"
    );
    ExitCode::from(2)
}
