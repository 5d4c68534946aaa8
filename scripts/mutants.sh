#!/usr/bin/env bash
# Mutation gate: every check must show the bug it exists to catch.
#
# Each patch under tests/mutants/ plants one bug and names, on a line
# `kill: cargo test ...`, the one test that must fail with the bug in
# place. The script copies the tree (tracked files, with uncommitted
# edits to them) into a scratch directory once, then for each patch:
# applies it, runs only the named test, and reverts it. It fails if a
# patch no longer applies, if a patch names no test, or if the named
# test passes (the mutant survived). A kill line that needs the loom
# model builds with it through `cargo test --config
# 'build.rustflags=["--cfg","loom"]' ...`.
#
# Usage: scripts/mutants.sh [scratch-dir]
# The scratch directory (default: a fresh temporary one) keeps the copy
# and its cargo target, so a rerun with the same directory rebuilds only
# what the patches touch.
set -euo pipefail

root=$(git -C "$(dirname "$0")/.." rev-parse --show-toplevel)
work=${1:-$(mktemp -d)}
tree="$work/tree"
rm -rf "$tree"
mkdir -p "$tree"
# `git stash create` snapshots the working tree without touching it; on a
# clean tree it prints nothing and HEAD is the snapshot.
snapshot=$(git -C "$root" stash create)
git -C "$root" archive "${snapshot:-HEAD}" | tar -x -C "$tree"
export CARGO_TARGET_DIR="$work/target"

status=0
for patch in "$root"/tests/mutants/*.patch; do
    name=$(basename "$patch" .patch)
    kill=$(sed -n 's/^kill: //p' "$patch")
    if [[ $kill != "cargo test "* ]]; then
        echo "FAIL $name: no 'kill: cargo test ...' line"
        status=1
        continue
    fi
    if ! (cd "$tree" && git apply "$patch"); then
        echo "FAIL $name: the patch no longer applies"
        status=1
        continue
    fi
    echo "== $name: $kill"
    if (cd "$tree" && bash -c "$kill" >"$work/$name.log" 2>&1); then
        echo "FAIL $name survived: the named test passed with the bug in place (log: $work/$name.log)"
        status=1
    elif grep -q "^test result: FAILED" "$work/$name.log"; then
        echo "killed"
    else
        echo "FAIL $name: the test run broke before any test failed (log: $work/$name.log)"
        status=1
    fi
    (cd "$tree" && git apply -R "$patch")
done
exit $status
