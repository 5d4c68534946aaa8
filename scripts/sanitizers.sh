#!/usr/bin/env sh
# Runs the rt test suite and the coherence oracle's worker-thread tests
# under a sanitizer (EXPERIMENTS.md "Sanitizers").
#
#   scripts/sanitizers.sh thread    # ThreadSanitizer (default)
#   scripts/sanitizers.sh address   # AddressSanitizer
#
# Sanitizers need nightly (-Zsanitizer). Two modes:
#   - With the `rust-src` component (the CI path): std is rebuilt
#     instrumented via -Zbuild-std, giving full-fidelity reports.
#   - Without it (typical offline container): only our crates are
#     instrumented; `-Cunsafe-allow-abi-mismatch=sanitizer` permits the
#     mixed build and scripts/tsan.supp silences the false races TSan
#     reports on std's own (uninstrumented) primitives.
#
# An explicit --target keeps RUSTFLAGS away from proc macros and build
# scripts (an instrumented proc-macro dylib cannot load into rustc).
set -eu

SAN="${1:-thread}"
case "$SAN" in
    thread|address) ;;
    *)
        echo "usage: scripts/sanitizers.sh [thread|address]" >&2
        exit 2
        ;;
esac

if ! cargo +nightly --version >/dev/null 2>&1; then
    echo "sanitizers need a nightly toolchain (-Zsanitizer); none found — skipping." >&2
    exit 0
fi

SCRIPT_DIR=$(CDPATH= cd -- "$(dirname -- "$0")" && pwd)
HOST=$(rustc +nightly -vV | sed -n 's/^host: //p')
RUSTFLAGS="-Zsanitizer=$SAN"
BUILD_STD=""

if rustc +nightly --print sysroot >/dev/null 2>&1 \
    && [ -d "$(rustc +nightly --print sysroot)/lib/rustlib/src/rust/library" ]; then
    BUILD_STD="-Zbuild-std"
    echo "rust-src found: instrumenting std via -Zbuild-std" >&2
else
    RUSTFLAGS="$RUSTFLAGS -Cunsafe-allow-abi-mismatch=sanitizer"
    echo "no rust-src: mixed build (std uninstrumented), using suppressions" >&2
fi

if [ "$SAN" = "thread" ]; then
    TSAN_OPTIONS="suppressions=$SCRIPT_DIR/tsan.supp ${TSAN_OPTIONS:-}"
    export TSAN_OPTIONS
else
    # Leak checking is miri's job; in the mixed build it would flag
    # std-internal allocations we cannot see into.
    ASAN_OPTIONS="detect_leaks=0 ${ASAN_OPTIONS:-}"
    export ASAN_OPTIONS
fi

# A sanitizer-specific target dir keeps instrumented artifacts from
# poisoning the normal build cache (and vice versa).
CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}/san-$SAN"
export CARGO_TARGET_DIR RUSTFLAGS

echo "RUSTFLAGS=$RUSTFLAGS" >&2
# The rt unit tests are where every rt atomic and lock is exercised
# under real threads; --target (see above) scopes RUSTFLAGS to target code.
# shellcheck disable=SC2086  # BUILD_STD intentionally word-splits away when empty
cargo +nightly test -p latr-core --lib $BUILD_STD --target "$HOST" -- rt::
# The simulator's one cross-thread hand-off: the oracle's batched pipe to
# its worker thread (`pipe::` unit tests, and the golden violation
# reports driven through the worker).
# shellcheck disable=SC2086
cargo +nightly test -p latr-verify --lib $BUILD_STD --target "$HOST" -- pipe::
# shellcheck disable=SC2086
exec cargo +nightly test -p latr-verify --test violation_golden $BUILD_STD --target "$HOST"
