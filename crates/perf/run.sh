#!/usr/bin/env bash
# The one command of the nscc-perf benchmark: build, then measure.
#
#   crates/perf/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload; the last line of stdout is the JSON result
#   crates/perf/run.sh [--out FILE] [--seed N] [--seconds S]
#       every workload, untraced then traced, each in its own pinned child
#       process; writes one set file (default crates/perf/results/latest.json)
#   crates/perf/run.sh compare A.json B.json | probes | pin-test
#
# Builds with `cargo build --release -p nscc-perf`. Where the registry is
# unreachable it falls back to build-offline.sh (the same sources against
# the tools/offline shims, at opt-level 3) and remembers that for the
# target directory. The build mode is part of every result: the rand shim
# changes RNG streams, so numbers are never compared across modes.
set -eu
cd "$(dirname "$0")/../.."
TARGET="${CARGO_TARGET_DIR:-target}"
case "$TARGET" in /*) ;; *) TARGET="$PWD/$TARGET" ;; esac
export CARGO_TARGET_DIR="$TARGET"
OFFLINE="$TARGET/perf-offline"
mkdir -p "$OFFLINE"

if [ ! -e "$OFFLINE/cargo-unavailable" ] &&
    CARGO_NET_RETRY=0 CARGO_HTTP_TIMEOUT=15 \
        cargo build --release -p nscc-perf >"$OFFLINE/cargo.log" 2>&1; then
    BIN="$TARGET/release/nscc-perf"
    export NSCC_PERF_BUILD_MODE=cargo
else
    touch "$OFFLINE/cargo-unavailable"
    BIN="$(crates/perf/build-offline.sh "$OFFLINE" 2>"$OFFLINE/build.log")" || {
        cat "$OFFLINE/build.log" >&2
        echo "nscc-perf: offline build failed (cargo's error is in $OFFLINE/cargo.log)" >&2
        exit 1
    }
    export NSCC_PERF_BUILD_MODE=offline-shim
fi
export NSCC_PERF_OPT_LEVEL=3
NSCC_PERF_RUSTC="$(rustc -V)"
export NSCC_PERF_RUSTC

case "${1:-}" in
    compare | probes | pin-test | run | suite) exec "$BIN" "$@" ;;
esac
for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        exec "$BIN" run "$@"
    fi
done
for arg in "$@"; do
    if [ "$arg" = "--out" ]; then
        exec "$BIN" suite "$@"
    fi
done
exec "$BIN" suite --out crates/perf/results/latest.json "$@"
