#!/usr/bin/env bash
# Offline build of nscc-perf: plain rustc over the workspace sources against
# the tools/offline/*_shim.rs stand-ins for the external crates, optimised.
# tools/offline/check.sh does the same unoptimised (and runs the tests); a
# benchmark must measure optimised code, so this build keeps its own
# out-dir and flags. Prints the path of the binary on stdout.
#
# Usage: crates/perf/build-offline.sh [--test] [out-dir]
#   --test also builds and runs the crate's unit tests and tests/smoke.rs
#   (tools/offline/check.sh predates this crate and does not know it).
set -eu
cd "$(dirname "$0")/../.."
TEST=0
if [ "${1:-}" = "--test" ]; then
    TEST=1
    shift
fi
OUT="${1:-${CARGO_TARGET_DIR:-target}/perf-offline}"
mkdir -p "$OUT"
RUSTC="rustc --edition 2021 -C opt-level=3 -L $OUT"
BIN="$OUT/nscc-perf"

# Rebuild only when a source is newer than the binary.
if [ "$TEST" = 0 ] && [ -x "$BIN" ] &&
    [ -z "$(find crates tools/offline -name '*.rs' -newer "$BIN" -print -quit)" ]; then
    echo "$BIN"
    exit 0
fi

lib() { # lib <crate> <src> <dep crate>...
    local crate="$1" src="$2" ext=""
    shift 2
    for d in "$@"; do
        case "$d" in
            serde_derive) ext="$ext --extern serde_derive=$OUT/libserde_derive.so" ;;
            *) ext="$ext --extern $d=$OUT/lib$d.rlib" ;;
        esac
    done
    echo "--- build $crate" >&2
    # shellcheck disable=SC2086
    $RUSTC --crate-type rlib --crate-name "$crate" "$src" $ext --out-dir "$OUT"
}

echo "--- build serde_derive" >&2
rustc --edition 2021 --crate-type proc-macro --crate-name serde_derive \
    tools/offline/serde_derive_shim.rs --out-dir "$OUT"
lib serde tools/offline/serde_shim.rs serde_derive
lib parking_lot tools/offline/parking_lot_shim.rs
lib crossbeam tools/offline/crossbeam_shim.rs
lib rand tools/offline/rand_shim.rs

lib nscc_ckpt crates/ckpt/src/lib.rs
lib nscc_obs crates/obs/src/lib.rs parking_lot serde nscc_ckpt
lib nscc_audit crates/audit/src/lib.rs parking_lot serde nscc_obs
lib nscc_sim crates/sim/src/lib.rs crossbeam parking_lot rand serde nscc_ckpt nscc_obs
lib nscc_net crates/net/src/lib.rs parking_lot rand serde nscc_ckpt nscc_obs nscc_sim
lib nscc_faults crates/faults/src/lib.rs parking_lot rand serde nscc_sim nscc_net
lib nscc_msg crates/msg/src/lib.rs parking_lot rand serde nscc_ckpt nscc_obs nscc_sim nscc_net nscc_faults
lib nscc_dsm crates/dsm/src/lib.rs parking_lot rand serde nscc_ckpt nscc_obs nscc_sim nscc_net nscc_msg
lib nscc_partition crates/partition/src/lib.rs rand
lib nscc_ga crates/ga/src/lib.rs parking_lot rand serde nscc_ckpt nscc_sim nscc_net nscc_msg nscc_dsm
lib nscc_bayes crates/bayes/src/lib.rs parking_lot rand serde nscc_ckpt nscc_obs nscc_sim nscc_net nscc_msg nscc_dsm nscc_partition
lib nscc_core crates/core/src/lib.rs parking_lot rand serde nscc_ckpt nscc_obs nscc_audit nscc_sim nscc_net nscc_faults nscc_msg nscc_dsm nscc_partition nscc_ga nscc_bayes
lib nscc_bench crates/bench/src/lib.rs parking_lot rand nscc_ckpt nscc_obs nscc_audit nscc_sim nscc_net nscc_faults nscc_msg nscc_dsm nscc_partition nscc_ga nscc_bayes nscc_core
lib nscc_hunt crates/hunt/src/lib.rs parking_lot rand nscc_ckpt nscc_obs nscc_audit nscc_sim nscc_net nscc_faults nscc_msg nscc_dsm nscc_partition nscc_ga nscc_bayes nscc_core nscc_bench
lib nscc_analyze crates/analyze/src/lib.rs nscc_ckpt

PERF_DEPS="nscc_ckpt nscc_obs nscc_audit nscc_sim nscc_net nscc_faults nscc_msg nscc_dsm nscc_partition nscc_ga nscc_bayes nscc_core nscc_bench nscc_hunt nscc_analyze"
# shellcheck disable=SC2086
lib nscc_perf crates/perf/src/lib.rs $PERF_DEPS
echo "--- build nscc-perf" >&2
$RUSTC --crate-name nscc_perf_bin crates/perf/src/main.rs \
    --extern nscc_perf="$OUT/libnscc_perf.rlib" -o "$BIN.tmp"
mv "$BIN.tmp" "$BIN"
if [ "$TEST" = 1 ]; then
    PERF_EXT=""
    for d in $PERF_DEPS; do PERF_EXT="$PERF_EXT --extern $d=$OUT/lib$d.rlib"; done
    echo "--- test nscc_perf" >&2
    # shellcheck disable=SC2086
    $RUSTC --test --crate-name nscc_perf_unit crates/perf/src/lib.rs $PERF_EXT -o "$OUT/test_nscc_perf"
    "$OUT/test_nscc_perf" -q >&2
    echo "--- test nscc_perf smoke" >&2
    # shellcheck disable=SC2086
    CARGO_MANIFEST_DIR="$PWD/crates/perf" $RUSTC --test --crate-name nscc_perf_smoke \
        crates/perf/tests/smoke.rs --extern nscc_perf="$OUT/libnscc_perf.rlib" $PERF_EXT \
        -o "$OUT/test_nscc_perf_smoke"
    "$OUT/test_nscc_perf_smoke" -q >&2
fi
echo "$BIN"
