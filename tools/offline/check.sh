#!/usr/bin/env bash
# Offline build + test of the NSCC workspace in a container with no cargo
# registry. External deps are replaced by the API-compatible shims in this
# directory; workspace crates are compiled with plain rustc in dependency
# order, and each crate's unit tests are built and run.
#
# The last step hands over to crates/perf/build-offline.sh (--test), which
# builds the workspace again at opt-level 3 for the nscc-perf benchmark.
#
# This is NOT the real tier-1 build (`cargo build --release && cargo test
# -q`) — criterion benches are skipped, proptest-based integration tests
# run against a deterministic 3-samples-per-axis shim instead of a random
# search (the files that need more than it models are named, with the
# reason, by the `skip` lines at the end), and the rand shim's streams
# differ from real rand, so anything asserting exact golden values from RNG
# draws cannot be checked here.
# Everything else — full typecheck, borrowck, unit tests including the
# serde-driven JSON reports — runs for real.
#
# Usage: tools/offline/check.sh [--no-test] [crate ...]
#   With crate names, only those crates (plus everything they need) are
#   rebuilt; with none, the whole workspace is processed.

set -u
cd "$(dirname "$0")/../.."
OUT="${NSCC_OFFLINE_OUT:-/tmp/nscc-offline}"
mkdir -p "$OUT"
RUSTC="rustc --edition 2021 -L $OUT"
RUN_TESTS=1
ONLY=()
for arg in "$@"; do
    case "$arg" in
        --no-test) RUN_TESTS=0 ;;
        *) ONLY+=("$arg") ;;
    esac
done

want() { # crate selected (or no filter)?
    [ ${#ONLY[@]} -eq 0 ] && return 0
    for o in "${ONLY[@]}"; do [ "$o" = "$1" ] && return 0; done
    return 1
}

fail=0

step() {
    echo "--- $*" >&2
}

# No lock, atomic or Send/Sync bound in what a simulation is made of, and
# every file the frozen crates/perf/build-offline.sh compiles still exists.
step guard
tools/offline/guard.sh >&2 || fail=1

# --- stubs (always built; cheap) ---
step stub serde_derive
$RUSTC --crate-type proc-macro --crate-name serde_derive \
    tools/offline/serde_derive_shim.rs --out-dir "$OUT" || exit 1
step stub serde
$RUSTC --crate-type rlib --crate-name serde tools/offline/serde_shim.rs \
    --extern serde_derive="$OUT/libserde_derive.so" --out-dir "$OUT" || exit 1
step stub rand
$RUSTC --crate-type rlib --crate-name rand tools/offline/rand_shim.rs \
    --out-dir "$OUT" || exit 1
step stub proptest
$RUSTC --crate-type rlib --crate-name proptest tools/offline/proptest_shim.rs \
    --out-dir "$OUT" || exit 1

EXT_SERDE="--extern serde=$OUT/libserde.rlib"
EXT_RAND="--extern rand=$OUT/librand.rlib"

# build <crate> <src> <externs...>: rlib + unit-test binary (run).
build() {
    local crate="$1" src="$2"
    shift 2
    want "$crate" || return 0
    step "build $crate"
    $RUSTC --crate-type rlib --crate-name "$crate" "$src" "$@" \
        --out-dir "$OUT" || { fail=1; return 1; }
    if [ "$RUN_TESTS" = 1 ]; then
        step "test $crate"
        $RUSTC --test --crate-name "${crate}_unit" "$src" "$@" \
            -o "$OUT/test_$crate" || { fail=1; return 1; }
        "$OUT/test_$crate" -q || fail=1
    fi
}

# Every crates/*/tests/*.rs this script knows: registered with `itest` or
# named by `skip`. The guard at the end fails on any file in neither set.
KNOWN=" "

# itest <crate> <src> <externs...>: an integration-test file, built and run.
itest() {
    local crate="$1" src="$2"
    shift 2
    KNOWN="$KNOWN$src "
    want "$crate" || return 0
    [ "$RUN_TESTS" = 1 ] || return 0
    step "itest $crate $(basename "$src")"
    local name
    name="$(basename "$src" .rs)"
    $RUSTC --test --crate-name "${crate}_it_${name}" "$src" "$@" \
        -o "$OUT/itest_${crate}_${name}" || { fail=1; return 1; }
    "$OUT/itest_${crate}_${name}" -q || fail=1
}

# doctest <crate> <src> <externs...>: the crate's doc-tests, against the rlib
# just built. Registered for the crates whose `compile_fail` doc-tests pin
# a type as `!Send`.
doctest() {
    local crate="$1" src="$2"
    shift 2
    want "$crate" || return 0
    [ "$RUN_TESTS" = 1 ] || return 0
    step "doctest $crate"
    rustdoc --edition 2021 --test -L "$OUT" --crate-name "$crate" "$src" \
        --extern "$crate=$OUT/lib$crate.rlib" "$@" >/dev/null || fail=1
}

# skip <src> <reason...>: an integration-test file this script does not run.
skip() {
    local src="$1"
    shift
    KNOWN="$KNOWN$src "
    step "skip $src: $*"
}

# binary <name> <src> <externs...>: plain executable, not run.
binary() {
    local name="$1" src="$2"
    shift 2
    step "bin $name"
    $RUSTC --crate-name "${name//-/_}" "$src" "$@" -o "$OUT/bin_$name" \
        || fail=1
}

E_PROPTEST="--extern proptest=$OUT/libproptest.rlib"
E_CKPT="--extern nscc_ckpt=$OUT/libnscc_ckpt.rlib"
E_OBS="--extern nscc_obs=$OUT/libnscc_obs.rlib"
E_AUDIT="--extern nscc_audit=$OUT/libnscc_audit.rlib"
E_SIM="--extern nscc_sim=$OUT/libnscc_sim.rlib"
E_NET="--extern nscc_net=$OUT/libnscc_net.rlib"
E_FAULTS="--extern nscc_faults=$OUT/libnscc_faults.rlib"
E_MSG="--extern nscc_msg=$OUT/libnscc_msg.rlib"
E_DSM="--extern nscc_dsm=$OUT/libnscc_dsm.rlib"
E_PART="--extern nscc_partition=$OUT/libnscc_partition.rlib"
E_GA="--extern nscc_ga=$OUT/libnscc_ga.rlib"
E_BAYES="--extern nscc_bayes=$OUT/libnscc_bayes.rlib"
E_CORE="--extern nscc_core=$OUT/libnscc_core.rlib"
E_BENCH="--extern nscc_bench=$OUT/libnscc_bench.rlib"
E_HUNT="--extern nscc_hunt=$OUT/libnscc_hunt.rlib"
E_ANALYZE="--extern nscc_analyze=$OUT/libnscc_analyze.rlib"

build nscc_ckpt crates/ckpt/src/lib.rs
build nscc_obs crates/obs/src/lib.rs $EXT_SERDE $E_CKPT
doctest nscc_obs crates/obs/src/lib.rs $EXT_SERDE $E_CKPT
build nscc_audit crates/audit/src/lib.rs $EXT_SERDE $E_OBS
build nscc_sim crates/sim/src/lib.rs $EXT_RAND $EXT_SERDE $E_CKPT $E_OBS
doctest nscc_sim crates/sim/src/lib.rs $EXT_RAND $EXT_SERDE $E_CKPT $E_OBS
itest nscc_sim crates/sim/tests/stepper.rs $E_SIM
build nscc_net crates/net/src/lib.rs $EXT_RAND $EXT_SERDE $E_CKPT $E_OBS $E_SIM
doctest nscc_net crates/net/src/lib.rs $EXT_RAND $EXT_SERDE $E_CKPT $E_OBS $E_SIM
build nscc_faults crates/faults/src/lib.rs $EXT_RAND $EXT_SERDE $E_SIM $E_NET
build nscc_msg crates/msg/src/lib.rs $EXT_RAND $EXT_SERDE $E_CKPT $E_OBS $E_SIM $E_NET $E_FAULTS
doctest nscc_msg crates/msg/src/lib.rs $EXT_RAND $EXT_SERDE $E_CKPT $E_OBS $E_SIM $E_NET $E_FAULTS
build nscc_dsm crates/dsm/src/lib.rs $EXT_RAND $EXT_SERDE $E_CKPT $E_OBS $E_SIM $E_NET $E_MSG
doctest nscc_dsm crates/dsm/src/lib.rs $EXT_RAND $EXT_SERDE $E_CKPT $E_OBS $E_SIM $E_NET $E_MSG
itest nscc_dsm crates/dsm/tests/global_read.rs $E_DSM $E_MSG $E_NET $E_SIM
itest nscc_dsm crates/dsm/tests/resilience.rs $E_DSM $E_MSG $E_NET $E_SIM
itest nscc_dsm crates/dsm/tests/zero_copy.rs $EXT_SERDE $E_DSM $E_FAULTS $E_MSG $E_NET $E_SIM
itest nscc_dsm crates/dsm/tests/alloc_budget.rs $E_DSM $E_MSG $E_NET $E_SIM
build nscc_partition crates/partition/src/lib.rs $EXT_RAND
build nscc_ga crates/ga/src/lib.rs $EXT_RAND $EXT_SERDE $E_CKPT $E_SIM $E_NET $E_MSG $E_DSM
itest nscc_ga crates/ga/tests/adaptive.rs $E_GA $E_DSM $E_MSG $E_NET $E_SIM
itest nscc_ga crates/ga/tests/topology.rs $E_GA $E_DSM $E_MSG $E_NET $E_SIM
# kernel_pin compares against a reference kernel driven off the same RNG, so
# it holds whatever stream the rand shim produces.
itest nscc_ga crates/ga/tests/kernel_pin.rs $EXT_RAND $E_GA
itest nscc_ga crates/ga/tests/alloc_budget.rs $EXT_RAND $E_GA $E_DSM $E_MSG $E_NET $E_SIM
itest nscc_ga crates/ga/tests/properties.rs $E_PROPTEST $EXT_RAND $E_GA $E_CKPT $E_MSG
build nscc_bayes crates/bayes/src/lib.rs $EXT_RAND $EXT_SERDE $E_CKPT $E_OBS $E_SIM $E_NET $E_MSG $E_DSM $E_PART
# kernel_pin and alloc_budget are RNG-free, so their pinned digests and
# counts hold against the rand shim too.
itest nscc_bayes crates/bayes/tests/alloc_budget.rs $E_BAYES $E_DSM $E_MSG $E_NET $E_SIM
itest nscc_bayes crates/bayes/tests/kernel_pin.rs $E_BAYES $E_DSM $E_MSG $E_NET $E_SIM
itest nscc_bayes crates/bayes/tests/parallel_inference.rs $E_BAYES $E_DSM $E_MSG $E_NET $E_SIM
itest nscc_bayes crates/bayes/tests/properties.rs $E_PROPTEST $E_BAYES
build nscc_core crates/core/src/lib.rs $EXT_RAND $EXT_SERDE $E_CKPT $E_OBS $E_AUDIT $E_SIM $E_NET $E_FAULTS $E_MSG $E_DSM $E_PART $E_GA $E_BAYES
build nscc_bench crates/bench/src/lib.rs $EXT_RAND $E_CKPT $E_OBS $E_AUDIT $E_SIM $E_NET $E_FAULTS $E_MSG $E_DSM $E_PART $E_GA $E_BAYES $E_CORE
build nscc_hunt crates/hunt/src/lib.rs $EXT_RAND $E_CKPT $E_OBS $E_AUDIT $E_SIM $E_NET $E_FAULTS $E_MSG $E_DSM $E_PART $E_GA $E_BAYES $E_CORE $E_BENCH
build nscc_analyze crates/analyze/src/lib.rs $E_CKPT
# json_pin holds the reader against the pre-rewrite one (tests/common/
# reference.rs) over every committed *.json; alloc_budget counts its
# allocations per event.
itest nscc_analyze crates/analyze/tests/json_pin.rs $E_ANALYZE
itest nscc_analyze crates/analyze/tests/alloc_budget.rs $E_ANALYZE
build nscc src/lib.rs $EXT_RAND $E_CKPT $E_OBS $E_AUDIT $E_SIM $E_NET $E_FAULTS $E_MSG $E_DSM $E_PART $E_GA $E_BAYES $E_CORE $E_ANALYZE
# Root integration tests (proptest-based ones run against the shim: three
# deterministic samples per axis instead of a random search).
E_NSCC="--extern nscc=$OUT/libnscc.rlib"
for t in tests/*.rs; do
    itest nscc "$t" $E_NSCC $E_PROPTEST $EXT_RAND
done

ALL="$EXT_RAND $EXT_SERDE $E_CKPT $E_OBS $E_AUDIT $E_SIM $E_NET $E_FAULTS $E_MSG $E_DSM $E_PART $E_GA $E_BAYES $E_CORE $E_BENCH"
if want nscc_bench; then
    for b in crates/bench/src/bin/*.rs; do
        binary "bench-$(basename "$b" .rs)" "$b" $ALL
    done
fi
if want nscc_hunt; then
    binary nscc-hunt crates/hunt/src/bin/nscc-hunt.rs $ALL $E_HUNT
fi
if want nscc_analyze; then
    binary nscc-cli crates/analyze/src/bin/nscc.rs $E_ANALYZE $E_CKPT
fi

# nscc-perf builds optimised, in its own out-dir (a benchmark must not
# measure unoptimised code); with tests on, its unit tests and smoke test run.
if [ ${#ONLY[@]} -eq 0 ]; then
    step "perf build-offline.sh"
    perf_test=()
    [ "$RUN_TESTS" = 1 ] && perf_test=(--test)
    crates/perf/build-offline.sh "${perf_test[@]}" "$OUT/perf" >/dev/null || fail=1
fi

# The proptest shim is a three-point sampler over numeric ranges; these
# files draw from strategies it cannot model. CI's `cargo test` runs them.
skip crates/sim/tests/properties.rs "needs prop::collection::vec and tuple strategies"
skip crates/msg/tests/properties.rs "needs prop::collection::vec, any::<Option<_>>() and regex strings"
skip crates/partition/tests/properties.rs "needs a custom graph strategy and prop_assume!"
skip crates/perf/tests/smoke.rs "run by crates/perf/build-offline.sh --test (above)," \
    "against the optimised build it measures"

# `cargo test` runs every crates/*/tests/*.rs; this script must not
# silently run fewer.
for t in crates/*/tests/*.rs; do
    case "$KNOWN" in
        *" $t "*) ;;
        *)
            echo "check.sh: $t is neither run (itest) nor skipped with a reason (skip)" >&2
            fail=1
            ;;
    esac
done

if [ "$fail" = 0 ]; then
    echo "offline check OK"
else
    echo "offline check FAILED" >&2
fi
exit $fail
