#!/usr/bin/env bash
# Byte-compare the bench binaries of two builds: run every bench binary of
# <a-target> and <b-target> (two cargo target directories, each holding a
# `cargo build --release`, e.g. one from a clone of the parent commit built
# with CARGO_TARGET_DIR=<a-target>) in fresh temporary directories under
# one fixed environment matrix, and compare exit code, stdout, stderr and
# every file each run wrote.
#
# Usage: tools/offline/same_bytes.sh <a-target> <b-target>
#
# Matrix, at a quick scale (NSCC_RUNS=1 NSCC_GENS=12 NSCC_CI=0.1):
#   plain  NSCC_JSON=1                                        all eight bins
#   obs    + NSCC_AUDIT=1 NSCC_FLIGHT=64 NSCC_STALENESS=1
#            NSCC_TRACE=1 NSCC_FOLDED=profile.folded          all eight bins
#   ckpt   obs with NSCC_CKPT_DIR=ck and without NSCC_TRACE   all eight bins
#   kill   NSCC_JSON=1 NSCC_TRACE=1 NSCC_CKPT_DIR=ck
#            NSCC_CKPT_EXIT_AFTER=2 (exit 3), then the same
#            with NSCC_RESUME=1 in the same directory         the five sweeps
#   inject NSCC_JSON=1 NSCC_AUDIT=1 NSCC_FLIGHT=64
#            NSCC_INJECT_STALE=2                              fault_study
#   plan   NSCC_JSON=1 NSCC_FAULT_PLAN=tests/fixtures/plans/short.json
#            (a hand-written plan; the plan-file loader)      fault_study
# NSCC_WALL and NSCC_LIVE read the host clock and are left out.
#
# Every exit code, stdout, stderr and file must match byte for byte,
# checkpoint generations included: the script lists each difference and
# exits 1 if there is any.
set -u
if [ $# -ne 2 ]; then
    echo "usage: $0 <a-target> <b-target>" >&2
    exit 2
fi
A="$(cd "$1" && pwd)"
B="$(cd "$2" && pwd)"
ROOT="$(cd "$(dirname "$0")/../.." && pwd)"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

SWEEPS="fig2 fig3 fig4 fault_study warp_study"
ALL="table1 table2 drill $SWEEPS"
QUICK="NSCC_RUNS=1 NSCC_GENS=12 NSCC_CI=0.1"
OBS="NSCC_JSON=1 NSCC_AUDIT=1 NSCC_FLIGHT=64 NSCC_STALENESS=1 NSCC_FOLDED=profile.folded"
runs=0 files=0 differences=0

differ() { # differ <what>
    differences=$((differences + 1))
    printf '  differs: %s\n' "$1"
}

# run <side-dir> <target-dir> <bin> <env...>: one binary in <side-dir>.
run() {
    local dir="$1" out="$2" bin="$3"
    shift 3
    mkdir -p "$dir"
    (cd "$dir" && env -i PATH="$PATH" HOME="$HOME" $QUICK "$@" \
        "$out/release/$bin" >"$dir.stdout" 2>"$dir.stderr")
    echo $? >"$dir.exit"
}

# compare <label> <bin> <a-dir> <b-dir>
compare() {
    local label="$1" bin="$2" a="$3" b="$4" f
    runs=$((runs + 1))
    echo "$label $bin"
    cmp -s "$a.exit" "$b.exit" || differ "exit $(cat "$a.exit") vs $(cat "$b.exit")"
    cmp -s "$a.stderr" "$b.stderr" || differ "stderr"
    cmp -s "$a.stdout" "$b.stdout" || differ "stdout"
    files_of() { (cd "$1" && find . -type f | sort); }
    if ! diff <(files_of "$a") <(files_of "$b") >/dev/null; then
        differ "file sets: $(diff <(files_of "$a") <(files_of "$b") | grep '^[<>]' | tr '\n' ' ')"
    fi
    while read -r f; do
        [ -f "$b/$f" ] || continue
        files=$((files + 1))
        cmp -s "$a/$f" "$b/$f" || differ "$f"
    done < <(files_of "$a")
}

# one <label> <bins> <env...>: fresh directories, both sides.
one() {
    local label="$1" bins="$2" bin
    shift 2
    for bin in $bins; do
        run "$WORK/$label-$bin/a" "$A" "$bin" "$@"
        run "$WORK/$label-$bin/b" "$B" "$bin" "$@"
        compare "$label" "$bin" "$WORK/$label-$bin/a" "$WORK/$label-$bin/b"
    done
}

one plain "$ALL" NSCC_JSON=1
one obs "$ALL" $OBS NSCC_TRACE=1
one ckpt "$ALL" $OBS NSCC_CKPT_DIR=ck
for bin in $SWEEPS; do
    for side in a b; do
        out="$A" && [ $side = b ] && out="$B"
        run "$WORK/kill-$bin/$side" "$out" "$bin" NSCC_JSON=1 NSCC_TRACE=1 NSCC_CKPT_DIR=ck \
            NSCC_CKPT_EXIT_AFTER=2
    done
    compare kill "$bin" "$WORK/kill-$bin/a" "$WORK/kill-$bin/b"
    for side in a b; do
        out="$A" && [ $side = b ] && out="$B"
        run "$WORK/kill-$bin/$side" "$out" "$bin" NSCC_JSON=1 NSCC_TRACE=1 NSCC_CKPT_DIR=ck \
            NSCC_RESUME=1
    done
    compare resume "$bin" "$WORK/kill-$bin/a" "$WORK/kill-$bin/b"
done
one inject fault_study NSCC_JSON=1 NSCC_AUDIT=1 NSCC_FLIGHT=64 NSCC_INJECT_STALE=2
one plan fault_study NSCC_JSON=1 NSCC_FAULT_PLAN="$ROOT/tests/fixtures/plans/short.json"

echo "same_bytes: $runs runs, $files files compared; $differences difference(s)"
[ "$differences" = 0 ]
