#!/usr/bin/env bash
# Byte-compare the experiments of two builds: run every `nscc run`
# experiment of <a-target> and <b-target> (two cargo target directories,
# each holding a `cargo build --release`, e.g. one from a clone of the
# parent commit built with CARGO_TARGET_DIR=<a-target>) in fresh temporary
# directories under one fixed flag matrix, and compare exit code, stdout,
# stderr and every file each run wrote.
#
# Usage: tools/offline/same_bytes.sh <a-target> <b-target>
#
# Matrix, at a quick scale (--runs 1 --gens 12 --ci 0.1, each where the
# experiment reads it):
#   plain  --json                                             all eight
#   obs    + --audit --flight 64 --staleness --trace
#            --folded profile.folded                          all eight
#   ckpt   obs with --ckpt-dir ck (where read) and without
#            --trace                                          all eight
#   kill   --json --trace --ckpt-dir ck --ckpt-exit-after 2
#            (exit 3), then the same with --resume instead
#            of --ckpt-exit-after in the same directory       the five sweeps
#   inject --json --audit --flight 64 --inject-stale 2        fault_study
#   plan   --json --fault-plan tests/fixtures/plans/short.json
#            (a hand-written plan; the plan-file loader)      fault_study
# --wall and --live read the host clock and are left out.
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
OBS="--json --audit --flight 64 --staleness --folded profile.folded"
runs=0 files=0 differences=0

# quick <exp>: the quick scale, as the flags <exp> reads.
quick() {
    case "$1" in
        table2 | fig3) echo --runs 1 --ci 0.1 ;;
        fig2 | fig4 | fault_study) echo --runs 1 --gens 12 ;;
        drill) echo --gens 12 ;;
    esac
}

# ckpt <exp>: --ckpt-dir ck where <exp> reads it.
ckpt() {
    case "$1" in
        table1 | table2) ;;
        *) echo --ckpt-dir ck ;;
    esac
}

differ() { # differ <what>
    differences=$((differences + 1))
    printf '  differs: %s\n' "$1"
}

# run <side-dir> <target-dir> <exp> <flag...>: one experiment in <side-dir>.
run() {
    local dir="$1" out="$2" exp="$3"
    shift 3
    mkdir -p "$dir"
    # shellcheck disable=SC2046
    (cd "$dir" && env -i PATH="$PATH" HOME="$HOME" \
        "$out/release/nscc" run "$exp" $(quick "$exp") "$@" >"$dir.stdout" 2>"$dir.stderr")
    echo $? >"$dir.exit"
}

# compare <label> <exp> <a-dir> <b-dir>
compare() {
    local label="$1" exp="$2" a="$3" b="$4" f
    runs=$((runs + 1))
    echo "$label $exp"
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

# one <label> <exps> <flag...>: fresh directories, both sides.
one() {
    local label="$1" exps="$2" exp
    shift 2
    for exp in $exps; do
        run "$WORK/$label-$exp/a" "$A" "$exp" "$@"
        run "$WORK/$label-$exp/b" "$B" "$exp" "$@"
        compare "$label" "$exp" "$WORK/$label-$exp/a" "$WORK/$label-$exp/b"
    done
}

# shellcheck disable=SC2086
{
    one plain "$ALL" --json
    one obs "$ALL" $OBS --trace
    for exp in $ALL; do
        one ckpt "$exp" $OBS $(ckpt "$exp")
    done
}
KILL="--json --trace --ckpt-dir ck"
for exp in $SWEEPS; do
    for side in a b; do
        out="$A" && [ $side = b ] && out="$B"
        # shellcheck disable=SC2086
        run "$WORK/kill-$exp/$side" "$out" "$exp" $KILL --ckpt-exit-after 2
    done
    compare kill "$exp" "$WORK/kill-$exp/a" "$WORK/kill-$exp/b"
    for side in a b; do
        out="$A" && [ $side = b ] && out="$B"
        # shellcheck disable=SC2086
        run "$WORK/kill-$exp/$side" "$out" "$exp" $KILL --resume
    done
    compare resume "$exp" "$WORK/kill-$exp/a" "$WORK/kill-$exp/b"
done
one inject fault_study --json --audit --flight 64 --inject-stale 2
one plan fault_study --json --fault-plan "$ROOT/tests/fixtures/plans/short.json"

echo "same_bytes: $runs runs, $files files compared; $differences difference(s)"
[ "$differences" = 0 ]
