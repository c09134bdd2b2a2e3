#!/usr/bin/env bash
# Five source checks that need no compiler; run by tools/offline/check.sh
# and by CI's `test` job.
#
# 1. A simulation is single-threaded by construction (DESIGN.md,
#    "Ownership"): nothing a run is made of may grow a lock, an atomic or a
#    `Send`/`Sync` bound back. Two files really cross a thread or answer to
#    code that does, and are allowed: nscc-hunt's scoped workers, and the
#    Auditor, which stays `Send + Sync` for the `Arc<Auditor>` the frozen
#    crates/perf builds. Panic payloads (`Box<dyn Any + Send>`) are std's.
# 2. crates/perf/build-offline.sh is frozen and is the path the benchmark
#    takes when the registry is unreachable: every source file it names
#    must still exist (an unused `--extern` is harmless, a missing shim is
#    a failed benchmark build).
# 3. Every dependency is a path crate of this repository (crates/rand stands
#    in for the registry crate of that name; JSON and wire sizes are the
#    workspace's own traits): no manifest names a registry, git or
#    version-only dependency, so `cargo build --offline` needs nothing from
#    outside the checkout.
# 4. The paper's core stands alone: no normal dependency of sim, net, msg,
#    dsm, ga, bayes or partition names a periphery crate (audit, analyze,
#    faults, hunt, bench, perf, core). Dev-dependencies may (the fault
#    tests of msg and dsm). nscc-obs is the one edge still allowed: sim
#    re-exports the hub and net, msg, dsm and bayes emit into it, until the
#    event vocabulary moves below the core (ROADMAP item 13(a)).
# 5. Settings are flags: no library or binary source reads an environment
#    variable (`std::env::var`, `var_os`, `vars`, `vars_os`) except
#    src/main.rs, which only rejects a set NSCC_* name, and crates/perf,
#    whose NSCC_PERF_* build stamps are frozen with it. An environment
#    switch added anywhere else would bring the NSCC_* surface back.
set -u
cd "$(dirname "$0")/../.."
fail=0

ALLOW='^crates/(audit/src/lib|hunt/src/driver)\.rs:'
hits=$(grep -rnE 'parking_lot|Mutex|RwLock|Atomic|\b(Send|Sync)\b' \
    crates/{sim,net,faults,msg,dsm,ga,bayes,core,obs,bench,ckpt,partition,audit,hunt}/src |
    grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' |
    grep -v 'Any + Send' |
    grep -vE "$ALLOW")
if [ -n "$hits" ]; then
    echo "guard.sh: synchronisation in single-threaded code (use ownership," \
        "Rc<RefCell<_>> or Cell; see DESIGN.md \"Ownership\"):" >&2
    echo "$hits" >&2
    fail=1
fi

for src in $(grep -oE '(tools/offline|crates)/[A-Za-z0-9_/.-]+\.rs' crates/perf/build-offline.sh | sort -u); do
    if [ ! -f "$src" ]; then
        echo "guard.sh: crates/perf/build-offline.sh (frozen) compiles $src, which is gone" >&2
        fail=1
    fi
done

hits=$(awk '
    /^\[/ { dep = /dependencies\]$/; if (/dependencies\./) print FILENAME ": " $0; next }
    dep && /^[A-Za-z0-9_-]/ && !/\.workspace = true$/ && !/(path|workspace) = / { print FILENAME ": " $0 }
' Cargo.toml crates/*/Cargo.toml)
if [ -n "$hits" ]; then
    echo "guard.sh: a dependency that is not a path crate of this repository:" >&2
    echo "$hits" >&2
    fail=1
fi

hits=$(awk '
    /^\[/ { dep = ($0 == "[dependencies]"); next }
    dep && (/^nscc-(audit|analyze|faults|hunt|bench|perf|core)[ .=]/ ||
            /path *= *"[^"]*\/(audit|analyze|faults|hunt|bench|perf|core)"/) { print FILENAME ": " $0 }
' crates/{sim,net,msg,dsm,ga,bayes,partition}/Cargo.toml)
if [ -n "$hits" ]; then
    echo "guard.sh: a core crate depends on a periphery crate (make it a" \
        "dev-dependency, or move the code; see ROADMAP item 13):" >&2
    echo "$hits" >&2
    fail=1
fi

hits=$(grep -rnE 'env::(var|var_os|vars|vars_os)\b|use std::env::\{[^}]*\bvars?(_os)?\b' \
    src $(ls -d crates/*/src | grep -v '^crates/perf/') |
    grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' |
    grep -v '^src/main\.rs:')
if [ -n "$hits" ]; then
    echo "guard.sh: an environment read outside src/main.rs and crates/perf" \
        "(make the setting an \`nscc run\` flag; see nscc-bench's flag table):" >&2
    echo "$hits" >&2
    fail=1
fi

[ "$fail" = 0 ] && echo "source guard OK"
exit $fail
