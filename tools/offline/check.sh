#!/usr/bin/env bash
# The whole check of the workspace, offline: the source guard, rustfmt and
# clippy (warnings are errors, as in CI), the release build, every test of
# every member (unit, integration, doc), then the frozen fallback build of
# the benchmark with its tests
# (crates/perf/build-offline.sh --test), so the path crates/perf/run.sh
# takes without cargo keeps compiling. Every dependency is a path crate of
# this repository, so nothing here needs a registry.
#
# Usage: tools/offline/check.sh
set -eu
cd "$(dirname "$0")/../.."
tools/offline/guard.sh
cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings
cargo build --release --offline
cargo test -q --offline
crates/perf/build-offline.sh --test >/dev/null
echo "check OK"
