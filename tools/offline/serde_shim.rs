// Empty: the frozen crates/perf/build-offline.sh still compiles this path and passes `--extern serde`, which nothing uses.
