// The frozen crates/perf/build-offline.sh builds `serde_derive` from this path; the source is crates/derive.
include!("../../crates/derive/src/lib.rs");
