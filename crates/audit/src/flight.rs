//! The black-box flight-recorder dump.
//!
//! The hub keeps a bounded ring of the most recent events (see
//! [`nscc_obs::Hub::enable_flight`]); when a run ends badly — a monitor
//! violation, an injected fault that stuck, or a scheduler deadlock — the
//! bench harness freezes that ring into a `FLIGHT_<bench>.json` document.
//! The dump is deterministic: it is built entirely from virtual-time
//! events already ordered by the ring, so two runs of the same seed
//! produce byte-identical dumps. `nscc postmortem` reads it offline.

use nscc_ckpt::json::{to_json, ToJson};
use nscc_obs::ObsEvent;

use crate::Violation;

/// The flight-recorder document, serialized as `FLIGHT_<bench>.json`.
#[derive(Debug, Clone, ToJson)]
pub struct FlightDump {
    /// Report schema version ([`nscc_obs::SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Document kind discriminator, always `"flight"`.
    pub kind: &'static str,
    /// Bench name (`fig2`, `fault_study`, …).
    pub bench: String,
    /// Base seed of the run.
    pub seed: u64,
    /// Why the dump was cut (`violation`, `deadlock`, `fault`).
    pub reason: String,
    /// Ring capacity the recorder ran with (`NSCC_FLIGHT`).
    pub capacity: u64,
    /// Display names for process ranks, index = rank (may be empty).
    pub proc_names: Vec<String>,
    /// Violations known at dump time (capped, detection order).
    pub violations: Vec<Violation>,
    /// The ring contents, oldest first.
    pub events: Vec<ObsEvent>,
}

impl FlightDump {
    /// Assemble a dump from the hub's ring and the auditor's findings.
    pub fn new(
        bench: &str,
        seed: u64,
        reason: &str,
        capacity: u64,
        events: Vec<ObsEvent>,
        violations: Vec<Violation>,
    ) -> Self {
        FlightDump {
            schema_version: nscc_obs::SCHEMA_VERSION,
            kind: "flight",
            bench: bench.to_string(),
            seed,
            reason: reason.to_string(),
            capacity,
            proc_names: Vec::new(),
            violations,
            events,
        }
    }

    /// Attach rank display names (index = rank).
    pub fn with_proc_names(mut self, names: Vec<String>) -> Self {
        self.proc_names = names;
        self
    }
}

/// Render a flight dump as compact JSON (one line, no trailing newline).
pub fn render_flight_dump(dump: &FlightDump) -> String {
    to_json(dump)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dump_renders_deterministic_json() {
        let dump = FlightDump::new(
            "fault_study",
            7,
            "violation",
            256,
            vec![ObsEvent::Custom {
                t_ns: 42,
                label: "deadlock: pid 3 blocked".into(),
            }],
            vec![Violation {
                monitor: "staleness",
                t_ns: 41,
                rank: 1,
                detail: "read of loc 9 delivered staleness 7 > requested bound 5".into(),
            }],
        )
        .with_proc_names(vec!["rank 0".into(), "rank 1".into()]);
        let a = render_flight_dump(&dump);
        let b = render_flight_dump(&dump);
        assert_eq!(a, b);
        assert!(a.starts_with("{\"schema_version\":"));
        assert!(a.contains("\"kind\":\"flight\""));
        assert!(a.contains("\"reason\":\"violation\""));
        assert!(a.contains("\"Custom\""));
        nscc_ckpt::json::parse(&a).expect("dump is valid JSON");
    }
}
