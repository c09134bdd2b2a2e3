//! Fuzz-and-shrink robustness hunter for the NSCC stack.
//!
//! The paper's claim — that data-race-tolerant applications survive a
//! non-strict wire — is only as strong as the adversarial traffic it was
//! tested under. This crate industrialises that testing:
//!
//! * [`generate`] — a seeded generator mutating fault plans, crash and
//!   restart schedules, reliable-layer knobs, timeouts, heartbeats, age
//!   bounds and world sizes within a declared [`Envelope`]. Scenario
//!   `(master_seed, trial)` is a pure function: the same hunt always
//!   explores the same scenarios, in any worker arrangement.
//! * [`hunt`] — a budgeted driver running trials across OS threads. The
//!   oracles come from machinery the repo already trusts: the online
//!   audit monitors, the watchdog / deadlock detector, the rollback
//!   bound warm recovery promises, and run-completion checks.
//! * [`shrink`] — a delta-debugging minimiser over one candidate list:
//!   every fault-plan event dropped, then every configuration knob
//!   simplified; the first candidate that still exhibits the original
//!   failure kind is accepted, until none does and the scenario is
//!   locally minimal.
//! * [`Repro`] — a portable, versioned JSON format for the minimised
//!   scenario plus the expected verdict, replayable forever by
//!   `nscc replay` (the committed `repros/` corpus runs in CI).

#![warn(missing_docs)]

mod driver;
mod generate;
mod oracle;
mod repro;
mod shrink;

pub use driver::{hunt, HuntConfig, HuntFinding};
pub use generate::{generate, Envelope, SplitMix};
pub use oracle::{digest, judge, Finding, Verdict};
pub use repro::{Expectation, Expected, Repro, REPRO_SCHEMA_VERSION};
pub use shrink::shrink;
