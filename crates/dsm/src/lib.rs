//! # nscc-dsm — non-strict cache coherence and the `Global_Read` primitive
//!
//! The paper's contribution (Tambat & Vajapeyam, ICPP 2000). A software DSM
//! for data-race-tolerant iterative applications:
//!
//! * every shared location has one writer and compile-time-known readers
//!   ([`Directory`]);
//! * writes stamp the writer's iteration number as the value's **age** and
//!   push the value to all readers ([`DsmNode::write`]);
//! * [`DsmNode::global_read`]`(loc, curr_iter, age)` returns a value
//!   generated no earlier than iteration `curr_iter − age` of the writer,
//!   blocking the reader until one arrives — *non-strict coherence with a
//!   bounded staleness window*. Blocking the reader is what throttles the
//!   whole computation (program-level flow control): a blocked process
//!   sends nothing, so runaway nodes cannot flood the network.
//!
//! **Ownership.** A written value is immutable and shared: `write` wraps it
//! in an [`Arc`](std::sync::Arc) once, and every multicast copy, retransmit,
//! cache entry, version-window slot and read result is that same `Arc<T>`.
//! Readers that want to change a value mutate their own copy
//! (`Arc::make_mut`, or clone the `T`). Only the checkpoint boundary
//! ([`DsmNode::export_cache`] / [`DsmNode::restore_cache`]) deals in owned
//! values.
//!
//! Three disciplines ([`Coherence`]) cover the paper's comparison points:
//! synchronous (barrier per iteration), fully asynchronous (never block),
//! and partially asynchronous (`Global_Read` with a chosen age).
#![warn(missing_docs)]

mod directory;
mod modes;
mod node;
mod snap;
mod world;

pub use directory::{Directory, LocId, LocMeta};
pub use modes::Coherence;
pub use node::{DsmMsg, DsmNode, DsmStats, ReadOutcome, Retired, RETIRE_AGE};
pub use snap::{SnapConfig, SnapCounters, SnapshotBoard};
pub use world::DsmWorld;
