//! # nscc — Non-Strict Cache Coherence
//!
//! A full reproduction of *"Non-Strict Cache Coherence: Exploiting
//! Data-Race Tolerance in Emerging Applications"* (Tambat & Vajapeyam,
//! ICPP 2000) as a Rust library: the `Global_Read` bounded-staleness read
//! primitive, the software DSM it lives in, a deterministic virtual-time
//! platform standing in for the paper's IBM SP2 + 10 Mbps Ethernet, and
//! the two application families the paper evaluates (island genetic
//! algorithms and parallel logic sampling over Bayesian belief networks).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`ckpt`] — deterministic, versioned snapshots: the `Snapshot`
//!   binary encoding, checksummed frames, and on-disk generation stores
//!   behind crash recovery and resumable sweeps (`nscc run --ckpt-dir`).
//! * [`obs`] — the unified observability layer: structured events,
//!   staleness/block/delay histograms, warp timelines, span traces and
//!   Perfetto export.
//! * [`sim`] — deterministic discrete-event engine (virtual time,
//!   processes as stackful coroutines, mailboxes).
//! * [`net`] — interconnect models (shared Ethernet bus, SP2 switch),
//!   background-load generation, the warp metric.
//! * [`faults`] — seeded fault injection: per-link loss/duplication/
//!   delay, degradation windows, node crashes, partitions, and the
//!   structured fault reports a cut-short run leaves behind.
//! * [`msg`] — PVM-like typed message passing with wire-size accounting
//!   and optional reliable delivery (seq/ack/retransmit).
//! * [`dsm`] — age-tagged shared locations and `Global_Read`
//!   ([`dsm::DsmNode::global_read`]): non-strict cache coherence.
//! * [`partition`] — balanced graph partitioning (METIS substitute).
//! * [`ga`] — the DeJong/Mühlenbein test bed and island-model GAs.
//! * [`bayes`] — belief networks, logic sampling, rollback machinery.
//! * [`core`] — experiment runners regenerating the paper's tables and
//!   figures.
//! * [`analyze`] — offline analysis of exported run reports and event
//!   dumps: the renderers behind the package's `nscc` binary (`nscc
//!   inspect`, `nscc diff`, the `nscc gate` perf regression gate, …),
//!   which also runs the `nscc-hunt` scenario hunter (`nscc hunt` /
//!   `shrink` / `replay`).
//! * [`audit`] — the online coherence auditor: invariant monitors driven
//!   from the event stream (staleness bound, write monotonicity,
//!   delivery dedup, barrier lockstep, rollback bound) and the black-box
//!   flight-recorder dump cut when a monitored run fails.
//!
//! ## Quick start
//!
//! ```
//! use nscc::dsm::{Coherence, Directory, DsmWorld};
//! use nscc::msg::MsgConfig;
//! use nscc::net::{EthernetBus, Network};
//! use nscc::sim::{SimBuilder, SimTime};
//!
//! // Two processes sharing one location over a simulated 10 Mbps
//! // Ethernet; the reader tolerates values up to 3 iterations stale.
//! let mut dir = Directory::new();
//! let loc = dir.add("x", 0, [1]);
//! let mut world: DsmWorld<u64> = DsmWorld::new(
//!     Network::new(EthernetBus::ten_mbps(7)),
//!     2,
//!     MsgConfig::default(),
//!     dir,
//! );
//! world.set_initial(loc, 0);
//!
//! let mut writer = world.node(0);
//! let mut reader = world.node(1);
//! let mut sim = SimBuilder::new(7);
//! sim.spawn("writer", move |ctx| {
//!     for iter in 1..=20 {
//!         ctx.advance(SimTime::from_millis(10)); // compute
//!         writer.write(ctx, loc, iter * 100, iter);
//!     }
//! });
//! sim.spawn("reader", move |ctx| {
//!     for iter in 1..=20 {
//!         ctx.advance(SimTime::from_millis(2)); // faster than the writer
//!         let (age, value) = reader.global_read(ctx, loc, iter, 3);
//!         assert!(age + 3 >= iter, "Global_Read's staleness bound");
//!         // Reads share the written value (`Arc<u64>` here), never copy it.
//!         assert_eq!(*value, age * 100);
//!     }
//! });
//! sim.run().unwrap();
//! ```

pub use nscc_analyze as analyze;
pub use nscc_audit as audit;
pub use nscc_bayes as bayes;
pub use nscc_ckpt as ckpt;
pub use nscc_core as core;
pub use nscc_dsm as dsm;
pub use nscc_faults as faults;
pub use nscc_ga as ga;
pub use nscc_msg as msg;
pub use nscc_net as net;
pub use nscc_obs as obs;
pub use nscc_partition as partition;
pub use nscc_sim as sim;
