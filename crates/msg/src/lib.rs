//! # nscc-msg — PVM-like message passing over simulated networks
//!
//! The paper implements its DSM as "a simple layer of software on top of
//! PVM" (§4.1). This crate is that PVM: typed point-to-point sends and
//! receives between `p` ranks, multicast as one frame on a broadcast
//! medium and unicast fan-out elsewhere (all through one submit path),
//! per-message CPU overheads charged to the simulated processes, and
//! exact wire-size accounting through the [`WireSize`] trait
//! ([`wire_size`]).
//!
//! ```
//! use nscc_msg::{CommWorld, MsgConfig};
//! use nscc_net::{IdealMedium, Network};
//! use nscc_sim::{SimBuilder, SimTime};
//!
//! let net = Network::new(IdealMedium::new(SimTime::from_millis(1)));
//! let world: CommWorld<String> = CommWorld::new(net, 2, MsgConfig::default());
//! let (tx, rx) = (world.endpoint(0), world.endpoint(1));
//! let mut sim = SimBuilder::new(0);
//! sim.spawn("sender", move |ctx| {
//!     tx.send(ctx, 1, "hello".to_string());
//! });
//! sim.spawn("receiver", move |ctx| {
//!     assert_eq!(rx.recv(ctx).payload, "hello");
//! });
//! sim.run().unwrap();
//! ```

#![warn(missing_docs)]

mod comm;
mod marker;
mod reliable;
mod wire;

pub use comm::{CommStats, CommWorld, Endpoint, Envelope, MsgConfig, Provenance};
pub use marker::{MarkerMsg, MarkerPlane, MarkerPort};
pub use reliable::ReliableConfig;
pub use wire::{wire_size, WireSize};
