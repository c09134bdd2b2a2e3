//! # nscc-net — simulated interconnects for the NSCC reproduction
//!
//! Models of the two networks on the paper's IBM SP2 platform plus the
//! instrumentation the paper uses:
//!
//! * [`EthernetBus`] — the 10 Mbps shared-bus Ethernet all results are
//!   reported on: frames from every node serialize on one medium, so
//!   latency is a function of aggregate offered load (this is the mechanism
//!   behind the paper's message-flooding feedback loop).
//! * [`Sp2Switch`] — the SP2 crossbar switch (per-port contention only),
//!   used as the fast-interconnect contrast.
//! * [`IdealMedium`] — fixed latency, for unit tests and baselines.
//! * [`Network`] — the handle processes send through: it plans each frame
//!   on the medium and accounts for it; the caller delivers the
//!   [`Transmission::copies`] the plan's verdict yields.
//! * [`spawn_loaders`] — the paper's background "network loader" program
//!   (0.5/1/2 Mbps of competing traffic between two extra nodes).
//! * [`WarpMeter`] — the *warp* load metric: inter-arrival over inter-send
//!   time of consecutive messages per sender (warp ≈ 1 ⇒ stable network).

#![warn(missing_docs)]

mod ethernet;
mod loader;
mod medium;
mod network;
mod switch;
mod warp;

pub use ethernet::{EthernetBus, EthernetConfig};
pub use loader::{spawn_loaders, LoaderConfig};
pub use medium::{DropReason, IdealMedium, Medium, MediumStats, NodeId, Transmission, Verdict};
pub use network::{NetStats, Network};
pub use switch::{Sp2Switch, SwitchConfig};
pub use warp::WarpMeter;
