//! Platform presets: the simulated equivalents of the paper's testbed.

use nscc_faults::{FaultPlan, FaultyMedium};
use nscc_msg::MsgConfig;
use nscc_net::{EthernetBus, LoaderConfig, Network, NodeId};
use nscc_sim::SimBuilder;

/// A complete platform description for one experiment run: the paper's
/// 10 Mbps shared Ethernet with its message costs, background load and
/// an optional fault plan.
#[derive(Debug, Clone)]
pub struct Platform {
    /// Message-layer CPU overheads.
    pub msg: MsgConfig,
    /// Background load in Mbps offered by the loader pair (0 = none).
    pub load_mbps: f64,
    /// Number of compute ranks (loaders get the two node ids above this).
    pub ranks: usize,
    /// Optional fault plan: when set (and not a no-op), the interconnect
    /// is wrapped in a [`FaultyMedium`] that drops, duplicates, delays
    /// and partitions frames per the plan's own seed. `None` keeps the
    /// paper's fault-free wire byte-for-byte.
    pub faults: Option<FaultPlan>,
}

impl Platform {
    /// The paper's default platform: `ranks` SP2 nodes on the shared
    /// 10 Mbps Ethernet, unloaded.
    pub fn paper_ethernet(ranks: usize) -> Self {
        Platform {
            msg: MsgConfig::default(),
            load_mbps: 0.0,
            ranks,
            faults: None,
        }
    }

    /// Inject faults per `plan` into the interconnect this platform
    /// builds.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// The loaded-network configuration of §5.2 (4 compute nodes plus a
    /// loader pair offering `mbps`).
    pub fn loaded_ethernet(ranks: usize, mbps: f64) -> Self {
        Platform {
            load_mbps: mbps,
            ..Platform::paper_ethernet(ranks)
        }
    }

    /// Build the network for a run and spawn loader daemons when
    /// configured. Call once per simulation.
    pub fn build(&self, sim: &mut SimBuilder, seed: u64) -> Network {
        let net = self.build_network_only(seed);
        if self.load_mbps > 0.0 {
            let a = NodeId(self.ranks as u32);
            let b = NodeId(self.ranks as u32 + 1);
            nscc_net::spawn_loaders(sim, &net, &LoaderConfig::mbps(self.load_mbps, a, b));
        }
        net
    }

    /// Build the network without a simulation (no loaders possible): the
    /// Ethernet bus, fault-wrapped when the plan is effective.
    pub fn build_network_only(&self, seed: u64) -> Network {
        let bus = EthernetBus::ten_mbps(seed);
        match self.faults.as_ref().filter(|p| !p.is_noop()) {
            Some(plan) => Network::new(FaultyMedium::new(bus, plan.clone())),
            None => Network::new(bus),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nscc_sim::SimTime;

    #[test]
    fn presets() {
        let p = Platform::paper_ethernet(8);
        assert_eq!(p.ranks, 8);
        assert_eq!(p.load_mbps, 0.0);
        let l = Platform::loaded_ethernet(4, 2.0);
        assert_eq!(l.load_mbps, 2.0);
        assert_eq!(l.ranks, 4);
    }

    #[test]
    fn build_with_loaders_runs() {
        let p = Platform::loaded_ethernet(2, 1.0);
        let mut sim = SimBuilder::new(0);
        let net = p.build(&mut sim, 0);
        sim.spawn("clock", |ctx| ctx.advance(SimTime::from_secs(1)));
        sim.run().unwrap();
        // Loaders injected ~1 Mbps for 1 s.
        let bits = net.stats().medium.payload_bytes as f64 * 8.0;
        assert!(bits > 0.8e6 && bits < 1.2e6, "loader bits {bits}");
    }
}
