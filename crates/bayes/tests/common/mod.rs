//! The RNG-free fixture shared by `kernel_pin.rs` and `alloc_budget.rs`: a
//! hand-built network with LCG-filled CPTs and an Ethernet without backoff
//! jitter, so runs over it are the same under real `rand` and under the
//! offline shim (whose streams differ).

use nscc_bayes::{BeliefNetwork, Node};
use nscc_net::{EthernetBus, EthernetConfig, Network};
use nscc_sim::SimTime;

/// `(arity, parents)` of a 26-node DAG: mixed arities, fan-in up to three,
/// long and short edges so every partitioning below has multi-round hops.
pub const SHAPE: [(usize, &[usize]); 26] = [
    (2, &[]),
    (3, &[]),
    (2, &[0]),
    (4, &[0, 1]),
    (2, &[1]),
    (3, &[2, 3]),
    (2, &[3, 4]),
    (2, &[5]),
    (3, &[0, 6]),
    (2, &[5, 7]),
    (4, &[8]),
    (2, &[6, 9, 10]),
    (3, &[2, 10]),
    (2, &[11]),
    (2, &[9, 12]),
    (3, &[13, 14]),
    (2, &[4, 15]),
    (4, &[12, 14]),
    (2, &[16, 17]),
    (3, &[15]),
    (2, &[13, 18, 19]),
    (2, &[17, 20]),
    (3, &[19, 21]),
    (2, &[1, 22]),
    (4, &[20, 23]),
    (2, &[22, 24]),
];

pub fn fixture() -> BeliefNetwork {
    let mut lcg: u64 = 0x2545_F491_4F6C_DD1D;
    let mut next = move || {
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (lcg >> 40) % 9 + 1
    };
    let nodes = SHAPE
        .iter()
        .enumerate()
        .map(|(i, &(arity, parents))| {
            let combos: usize = parents.iter().map(|&p| SHAPE[p].0).product();
            let mut cpt = Vec::with_capacity(combos * arity);
            for _ in 0..combos {
                let w: Vec<u64> = (0..arity).map(|_| next()).collect();
                let sum: u64 = w.iter().sum();
                cpt.extend(w.iter().map(|&x| x as f64 / sum as f64));
            }
            Node {
                name: format!("n{i}"),
                arity,
                parents: parents.to_vec(),
                cpt,
            }
        })
        .collect();
    BeliefNetwork::new(nodes)
}

/// The paper's 10 Mbps bus with contention backoff (its only random
/// draw) switched off.
pub fn quiet_ethernet() -> Network {
    let cfg = EthernetConfig {
        max_backoff: SimTime::ZERO,
        ..EthernetConfig::default()
    };
    Network::new(EthernetBus::new(cfg, 0))
}

/// A node → partition assignment over `parts` partitions. Lopsided on purpose: the light
/// partitions race ahead of rank 0, so unthrottled runs overflow the
/// rollback window.
pub fn assign(parts: usize) -> Vec<usize> {
    (0..SHAPE.len())
        .map(|v| match (parts, v % 4, v % 8) {
            (1, _, _) => 0,
            (_, 3, _) => 1,
            (3, _, 5) => 2,
            _ => 0,
        })
        .collect()
}
