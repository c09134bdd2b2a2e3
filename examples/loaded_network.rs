//! Flooding versus throttling on a loaded Ethernet: reproduce the
//! feedback-loop pathology (§3.1) that motivates `Global_Read`, and show
//! the warp metric detecting it.
//!
//! Two processes exchange updates over the shared 10 Mbps bus while a
//! loader pair injects background traffic. The fully asynchronous pair
//! sends at its own (fast) pace; the `Global_Read` pair is throttled by
//! the staleness bound. Watch queueing delay and warp.
//!
//! Run with `cargo run --release --example loaded_network`.

use nscc::dsm::{Coherence, Directory, DsmWorld};
use nscc::msg::MsgConfig;
use nscc::net::{spawn_loaders, EthernetBus, LoaderConfig, Network, NodeId, WarpMeter};
use nscc::sim::{SimBuilder, SimTime};

fn main() {
    println!(
        "{:<10} {:>10} {:>12} {:>12} {:>10} {:>10}",
        "mode", "load Mbps", "iters/s", "delay (ms)", "warp p95", "blocked s"
    );
    for &load in &[0.0, 4.0, 8.0] {
        for mode in [Coherence::ASYNC, Coherence::PartialAsync { age: 3 }] {
            run_pair(mode, load);
        }
    }
    println!(
        "\nUnder load, the asynchronous pair floods the bus: delays and warp \
         explode while useful progress stalls. The Global_Read pair throttles \
         itself (reader blocks, so its own sends slow down) and keeps the \
         network stable — the paper's program-level flow control."
    );
}

fn run_pair(mode: Coherence, load_mbps: f64) {
    let net = Network::new(EthernetBus::ten_mbps(3));
    let warp = WarpMeter::new();
    let mut dir = Directory::new();
    let locs = dir.add_per_rank("v", 2);
    let mut world: DsmWorld<Vec<u8>> =
        DsmWorld::new(net.clone(), 2, MsgConfig::default(), dir).with_warp(warp.clone());
    for &l in &locs {
        world.set_initial(l, vec![0; 256]);
    }

    let mut sim = SimBuilder::new(3);
    if load_mbps > 0.0 {
        spawn_loaders(
            &mut sim,
            &net,
            &LoaderConfig::mbps(load_mbps, NodeId(2), NodeId(3)),
        );
    }
    let horizon = SimTime::from_secs(5);
    let iters_done = std::sync::Arc::new(std::sync::Mutex::new([0u64; 2]));
    for rank in 0..2 {
        let mut node = world.node(rank);
        let locs = locs.clone();
        let iters_done = std::sync::Arc::clone(&iters_done);
        // Rank 0 computes fast, rank 1 slowly: the classic skewed pair.
        let compute = SimTime::from_millis(if rank == 0 { 2 } else { 8 });
        sim.spawn(format!("peer{rank}"), move |ctx| {
            let mut iter = 0u64;
            while ctx.now() < horizon {
                iter += 1;
                ctx.advance(compute);
                node.write(ctx, locs[rank], vec![iter as u8; 256], iter);
                let _ = node.read(ctx, locs[1 - rank], iter, mode);
                iters_done.lock().expect("lock")[rank] = iter;
            }
            // Unblock a potentially waiting peer before leaving.
            node.retire(ctx, locs[rank], Vec::new());
        });
    }
    sim.run().expect("simulation runs");
    let iters = iters_done.lock().expect("lock");
    let total_iters = iters[0] + iters[1];
    let stats = net.stats();
    let dsm = world.total_stats();
    println!(
        "{:<10} {:>10} {:>12.1} {:>12.2} {:>10.2} {:>10.2}",
        mode.label(),
        load_mbps,
        total_iters as f64 / horizon.as_secs_f64(),
        stats.mean_delay().as_secs_f64() * 1e3,
        warp.percentile(95.0),
        dsm.block_time.as_secs_f64(),
    );
}
