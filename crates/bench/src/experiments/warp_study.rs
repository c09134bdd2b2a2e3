//! The warp instrumentation study (§4.3): measure the warp metric — the
//! ratio of inter-arrival to inter-send times of consecutive messages —
//! on the shared Ethernet under increasing offered load, showing warp ≈ 1
//! on a stable network and warp ≫ 1 as the network loads up. With
//! `--json` also writes `BENCH_warp_study.json`, including the
//! observability hub's warp timeline and network-delay histogram
//! aggregated over every load level.
//!
//! With `--ckpt-dir`, every completed load level is checkpointed; a
//! killed sweep rerun with `--resume` skips the finished cells and
//! produces a byte-identical report.

use crate::{CellResult, Session};
use nscc_core::fmt::render_table;
use nscc_core::Platform;
use nscc_msg::{CommWorld, MsgConfig};
use nscc_net::WarpMeter;
use nscc_obs::Hub;
use nscc_sim::{SimBuilder, SimError, SimTime};

pub(super) fn run(session: Session) -> u8 {
    let title = "Warp metric vs offered background load (10 Mbps Ethernet)";
    print!("{}", session.banner(title));
    let loads = [0.0, 2.0, 4.0, 6.0, 8.0, 9.5];
    let cells = session.sweep(&loads, |&load, obs| measure(load, obs));

    let mut rows = vec![[
        "load (Mbps)",
        "mean warp",
        "p95 warp",
        "max warp",
        "mean delay (ms)",
    ]
    .map(String::from)
    .to_vec()];
    for (load, c) in loads.iter().zip(&cells) {
        let v: Vec<f64> = c.metrics.iter().map(|(_, v)| *v).collect();
        rows.push(vec![
            format!("{load}"),
            format!("{:.3}", v[0]),
            format!("{:.3}", v[1]),
            format!("{:.2}", v[2]),
            format!("{:.2}", v[3]),
        ]);
    }
    print!("{}", render_table(&rows));
    println!("\nwarp ≈ 1: stable network; warp ≫ 1: load is building up (§4.3).");
    session.finish(Some(&cells));
    0
}

/// Run a fixed two-node message pattern under `load` Mbps of background
/// traffic; the cell's metrics are the mean, p95 and max warp and the
/// mean delivery delay. When a hub is given, the network and message
/// layer are instrumented so warp samples and delivery delays land in
/// the hub as well.
fn measure(load: f64, hub: Option<Hub>) -> Result<CellResult, SimError> {
    let mut sim = SimBuilder::new(7);
    // Two ranks; the loader pair, when `load` > 0, on nodes 2 and 3.
    let net = Platform::loaded_ethernet(2, load).build(&mut sim, 7);
    let warp = WarpMeter::new();
    let mut world: CommWorld<u64> =
        CommWorld::new(net.clone(), 2, MsgConfig::default()).with_warp(warp.clone());
    if let Some(hub) = hub {
        net.attach_obs(hub.clone());
        sim.observe(&hub);
        world = world.with_obs(hub);
    }
    let tx = world.endpoint(0);
    let rx = world.endpoint(1);
    let n = 400u64;
    sim.spawn("sender", move |ctx| {
        for i in 0..n {
            ctx.advance(SimTime::from_millis(5));
            tx.send(ctx, 1, i);
        }
    });
    sim.spawn("receiver", move |ctx| {
        for _ in 0..n {
            let _ = rx.recv(ctx);
        }
    });
    sim.run()?;
    let delay_ms = net.stats().mean_delay().as_secs_f64() * 1e3;
    let key = |metric: &str| format!("load{load}_{metric}");
    Ok(CellResult {
        metrics: vec![
            (key("warp_mean"), warp.mean()),
            (key("warp_p95"), warp.percentile(95.0)),
            (key("warp_max"), warp.max()),
            (key("delay_ms"), delay_ms),
        ],
        ..CellResult::default()
    })
}
