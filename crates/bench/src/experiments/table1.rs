//! Regenerate **Table 1**: the eight-function GA test bed — definition,
//! limits, known minimum, and a verification that our implementation
//! attains each minimum at the known optimum. With `--json` also writes
//! `BENCH_table1.json` (no simulation is involved, so the report carries
//! only the per-function minima).

use crate::Session;
use nscc_core::fmt::render_table;
use nscc_ga::{TestFn, ALL_FUNCTIONS};

pub(super) fn run(mut session: Session) -> u8 {
    let mut rows = vec![[
        "No.",
        "Function",
        "dims",
        "limits",
        "bits/var",
        "min f(x) (paper)",
        "f(argmin) (ours)",
    ]
    .map(String::from)
    .to_vec()];
    let rep = &mut session.report;
    rep.param("functions", ALL_FUNCTIONS.len() as f64);
    for f in ALL_FUNCTIONS {
        let (lo, hi) = f.limits();
        let at_argmin = f.eval(&f.argmin());
        rows.push(vec![
            f.number().to_string(),
            f.name().to_string(),
            f.dims().to_string(),
            format!("[{lo}, {hi}]"),
            f.bits_per_var().to_string(),
            format!("{:.5}", paper_min(f)),
            format!("{at_argmin:.5}"),
        ]);
        rep.metric(format!("f{}_at_argmin", f.number()), at_argmin);
        rep.metric(format!("f{}_paper_min", f.number()), paper_min(f));
    }
    print!(
        "{}",
        session.banner("Table 1: Eight function test bed for GAs", false)
    );
    print!("{}", render_table(&rows));
    println!();
    println!(
        "note: F4's Table-1 minimum (≤ -2.5) includes its Gauss(0,1) noise; \
         the deterministic part is minimized at 0."
    );
    session.finish(None);
    0
}

/// The minimum as printed in Table 1.
fn paper_min(f: TestFn) -> f64 {
    match f {
        TestFn::F4QuarticNoise => -2.5,
        TestFn::F5Foxholes => 0.99804,
        TestFn::F7Schwefel => -4189.83,
        _ => 0.0,
    }
}
