//! The benchmark's metric names and units — the same lists
//! `BENCHMARK.json` declares (`tests/smoke.rs` checks they agree).

/// End-to-end metrics, measured with tracing off: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Deterministic counters from the traced pass: `(name, unit)`. `compare`
/// checks them for exact equality, `core.virt_s` and `core.improvement`
/// (the paper's clock) among them.
pub const COUNTERS: [(&str, &str); 30] = [
    ("core.virt_s", "s"),
    ("core.improvement", "ratio"),
    ("sim.events", "count"),
    ("sim.parks", "count"),
    ("net.frames", "count"),
    ("net.mean_delay_virt_us", "us"),
    ("faults.drops", "count"),
    ("faults.dups", "count"),
    ("msg.sent", "count"),
    ("msg.payload_bytes", "B"),
    ("msg.retransmits", "count"),
    ("msg.dup_suppressed", "count"),
    ("msg.give_ups", "count"),
    ("dsm.writes", "count"),
    ("dsm.cache_hits", "count"),
    ("dsm.blocked_reads", "count"),
    ("dsm.updates_stale", "count"),
    ("dsm.barriers", "count"),
    ("dsm.degraded_reads", "count"),
    ("dsm.hit_ratio", "ratio"),
    ("ga.generations", "count"),
    ("bayes.samples", "count"),
    ("bayes.rollbacks", "count"),
    ("bayes.rollback_ratio", "ratio"),
    ("obs.events", "count"),
    ("audit.violations", "count"),
    ("ckpt.checkpoints", "count"),
    ("ckpt.restores", "count"),
    ("hunt.findings", "count"),
    ("hunt.cut_trials", "count"),
];

/// Span-derived and modelled host-time metrics: `(name, unit)`.
pub const DERIVED: [(&str, &str); 29] = [
    ("core.ga_cell_f1_ms", "ms"),
    ("core.ga_cell_f6_ms", "ms"),
    ("core.ga_cell_loaded_ms", "ms"),
    ("core.bayes_cell_ms", "ms"),
    ("bench.headless_clean_ms", "ms"),
    ("bench.headless_cut_ms", "ms"),
    ("hunt.cut_wall_share", "ratio"),
    ("hunt.trials_per_s", "1/s"),
    ("analyze.load_ms", "ms"),
    ("analyze.inspect_ms", "ms"),
    ("analyze.diff_ms", "ms"),
    ("analyze.gate_ms", "ms"),
    ("analyze.heat_why_ms", "ms"),
    ("analyze.anatomy_ms", "ms"),
    ("analyze.postmortem_ms", "ms"),
    ("analyze.trend_ms", "ms"),
    ("sim.events_per_s", "1/s"),
    ("sim.sys_cpu_share", "ratio"),
    ("sim.park_p50_ns", "ns"),
    ("sim.park_p99_ns", "ns"),
    ("sim.exec_share", "ratio"),
    ("trace.overhead_share", "ratio"),
    ("budget.sim_share", "ratio"),
    ("budget.msg_share", "ratio"),
    ("budget.dsm_share", "ratio"),
    ("budget.net_share", "ratio"),
    ("budget.kernel_share", "ratio"),
    ("budget.obs_share", "ratio"),
    ("budget.unattributed_share", "ratio"),
];

/// The unit a probe's name ends with.
pub fn probe_unit(name: &str) -> &'static str {
    if name.ends_with("_mb_s") {
        "MB/s"
    } else if name.ends_with("_us") {
        "us"
    } else {
        "ns"
    }
}
