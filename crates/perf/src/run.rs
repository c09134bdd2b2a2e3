//! One benchmark run of one workload:
//!
//! set-up → reference pass (records each op's digest) → timed passes over
//! the identical op list with tracing off → (with `--trace 1`) one traced
//! pass, the probes and the per-layer table.
//!
//! Closed loop, one generator thread, pinned to one CPU before anything
//! is timed.
//!
//! The op *list* is pinned (see `workloads`); `--seed` draws the *order* the
//! ops run in. Every seed-dependent input these layers take changes how
//! long the simulated program runs — generations to the quality bar,
//! samples to the stop rule, whether a crash lands before the run ends —
//! and re-seeding the lists moved `wall_s` by 8–20 % between seeds, more
//! than the bound a regression is judged against. Same ops, same work:
//! what is left between two seeds is the host's noise, which is what the
//! bounds are for.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use crate::metrics::{probe_unit, COUNTERS, DERIVED, END_TO_END};
use crate::probes::{self, Probe};
use crate::stats::{median, quantile};
use crate::sys;
use crate::trace::Tracer;
use crate::workloads::{self, Size, Workload};

/// Complete set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Run seed: draws the order the pinned op list runs in.
    pub seed: u64,
    /// Seconds of timed passes (whole passes; at least two).
    pub seconds: f64,
    /// Also run the traced pass, the probes and the per-layer table.
    pub trace: bool,
    /// Calibrated or smoke op counts.
    pub size: Size,
}

/// A named value with its unit.
pub type Metric = (&'static str, &'static str, f64);

/// Everything one run measured.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The arguments the run was made with.
    pub args: RunArgs,
    /// Ops per pass.
    pub ops: usize,
    /// Timed passes made.
    pub passes: usize,
    /// Percentile `op_tail_ms` reports.
    pub tail_percentile: f64,
    /// CPU the run pinned itself to (`None`: pinning failed).
    pub pinned_cpu: Option<u32>,
    /// CPU a simulated-process thread was observed on (pin self-test).
    pub sim_thread_cpu: Option<u32>,
    /// Ops attempted over reference, timed and traced passes.
    pub attempted: u64,
    /// Ops that failed or whose digest left the reference.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// FNV-1a over the reference pass's op digests.
    pub pass_digest: u64,
    /// End-to-end metrics (tracing off).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (empty unless traced).
    pub per_layer: Vec<Metric>,
}

struct PassOut {
    wall_s: f64,
    op_ms: Vec<f64>,
    digests: Vec<Option<u64>>,
    failures: Vec<String>,
}

/// Run every op once. An op fails if it errors, panics, or (given a
/// reference) yields a different digest than in the reference pass.
fn run_pass(
    w: &dyn Workload,
    order: &[usize],
    tr: &mut Tracer,
    reference: Option<&[Option<u64>]>,
) -> PassOut {
    let mut out = PassOut {
        wall_s: 0.0,
        op_ms: Vec::with_capacity(w.ops()),
        digests: vec![None; w.ops()],
        failures: Vec::new(),
    };
    let t_pass = Instant::now();
    for &i in order {
        tr.set_op(i);
        let t0 = Instant::now();
        let res = catch_unwind(AssertUnwindSafe(|| w.run_op(i, tr)));
        out.op_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let digest = match res {
            Ok(Ok(d)) => Some(d),
            Ok(Err(e)) => {
                out.failures.push(format!("op {i}: {e}"));
                None
            }
            Err(_) => {
                tr.abandon_open_spans();
                out.failures.push(format!("op {i}: panicked"));
                None
            }
        };
        if let (Some(d), Some(want)) = (digest, reference.map(|r| r[i])) {
            if want.is_some_and(|w| w != d) {
                out.failures.push(format!(
                    "op {i}: digest {d:016x} differs from the reference pass"
                ));
            }
        }
        out.digests[i] = digest;
    }
    out.wall_s = t_pass.elapsed().as_secs_f64();
    out
}

/// The op indices `0..ops` in the order `seed` draws (Fisher–Yates).
fn shuffled(ops: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..ops).collect();
    let mut rng = nscc_hunt::SplitMix(seed);
    for i in (1..ops).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    order
}

/// Run one workload as `args` say.
pub fn run(args: &RunArgs) -> Result<RunResult, String> {
    let pinned_cpu = sys::pin_to_one_cpu();
    let sim_thread_cpu = sys::sim_thread_cpu();

    let mut attempted = 0u64;
    let mut failures = Vec::new();
    let mut note = |pass: &mut PassOut, ops: usize| {
        attempted += ops as u64;
        failures.append(&mut pass.failures);
    };

    // --- set-up + reference pass ------------------------------------------
    let mut setup_s = Vec::new();
    let mut ready = None;
    for _ in 0..if args.trace { 1 } else { SETUPS } {
        drop(ready.take()); // release the previous set-up's scratch files
        let t0 = Instant::now();
        let w = workloads::setup(&args.workload, args.size)?;
        let order = shuffled(w.ops(), args.seed);
        let mut reference = run_pass(w.as_ref(), &order, &mut Tracer::off(), None);
        setup_s.push(t0.elapsed().as_secs_f64());
        note(&mut reference, w.ops());
        ready = Some((w, order, reference.digests));
    }
    let (w, order, reference) = ready.expect("at least one set-up ran");
    let w = w.as_ref();

    // --- timed passes, tracing off ---------------------------------------
    let budget_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut walls = Vec::new();
    let mut op_ms = Vec::new();
    let cpu0 = sys::cpu_times().unwrap_or_default();
    let t0 = Instant::now();
    while walls.len() < 2 || t0.elapsed().as_secs_f64() < budget_s {
        let mut pass = run_pass(w, &order, &mut Tracer::off(), Some(&reference));
        walls.push(pass.wall_s);
        op_ms.append(&mut pass.op_ms);
        note(&mut pass, w.ops());
    }
    let cpu = sys::cpu_times().unwrap_or_default().since(cpu0);
    let passes = walls.len();
    let wall_s = median(&walls);

    // --- traced pass, probes, per-layer table ------------------------------
    let mut per_layer = Vec::new();
    if args.trace {
        let mut tr = Tracer::on();
        let mut traced = run_pass(w, &order, &mut tr, Some(&reference));
        note(&mut traced, w.ops());
        let batches = match args.size {
            Size::Full => probes::BATCHES,
            Size::Smoke => 3,
        };
        let probes = probes::run_all(args.seed, batches);
        let sys_share = ratio(cpu.sys_s, cpu.total());
        per_layer = layer_table(&tr, &probes, w.ops(), wall_s, traced.wall_s, sys_share);
        write_trace(&args.workload, &tr)?;
    }

    let mut digest_bytes = Vec::new();
    for d in &reference {
        digest_bytes.extend_from_slice(&d.unwrap_or(0).to_le_bytes());
    }
    let end_to_end = vec![
        median(&setup_s),
        wall_s,
        median(&op_ms),
        quantile(&op_ms, w.tail_percentile()),
        cpu.total() / passes as f64,
        sys::peak_rss_mb().unwrap_or(0.0),
    ];
    Ok(RunResult {
        args: args.clone(),
        ops: w.ops(),
        passes,
        tail_percentile: w.tail_percentile(),
        pinned_cpu,
        sim_thread_cpu,
        attempted,
        failed: failures.len() as u64,
        failures: failures.into_iter().take(8).collect(),
        pass_digest: nscc_ckpt::fnv1a(&digest_bytes),
        end_to_end: END_TO_END
            .iter()
            .zip(end_to_end)
            .map(|(&(name, unit), v)| (name, unit, v))
            .collect(),
        per_layer,
    })
}

fn write_trace(workload: &str, tr: &Tracer) -> Result<(), String> {
    let dir = workloads::repo_root()?.join("crates/perf/results");
    let path = dir.join(format!("trace_{workload}.json"));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, tr.spans_json()))
        .map_err(|e| format!("{}: cannot write: {e}", path.display()))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Probes, counters, span-derived metrics and the modelled budget.
fn layer_table(
    tr: &Tracer,
    probes: &[Probe],
    ops: usize,
    wall_s: f64,
    traced_wall_s: f64,
    sys_share: f64,
) -> Vec<Metric> {
    let c = |name: &str| tr.counter(name);
    let sched = tr.sched.sched();
    let (events, parks) = (sched.events as f64, sched.parks as f64);

    let mut out: Vec<Metric> = probes
        .iter()
        .map(|p| (p.name, probe_unit(p.name), p.value))
        .collect();

    // --- counters ----------------------------------------------------------
    let counter = |name: &str| match name {
        "core.virt_s" => c("core.virt_ns") / 1e9,
        "core.improvement" => ratio(c("core.improvement_sum"), c("core.cells")),
        "sim.events" => events,
        "sim.parks" => parks,
        "net.mean_delay_virt_us" => ratio(c("net.delay_virt_ns"), c("net.messages")) / 1e3,
        "dsm.hit_ratio" => ratio(
            c("dsm.cache_hits"),
            c("dsm.cache_hits") + c("dsm.blocked_reads"),
        ),
        "bayes.rollback_ratio" => ratio(c("bayes.rollbacks"), c("bayes.samples")),
        other => c(other),
    };
    out.extend(
        COUNTERS
            .iter()
            .map(|&(name, unit)| (name, unit, counter(name))),
    );

    // --- modelled budget: probe × counter ÷ wall_s -------------------------
    let probe = |name: &str| probes.iter().find(|p| p.name == name);
    let p = |name: &str| probe(name).map_or(0.0, |p| p.value);
    let (slice_ns, event_ns) = (p("sim.advance_ns"), p("sim.event_ns"));
    // A probe that runs inside a simulation pays the scheduler for its
    // slices and events; `sim` is charged for every one of those below, so
    // each layer is charged only its probe's remainder.
    let excl = |name: &str| {
        probe(name).map_or(0.0, |p| {
            let fires = p.events_per_call - p.parks_per_call;
            (p.value - p.parks_per_call * slice_ns - fires * event_ns).max(0.0)
        })
    };
    let x_msg = excl("msg.send_recv_ns");
    // One write pushes one message; one blocked read is released by one
    // written, pushed message; a rank-episode of the 4-rank barrier probe
    // exchanges 1.5 messages.
    let x_write = (excl("dsm.write_push_ns") - x_msg).max(0.0);
    let x_blocked = (excl("dsm.read_blocked_ns") - x_msg - x_write).max(0.0);
    let x_barrier = (excl("dsm.barrier_ns") - 1.5 * x_msg).max(0.0);
    let reliable = c("msg.reliable_sent");
    let planned = c("faults.planned_frames");
    let f6 = c("ga.generations_f6");
    let wall_ns = wall_s * 1e9;
    let sim = ratio(
        slice_ns * parks + event_ns * (events - parks).max(0.0),
        wall_ns,
    );
    let msg = ratio(
        (c("msg.sent") - reliable) * x_msg + reliable * excl("msg.reliable_send_ack_ns"),
        wall_ns,
    );
    let dsm = ratio(
        c("dsm.cache_hits") * p("dsm.read_cached_ns")
            + c("dsm.blocked_reads") * x_blocked
            + c("dsm.writes") * x_write
            + c("dsm.barriers") * x_barrier,
        wall_ns,
    );
    let net = ratio(
        (c("net.frames") - planned) * p("net.ethernet_transmit_ns")
            + planned * p("faults.faulty_transmit_ns"),
        wall_ns,
    );
    let kernel = ratio(
        (c("ga.generations") - f6) * p("ga.generation_f1_ns")
            + f6 * p("ga.generation_f6_ns")
            + c("bayes.samples") * p("bayes.forward_sample_ns"),
        wall_ns,
    );
    let obs = ratio(c("obs.untraced_events") * p("obs.emit_tap_ns"), wall_ns);

    // --- spans and derived -------------------------------------------------
    let cut_ms: f64 = tr.durations_ms("bench.headless_cut").iter().sum();
    let derived = |name: &str| match name {
        "hunt.cut_wall_share" => ratio(cut_ms / 1e3, traced_wall_s),
        "hunt.trials_per_s" => ratio(c("hunt.trials"), wall_s),
        "sim.events_per_s" => ratio(events, wall_s),
        "sim.sys_cpu_share" => sys_share,
        "sim.park_p50_ns" => sched.park_p50_ns as f64,
        "sim.park_p99_ns" => sched.park_p99_ns as f64,
        "sim.exec_share" => ratio(sched.exec_ns as f64, sched.wall_ns as f64),
        "trace.overhead_share" => ratio(traced_wall_s, wall_s) - 1.0,
        "budget.sim_share" => sim,
        "budget.msg_share" => msg,
        "budget.dsm_share" => dsm,
        "budget.net_share" => net,
        "budget.kernel_share" => kernel,
        "budget.obs_share" => obs,
        "budget.unattributed_share" => 1.0 - (sim + msg + dsm + net + kernel + obs),
        n => {
            let span = n
                .strip_suffix("_ms")
                .expect("every other derived metric is a span");
            if n.starts_with("analyze.") {
                tr.self_ms(span) / ops as f64
            } else {
                median(&tr.durations_ms(span))
            }
        }
    };
    out.extend(
        DERIVED
            .iter()
            .map(|&(name, unit)| (name, unit, derived(name))),
    );
    out
}

impl RunResult {
    /// Failed ops ÷ attempted ops.
    pub fn fail_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// A per-layer metric; NaN (`null` in the record) on an untraced run.
    fn metric(&self, name: &str) -> f64 {
        self.per_layer
            .iter()
            .find(|m| m.0 == name)
            .map_or(f64::NAN, |m| m.2)
    }

    /// The metrics the run was asked for: per-layer when traced,
    /// end-to-end otherwise.
    pub fn metrics(&self) -> &[Metric] {
        if self.args.trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    /// The result line the benchmark contract asks for (last line of
    /// standard output).
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics()
            .iter()
            .map(|&(name, unit, v)| {
                format!("\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}", num(v))
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }

    /// The full record of this run as one JSON object (what `suite`
    /// collects and `compare` reads).
    pub fn record_json(&self) -> String {
        let map = |ms: &[Metric]| {
            let rows: Vec<String> = ms
                .iter()
                .map(|&(name, _, v)| format!("\"{name}\":{}", num(v)))
                .collect();
            format!("{{{}}}", rows.join(","))
        };
        let cpu = |c: Option<u32>| c.map_or("null".to_string(), |c| c.to_string());
        format!(
            "{{\"workload\":\"{}\",\"trace\":{},\"seed\":{},\"size\":\"{:?}\",\"seconds\":{},\
             \"ops\":{},\"passes\":{},\"samples\":{},\"tail_percentile\":{},\"pinned\":{},\
             \"pinned_cpu\":{},\"sim_thread_cpu\":{},\"attempted\":{},\"failed\":{},\
             \"fail_share\":{},\"pass_digest\":\"{:016x}\",\"virt_s\":{},\"improvement\":{},\
             \"end_to_end\":{},\"per_layer\":{}}}",
            self.args.workload,
            self.args.trace,
            self.args.seed,
            self.args.size,
            num(self.args.seconds),
            self.ops,
            self.passes,
            self.ops * self.passes,
            num(self.tail_percentile),
            self.pinned_cpu.is_some() && self.pinned_cpu == self.sim_thread_cpu,
            cpu(self.pinned_cpu),
            cpu(self.sim_thread_cpu),
            self.attempted,
            self.failed,
            num(self.fail_share()),
            self.pass_digest,
            num(self.metric("core.virt_s")),
            num(self.metric("core.improvement")),
            map(&self.end_to_end),
            map(&self.per_layer),
        )
    }

    /// Every metric by name with its unit, for a person to read.
    pub fn table(&self) -> String {
        let mut out = format!(
            "workload {} · seed {} · {} ops × {} timed passes ({} op samples) · pinned cpu {} \
             (sim threads on {}) · attempted {} · failed {}\n",
            self.args.workload,
            self.args.seed,
            self.ops,
            self.passes,
            self.ops * self.passes,
            self.pinned_cpu
                .map_or("none".to_string(), |c| c.to_string()),
            self.sim_thread_cpu
                .map_or("?".to_string(), |c| c.to_string()),
            self.attempted,
            self.failed,
        );
        for f in &self.failures {
            out.push_str(&format!("  FAILED {f}\n"));
        }
        for &(name, unit, v) in self.end_to_end.iter().chain(&self.per_layer) {
            let label = if name == "op_tail_ms" {
                format!("{name} (p{:.0})", self.tail_percentile * 100.0)
            } else {
                name.to_string()
            };
            out.push_str(&format!("  {label:<34} {v:>16.4} {unit}\n"));
        }
        out
    }
}

/// A JSON number: every digit of a finite value, `null` otherwise.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}
