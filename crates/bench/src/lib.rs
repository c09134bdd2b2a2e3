//! The NSCC benchmark harness: the paper's experiments and the one sweep
//! driver they share.
//!
//! `nscc run <experiment> [flags]` (the root package's binary) reads its
//! flags into a [`Scale`] and a [`ResumeOpts`] and runs one of the eight
//! [`EXPERIMENTS`]: Tables 1–2, Figures 2–4 and the fault, warp and
//! recovery-drill studies (see DESIGN.md's experiment index). An
//! experiment opens a [`Session`], runs its cells (the sweeps as an
//! ordered cell list through [`Session::sweep`], which owns
//! checkpointing, per-cell hubs and the flight dump on a failed cell),
//! renders its table from the [`CellResult`]s, and ends with
//! [`Session::finish`], the one place the report, flight dump, trace,
//! folded profile and live feed are written.
//!
//! # Flags
//!
//! Every setting is one flag with one spelling. The first nine are read
//! by every experiment; each of the rest only by the experiments named.
//!
//! | flag | read by | default | what it does |
//! |---|---|---|---|
//! | `--json` | all | off | write the `BENCH_<name>.json` run report into the working directory |
//! | `--trace` | all | off | dump the hub's raw event and span streams as `TRACE_<name>.json`, for `nscc inspect` |
//! | `--snap-ms MS` | all | 100 | virtual-time cadence of the periodic snapshots in the report's `obs.snapshots`; 0 turns them off |
//! | `--folded PATH` | all | off | write a collapsed-stack profile (`process;phase;location count`, the input of `inferno` and `flamegraph.pl`) from the hub's sampling profiler, one sample per 100 virtual µs |
//! | `--live PATH\|FD` | all | off | stream each snapshot as it is cut, one line of versioned JSON (`nscc_obs::live`), into a new file or an open descriptor, for `nscc top`; implies the wall accounting without the `wall` section |
//! | `--wall` | all | off | embed wall-clock scheduler accounting (events/sec, parks, per-process time) as the report's `wall` section; host time, so not deterministic |
//! | `--audit` | all | off | run the online coherence auditor (`nscc-audit`); its findings fill the report's `audit` section, for `nscc audit` and `nscc gate` |
//! | `--flight N` | all | off | keep the last N events in a ring and dump them as `FLIGHT_<name>.json` when a run ends badly (a monitor violation, a watchdog cut, a deadlock), for `nscc postmortem` |
//! | `--staleness` | all | off | arm the per-hop staleness tracer: each released read's age split into seven stage durations, in the report's `staleness` section (for `nscc anatomy`); the write→apply→release flow arrows go only to a Perfetto export a program makes with `Hub::perfetto()` (`examples/quickstart.rs`), since the anatomy is a meta event that `--trace`'s `TRACE_<name>.json` does not hold |
//! | `--runs N` | `table2` `fig2` `fig3` `fig4` `fault_study` | 3 | repetitions per cell (paper: 25 for GA, 10 for Bayes) |
//! | `--gens N` | `fig2` `fig4` `fault_study` `drill` | 120 | serial-baseline GA generations (paper: 1000) |
//! | `--ci X` | `table2` `fig3` | 0.02 | Bayes CI half-width (paper: 0.01) |
//! | `--seed S` | `table2` `fig2` `fig3` `fig4` `fault_study` `drill` | 42 | base seed, at most 2^53 (the report records it as a JSON number) |
//! | `--mailbox-warn N` | `fig2` `fig3` `fig4` `fault_study` `drill` | off | when a rank's mailbox backlog crosses N messages, warn on stderr and emit an event; the report records the high watermark either way |
//! | `--modes LIST` | `fig2` `fig4` | all seven | the coherence modes to report, comma-separated `sync`, `async`, `age=N`; a one-mode run's histograms describe that mode alone, the input `nscc diff` is built for |
//! | `--all-functions` | `fig2` `fig4` | off | sweep all eight GA test functions, not the four cheapest |
//! | `--loss LIST` | `fault_study` | `0,0.01,0.05` | the loss-rate axis: per-frame drop probabilities in [0, 1) |
//! | `--ages LIST` | `fault_study` | `0,10,30` | the `Global_Read` age-bound axis |
//! | `--fault-plan PATH` | `fault_study` | off | run the wire under this fault-plan JSON document (the format `nscc hunt` repros carry), reseeded per cell, instead of the loss-only plan |
//! | `--inject-stale N` | `fault_study` | 0 | test hook: release N would-block reads with their stale value, breaking the age bound, so the auditor and flight recorder have something real to catch |
//! | `--ckpt-dir DIR` | `fig2` `fig3` `fig4` `fault_study` `warp_study` `drill` | off | checkpoint each completed cell under `DIR/<name>`, so a killed sweep restarts from its last completed cell; `drill` persists its consistent cuts there |
//! | `--resume` | `fig2` `fig3` `fig4` `fault_study` `warp_study` | off | reuse the cells already in `--ckpt-dir` instead of clearing them; the report comes out byte-identical |
//! | `--ckpt-exit-after N` | `fig2` `fig3` `fig4` `fault_study` `warp_study` | off | test hook: exit 3 once this process has computed and checkpointed N cells, a mid-sweep kill at a fixed point |
//!
//! The banner's `scale:` line and the report's `runs`, `generations`,
//! `ci` and `seed` params follow this table: each experiment echoes
//! exactly the ones of those four settings it reads (`drill` prints
//! `generations` and `seed`; `table1` and `warp_study` print no scale
//! line).
//!
//! The observability sinks are observers: with `--audit`, `--flight`,
//! `--staleness` or `--live` on, the rest of the report stays
//! byte-identical. The two test hooks are named in the banner when armed.
//!
//! A flag the experiment does not read, or a malformed value (`--flight
//! 0`, a `--loss` outside [0, 1), `--resume` without `--ckpt-dir`, an
//! unknown `--modes` label), is a usage error: exit 2, naming the flag.
//! Nothing is read from the environment, and a set `NSCC_*` variable
//! other than `nscc-perf`'s `NSCC_PERF_*` is an error too
//! ([`check_names`]): a misspelled setting must not silently run the
//! default scale.

#![warn(missing_docs)]

mod experiments;
pub mod headless;

pub use experiments::{Experiment, EXPERIMENTS};

use std::fmt::Write as _;
use std::str::FromStr;
use std::sync::Arc;

use nscc_audit::{render_flight_dump, Auditor, FlightDump};
use nscc_ckpt::Snapshot;
use nscc_core::{FaultPlan, GaExpResult, RunReport};
use nscc_dsm::{Coherence, DsmStats};
use nscc_msg::CommStats;
use nscc_net::NetStats;
use nscc_obs::{Hub, HubSummary, StalenessSummary};
use nscc_sim::{SimError, SimTime};

/// Sampling period of the `--folded` profiler: 100 virtual µs.
const PROFILE_PERIOD_NS: u64 = 100_000;

/// Every setting of a run but the checkpoint options: what the flags in
/// the [module docs](crate) set, with their defaults.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Repetitions per experiment cell (`--runs`).
    pub runs: usize,
    /// Serial GA generations (`--gens`).
    pub generations: u64,
    /// Bayes CI half-width target (`--ci`).
    pub ci: f64,
    /// Base seed (`--seed`).
    pub seed: u64,
    /// Whether to write a `BENCH_<name>.json` run report (`--json`).
    pub json: bool,
    /// Whether to dump the raw event/span streams as `TRACE_<name>.json`
    /// (`--trace`).
    pub trace: bool,
    /// Virtual-time cadence of periodic metric snapshots, in milliseconds
    /// (`--snap-ms`; 0 disables).
    pub snap_ms: u64,
    /// Mailbox-depth warning threshold in messages (`--mailbox-warn`);
    /// `None` disables the warning (the high watermark is still
    /// recorded).
    pub mailbox_warn: Option<u64>,
    /// Path of the collapsed-stack profile to write (`--folded`); `None`
    /// leaves the sampling profiler off entirely.
    pub folded: Option<String>,
    /// Live telemetry feed destination (`--live`); `None` leaves the feed
    /// detached entirely.
    pub live: Option<LiveTarget>,
    /// Whether to embed wall-clock scheduler accounting as the report's
    /// `wall` section (`--wall`).
    pub wall: bool,
    /// Whether to run the online coherence auditor (`--audit`).
    pub audit: bool,
    /// Flight-recorder ring capacity in events (`--flight`); `None` leaves
    /// the recorder off entirely.
    pub flight: Option<u64>,
    /// How many would-block reads `fault_study` should release stale,
    /// deliberately violating the age bound (`--inject-stale`; 0 = honest
    /// run).
    pub inject_stale: u64,
    /// Whether to arm the per-hop staleness tracer and stamp the report's
    /// `staleness` anatomy section (`--staleness`).
    pub staleness: bool,
    /// The coherence modes the GA figures report (`--modes`).
    pub modes: Vec<Coherence>,
    /// Whether the GA figures sweep all eight test functions instead of
    /// the four cheapest (`--all-functions`).
    pub all_functions: bool,
    /// The loss-rate axis of `fault_study` (`--loss`).
    pub losses: Vec<f64>,
    /// The age-bound axis of `fault_study` (`--ages`).
    pub ages: Vec<u64>,
    /// The fault plan `fault_study` runs the wire under instead of a
    /// loss-only one (`--fault-plan`).
    pub fault_plan: Option<FaultPlan>,
}

impl Default for Scale {
    /// The quick scale every flag defaults to.
    fn default() -> Scale {
        Scale {
            runs: 3,
            generations: 120,
            ci: 0.02,
            seed: 42,
            json: false,
            trace: false,
            snap_ms: 100,
            mailbox_warn: None,
            folded: None,
            live: None,
            wall: false,
            audit: false,
            flight: None,
            inject_stale: 0,
            staleness: false,
            modes: nscc_core::paper_modes(),
            all_functions: false,
            losses: vec![0.0, 0.01, 0.05],
            ages: vec![0, 10, 30],
            fault_plan: None,
        }
    }
}

impl Scale {
    /// Whether any observability consumer is enabled — JSON report, raw
    /// trace, folded profile, live feed, or wall accounting — i.e.
    /// whether the bench should attach a hub to the experiment at all.
    pub fn wants_obs(&self) -> bool {
        self.json
            || self.trace
            || self.folded.is_some()
            || self.live.is_some()
            || self.wall
            || self.audit
            || self.flight.is_some()
            || self.inject_stale > 0
            || self.staleness
    }

    /// The paper's full scale (25 GA runs, 1000 generations, CI ±0.01).
    pub fn paper() -> Scale {
        Scale {
            runs: 25,
            generations: 1000,
            ci: 0.01,
            ..Scale::default()
        }
    }
}

/// Where the live telemetry feed goes: a file path the bench creates, or
/// a raw file descriptor the caller already opened (e.g. a pipe to
/// `nscc top`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LiveTarget {
    /// Create/truncate this file and stream lines into it.
    Path(String),
    /// Adopt this already-open descriptor (Unix only).
    Fd(i32),
}

impl FromStr for LiveTarget {
    type Err = String;

    /// All digits → an adopted file descriptor; anything else non-empty →
    /// a file path. An empty value, or digits too large for a
    /// descriptor, is an error.
    fn from_str(val: &str) -> Result<LiveTarget, String> {
        if val.is_empty() {
            return Err("empty".to_string());
        }
        if val.bytes().all(|b| b.is_ascii_digit()) {
            return val.parse().map(LiveTarget::Fd).map_err(|e| e.to_string());
        }
        Ok(LiveTarget::Path(val.to_string()))
    }
}

/// A comma-separated list flag's value (`--modes`, `--loss`, `--ages`).
/// Empty items are skipped; any other item `T` cannot parse makes the
/// whole list an error.
#[derive(Debug, Clone, PartialEq)]
pub struct List<T>(pub Vec<T>);

impl<T: FromStr> FromStr for List<T> {
    type Err = String;

    fn from_str(raw: &str) -> Result<List<T>, String> {
        (raw.split(',').map(str::trim).filter(|t| !t.is_empty()))
            .map(|t| t.parse().map_err(|_| format!("{t:?}")))
            .collect::<Result<_, _>>()
            .map(List)
    }
}

/// The one environment rule: a set `NSCC_*` variable other than
/// `nscc-perf`'s `NSCC_PERF_*` family is an error, because flags replaced
/// them. `NSCC_RUNS=5` quietly running the default three runs is how a
/// wrong capture gets committed. `vars` is the caller's environment.
pub fn check_names(vars: impl IntoIterator<Item = (String, String)>) -> Result<(), String> {
    match vars
        .into_iter()
        .find(|(k, _)| k.starts_with("NSCC_") && !k.starts_with("NSCC_PERF_"))
    {
        Some((name, val)) => Err(format!(
            "{name}={val:?} is set, but no NSCC_* variable is read: flags replace them \
             (see nscc --help)"
        )),
        None => Ok(()),
    }
}

/// Print a one-line error and exit 2 — the harness's contract for a
/// checkpoint store or feed it cannot open.
fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// Checkpoint/resume options for the sweeps (`--ckpt-dir`, `--resume`,
/// `--ckpt-exit-after`).
#[derive(Debug, Clone, Default)]
pub struct ResumeOpts {
    /// Checkpoint directory; `None` disables checkpointing entirely.
    pub dir: Option<String>,
    /// Reuse cells already in the store instead of clearing them.
    pub resume: bool,
    /// Exit with code 3 after this many cells have been computed and
    /// checkpointed by this process (testing hook simulating a mid-sweep
    /// kill).
    pub exit_after: Option<u64>,
}

impl ResumeOpts {
    /// The options, or an error when `--resume` or `--ckpt-exit-after`
    /// is given without a directory: a resume that silently runs cold is
    /// worse than stopping.
    pub fn new(
        dir: Option<String>,
        resume: bool,
        exit_after: Option<u64>,
    ) -> Result<ResumeOpts, String> {
        if dir.is_none() && (resume || exit_after.is_some()) {
            return Err("--resume and --ckpt-exit-after need --ckpt-dir".to_string());
        }
        Ok(ResumeOpts {
            dir,
            resume,
            exit_after,
        })
    }
}

/// The argument reader `nscc run` hands its flags through: each flag is
/// taken by name, so whatever is left over can be refused.
pub trait Flags {
    /// Take the bare flag `name`: whether it was given.
    fn flag(&mut self, name: &str) -> bool;
    /// Take `name` and its value: the value, if the flag was given.
    fn value(&mut self, name: &str) -> Option<String>;
}

/// `name`'s value parsed as a `T` that `ok` accepts, `None` when the flag
/// is not given; anything else is an error naming the flag and the
/// `expected` format.
pub fn parsed<T: FromStr>(
    f: &mut impl Flags,
    name: &str,
    ok: fn(&T) -> bool,
    expected: &str,
) -> Result<Option<T>, String> {
    let Some(raw) = f.value(name) else {
        return Ok(None);
    };
    match raw.parse() {
        Ok(v) if ok(&v) => Ok(Some(v)),
        _ => Err(format!("{name} {raw:?} is malformed: expected {expected}")),
    }
}

/// Every setting of `nscc run` taken from `f`, each at its default where
/// its flag is not given. The first malformed value, in the order of
/// [`Scale`]'s fields, is an error naming its flag.
pub fn settings(f: &mut impl Flags) -> Result<(Scale, ResumeOpts), String> {
    let d = Scale::default();
    let positive = |n: &u64| *n > 0;
    let path = |p: &String| !p.is_empty();
    let scale = Scale {
        runs: (parsed(f, "--runs", |n: &usize| *n > 0, "a positive integer")?).unwrap_or(d.runs),
        generations: (parsed(f, "--gens", positive, "a positive integer")?)
            .unwrap_or(d.generations),
        ci: (parsed(f, "--ci", |c: &f64| *c > 0.0, "a positive decimal")?).unwrap_or(d.ci),
        // A report records its seed as a JSON number, exact up to 2^53.
        seed: (parsed(
            f,
            "--seed",
            |s| *s <= 1 << 53,
            "an unsigned integer up to 2^53",
        )?)
        .unwrap_or(d.seed),
        json: f.flag("--json"),
        trace: f.flag("--trace"),
        snap_ms: (parsed(f, "--snap-ms", |_| true, "an unsigned millisecond count")?)
            .unwrap_or(d.snap_ms),
        mailbox_warn: parsed(f, "--mailbox-warn", positive, "a positive integer")?,
        folded: parsed(f, "--folded", path, "a file path")?,
        live: parsed(
            f,
            "--live",
            |_: &LiveTarget| true,
            "a file path or an open descriptor",
        )?,
        wall: f.flag("--wall"),
        audit: f.flag("--audit"),
        flight: parsed(f, "--flight", positive, "a positive integer of events")?,
        inject_stale: (parsed(f, "--inject-stale", |_| true, "an unsigned integer")?)
            .unwrap_or(d.inject_stale),
        staleness: f.flag("--staleness"),
        modes: (parsed(
            f,
            "--modes",
            |l: &List<Coherence>| !l.0.is_empty(),
            "comma-separated sync, async or age=N",
        )?)
        .map_or(d.modes, |l| l.0),
        all_functions: f.flag("--all-functions"),
        losses: (parsed(
            f,
            "--loss",
            |l: &List<f64>| !l.0.is_empty() && l.0.iter().all(|p| (0.0..1.0).contains(p)),
            "comma-separated probabilities in [0,1)",
        )?)
        .map_or(d.losses, |l| l.0),
        ages: (parsed(
            f,
            "--ages",
            |l: &List<u64>| !l.0.is_empty(),
            "comma-separated integers",
        )?)
        .map_or(d.ages, |l| l.0),
        fault_plan: match parsed(f, "--fault-plan", path, "a fault-plan JSON file")? {
            Some(p) => Some(
                FaultPlan::load(std::path::Path::new(&p))
                    .map_err(|e| format!("--fault-plan: {e}"))?,
            ),
            None => None,
        },
    };
    let dir = parsed(f, "--ckpt-dir", path, "a directory")?;
    let exit_after = parsed(f, "--ckpt-exit-after", positive, "a positive integer")?;
    let resume = ResumeOpts::new(dir, f.flag("--resume"), exit_after)?;
    Ok((scale, resume))
}

/// Per-cell checkpointing of a sweep: each completed cell is one
/// generation in a [`nscc_ckpt::CkptStore`], keyed by its cell index, so
/// a killed sweep resumes from the last completed point and replays the
/// stored cells into a byte-identical report.
struct SweepCkpt {
    store: nscc_ckpt::CkptStore,
    resume: bool,
    exit_after: Option<u64>,
    computed: u64,
}

impl SweepCkpt {
    /// Open the store for experiment `name` under `opts.dir` (a
    /// per-experiment subdirectory, so one `--ckpt-dir` serves several).
    /// `None`
    /// when checkpointing is disabled. A fresh (non-resume) run clears
    /// any stale generations first.
    fn from_opts(opts: &ResumeOpts, name: &str) -> Option<SweepCkpt> {
        let dir = opts.dir.as_ref()?;
        let path = std::path::Path::new(dir).join(name);
        let store = match nscc_ckpt::CkptStore::open(&path) {
            Ok(s) => s,
            Err(e) => die(&format!("cannot open checkpoint store {path:?}: {e}")),
        };
        if !opts.resume {
            if let Err(e) = store.clear() {
                die(&format!("cannot clear checkpoint store {path:?}: {e}"));
            }
        }
        Some(SweepCkpt {
            store,
            resume: opts.resume,
            exit_after: opts.exit_after,
            computed: 0,
        })
    }

    /// The payload checkpointed for `cell`, when resuming and the cell
    /// completed in a previous run (corrupt generations are skipped —
    /// the cell is simply recomputed).
    fn load_cell(&self, cell: u64) -> Option<Vec<u8>> {
        if !self.resume {
            return None;
        }
        let gens = self.store.generations().ok()?;
        let info = gens.iter().find(|g| g.gen == cell && g.ok())?;
        match nscc_ckpt::CkptStore::load_path(&info.path) {
            Ok((_, payload)) => Some(payload),
            Err(e) => {
                eprintln!("warning: recomputing cell {cell}: {e}");
                None
            }
        }
    }

    /// Persist a freshly computed `cell` (`t_ns`/`iters` are the cell's
    /// virtual completion time and per-node iteration vector, shown by
    /// `nscc inspect --ckpt`). When `--ckpt-exit-after` is reached the
    /// process exits with code 3 — the deterministic "kill" the resume CI
    /// job relies on.
    fn save_cell(&mut self, cell: u64, t_ns: u64, iters: &[u64], payload: &[u8]) {
        if let Err(e) = self.store.save(cell, t_ns, iters, payload) {
            die(&format!("cannot checkpoint cell {cell}: {e}"));
        }
        self.computed += 1;
        if let Some(limit) = self.exit_after {
            if self.computed >= limit {
                eprintln!(
                    "--ckpt-exit-after: exiting after {limit} checkpointed cell(s); \
                     resume with --resume"
                );
                std::process::exit(3);
            }
        }
    }
}

/// Build the observability hub for an experiment: snapshot cadence from
/// the scale (virtual-time milliseconds; 0 is the explicit "disabled"
/// no-op), wall accounting when the feed or `--wall` asks for it,
/// everything else at defaults.
fn make_hub(scale: &Scale) -> Hub {
    let hub = Hub::new();
    hub.sample_every(scale.snap_ms.saturating_mul(1_000_000));
    if scale.folded.is_some() {
        hub.profile_every(PROFILE_PERIOD_NS);
    }
    if scale.wall || scale.live.is_some() {
        hub.enable_wall();
    }
    if let Some(cap) = scale.flight {
        hub.enable_flight(cap);
    }
    if scale.staleness {
        hub.enable_staleness();
    }
    hub
}

/// Attach the live telemetry feed to `hub` when `--live` is given (no-op
/// otherwise). Only the main hub carries it — per-cell checkpoint hubs
/// must not each reopen the feed.
fn attach_live(scale: &Scale, hub: &Hub, bench: &str) {
    let target = match &scale.live {
        Some(t) => t,
        None => return,
    };
    let out: Box<dyn std::io::Write> = match target {
        LiveTarget::Path(path) => match std::fs::File::create(path) {
            Ok(f) => Box::new(f),
            Err(e) => die(&format!("cannot open --live path {path:?}: {e}")),
        },
        LiveTarget::Fd(fd) => {
            #[cfg(unix)]
            {
                use std::os::fd::FromRawFd;
                // SAFETY: the caller handed us this descriptor via
                // --live precisely so we take ownership of it; nothing
                // else in the bench touches raw fds.
                unsafe { Box::new(std::fs::File::from_raw_fd(*fd)) }
            }
            #[cfg(not(unix))]
            {
                die(&format!(
                    "--live {fd} is a raw file descriptor, which only works on Unix; \
                     use a file path instead"
                ));
            }
        }
    };
    hub.set_live(out, bench);
}

/// Render a hub summary's virtual-time profile as collapsed-stack lines
/// (`process;phase;location count`, sorted) — the input format of
/// `inferno` and `flamegraph.pl`. Rows that never accumulated a sample
/// are omitted; rows whose phase has no detail collapse to two frames.
pub fn folded_stacks(obs: &HubSummary) -> String {
    let mut merged: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
    for row in &obs.profile {
        if row.samples == 0 {
            continue;
        }
        let stack = if row.detail.is_empty() {
            format!("{};{}", row.proc, row.phase)
        } else {
            format!("{};{};{}", row.proc, row.phase, row.detail)
        };
        *merged.entry(stack).or_insert(0) += row.samples;
    }
    let mut out = String::new();
    for (stack, samples) in merged {
        let _ = writeln!(out, "{stack} {samples}");
    }
    out
}

/// Echo a written output file, or the failure to write it.
fn announce(path: &str, res: std::io::Result<()>) {
    match res {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("failed to write {path}: {e}"),
    }
}

/// What one sweep cell contributes to a figure — the checkpoint unit of
/// a resumable sweep, one type and one codec for every experiment. Replaying
/// stored cells in order reproduces the table, the metric set and every
/// merged counter exactly.
#[derive(Debug, Clone, Default, Snapshot)]
pub struct CellResult {
    /// Virtual time shown in the checkpoint header: a GA cell's serial
    /// time, a Bayes cell's sequential time, a chaos cell's mean
    /// completion time.
    pub t_ns: u64,
    /// Per-mode (or per-island) iteration counts — the checkpoint
    /// header's iteration vector.
    pub iters: Vec<u64>,
    /// Mode labels; `times`, `warps` and `rollbacks` follow their order.
    pub labels: Vec<String>,
    /// Mean completion time per mode (`SimTime::MAX` marks a DNF).
    pub times: Vec<SimTime>,
    /// Mean warp per mode (GA cells).
    pub warps: Vec<f64>,
    /// Mean rollbacks per mode (Bayes cells).
    pub rollbacks: Vec<f64>,
    /// Named per-cell numbers (chaos and warp cells).
    pub metrics: Vec<(String, f64)>,
    /// One line per watchdog-cut run: printed to stderr as the cell lands
    /// and counted into the report's `fault_reports`.
    pub fault_lines: Vec<String>,
    /// DSM counters over every run in the cell.
    pub dsm: DsmStats,
    /// Network counters, when the cell ran a network the report counts.
    pub net: Option<NetStats>,
    /// Message-layer counters, when the report counts them.
    pub comm: Option<CommStats>,
    /// The cell's own hub summary (checkpointed sweeps only).
    pub obs: Option<HubSummary>,
    /// The cell's own staleness anatomy (checkpointed sweeps only).
    pub staleness: Option<StalenessSummary>,
}

impl CellResult {
    /// A GA experiment's cell: the serial time, per-mode labels, times,
    /// warps and generations, and the merged counters.
    pub fn from_ga(r: &GaExpResult) -> CellResult {
        let mut dsm = DsmStats::default();
        for m in &r.modes {
            dsm.merge(&m.dsm);
        }
        CellResult {
            t_ns: r.serial_time.as_nanos(),
            iters: r.modes.iter().map(|m| m.mean_generations as u64).collect(),
            labels: r.modes.iter().map(|m| m.label.clone()).collect(),
            times: r.modes.iter().map(|m| m.mean_time).collect(),
            warps: r.modes.iter().map(|m| m.mean_warp).collect(),
            dsm,
            net: Some(r.net),
            comm: Some(r.comm),
            ..CellResult::default()
        }
    }
}

/// The speedup per mode of a group of cells at one grid point — sum of
/// baseline times (`t_ns`) over sum of mode times, 0.0 marking a mode
/// that failed to converge in any cell — and the
/// best-partial-over-best-competitor improvement (competitors: serial =
/// 1, sync, async; NaN when no `age=N` mode is reported). Modes are
/// matched by label, not position, so a restricted `--modes` list
/// keeps the summary honest.
pub fn panel_speedups(cells: &[&CellResult]) -> (Vec<f64>, f64) {
    let labels = &cells[0].labels;
    let serial: SimTime = cells.iter().map(|c| SimTime::from_nanos(c.t_ns)).sum();
    let speedups: Vec<f64> = (0..labels.len())
        .map(|mi| {
            let times: Vec<SimTime> = cells.iter().map(|c| c.times[mi]).collect();
            if times.contains(&SimTime::MAX) {
                0.0
            } else {
                serial.as_secs_f64() / times.into_iter().sum::<SimTime>().as_secs_f64()
            }
        })
        .collect();
    let best = |partial: bool, floor: f64| {
        (labels.iter().zip(&speedups))
            .filter(|(l, _)| l.starts_with("age=") == partial)
            .fold(floor, |acc, (_, &s)| acc.max(s))
    };
    let improvement = best(true, f64::NAN) / best(false, 1.0) - 1.0;
    (speedups, improvement)
}

/// A GA panel row's cells after its key column: each speedup (`DNF` for
/// 0.0) and the improvement as `+N%` (`n/a` when undefined).
pub fn speedup_cells(speedups: &[f64], improvement: f64) -> Vec<String> {
    let mut row: Vec<String> = speedups
        .iter()
        .map(|&s| {
            if s == 0.0 {
                "DNF".to_string()
            } else {
                nscc_core::fmt::f2(s)
            }
        })
        .collect();
    row.push(if improvement.is_finite() {
        format!("{:+.0}%", improvement * 100.0)
    } else {
        "n/a".to_string()
    });
    row
}

/// One experiment's run: the scale and checkpoint options it was
/// started with, the main hub (live feed and auditor attached), and the
/// report [`finish`](Session::finish) stamps and writes. The report's
/// `runs`, `generations`, `ci` and `seed` params, and the banner's scale
/// line, name exactly the ones of those settings the experiment reads
/// ([`Experiment::flags`]).
pub struct Session {
    /// Harness scale (see module docs).
    pub scale: Scale,
    /// Checkpoint/resume options.
    pub resume: ResumeOpts,
    /// The run report: experiments add params, metrics and their own
    /// counters; `finish` adds the rest.
    pub report: RunReport,
    name: &'static str,
    /// The flags the experiment reads besides the session's own.
    flags: &'static str,
    hub: Hub,
    auditor: Option<Arc<Auditor>>,
}

impl Session {
    /// Open the session of experiment `name`, which reads `flags`, on
    /// `scale` and `resume`: the main hub, with the live feed and the
    /// auditor attached when asked, and the report's scale params.
    fn new(name: &'static str, flags: &'static str, scale: Scale, resume: ResumeOpts) -> Session {
        let hub = make_hub(&scale);
        attach_live(&scale, &hub, name);
        // One auditor serves the whole run: per-cell hubs tap into it too.
        let auditor = scale.audit.then(|| Arc::new(Auditor::new()));
        if let Some(a) = &auditor {
            hub.set_tap(a.clone());
        }
        let mut session = Session {
            report: RunReport::new(name, &hub),
            scale,
            resume,
            name,
            flags,
            hub,
            auditor,
        };
        for (key, _, value) in session.scale_echo() {
            session.report.param(key, value);
        }
        session
    }

    /// The settings among `--runs`, `--gens`, `--ci` and `--seed` that the
    /// experiment reads, in that order: each as its report param's key,
    /// its banner value and its param value.
    fn scale_echo(&self) -> Vec<(&'static str, String, f64)> {
        let s = &self.scale;
        [
            ("--runs", "runs", s.runs.to_string(), s.runs as f64),
            (
                "--gens",
                "generations",
                s.generations.to_string(),
                s.generations as f64,
            ),
            ("--ci", "ci", format!("±{}", s.ci), s.ci),
            ("--seed", "seed", s.seed.to_string(), s.seed as f64),
        ]
        .into_iter()
        .filter(|(flag, ..)| self.flags.split_whitespace().any(|f| f == *flag))
        .map(|(_, key, shown, value)| (key, shown, value))
        .collect()
    }

    /// The banner: the title, a scale line naming the settings among
    /// `--runs`, `--gens`, `--ci` and `--seed` the experiment reads when
    /// there are any, and — only
    /// when one is armed — a line naming the testing hooks in force.
    pub fn banner(&self, title: &str) -> String {
        let s = &self.scale;
        let mut out = format!("=== {title} ===\n");
        let echo = self.scale_echo();
        if !echo.is_empty() {
            let fields: String = echo.iter().map(|(k, v, _)| format!("{k}={v} ")).collect();
            let json = if s.json { "on" } else { "off" };
            let _ = writeln!(out, "scale: {fields}json={json}");
        }
        let hooks: Vec<String> = [
            ("--ckpt-exit-after", self.resume.exit_after),
            ("--inject-stale", Some(s.inject_stale).filter(|&n| n > 0)),
        ]
        .iter()
        .filter_map(|(k, v)| v.map(|v| format!("{k} {v}")))
        .collect();
        if !hooks.is_empty() {
            let _ = writeln!(out, "armed test hooks: {}", hooks.join(" "));
        }
        out
    }

    /// The hub an experiment streams into: the main hub when any
    /// observability consumer is on, `None` otherwise.
    pub fn obs(&self) -> Option<Hub> {
        self.scale.wants_obs().then(|| self.hub.clone())
    }

    /// The auditor's violation count so far (`None` without `--audit`).
    pub fn violations(&self) -> Option<u64> {
        self.auditor.as_ref().map(|a| a.violation_count())
    }

    /// Unwrap an experiment result run on the main hub; see
    /// `unwrap_or_flight`.
    pub fn or_exit<T>(&self, res: Result<T, SimError>) -> T {
        self.unwrap_or_flight(res, &self.hub)
    }

    /// Unwrap an experiment result; on a simulation error (deadlock —
    /// every live process blocked with nothing left to run) cut the
    /// flight dump from `hub`'s ring first, then exit 1. With
    /// `--flight` the ring holds the last events before the hang,
    /// including the scheduler's per-process deadlock breadcrumbs.
    fn unwrap_or_flight<T>(&self, res: Result<T, SimError>, hub: &Hub) -> T {
        res.unwrap_or_else(|e| {
            self.write_flight(hub, "deadlock");
            eprintln!("error: {}: simulation failed: {e}", self.name);
            std::process::exit(1)
        })
    }

    /// Write `hub`'s flight ring (plus the auditor's recorded violations)
    /// as `FLIGHT_<name>.json` for `nscc postmortem`; no-op without
    /// `--flight`.
    fn write_flight(&self, hub: &Hub, reason: &str) {
        let Some(cap) = self.scale.flight else { return };
        let recorded = self.auditor.as_ref().map(|a| a.recorded());
        let dump = FlightDump::new(
            self.name,
            self.scale.seed,
            reason,
            cap,
            hub.flight_events(),
            recorded.unwrap_or_default(),
        )
        .with_proc_names(hub.summary().proc_names.values().cloned().collect());
        let path = format!("FLIGHT_{}.json", self.name);
        announce(
            &path,
            std::fs::write(&path, render_flight_dump(&dump) + "\n"),
        );
    }

    /// A per-cell hub: the main hub's configuration, tapped into the
    /// run's one auditor, without the live feed.
    fn cell_hub(&self) -> Hub {
        let hub = make_hub(&self.scale);
        if let Some(a) = &self.auditor {
            hub.set_tap(a.clone());
        }
        hub
    }

    /// Run `run` over every cell in order and return the results in
    /// order. `run` gets the cell and the hub to stream into (`None` when
    /// observability is off).
    ///
    /// With `--ckpt-dir` given each completed cell is checkpointed under
    /// its index, a resumed run loads the stored cells instead of
    /// recomputing them, and every computed cell runs on its own hub, so
    /// a stored cell carries its own summary; [`finish`](Session::finish)
    /// merges them in cell order. Plain runs share the main hub. A cell
    /// that fails to simulate cuts the flight dump and exits 1.
    pub fn sweep<C>(
        &self,
        cells: &[C],
        mut run: impl FnMut(&C, Option<Hub>) -> Result<CellResult, SimError>,
    ) -> Vec<CellResult> {
        let mut ckpt = SweepCkpt::from_opts(&self.resume, self.name);
        let mut out = Vec::with_capacity(cells.len());
        for (i, spec) in cells.iter().enumerate() {
            let idx = i as u64;
            let stored = ckpt.as_ref().and_then(|c| c.load_cell(idx)).and_then(|p| {
                nscc_ckpt::from_bytes(&p)
                    .map_err(|e| eprintln!("warning: recomputing cell {idx}: {e}"))
                    .ok()
            });
            let cell = stored.unwrap_or_else(|| {
                let cell_hub = ckpt.as_ref().map(|_| self.cell_hub());
                let hub = cell_hub.as_ref().unwrap_or(&self.hub);
                let obs = self.scale.wants_obs().then(|| hub.clone());
                let mut cell = self.unwrap_or_flight(run(spec, obs), hub);
                if let Some(h) = &cell_hub {
                    cell.obs = Some(h.summary());
                    cell.staleness = Some(h.staleness_summary());
                    // The feed, the report's `wall` section and any
                    // post-mortem dump read the main hub.
                    self.hub.adopt_sched(h);
                    self.hub.adopt_flight(h);
                }
                if let Some(ck) = ckpt.as_mut() {
                    ck.save_cell(idx, cell.t_ns, &cell.iters, &nscc_ckpt::to_bytes(&cell));
                }
                cell
            });
            for line in &cell.fault_lines {
                eprintln!("{line}");
            }
            out.push(cell);
        }
        out
    }

    /// Stamp the report and write every output, in one fixed order:
    /// `BENCH_<name>.json` (with `--json`), the flight dump (when a
    /// monitor fired or a run was cut), `TRACE_<name>.json`, the folded
    /// profile, and the live feed's final line. `cells` is the sweep's
    /// result, whose counters are merged into the report (`None` for
    /// experiments without a sweep).
    ///
    /// A checkpointed sweep's events live in per-cell hubs and only their
    /// summaries are stored, so its report carries the merged summaries
    /// and no trace is written (a resumed run could not replay the stored
    /// cells' events).
    pub fn finish(mut self, cells: Option<&[CellResult]>) -> RunReport {
        let per_cell = cells.is_some() && self.resume.dir.is_some();
        let rep = &mut self.report;
        let mut merged = (HubSummary::default(), StalenessSummary::default());
        for c in cells.unwrap_or_default() {
            rep.dsm.merge(&c.dsm);
            if let Some(net) = &c.net {
                rep.net.get_or_insert_with(NetStats::default).merge(net);
            }
            if let Some(comm) = &c.comm {
                rep.comm.get_or_insert_with(CommStats::default).merge(comm);
            }
            rep.fault_reports += c.fault_lines.len() as u64;
            c.obs.iter().for_each(|o| merged.0.merge(o));
            c.staleness.iter().for_each(|s| merged.1.merge(s));
        }
        let (scale, hub) = (&self.scale, &self.hub);
        rep.obs = if per_cell { merged.0 } else { hub.summary() };
        rep.note_degradation();
        if scale.wall {
            rep.wall = Some(hub.sched());
        }
        rep.audit = self.auditor.as_ref().map(|a| a.summary());
        if scale.staleness {
            rep.staleness = Some(if per_cell {
                merged.1
            } else {
                hub.staleness_summary()
            });
        }
        if scale.json {
            match rep.write_json(".") {
                Ok(path) => println!("wrote {}", path.display()),
                Err(e) => eprintln!("failed to write {}: {e}", rep.filename()),
            }
        }
        let violations = self.violations().unwrap_or(0);
        if violations > 0 || self.report.fault_reports > 0 {
            let reason = if violations > 0 { "violation" } else { "fault" };
            self.write_flight(&self.hub, reason);
        }
        if self.scale.trace && per_cell {
            eprintln!(
                "note: --trace is unsupported with --ckpt-dir (events live in \
                 per-cell hubs); no TRACE_{}.json written",
                self.name
            );
        } else if self.scale.trace {
            let path = format!("TRACE_{}.json", self.name);
            announce(&path, std::fs::write(&path, self.hub.export_events_json()));
        }
        if let Some(path) = &self.scale.folded {
            announce(path, std::fs::write(path, folded_stacks(&self.report.obs)));
        }
        self.hub.live_final(&self.report.obs);
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nscc_core::FaultPlan;
    use nscc_ga::TestFn;
    use nscc_sim::SimTime;

    /// The hand-written plan `tools/offline/same_bytes.sh` hands
    /// `fault_study` through `--fault-plan` reads, optional sections and
    /// keys left out, as the plan the builder makes.
    #[test]
    fn committed_fault_plan_fixture_loads_as_built() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../tests/fixtures/plans/short.json");
        let built = FaultPlan::new(2026)
            .loss(0.02)
            .delay(0.1, SimTime::from_millis(3))
            .crash_and_restart(3, SimTime::from_millis(40), SimTime::from_millis(90))
            .stall(1, SimTime::from_millis(10), SimTime::from_millis(30));
        assert_eq!(FaultPlan::load(&path), Ok(built));
    }

    /// A session on `scale` outside any environment.
    fn session(scale: &Scale, resume: ResumeOpts) -> Session {
        Session::new("unit", "", scale.clone(), resume)
    }

    #[test]
    fn env_scale_defaults() {
        let s = Scale::default();
        assert_eq!(
            (s.runs, s.generations, s.seed, s.snap_ms),
            (3, 120, 42, 100)
        );
        assert!(s.ci > 0.0);
        assert!(!s.json && !s.trace && !s.wants_obs());
        assert_eq!(s.modes, nscc_core::paper_modes());
        let p = Scale::paper();
        assert_eq!((p.runs, p.generations, p.ci), (25, 1000, 0.01));
    }

    /// A command line for [`settings`], split on spaces.
    struct Line(Vec<String>);

    impl Flags for Line {
        fn flag(&mut self, name: &str) -> bool {
            let before = self.0.len();
            self.0.retain(|a| a != name);
            self.0.len() < before
        }

        fn value(&mut self, name: &str) -> Option<String> {
            let i = self.0.iter().position(|a| a == name)?;
            self.0.drain(i..i + 2).nth(1)
        }
    }

    /// The settings `line` gives, or the error naming its bad flag.
    fn read(line: &str) -> Result<Scale, String> {
        let mut f = Line(line.split_whitespace().map(String::from).collect());
        let (scale, _) = settings(&mut f)?;
        assert!(f.0.is_empty(), "every flag taken: {:?}", f.0);
        Ok(scale)
    }

    #[test]
    fn env_scale_reads_values_and_flags() {
        let s = read("--runs 7 --json --ci 0.5").unwrap();
        assert_eq!(s.runs, 7);
        assert!(s.json && !s.trace);
        assert_eq!(s.ci, 0.5);
        assert_eq!((s.generations, s.seed), (120, 42), "the rest default");
        let d = read("").unwrap();
        assert_eq!((d.runs, d.ci, d.json), (3, 0.02, false));
    }

    #[test]
    fn malformed_env_names_the_variable_and_the_format() {
        let e = read("--gens 1OOO").unwrap_err();
        assert!(e.contains("--gens \"1OOO\""), "{e}");
        assert!(e.contains("positive integer"), "{e}");
        let e = read("--loss 0.01,1.5").unwrap_err();
        assert!(e.contains("--loss \"0.01,1.5\""), "{e}");
        assert!(e.contains("[0,1)"), "{e}");
        let e = read("--modes sync,bogus").unwrap_err();
        assert!(e.contains("--modes"), "{e}");
        let e = read("--resume").unwrap_err();
        assert!(e.contains("--ckpt-dir"), "{e}");
        let e = read("--seed 9007199254740993").unwrap_err();
        assert!(e.contains("--seed \"9007199254740993\""), "{e}");
        assert!(e.contains("up to 2^53"), "{e}");
        assert_eq!(read("--seed 9007199254740992").unwrap().seed, 1 << 53);
    }

    #[test]
    fn mailbox_warn_parses_and_rejects_junk() {
        assert_eq!(read("").unwrap().mailbox_warn, None);
        assert_eq!(read("--mailbox-warn 64").unwrap().mailbox_warn, Some(64));
        let e = read("--mailbox-warn lots").unwrap_err();
        assert!(e.contains("--mailbox-warn"), "{e}");
    }

    #[test]
    fn audit_and_flight_env_parse_and_reject_junk() {
        let s = read("").unwrap();
        assert!(!s.audit);
        assert_eq!(s.flight, None);
        assert_eq!(s.inject_stale, 0);

        let s = read("--audit").unwrap();
        assert!(s.audit);
        assert!(s.wants_obs(), "the auditor needs an attached hub");

        let s = read("--flight 256").unwrap();
        assert_eq!(s.flight, Some(256));
        assert!(s.wants_obs(), "the flight ring needs an attached hub");
        // Malformed values are hard errors, not silent defaults.
        let e = read("--flight lots").unwrap_err();
        assert!(e.contains("--flight \"lots\""), "{e}");
        assert!(e.contains("positive integer"), "{e}");
        for junk in ["0", "-5"] {
            let e = read(&format!("--flight {junk}")).unwrap_err();
            assert!(e.contains("--flight"), "{e}");
        }

        let s = read("--inject-stale 4").unwrap();
        assert_eq!(s.inject_stale, 4);
        assert!(s.wants_obs(), "stale injection is observe-gated");
        let e = read("--inject-stale many").unwrap_err();
        assert!(e.contains("--inject-stale"), "{e}");
    }

    #[test]
    fn unknown_nscc_names_are_rejected_and_every_read_name_is_accepted() {
        let one = |name: &str| [(name.to_string(), "1".to_string())];
        for name in ["NSCC_PERF_ROOT", "NSCC_PERF_RUSTC", "HOME", "PATH"] {
            assert_eq!(check_names(one(name)), Ok(()), "{name}");
        }
        assert_eq!(check_names([]), Ok(()));
        for name in ["NSCC_RUNS", "NSCC_JSON", "NSCC_GENERATIONS", "NSCC_"] {
            let e = check_names(one(name)).unwrap_err();
            assert!(e.starts_with(&format!("{name}=\"1\" is set")), "{e}");
            assert!(e.contains("flags replace them"), "{e}");
        }
    }

    #[test]
    fn unknown_arguments_are_rejected_and_every_read_flag_is_accepted() {
        let all: Vec<&str> = EXPERIMENTS.iter().flat_map(Experiment::reads).collect();
        let mut flags = all.clone();
        flags.sort_unstable();
        flags.dedup();
        assert_eq!(flags.len(), 23, "one flag per setting: {flags:?}");
        for e in &EXPERIMENTS {
            assert_eq!(Experiment::find(e.name).map(|f| f.name), Some(e.name));
            let reads: Vec<&str> = e.reads().collect();
            assert!(reads.contains(&"--json") && reads.contains(&"--staleness"));
            for wrong in ["--all-function", "--jsno", "report.json"] {
                assert!(!reads.contains(&wrong), "{} {wrong}", e.name);
            }
        }
        let fig2 = Experiment::find("fig2").expect("fig2");
        assert!(fig2.reads().any(|f| f == "--modes"));
        assert!(
            !fig2.reads().any(|f| f == "--loss"),
            "the chaos grid is fault_study's"
        );
        assert!(Experiment::find("fig5").is_none());
    }

    /// The flag table in the crate doc names, for each flag, exactly the
    /// experiments that read it.
    #[test]
    fn the_flag_table_states_what_each_experiment_reads() {
        let rows: Vec<&str> = include_str!("lib.rs")
            .lines()
            .filter_map(|l| l.strip_prefix("//! | `--"))
            .collect();
        assert_eq!(rows.len(), 23, "one row per flag");
        for row in rows {
            let cols: Vec<&str> = row.split(" | ").collect();
            let flag = format!("--{}", cols[0].split([' ', '`']).next().unwrap_or(""));
            let named: Vec<&str> = match cols[1] {
                "all" => EXPERIMENTS.iter().map(|e| e.name).collect(),
                names => names
                    .split_whitespace()
                    .map(|n| n.trim_matches('`'))
                    .collect(),
            };
            let readers: Vec<&str> = (EXPERIMENTS.iter())
                .filter(|e| e.reads().any(|f| f == flag))
                .map(|e| e.name)
                .collect();
            assert_eq!(named, readers, "{flag}");
        }
    }

    #[test]
    fn modes_env_parses_labels_and_rejects_junk() {
        let m: List<Coherence> = "age=0, age=20".parse().expect("modes parse");
        assert_eq!(
            m.0,
            vec![
                Coherence::PartialAsync { age: 0 },
                Coherence::PartialAsync { age: 20 },
            ]
        );
        let e = "age=0, bogus".parse::<List<Coherence>>().unwrap_err();
        assert!(e.contains("bogus"), "{e}");
    }

    #[test]
    fn list_env_parses_and_defaults() {
        let s = Scale::default();
        assert_eq!((s.losses, s.ages), (vec![0.0, 0.01, 0.05], vec![0, 10, 30]));
        assert_eq!("0.01, 0.05".parse(), Ok(List(vec![0.01, 0.05])));
        assert_eq!(
            ",".parse(),
            Ok(List::<f64>(vec![])),
            "empty items are skipped"
        );
        assert!("0.01,x".parse::<List<f64>>().is_err());
    }

    #[test]
    fn folded_profile_parses_and_renders() {
        let mut s = Scale::default();
        assert_eq!(make_hub(&s).profile_period(), 0);
        s.folded = Some("out.folded".to_string());
        assert_eq!(make_hub(&s).profile_period(), 100_000, "100 virtual µs");
        assert!(s.wants_obs(), "a folded profile needs an attached hub");

        let mut obs = HubSummary::default();
        for (proc, phase, detail, samples) in [
            ("island0", "compute", "", 3u64),
            ("island0", "Global_Read", "best", 2),
            ("p1", "compute", "", 1),
            ("p2", "barrier", "", 0),
        ] {
            obs.profile.push(nscc_obs::ProfileRow {
                proc: proc.to_string(),
                phase: phase.to_string(),
                detail: detail.to_string(),
                samples,
            });
        }
        let text = folded_stacks(&obs);
        assert_eq!(
            text, "island0;Global_Read;best 2\nisland0;compute 3\np1;compute 1\n",
            "sorted, named, zero-sample rows dropped"
        );
    }

    #[test]
    fn live_env_parses_paths_fds_and_rejects_junk() {
        assert_eq!(
            "live.ndjson".parse(),
            Ok(LiveTarget::Path("live.ndjson".into()))
        );
        assert_eq!("3".parse(), Ok(LiveTarget::Fd(3)));
        // Empty is malformed, not silently off; so is an fd-looking value
        // too large for a descriptor.
        assert!("".parse::<LiveTarget>().is_err());
        assert!("99999999999999999999".parse::<LiveTarget>().is_err());

        let s = Scale {
            live: Some(LiveTarget::Path("live.ndjson".into())),
            ..Scale::default()
        };
        assert!(s.wants_obs(), "a live feed needs an attached hub");
        let arms: [fn(&mut Scale); 4] = [
            |s: &mut Scale| s.wall = true,
            |s: &mut Scale| s.audit = true,
            |s: &mut Scale| s.flight = Some(256),
            |s: &mut Scale| s.inject_stale = 4,
        ];
        for arm in arms {
            let mut s = Scale::default();
            arm(&mut s);
            assert!(s.wants_obs(), "{s:?} needs an attached hub");
        }
    }

    #[test]
    fn staleness_env_arms_the_tracer_and_stamps_the_section() {
        let mut s = Scale::default();
        assert!(!make_hub(&s).staleness_enabled());
        s.staleness = true;
        assert!(s.wants_obs(), "the hop tracer needs an attached hub");
        assert!(make_hub(&s).staleness_enabled());

        // Untraced runs keep the section null; traced runs stamp the
        // main hub's anatomy, and checkpointed sweeps the cells' merged one.
        let plain = ResumeOpts::default();
        assert!(session(&Scale::paper(), plain.clone())
            .finish(None)
            .staleness
            .is_none());
        assert!(session(&s, plain).finish(None).staleness.is_some());
        let cell = CellResult {
            staleness: Some(StalenessSummary {
                released: 7,
                ..StalenessSummary::default()
            }),
            ..CellResult::default()
        };
        let store = ResumeOpts {
            dir: Some("unopened".to_string()),
            ..ResumeOpts::default()
        };
        let rep = session(&s, store).finish(Some(&[cell]));
        assert_eq!(rep.staleness.expect("stamped").released, 7);
    }

    #[test]
    fn make_hub_enables_flight_ring_on_request() {
        let mut scale = Scale::paper();
        assert!(!make_hub(&scale).flight_enabled());
        scale.flight = Some(8);
        let hub = make_hub(&scale);
        assert!(hub.flight_enabled());
        assert_eq!(hub.flight_capacity(), 8);
    }

    #[test]
    fn attach_audit_taps_and_stamps() {
        let mut scale = Scale::paper();
        assert!(session(&scale, ResumeOpts::default())
            .violations()
            .is_none());
        scale.audit = true;
        let s = session(&scale, ResumeOpts::default());
        assert!(s.hub.tap_enabled());
        // A violating ReadDone through the hub reaches the auditor.
        s.hub.emit(nscc_obs::ObsEvent::ReadDone {
            t_ns: 1,
            rank: 0,
            loc: 0,
            curr_iter: 10,
            requested: 2,
            delivered: 3,
            staleness: 7,
            blocked: false,
            block_ns: 0,
        });
        assert_eq!(s.violations(), Some(1));
        // Per-cell hubs share the same auditor.
        let cell = s.cell_hub();
        cell.emit(nscc_obs::ObsEvent::SeqAccept {
            t_ns: 2,
            src: 0,
            dst: 1,
            seq: 9,
        });
        cell.emit(nscc_obs::ObsEvent::SeqAccept {
            t_ns: 3,
            src: 0,
            dst: 1,
            seq: 9,
        });
        assert_eq!(s.violations(), Some(2));

        let audit = s.finish(None).audit.expect("audit section stamped");
        assert_eq!(audit.violations, 2);
        let unaudited = session(&Scale::paper(), ResumeOpts::default()).finish(None);
        assert!(unaudited.audit.is_none());
    }

    #[test]
    fn make_hub_honours_explicit_snapshot_disable_and_wall() {
        let mut scale = Scale::paper();
        scale.snap_ms = 0;
        let hub = make_hub(&scale);
        hub.emit(nscc_obs::ObsEvent::Write {
            t_ns: 10_000_000_000,
            rank: 0,
            loc: 0,
            age: 1,
        });
        assert!(
            hub.snapshots().is_empty(),
            "--snap-ms 0 is an explicit disable"
        );
        assert!(!hub.wants_wall());

        scale.wall = true;
        assert!(make_hub(&scale).wants_wall());
        scale.wall = false;
        scale.live = Some(LiveTarget::Path("x".into()));
        assert!(
            make_hub(&scale).wants_wall(),
            "a live feed implies wall accounting"
        );
    }

    #[test]
    fn resume_opts_parse() {
        let o = ResumeOpts::new(None, false, None).unwrap();
        assert!(o.dir.is_none() && !o.resume && o.exit_after.is_none());
        let o = ResumeOpts::new(Some("ck".to_string()), true, Some(2)).unwrap();
        assert_eq!(o.dir.as_deref(), Some("ck"));
        assert!(o.resume);
        assert_eq!(o.exit_after, Some(2));
        // Resume without a directory is a configuration error, not a
        // silent cold run; so is the kill hook.
        for (resume, exit_after) in [(true, None), (false, Some(2))] {
            let e = ResumeOpts::new(None, resume, exit_after).unwrap_err();
            assert!(e.contains("--ckpt-dir"), "{e}");
        }
    }

    #[test]
    fn sweep_ckpt_saves_and_resumes_cells() {
        let dir = std::env::temp_dir().join(format!("nscc-bench-sweep-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = ResumeOpts {
            dir: Some(dir.to_string_lossy().into_owned()),
            resume: false,
            exit_after: None,
        };
        let mut ck = SweepCkpt::from_opts(&opts, "demo").expect("store");
        assert!(ck.load_cell(0).is_none(), "fresh run never loads");
        ck.save_cell(0, 123, &[7], b"cell-zero");
        ck.save_cell(1, 456, &[8], b"cell-one");

        let resumed = ResumeOpts {
            resume: true,
            ..opts.clone()
        };
        let ck2 = SweepCkpt::from_opts(&resumed, "demo").expect("store");
        assert_eq!(ck2.load_cell(0).as_deref(), Some(&b"cell-zero"[..]));
        assert_eq!(ck2.load_cell(1).as_deref(), Some(&b"cell-one"[..]));
        assert!(ck2.load_cell(2).is_none(), "uncomputed cell is absent");

        // A fresh (non-resume) open clears the old generations.
        let ck3 = SweepCkpt::from_opts(&opts, "demo").expect("store");
        let _ = &ck3;
        let ck4 = SweepCkpt::from_opts(&resumed, "demo").expect("store");
        assert!(ck4.load_cell(0).is_none(), "cleared store has no cells");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn banner_echoes_scale() {
        let flags = "--runs --gens --seed --modes";
        let s = Session::new("unit", flags, Scale::paper(), ResumeOpts::default());
        assert_eq!(
            s.banner("Figure 2"),
            "=== Figure 2 ===\nscale: runs=25 generations=1000 seed=42 json=off\n",
            "no ci, and no hook line when none is armed"
        );
    }

    /// The banner's scale line and the report's params name exactly the
    /// scale settings each experiment reads: none it ignores (`drill`
    /// reads no `--runs`), none it leaves out.
    #[test]
    fn banner_and_params_echo_what_each_experiment_reads() {
        let keys = [
            ("--runs", "runs"),
            ("--gens", "generations"),
            ("--ci", "ci"),
            ("--seed", "seed"),
        ];
        let mut wrong = Vec::new();
        for e in &EXPERIMENTS {
            let mut read: Vec<&str> = (keys.iter())
                .filter(|(flag, _)| e.reads().any(|r| r == *flag))
                .map(|&(_, key)| key)
                .collect();
            let s = Session::new(e.name, e.flags, Scale::default(), ResumeOpts::default());
            let banner = s.banner(e.name);
            let named: Vec<&str> = (banner.lines())
                .find_map(|l| l.strip_prefix("scale: "))
                .into_iter()
                .flat_map(str::split_whitespace)
                .filter_map(|field| field.split_once('=').map(|(k, _)| k))
                .filter(|&k| k != "json")
                .collect();
            if named != read {
                wrong.push(format!(
                    "{}: banner names {named:?}, reads {read:?}",
                    e.name
                ));
            }
            let params: Vec<String> = s.finish(None).params.into_keys().collect();
            read.sort_unstable();
            if params != read {
                wrong.push(format!("{}: params {params:?}, reads {read:?}", e.name));
            }
        }
        assert!(wrong.is_empty(), "{}", wrong.join("\n"));
    }

    #[test]
    fn banner_names_armed_test_hooks() {
        let mut scale = Scale::paper();
        scale.inject_stale = 2;
        let resume = ResumeOpts {
            dir: Some("ck".to_string()),
            resume: false,
            exit_after: Some(3),
        };
        assert_eq!(
            session(&scale, resume).banner("T"),
            "=== T ===\narmed test hooks: --ckpt-exit-after 3 --inject-stale 2\n"
        );
    }

    /// A tiny real GA cell: one run, a few generations, two modes.
    fn tiny_cell(func: &TestFn, obs: Option<Hub>) -> Result<CellResult, SimError> {
        let exp = nscc_core::GaExperiment {
            generations: 8,
            runs: 1,
            base_seed: 7,
            obs,
            modes: vec![Coherence::Synchronous, Coherence::PartialAsync { age: 2 }],
            ..nscc_core::GaExperiment::new(*func, 2)
        };
        Ok(CellResult::from_ga(&nscc_core::run_ga_experiment(&exp)?))
    }

    /// Sweep three tiny GA cells, counting the ones computed; the
    /// finished report as JSON.
    fn tiny_sweep(scale: &Scale, resume: ResumeOpts, computed: &mut usize) -> String {
        let mut s = Session::new("tiny", "", scale.clone(), resume);
        let cells = s.sweep(&nscc_ga::ALL_FUNCTIONS[..3], |f, obs| {
            *computed += 1;
            tiny_cell(f, obs)
        });
        let (speedups, improvement) = panel_speedups(&cells.iter().collect::<Vec<_>>());
        s.report
            .metric("sync", speedups[0])
            .metric("improvement", improvement);
        s.finish(Some(&cells)).to_json()
    }

    #[test]
    fn a_resumed_sweep_reproduces_the_report() {
        let dir = std::env::temp_dir().join(format!("nscc-bench-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = |resume| ResumeOpts {
            dir: Some(dir.to_string_lossy().into_owned()),
            resume,
            exit_after: None,
        };
        let gen = |cell: u64| dir.join(format!("tiny/gen-{cell:06}.nsck"));
        let mut scale = Scale::paper();
        (scale.runs, scale.generations) = (1, 8);
        let sweep = |scale: &Scale, resume| {
            let mut computed = 0;
            (tiny_sweep(scale, resume, &mut computed), computed)
        };

        let (plain, n) = sweep(&scale, ResumeOpts::default());
        assert_eq!(n, 3);
        assert!(plain.contains("\"improvement\":"), "{plain}");
        assert_eq!(
            sweep(&scale, store(false)),
            (plain.clone(), 3),
            "a fresh store"
        );
        // Keep the first k = 2 cells' payloads: the resume computes n - k.
        std::fs::remove_file(gen(2)).unwrap();
        assert_eq!(sweep(&scale, store(true)), (plain.clone(), 1), "resumed");
        // A damaged generation is recomputed, not trusted.
        let mut frame = std::fs::read(gen(1)).unwrap();
        *frame.last_mut().unwrap() ^= 0xFF;
        std::fs::write(gen(1), frame).unwrap();
        assert_eq!(sweep(&scale, store(true)), (plain, 1), "corrupt cell 1");

        // Per-cell hubs feed the report: the merged anatomy survives too.
        scale.staleness = true;
        let (fresh, _) = sweep(&scale, store(false));
        assert!(fresh.contains("\"staleness\":{"), "{fresh}");
        std::fs::remove_file(gen(0)).unwrap();
        assert_eq!(sweep(&scale, store(true)), (fresh, 1), "resumed, traced");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cell_result_round_trips_and_rejects_every_damaged_frame() {
        let hub = Hub::new();
        hub.enable_staleness();
        hub.sample_every(1_000_000);
        hub.profile_every(PROFILE_PERIOD_NS);
        let mut cell = tiny_cell(&TestFn::F1Sphere, Some(hub.clone())).unwrap();
        let (obs, staleness) = (hub.summary(), hub.staleness_summary());
        // The pin below covers every nested row type only if no list is empty.
        assert!(!obs.snapshots.is_empty() && !obs.heat.is_empty() && !obs.deps.is_empty());
        assert!(!obs.profile.is_empty() && !staleness.by_loc.is_empty());
        assert!(!staleness.by_link.is_empty());
        (cell.obs, cell.staleness) = (Some(obs), Some(staleness));
        // Adjacent same-type counters the run left equal get distinct
        // values, so that a codec swapping two of them changes the pin.
        let d = &mut cell.dsm;
        (d.updates_sent, d.degraded_reads) = (31, 1);
        (d.suspected_writers, d.barrier_timeouts) = (2, 3);
        let c = cell.comm.as_mut().unwrap();
        (c.retransmits, c.acks_sent, c.dup_suppressed, c.give_ups) = (1, 2, 3, 4);
        let n = cell.net.as_mut().unwrap();
        (n.dropped, n.duplicated) = (1, 2);
        cell.rollbacks = vec![1.5, 0.0];
        cell.metrics = vec![("m".to_string(), -2.5)];
        cell.fault_lines = vec!["cut".to_string()];
        let bytes = nscc_ckpt::to_bytes(&cell);
        assert_eq!(
            (nscc_ckpt::CKPT_VERSION, nscc_ckpt::fnv1a(&bytes)),
            (2, 0x1d2a_84ec_b7da_748d),
            "the checkpoint layout moved: bump CKPT_VERSION and pin the new pair"
        );
        let back: CellResult = nscc_ckpt::from_bytes(&bytes).unwrap();
        assert_eq!(nscc_ckpt::to_bytes(&back), bytes);
        assert_eq!(format!("{back:?}"), format!("{cell:?}"));

        let sealed = nscc_ckpt::seal(&bytes);
        let open = |b: &[u8]| nscc_ckpt::unseal(b).and_then(nscc_ckpt::from_bytes::<CellResult>);
        assert!(open(&sealed).is_ok());
        for n in 0..sealed.len() {
            assert!(open(&sealed[..n]).is_err(), "truncated to {n}");
        }
        for i in 0..sealed.len() {
            let mut b = sealed.clone();
            b[i] ^= 0x5A;
            assert!(open(&b).is_err(), "byte {i} flipped");
        }
        // Without the frame the codec still never panics: a truncated
        // payload is an error, a damaged one decodes or errs.
        for n in 0..bytes.len() {
            assert!(nscc_ckpt::from_bytes::<CellResult>(&bytes[..n]).is_err());
        }
        for i in 0..bytes.len() {
            let mut b = bytes.clone();
            b[i] ^= 0xFF;
            let _ = nscc_ckpt::from_bytes::<CellResult>(&b);
        }
    }
}
