//! The NSCC benchmark harness: one sweep driver shared by every binary.
//!
//! Each binary regenerates one table or figure of the paper (see
//! DESIGN.md's experiment index). A binary opens a [`Session`], runs its
//! experiments — the sweep binaries as an ordered cell list through
//! [`Session::sweep`], which owns checkpointing, per-cell hubs and the
//! flight dump on a failed cell — renders its table from the
//! [`CellResult`]s, and ends with [`Session::finish`], the one place the
//! report, flight dump, trace, folded profile and live feed are written.
//!
//! All binaries accept a scale through environment variables so
//! `--quick` smoke runs and full paper-scale sweeps use the same code:
//!
//! * `NSCC_RUNS` — repetitions per cell (paper: 25 for GA, 10 for Bayes).
//! * `NSCC_GENS` — serial-baseline GA generations (paper: 1000).
//! * `NSCC_CI` — Bayes CI half-width (paper: 0.01).
//! * `NSCC_SEED` — base seed.
//! * `NSCC_JSON` — set to `1`/`true` (or pass `--json`) to also write a
//!   machine-readable `BENCH_<name>.json` run report into the working
//!   directory.
//! * `NSCC_TRACE` — set to `1`/`true` (or pass `--trace`) to also dump the
//!   hub's raw event/span streams as `TRACE_<name>.json` for
//!   `nscc inspect`.
//! * `NSCC_SNAP_MS` — virtual-time cadence (milliseconds) of periodic
//!   metric snapshots recorded into the report's `obs.snapshots` series
//!   (0 is the explicit "disabled" no-op; default 100).
//! * `NSCC_LIVE` — live telemetry feed destination: a writable file path
//!   (`NSCC_LIVE=live.ndjson`) or a raw open file descriptor
//!   (`NSCC_LIVE=3`). Each periodic snapshot is streamed, as it is cut,
//!   as one line of versioned JSON (`nscc_obs::live`) that `nscc top`
//!   can tail while the run is going. Purely additive: reports, traces
//!   and profiles stay byte-identical with the feed on or off, and an
//!   unset `NSCC_LIVE` costs nothing.
//! * `NSCC_WALL` — set to `1`/`true` to attach wall-clock scheduler
//!   self-accounting (events/sec, park/unpark counts, per-process
//!   executing vs. parked time) and embed it as the report's `wall`
//!   section. Real host-clock numbers, so nondeterministic — off by
//!   default to keep same-seed reports byte-identical (`"wall":null`).
//!   `NSCC_LIVE` implies the accounting (the feed carries it) without
//!   the report section.
//! * `NSCC_MODES` — comma-separated coherence labels (`sync`, `async`,
//!   `age=N`; `async` is `Global_Read` at age ∞, so
//!   `age=18446744073709551615` reads as `async`) restricting which modes
//!   the GA bins report; unset runs the full Figure-2 mode family.
//!   Single-mode runs (e.g. `NSCC_MODES=age=0` vs `NSCC_MODES=age=20`)
//!   produce reports whose histograms describe that mode alone — the
//!   inputs `nscc diff` is built for.
//! * `NSCC_LOSS` / `NSCC_AGES` — the loss-rate × age-bound grid of the
//!   `fault_study` chaos sweep (comma-separated).
//! * `NSCC_MAILBOX_WARN` — mailbox-depth warning threshold (messages).
//!   When set, a rank whose mailbox backlog crosses it emits a one-line
//!   stderr warning plus an observability event, and the run report
//!   records the high watermark.
//! * `NSCC_FOLDED` — path of a collapsed-stack profile to write
//!   (`process;phase;location count` lines, the input format of
//!   `inferno` / `flamegraph.pl`). Setting it turns on the hub's
//!   deterministic virtual-time sampling profiler (one sample per 100
//!   virtual µs); same seed → byte identical output.
//! * `NSCC_CKPT_DIR` — directory for sweep checkpoints. When set, the
//!   sweep bins (`fault_study`, `fig2`, `fig3`, `fig4`, `warp_study`)
//!   persist each completed cell so a killed run can restart from the
//!   last completed point; `drill` persists its consistent cuts there.
//! * `NSCC_RESUME` — set to `1`/`true` (or pass `--resume`) to reuse the
//!   cells already in `NSCC_CKPT_DIR` instead of clearing them; the
//!   resumed run produces a byte-identical `BENCH_<name>.json`.
//! * `NSCC_CKPT_EXIT_AFTER` — testing hook: exit with code 3 after this
//!   many cells have been computed *and checkpointed* by this process
//!   (simulating a mid-sweep kill at a deterministic point).
//! * `NSCC_AUDIT` — set to `1`/`true` to run the online coherence
//!   auditor (`nscc-audit`): invariant monitors tap the event stream and
//!   their findings land in the report's `audit` section (rendered by
//!   `nscc audit`, enforced by `nscc gate`). Monitors are pure observers:
//!   the rest of the report stays byte-identical with auditing on or off.
//! * `NSCC_FLIGHT` — black-box flight recorder: keep the most recent N
//!   events in a bounded ring and dump them as `FLIGHT_<name>.json` when
//!   the run ends badly (a monitor violation, a watchdog-cut run, or a
//!   deadlock). Read the dump with `nscc postmortem`. The ring is a side
//!   channel; reports stay byte-identical with it on or off.
//! * `NSCC_STALENESS` — set to `1`/`true` to arm the per-hop staleness
//!   tracer: every DSM update's provenance is stamped as it crosses each
//!   layer (publish, transit, fault delay, retransmits, mailbox dwell,
//!   apply), and on every read release the observed age is decomposed
//!   into the seven named stage durations. The per-stage log₂ histograms
//!   — overall, by location and by writer→reader link — land in the
//!   report's `staleness` section (rendered by `nscc anatomy`), and
//!   write→apply→release flow arrows join the Perfetto spans. Purely
//!   additive: outside that one section the report stays byte-identical
//!   with the tracer on or off.
//! * `NSCC_INJECT_STALE` — fault-injection knob honoured by the
//!   `fault_study` bin: deliberately release this many would-block reads
//!   with their stale cached value, *violating* the age bound so the
//!   auditor and flight recorder have something real to catch. Testing
//!   hook; leave unset for honest runs.
//! * `NSCC_FAULT_PLAN` — path to a versioned fault-plan JSON document
//!   (the portable format `nscc hunt` repros carry). The `fault_study`
//!   bin then wraps the wire in *that* plan — reseeded per cell, so the
//!   grid stays meaningful — instead of deriving a loss-only plan from
//!   `NSCC_LOSS`. Lets a shrunk hunt repro drive the full bench harness.
//!
//! The two testing hooks (`NSCC_CKPT_EXIT_AFTER`, `NSCC_INJECT_STALE`)
//! are named in the banner whenever they are armed. A variable that is
//! *set but malformed* is a hard error: the binary prints one line naming
//! the variable and the expected format and exits with code 2, rather
//! than silently running at a default scale. So is a set `NSCC_*` name
//! that no workspace tool reads, and an argument other than `--json`,
//! `--trace`, `--resume` and `--all-functions` — a misspelled variable or
//! flag must not silently run the default.

#![warn(missing_docs)]

pub mod headless;

use std::fmt::Write as _;
use std::sync::Arc;

use nscc_audit::{render_flight_dump, Auditor, FlightDump};
use nscc_ckpt::Snapshot;
use nscc_core::{GaExpResult, RunReport};
use nscc_dsm::{Coherence, DsmStats};
use nscc_msg::CommStats;
use nscc_net::NetStats;
use nscc_obs::{Hub, HubSummary, StalenessSummary};
use nscc_sim::{SimError, SimTime};

/// Sampling period of the `NSCC_FOLDED` profiler: 100 virtual µs.
const PROFILE_PERIOD_NS: u64 = 100_000;

/// Every `NSCC_*` variable the bench binaries read.
const BENCH_VARS: &str = "NSCC_RUNS NSCC_GENS NSCC_CI NSCC_SEED NSCC_JSON NSCC_TRACE \
    NSCC_SNAP_MS NSCC_MAILBOX_WARN NSCC_FOLDED NSCC_LIVE NSCC_WALL NSCC_AUDIT NSCC_FLIGHT \
    NSCC_INJECT_STALE NSCC_STALENESS NSCC_CKPT_DIR NSCC_RESUME NSCC_CKPT_EXIT_AFTER \
    NSCC_MODES NSCC_LOSS NSCC_AGES NSCC_FAULT_PLAN";

/// Every argument the bench binaries read (`--all-functions` only fig2
/// and fig4).
const BENCH_ARGS: &str = "--json --trace --resume --all-functions";

/// Harness scale, read from the environment with bench-friendly defaults.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Repetitions per experiment cell.
    pub runs: usize,
    /// Serial GA generations.
    pub generations: u64,
    /// Bayes CI half-width target.
    pub ci: f64,
    /// Base seed.
    pub seed: u64,
    /// Whether to write a `BENCH_<name>.json` run report.
    pub json: bool,
    /// Whether to dump the raw event/span streams as `TRACE_<name>.json`.
    pub trace: bool,
    /// Virtual-time cadence of periodic metric snapshots, in milliseconds
    /// (0 disables).
    pub snap_ms: u64,
    /// Mailbox-depth warning threshold (messages); `None` disables the
    /// warning (the high watermark is still recorded).
    pub mailbox_warn: Option<u64>,
    /// Path of the collapsed-stack profile to write (`NSCC_FOLDED`);
    /// `None` leaves the sampling profiler off entirely.
    pub folded: Option<String>,
    /// Live telemetry feed destination (`NSCC_LIVE`); `None` leaves the
    /// feed detached entirely.
    pub live: Option<LiveTarget>,
    /// Whether to embed wall-clock scheduler accounting as the report's
    /// `wall` section (`NSCC_WALL`).
    pub wall: bool,
    /// Whether to run the online coherence auditor (`NSCC_AUDIT`).
    pub audit: bool,
    /// Flight-recorder ring capacity in events (`NSCC_FLIGHT`); `None`
    /// leaves the recorder off entirely.
    pub flight: Option<u64>,
    /// How many would-block reads the `fault_study` bin should release
    /// stale, deliberately violating the age bound (`NSCC_INJECT_STALE`;
    /// 0 = honest run).
    pub inject_stale: u64,
    /// Whether to arm the per-hop staleness tracer and stamp the
    /// report's `staleness` anatomy section (`NSCC_STALENESS`).
    pub staleness: bool,
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

impl Scale {
    /// Parse the scale (see module docs): `get` maps a variable name to
    /// its value when set. A *present but malformed* variable is an error
    /// naming the variable and the expected format — a typo'd
    /// `NSCC_GENS=1OOO` silently running the default scale would waste a
    /// paper-scale sweep.
    pub fn parse(get: &dyn Fn(&str) -> Option<String>) -> Result<Scale, String> {
        Ok(Scale {
            runs: env_num(get, "NSCC_RUNS", 3, "a positive integer (e.g. NSCC_RUNS=5)")?,
            generations: env_num(
                get,
                "NSCC_GENS",
                120,
                "a positive integer (e.g. NSCC_GENS=200)",
            )?,
            ci: env_num(
                get,
                "NSCC_CI",
                0.02,
                "a positive decimal (e.g. NSCC_CI=0.01)",
            )?,
            seed: env_num(
                get,
                "NSCC_SEED",
                42,
                "an unsigned integer (e.g. NSCC_SEED=42)",
            )?,
            json: env_flag(get, "NSCC_JSON")?,
            trace: env_flag(get, "NSCC_TRACE")?,
            snap_ms: env_num(
                get,
                "NSCC_SNAP_MS",
                100,
                "milliseconds as an unsigned integer (e.g. NSCC_SNAP_MS=100)",
            )?,
            mailbox_warn: env_opt_num(
                get,
                "NSCC_MAILBOX_WARN",
                "a positive integer (e.g. NSCC_MAILBOX_WARN=64)",
            )?,
            folded: get("NSCC_FOLDED")
                .map(|s| s.trim().to_string())
                .filter(|s| !s.is_empty()),
            live: parse_live(get)?,
            wall: env_flag(get, "NSCC_WALL")?,
            audit: env_flag(get, "NSCC_AUDIT")?,
            flight: match env_opt_num(
                get,
                "NSCC_FLIGHT",
                "a positive integer of events (e.g. NSCC_FLIGHT=256)",
            )? {
                Some(0) => {
                    return Err("NSCC_FLIGHT=\"0\" is malformed: expected a positive \
                                integer of events (e.g. NSCC_FLIGHT=256)"
                        .to_string())
                }
                cap => cap,
            },
            inject_stale: env_num(
                get,
                "NSCC_INJECT_STALE",
                0,
                "an unsigned integer of reads (e.g. NSCC_INJECT_STALE=4)",
            )?,
            staleness: env_flag(get, "NSCC_STALENESS")?,
        })
    }

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
        }
    }
}

/// Parse `NSCC_LIVE`: absent → `None`; all-digits → an adopted file
/// descriptor; anything else non-empty → a file path. An empty (or
/// unparsable-fd) value is malformed — the one-line exit-2 contract.
fn parse_live(get: &dyn Fn(&str) -> Option<String>) -> Result<Option<LiveTarget>, String> {
    const EXPECTED: &str = "a writable file path or a raw open file descriptor \
                            (e.g. NSCC_LIVE=live.ndjson or NSCC_LIVE=3)";
    let raw = match get("NSCC_LIVE") {
        None => return Ok(None),
        Some(raw) => raw,
    };
    let val = raw.trim();
    if val.is_empty() {
        return Err(format!(
            "NSCC_LIVE={raw:?} is malformed: expected {EXPECTED}"
        ));
    }
    if val.bytes().all(|b| b.is_ascii_digit()) {
        return match val.parse::<i32>() {
            Ok(fd) => Ok(Some(LiveTarget::Fd(fd))),
            Err(_) => Err(format!(
                "NSCC_LIVE={raw:?} is malformed: expected {EXPECTED}"
            )),
        };
    }
    Ok(Some(LiveTarget::Path(val.to_string())))
}

/// A set `NSCC_*` name that neither the harness nor `nscc-perf` (the
/// `NSCC_PERF_*` family) reads is an error: `NSCC_GENERATIONS=8` silently
/// running the default 120 generations is how a wrong capture gets
/// committed.
fn check_names(vars: impl IntoIterator<Item = (String, String)>) -> Result<(), String> {
    for (name, val) in vars {
        if name.starts_with("NSCC_")
            && !name.starts_with("NSCC_PERF_")
            && !BENCH_VARS.split_whitespace().any(|v| v == name)
        {
            return Err(format!(
                "{name}={val:?} is not a variable this harness reads: expected one of {BENCH_VARS}"
            ));
        }
    }
    Ok(())
}

/// An argument no bench binary reads is an error, for the same reason:
/// `fig2 --all-function` would otherwise run the four-function sweep.
fn check_args(args: impl IntoIterator<Item = String>) -> Result<(), String> {
    for arg in args {
        if !BENCH_ARGS.split_whitespace().any(|a| a == arg) {
            return Err(format!(
                "{arg:?} is not an argument this harness reads: expected one of {BENCH_ARGS}"
            ));
        }
    }
    Ok(())
}

/// Environment lookup used by the `*_from_env` readers.
fn env_lookup(name: &str) -> Option<String> {
    std::env::var(name).ok()
}

/// Print a one-line error and exit 2 — the bench binaries' contract for
/// malformed `NSCC_*` variables.
fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// A numeric variable: absent → `default`; present and parsable → the
/// value; present but malformed → a one-line error naming the variable
/// and the expected format.
fn env_num<T: std::str::FromStr>(
    get: &dyn Fn(&str) -> Option<String>,
    name: &str,
    default: T,
    expected: &str,
) -> Result<T, String> {
    Ok(env_opt_num(get, name, expected)?.unwrap_or(default))
}

/// An optional numeric variable: absent → `None`; present and parsable →
/// `Some(value)`; present but malformed → a one-line error.
fn env_opt_num<T: std::str::FromStr>(
    get: &dyn Fn(&str) -> Option<String>,
    name: &str,
    expected: &str,
) -> Result<Option<T>, String> {
    match get(name) {
        None => Ok(None),
        Some(raw) => raw
            .trim()
            .parse()
            .map(Some)
            .map_err(|_| format!("{name}={raw:?} is malformed: expected {expected}")),
    }
}

/// A boolean variable: `1`/`true` on, `0`/`false`/unset off, anything
/// else malformed.
fn env_flag(get: &dyn Fn(&str) -> Option<String>, name: &str) -> Result<bool, String> {
    match get(name).as_deref().map(str::trim) {
        None | Some("") | Some("0") | Some("false") => Ok(false),
        Some("1") | Some("true") => Ok(true),
        Some(raw) => Err(format!(
            "{name}={raw:?} is malformed: expected 1 or 0 (or true/false)"
        )),
    }
}

/// Parse a comma-separated list variable; absent or empty → `default`.
fn env_list<T: std::str::FromStr + Clone>(
    get: &dyn Fn(&str) -> Option<String>,
    name: &str,
    default: &[T],
    expected: &str,
) -> Result<Vec<T>, String> {
    let raw = match get(name) {
        None => return Ok(default.to_vec()),
        Some(raw) => raw,
    };
    let toks: Vec<&str> = raw
        .split(',')
        .map(str::trim)
        .filter(|t| !t.is_empty())
        .collect();
    if toks.is_empty() {
        return Ok(default.to_vec());
    }
    toks.iter()
        .map(|t| {
            t.parse()
                .map_err(|_| format!("{name}={raw:?} is malformed: expected {expected}"))
        })
        .collect()
}

/// The loss-rate axis of the `fault_study` sweep: `NSCC_LOSS` as a
/// comma-separated list of per-frame drop probabilities in `[0, 1)`.
pub fn loss_rates_from_env() -> Vec<f64> {
    let rates = env_list(
        &env_lookup,
        "NSCC_LOSS",
        &[0.0, 0.01, 0.05],
        "comma-separated probabilities in [0,1) (e.g. NSCC_LOSS=0.01,0.05)",
    )
    .unwrap_or_else(|e| die(&e));
    if let Some(bad) = rates.iter().find(|p| !(0.0..1.0).contains(*p)) {
        die(&format!(
            "NSCC_LOSS contains {bad}: expected comma-separated probabilities in [0,1)"
        ));
    }
    rates
}

/// The age-bound axis of the `fault_study` sweep: `NSCC_AGES` as a
/// comma-separated list of `Global_Read` age bounds (iterations).
pub fn ages_from_env() -> Vec<u64> {
    env_list(
        &env_lookup,
        "NSCC_AGES",
        &[0, 10, 30],
        "comma-separated unsigned integers (e.g. NSCC_AGES=0,10,30)",
    )
    .unwrap_or_else(|e| die(&e))
}

/// The fault-plan override: `NSCC_FAULT_PLAN` as a path to a versioned
/// fault-plan JSON document (the portable format hunt repros carry).
/// Absent → `None` (the bin derives its own plan); present but
/// unreadable or malformed → the one-line exit-2 contract, naming the
/// path and the first parse error.
pub fn fault_plan_from_env() -> Option<nscc_core::FaultPlan> {
    let raw = env_lookup("NSCC_FAULT_PLAN")?;
    let path = raw.trim();
    if path.is_empty() {
        die(&format!(
            "NSCC_FAULT_PLAN={raw:?} is malformed: expected a path to a fault-plan JSON file"
        ));
    }
    match nscc_core::FaultPlan::load(std::path::Path::new(path)) {
        Ok(plan) => Some(plan),
        Err(e) => die(&format!("NSCC_FAULT_PLAN: {e}")),
    }
}

/// The coherence modes the GA bins should report: the `NSCC_MODES`
/// restriction when set and non-empty, the full Figure-2 family
/// otherwise. An unknown label is a hard error (exit 2) — a typo'd mode
/// silently narrowing a sweep is worse than stopping.
pub fn modes_from_env() -> Vec<Coherence> {
    match parse_modes(&env_lookup) {
        Ok(modes) => modes.unwrap_or_else(nscc_core::GaExperiment::default_modes),
        Err(e) => die(&e),
    }
}

/// Pure parsing core of [`modes_from_env`]. Exposed for tests.
pub fn parse_modes(get: &dyn Fn(&str) -> Option<String>) -> Result<Option<Vec<Coherence>>, String> {
    let raw = match get("NSCC_MODES") {
        None => return Ok(None),
        Some(raw) => raw,
    };
    let mut modes = Vec::new();
    for tok in raw.split(',').map(str::trim).filter(|t| !t.is_empty()) {
        match Coherence::parse(tok) {
            Some(m) => modes.push(m),
            None => {
                return Err(format!(
                    "NSCC_MODES contains unknown label {tok:?}: expected \
                     comma-separated sync, async, or age=N"
                ))
            }
        }
    }
    Ok((!modes.is_empty()).then_some(modes))
}

/// Whether the bin was asked (via `--all-functions`) to sweep the full
/// eight-function GA test bed instead of the four cheapest.
pub fn all_functions_flag() -> bool {
    std::env::args().any(|a| a == "--all-functions")
}

/// Checkpoint/resume options for the sweep bins, read from the
/// environment (see module docs).
#[derive(Debug, Clone, Default)]
pub struct ResumeOpts {
    /// Checkpoint directory (`NSCC_CKPT_DIR`); `None` disables
    /// checkpointing entirely.
    pub dir: Option<String>,
    /// Reuse cells already in the store (`NSCC_RESUME` or `--resume`)
    /// instead of clearing them.
    pub resume: bool,
    /// Exit with code 3 after this many cells have been computed and
    /// checkpointed by this process (`NSCC_CKPT_EXIT_AFTER`; testing
    /// hook simulating a mid-sweep kill).
    pub exit_after: Option<u64>,
}

impl ResumeOpts {
    /// Parse the options; `resume_arg` is whether `--resume` was on the
    /// command line.
    pub fn parse(
        get: &dyn Fn(&str) -> Option<String>,
        resume_arg: bool,
    ) -> Result<ResumeOpts, String> {
        let dir = get("NSCC_CKPT_DIR")
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty());
        let resume = env_flag(get, "NSCC_RESUME")? || resume_arg;
        let exit_after = env_opt_num(
            get,
            "NSCC_CKPT_EXIT_AFTER",
            "a positive integer (e.g. NSCC_CKPT_EXIT_AFTER=2)",
        )?;
        if dir.is_none() && (resume || exit_after.is_some()) {
            return Err(
                "NSCC_RESUME/NSCC_CKPT_EXIT_AFTER require NSCC_CKPT_DIR to be set".to_string(),
            );
        }
        Ok(ResumeOpts {
            dir,
            resume,
            exit_after,
        })
    }
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
    /// Open the store for bench `name` under `opts.dir` (a per-binary
    /// subdirectory, so one `NSCC_CKPT_DIR` serves several bins). `None`
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
    /// `nscc inspect --ckpt`). When `NSCC_CKPT_EXIT_AFTER` is reached the
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
                    "NSCC_CKPT_EXIT_AFTER: exiting after {limit} checkpointed cell(s); \
                     resume with NSCC_RESUME=1"
                );
                std::process::exit(3);
            }
        }
    }
}

/// Build the observability hub for a bench binary: snapshot cadence from
/// the scale (virtual-time milliseconds; 0 is the explicit "disabled"
/// no-op), wall accounting when the feed or `NSCC_WALL` asks for it,
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

/// Attach the live telemetry feed to `hub` when `NSCC_LIVE` is set (no-op
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
            Err(e) => die(&format!("cannot open NSCC_LIVE path {path:?}: {e}")),
        },
        LiveTarget::Fd(fd) => {
            #[cfg(unix)]
            {
                use std::os::fd::FromRawFd;
                // SAFETY: the caller handed us this descriptor via
                // NSCC_LIVE precisely so we take ownership of it; nothing
                // else in the bench touches raw fds.
                unsafe { Box::new(std::fs::File::from_raw_fd(*fd)) }
            }
            #[cfg(not(unix))]
            {
                die(&format!(
                    "NSCC_LIVE={fd} is a raw file descriptor, which only works on Unix; \
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
/// a resumable sweep, one type and one codec for every binary. Replaying
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
/// matched by label, not position, so a restricted `NSCC_MODES` list
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

/// One bench binary's run: the scale and checkpoint options it was
/// started with, the main hub (live feed and auditor attached), and the
/// report [`finish`](Session::finish) stamps and writes.
pub struct Session {
    /// Harness scale (see module docs).
    pub scale: Scale,
    /// Checkpoint/resume options.
    pub resume: ResumeOpts,
    /// The run report: binaries add params, metrics and their own
    /// counters; `finish` adds the rest.
    pub report: RunReport,
    name: &'static str,
    hub: Hub,
    auditor: Option<Arc<Auditor>>,
}

impl Session {
    /// Open bench `name` from the environment and argv (`--json`,
    /// `--trace`, `--resume`). A misspelled `NSCC_*` name or argument, or
    /// a malformed value, exits 2 with a one-line error.
    pub fn open(name: &'static str) -> Session {
        let flag = |f: &str| std::env::args().any(|a| a == f);
        let vars = std::env::vars_os().map(|(k, v)| {
            let s = |o: std::ffi::OsString| o.to_string_lossy().into_owned();
            (s(k), s(v))
        });
        let checked = check_args(std::env::args().skip(1)).and_then(|()| check_names(vars));
        let parsed = checked.and_then(|()| {
            Ok((
                Scale::parse(&env_lookup)?,
                ResumeOpts::parse(&env_lookup, flag("--resume"))?,
            ))
        });
        let (mut scale, resume) = parsed.unwrap_or_else(|e| die(&e));
        scale.json |= flag("--json");
        scale.trace |= flag("--trace");
        Session::new(name, scale, resume)
    }

    fn new(name: &'static str, scale: Scale, resume: ResumeOpts) -> Session {
        let hub = make_hub(&scale);
        attach_live(&scale, &hub, name);
        // One auditor serves the whole bin: per-cell hubs tap into it too.
        let auditor = scale.audit.then(|| Arc::new(Auditor::new()));
        if let Some(a) = &auditor {
            hub.set_tap(a.clone());
        }
        Session {
            report: RunReport::new(name, &hub),
            scale,
            resume,
            name,
            hub,
            auditor,
        }
    }

    /// The banner: the title, the scale line when `with_scale`, and — only
    /// when one is armed — a line naming the testing hooks in force.
    pub fn banner(&self, title: &str, with_scale: bool) -> String {
        let s = &self.scale;
        let mut out = format!("=== {title} ===\n");
        if with_scale {
            let json = if s.json { "on" } else { "off" };
            let _ = writeln!(
                out,
                "scale: runs={} generations={} ci=±{} seed={} json={json}",
                s.runs, s.generations, s.ci, s.seed
            );
        }
        let hooks: Vec<String> = [
            ("NSCC_CKPT_EXIT_AFTER", self.resume.exit_after),
            ("NSCC_INJECT_STALE", Some(s.inject_stale).filter(|&n| n > 0)),
        ]
        .iter()
        .filter_map(|(k, v)| v.map(|v| format!("{k}={v}")))
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

    /// The auditor's violation count so far (`None` without
    /// `NSCC_AUDIT`).
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
    /// `NSCC_FLIGHT` set the ring holds the last events before the hang,
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
    /// `NSCC_FLIGHT`.
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
    /// bin's one auditor, without the live feed.
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
    /// With `NSCC_CKPT_DIR` set each completed cell is checkpointed under
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
    /// `BENCH_<name>.json` (with `NSCC_JSON`), the flight dump (when a
    /// monitor fired or a run was cut), `TRACE_<name>.json`, the folded
    /// profile, and the live feed's final line. `cells` is the sweep's
    /// result, whose counters are merged into the report (`None` for
    /// binaries without a sweep).
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
                "note: NSCC_TRACE is unsupported with NSCC_CKPT_DIR (events live in \
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
    /// `fault_study` through `NSCC_FAULT_PLAN` reads, optional sections
    /// and keys left out, as the plan the builder makes.
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

    /// A fake environment for the pure parsers.
    fn env<'a>(pairs: &'a [(&'a str, &'a str)]) -> impl Fn(&str) -> Option<String> + 'a {
        move |name| {
            pairs
                .iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| v.to_string())
        }
    }

    /// A session on `scale` outside any environment.
    fn session(scale: &Scale, resume: ResumeOpts) -> Session {
        Session::new("unit", scale.clone(), resume)
    }

    #[test]
    fn env_scale_defaults() {
        let s = Scale::parse(&env(&[])).unwrap();
        assert_eq!((s.runs, s.generations, s.seed), (3, 120, 42));
        assert!(s.ci > 0.0);
        assert!(!s.json && !s.trace);
    }

    #[test]
    fn env_scale_reads_values_and_flags() {
        let get = env(&[
            ("NSCC_RUNS", "7"),
            ("NSCC_JSON", "true"),
            ("NSCC_CI", " 0.5 "),
        ]);
        let s = Scale::parse(&get).unwrap();
        assert_eq!(s.runs, 7);
        assert!(s.json);
        assert_eq!(s.ci, 0.5);
    }

    #[test]
    fn malformed_env_names_the_variable_and_the_format() {
        let e = Scale::parse(&env(&[("NSCC_GENS", "1OOO")])).unwrap_err();
        assert!(e.contains("NSCC_GENS=\"1OOO\""), "{e}");
        assert!(e.contains("positive integer"), "{e}");
        let e = Scale::parse(&env(&[("NSCC_JSON", "yes")])).unwrap_err();
        assert!(e.contains("NSCC_JSON"), "{e}");
        assert!(e.contains("1 or 0"), "{e}");
    }

    #[test]
    fn unknown_nscc_names_are_rejected_and_every_read_name_is_accepted() {
        let read = std::cell::RefCell::new(Vec::new());
        let get = |name: &str| -> Option<String> {
            read.borrow_mut().push(name.to_string());
            None
        };
        Scale::parse(&get).unwrap();
        ResumeOpts::parse(&get, false).unwrap();
        parse_modes(&get).unwrap();
        let names = read.into_inner();
        assert!(names.len() >= 18, "{names:?}");
        let one = |name: &str| [(name.to_string(), "1".to_string())];
        let others = [
            "NSCC_LOSS",
            "NSCC_AGES",
            "NSCC_FAULT_PLAN",
            "NSCC_PERF_ROOT",
            "HOME",
        ];
        for name in names.iter().map(String::as_str).chain(others) {
            assert_eq!(check_names(one(name)), Ok(()), "{name}");
        }
        let e = check_names([("NSCC_GENERATIONS".to_string(), "8".to_string())]).unwrap_err();
        assert!(
            e.starts_with("NSCC_GENERATIONS=\"8\" is not a variable"),
            "{e}"
        );
        assert!(e.contains("NSCC_GENS"), "{e}");
        assert!(
            check_names(one("NSCC_PROFILE_US")).is_err(),
            "a deleted option"
        );
    }

    #[test]
    fn unknown_arguments_are_rejected_and_every_read_flag_is_accepted() {
        let args = |list: &[&str]| list.iter().map(|a| a.to_string()).collect::<Vec<_>>();
        let read = ["--json", "--trace", "--resume", "--all-functions"];
        assert_eq!(check_args(args(&read)), Ok(()));
        assert_eq!(check_args(args(&[])), Ok(()));
        for wrong in ["--all-function", "--jsno", "report.json"] {
            let e = check_args(args(&["--json", wrong])).unwrap_err();
            assert!(
                e.starts_with(&format!("{wrong:?} is not an argument")),
                "{e}"
            );
            assert!(e.contains("--all-functions"), "{e}");
        }
    }

    #[test]
    fn modes_env_parses_labels_and_rejects_junk() {
        let m = parse_modes(&env(&[("NSCC_MODES", "age=0, age=20")]))
            .unwrap()
            .expect("modes parse");
        assert_eq!(
            m,
            vec![
                Coherence::PartialAsync { age: 0 },
                Coherence::PartialAsync { age: 20 },
            ]
        );
        assert!(parse_modes(&env(&[])).unwrap().is_none());
        let e = parse_modes(&env(&[("NSCC_MODES", "age=0, bogus")])).unwrap_err();
        assert!(e.contains("bogus"), "{e}");
        assert!(e.contains("age=N"), "{e}");
    }

    #[test]
    fn list_env_parses_and_defaults() {
        let v: Vec<f64> = env_list(&env(&[]), "NSCC_LOSS", &[0.5], "probabilities").unwrap();
        assert_eq!(v, vec![0.5]);
        let v: Vec<f64> =
            env_list(&env(&[("NSCC_LOSS", "0.01, 0.05")]), "NSCC_LOSS", &[], "p").unwrap();
        assert_eq!(v, vec![0.01, 0.05]);
        let e =
            env_list::<f64>(&env(&[("NSCC_LOSS", "0.01,x")]), "NSCC_LOSS", &[], "p").unwrap_err();
        assert!(e.contains("NSCC_LOSS"), "{e}");
    }

    #[test]
    fn mailbox_warn_parses_and_rejects_junk() {
        assert_eq!(Scale::parse(&env(&[])).unwrap().mailbox_warn, None);
        let s = Scale::parse(&env(&[("NSCC_MAILBOX_WARN", "64")])).unwrap();
        assert_eq!(s.mailbox_warn, Some(64));
        let e = Scale::parse(&env(&[("NSCC_MAILBOX_WARN", "lots")])).unwrap_err();
        assert!(e.contains("NSCC_MAILBOX_WARN"), "{e}");
    }

    #[test]
    fn folded_profile_parses_and_renders() {
        let s = Scale::parse(&env(&[])).unwrap();
        assert_eq!(s.folded, None);
        assert_eq!(make_hub(&s).profile_period(), 0);
        assert!(!s.wants_obs());
        let s = Scale::parse(&env(&[("NSCC_FOLDED", " out.folded ")])).unwrap();
        assert_eq!(s.folded.as_deref(), Some("out.folded"));
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
        let s = Scale::parse(&env(&[])).unwrap();
        assert_eq!(s.live, None);
        assert!(!s.wall);

        let s = Scale::parse(&env(&[("NSCC_LIVE", " live.ndjson ")])).unwrap();
        assert_eq!(s.live, Some(LiveTarget::Path("live.ndjson".into())));
        assert!(s.wants_obs(), "a live feed needs an attached hub");

        let s = Scale::parse(&env(&[("NSCC_LIVE", "3")])).unwrap();
        assert_eq!(s.live, Some(LiveTarget::Fd(3)));

        // Empty value is malformed, not silently off.
        let e = Scale::parse(&env(&[("NSCC_LIVE", "  ")])).unwrap_err();
        assert!(e.contains("NSCC_LIVE"), "{e}");
        assert!(e.contains("file descriptor"), "{e}");

        // An fd-looking value too large for an fd is malformed.
        let e = Scale::parse(&env(&[("NSCC_LIVE", "99999999999999999999")])).unwrap_err();
        assert!(e.contains("NSCC_LIVE"), "{e}");

        let s = Scale::parse(&env(&[("NSCC_WALL", "1")])).unwrap();
        assert!(s.wall);
        assert!(s.wants_obs(), "wall accounting needs an attached hub");
        let e = Scale::parse(&env(&[("NSCC_WALL", "yes")])).unwrap_err();
        assert!(e.contains("NSCC_WALL"), "{e}");
    }

    #[test]
    fn audit_and_flight_env_parse_and_reject_junk() {
        let s = Scale::parse(&env(&[])).unwrap();
        assert!(!s.audit);
        assert_eq!(s.flight, None);
        assert_eq!(s.inject_stale, 0);

        let s = Scale::parse(&env(&[("NSCC_AUDIT", "1")])).unwrap();
        assert!(s.audit);
        assert!(s.wants_obs(), "the auditor needs an attached hub");
        let e = Scale::parse(&env(&[("NSCC_AUDIT", "on")])).unwrap_err();
        assert!(e.contains("NSCC_AUDIT"), "{e}");

        let s = Scale::parse(&env(&[("NSCC_FLIGHT", " 256 ")])).unwrap();
        assert_eq!(s.flight, Some(256));
        assert!(s.wants_obs(), "the flight ring needs an attached hub");
        // Malformed values are hard errors, not silent defaults.
        let e = Scale::parse(&env(&[("NSCC_FLIGHT", "lots")])).unwrap_err();
        assert!(e.contains("NSCC_FLIGHT=\"lots\""), "{e}");
        assert!(e.contains("positive integer"), "{e}");
        let e = Scale::parse(&env(&[("NSCC_FLIGHT", "0")])).unwrap_err();
        assert!(e.contains("NSCC_FLIGHT"), "{e}");
        let e = Scale::parse(&env(&[("NSCC_FLIGHT", "-5")])).unwrap_err();
        assert!(e.contains("NSCC_FLIGHT"), "{e}");

        let s = Scale::parse(&env(&[("NSCC_INJECT_STALE", "4")])).unwrap();
        assert_eq!(s.inject_stale, 4);
        assert!(s.wants_obs(), "stale injection is observe-gated");
        let e = Scale::parse(&env(&[("NSCC_INJECT_STALE", "many")])).unwrap_err();
        assert!(e.contains("NSCC_INJECT_STALE"), "{e}");
    }

    #[test]
    fn staleness_env_arms_the_tracer_and_stamps_the_section() {
        let s = Scale::parse(&env(&[])).unwrap();
        assert!(!s.staleness);
        assert!(!make_hub(&s).staleness_enabled());

        let s = Scale::parse(&env(&[("NSCC_STALENESS", "1")])).unwrap();
        assert!(s.staleness);
        assert!(s.wants_obs(), "the hop tracer needs an attached hub");
        assert!(make_hub(&s).staleness_enabled());
        let e = Scale::parse(&env(&[("NSCC_STALENESS", "armed")])).unwrap_err();
        assert!(e.contains("NSCC_STALENESS"), "{e}");

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
            "NSCC_SNAP_MS=0 is an explicit disable"
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
        let o = ResumeOpts::parse(&env(&[]), false).unwrap();
        assert!(o.dir.is_none() && !o.resume && o.exit_after.is_none());
        let o = ResumeOpts::parse(
            &env(&[
                ("NSCC_CKPT_DIR", "ck"),
                ("NSCC_RESUME", "1"),
                ("NSCC_CKPT_EXIT_AFTER", "2"),
            ]),
            false,
        )
        .unwrap();
        assert_eq!(o.dir.as_deref(), Some("ck"));
        assert!(o.resume);
        assert_eq!(o.exit_after, Some(2));
        // --resume argument also turns resume on.
        let o = ResumeOpts::parse(&env(&[("NSCC_CKPT_DIR", "ck")]), true).unwrap();
        assert!(o.resume);
        // Resume without a directory is a configuration error, not a
        // silent cold run.
        let e = ResumeOpts::parse(&env(&[("NSCC_RESUME", "1")]), false).unwrap_err();
        assert!(e.contains("NSCC_CKPT_DIR"), "{e}");
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
        let b = session(&Scale::paper(), ResumeOpts::default()).banner("Figure 2", true);
        assert!(b.contains("Figure 2"));
        assert!(b.contains("runs=25"));
        assert!(b.contains("1000"));
        assert_eq!(b.lines().count(), 2, "no hook line when none is armed");
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
            session(&scale, resume).banner("T", false),
            "=== T ===\narmed test hooks: NSCC_CKPT_EXIT_AFTER=3 NSCC_INJECT_STALE=2\n"
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
        let mut s = Session::new("tiny", scale.clone(), resume);
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
