//! Shared utilities for the NSCC benchmark harness binaries.
//!
//! Each binary regenerates one table or figure of the paper (see
//! DESIGN.md's experiment index). All binaries accept a scale through
//! environment variables so `--quick` smoke runs and full paper-scale
//! sweeps use the same code:
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
//!   `age=N`) restricting which modes the GA bins report; unset runs the
//!   full Figure-2 mode family. Single-mode runs (e.g. `NSCC_MODES=age=0`
//!   vs `NSCC_MODES=age=20`) produce reports whose histograms describe
//!   that mode alone — the inputs `nscc diff` is built for.
//! * `NSCC_LOSS` / `NSCC_AGES` — the loss-rate × age-bound grid of the
//!   `fault_study` chaos sweep (comma-separated).
//! * `NSCC_MAILBOX_WARN` — mailbox-depth warning threshold (messages).
//!   When set, a rank whose mailbox backlog crosses it emits a one-line
//!   stderr warning plus an observability event, and the run report
//!   records the high watermark.
//! * `NSCC_FOLDED` — path of a collapsed-stack profile to write
//!   (`process;phase;location count` lines, the input format of
//!   `inferno` / `flamegraph.pl`). Setting it turns on the hub's
//!   deterministic virtual-time sampling profiler; same seed → byte
//!   identical output.
//! * `NSCC_PROFILE_US` — sampling period of that profiler in virtual
//!   microseconds (default 100; only meaningful with `NSCC_FOLDED`).
//! * `NSCC_CKPT_DIR` — directory for sweep checkpoints. When set, the
//!   sweep bins (`fault_study`, `fig2`, `fig3`, `fig4`, `warp_study`)
//!   persist each completed cell so a killed run can restart from the
//!   last completed point.
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
//! A variable that is *set but malformed* is a hard error: the binary
//! prints one line naming the variable and the expected format and exits
//! with code 2, rather than silently running at a default scale.

#![warn(missing_docs)]

pub mod headless;

use std::fmt::Write as _;
use std::sync::Arc;

use nscc_audit::{render_flight_dump, Auditor, FlightDump};
use nscc_core::RunReport;
use nscc_dsm::Coherence;
use nscc_obs::{Hub, HubSummary};

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
    /// Sampling period of the virtual-time profiler, in virtual
    /// microseconds (`NSCC_PROFILE_US`).
    pub profile_us: u64,
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
    /// Read the scale from the environment (see module docs). JSON output
    /// is enabled by `NSCC_JSON=1`/`true` or a `--json` argument.
    ///
    /// A *present but malformed* variable is a hard error (one line
    /// naming the variable and the expected format, exit code 2) — a
    /// typo'd `NSCC_GENS=1OOO` silently running the default scale would
    /// waste a paper-scale sweep.
    pub fn from_env() -> Scale {
        match Scale::parse(&env_lookup) {
            Ok(mut s) => {
                s.json |= std::env::args().any(|a| a == "--json");
                s.trace |= std::env::args().any(|a| a == "--trace");
                s
            }
            Err(e) => die(&e),
        }
    }

    /// Pure parsing core of [`from_env`](Scale::from_env): `get` maps a
    /// variable name to its value when set. Exposed for tests.
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
            profile_us: match env_num(
                get,
                "NSCC_PROFILE_US",
                100,
                "a positive integer of virtual microseconds (e.g. NSCC_PROFILE_US=100)",
            )? {
                0 => {
                    return Err("NSCC_PROFILE_US=\"0\" is malformed: expected a positive \
                                integer of virtual microseconds (e.g. NSCC_PROFILE_US=100)"
                        .to_string())
                }
                us => us,
            },
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
            profile_us: 100,
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
    match get(name) {
        None => Ok(default),
        Some(raw) => raw
            .trim()
            .parse()
            .map_err(|_| format!("{name}={raw:?} is malformed: expected {expected}")),
    }
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
pub fn modes_from_env() -> Option<Vec<Coherence>> {
    match parse_modes(&env_lookup) {
        Ok(modes) => modes,
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
    /// Read the options from the environment and argv.
    pub fn from_env() -> ResumeOpts {
        let resume_arg = std::env::args().any(|a| a == "--resume");
        match ResumeOpts::parse(&env_lookup, resume_arg) {
            Ok(o) => o,
            Err(e) => die(&e),
        }
    }

    /// Pure parsing core of [`from_env`](ResumeOpts::from_env). Exposed
    /// for tests; `resume_arg` is whether `--resume` was on the command
    /// line.
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

/// Per-cell checkpointing of a sweep binary: each completed cell is one
/// generation in a [`nscc_ckpt::CkptStore`], keyed by its cell index, so
/// a killed sweep resumes from the last completed point and replays the
/// stored cells into a byte-identical report.
pub struct SweepCkpt {
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
    pub fn from_opts(opts: &ResumeOpts, name: &str) -> Option<SweepCkpt> {
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
    pub fn load_cell(&self, cell: u64) -> Option<Vec<u8>> {
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
    pub fn save_cell(&mut self, cell: u64, t_ns: u64, iters: &[u64], payload: &[u8]) {
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
pub fn make_hub(scale: &Scale) -> Hub {
    let hub = Hub::new();
    hub.sample_every(scale.snap_ms.saturating_mul(1_000_000));
    if scale.folded.is_some() {
        hub.profile_every(scale.profile_us.saturating_mul(1_000));
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

/// Whether the bin was asked (via `--all-functions`) to sweep the full
/// eight-function GA test bed instead of the four cheapest.
pub fn all_functions_flag() -> bool {
    std::env::args().any(|a| a == "--all-functions")
}

/// Build the online coherence auditor and tap it into `hub` when
/// `NSCC_AUDIT` asked for it (`None` otherwise). One auditor serves the
/// whole bin — sweep bins with per-cell hubs tap each cell hub into the
/// *same* auditor with [`tap_audit`], accumulating a single summary.
pub fn attach_audit(scale: &Scale, hub: &Hub) -> Option<Arc<Auditor>> {
    if !scale.audit {
        return None;
    }
    let auditor = Arc::new(Auditor::new());
    hub.set_tap(auditor.clone());
    Some(auditor)
}

/// Tap a per-cell hub into the bin's shared auditor (no-op when auditing
/// is off).
pub fn tap_audit(auditor: &Option<Arc<Auditor>>, hub: &Hub) {
    if let Some(a) = auditor {
        hub.set_tap(a.clone());
    }
}

/// Embed the auditor's findings as the report's `audit` section (no-op
/// when auditing is off — the section stays `null` and the report
/// byte-identical to an unaudited run).
pub fn stamp_audit(auditor: &Option<Arc<Auditor>>, report: &mut RunReport) {
    if let Some(a) = auditor {
        report.audit = Some(a.summary());
    }
}

/// Embed the staleness tracer's anatomy as the report's `staleness`
/// section when `NSCC_STALENESS` asked for it (no-op otherwise — the
/// section stays `null` and the report byte-identical to an untraced
/// run). Sweep bins that aggregate per-cell hubs pass the merged
/// summary; single-hub bins pass `None` and the main hub's own anatomy
/// is stamped.
pub fn stamp_staleness(
    scale: &Scale,
    hub: &Hub,
    merged: Option<nscc_obs::StalenessSummary>,
    report: &mut RunReport,
) {
    if scale.staleness {
        report.staleness = Some(merged.unwrap_or_else(|| hub.staleness_summary()));
    }
}

/// Cut the black-box dump when the run ended badly: with `NSCC_FLIGHT`
/// set and either a monitor violation or a watchdog-cut run on record,
/// write the hub's event ring (plus the recorded violations) as
/// `FLIGHT_<name>.json` for `nscc postmortem`. Clean runs write nothing.
pub fn write_flight(
    scale: &Scale,
    hub: &Hub,
    auditor: &Option<Arc<Auditor>>,
    fault_reports: u64,
    name: &str,
) {
    let cap = match scale.flight {
        Some(cap) => cap,
        None => return,
    };
    let violations = auditor.as_ref().map_or(0, |a| a.violation_count());
    if violations == 0 && fault_reports == 0 {
        return;
    }
    let reason = if violations > 0 { "violation" } else { "fault" };
    let dump = FlightDump::new(
        name,
        scale.seed,
        reason,
        cap,
        hub.flight_events(),
        auditor.as_ref().map(|a| a.recorded()).unwrap_or_default(),
    )
    .with_proc_names(hub.summary().proc_names.values().cloned().collect());
    write_flight_doc(&dump);
}

/// Write a flight dump to `FLIGHT_<bench>.json`, echoing the path.
fn write_flight_doc(dump: &FlightDump) {
    let path = format!("FLIGHT_{}.json", dump.bench);
    let mut body = render_flight_dump(dump);
    body.push('\n');
    match std::fs::write(&path, body) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("failed to write {path}: {e}"),
    }
}

/// Unwrap an experiment result; on a simulation error (deadlock — every
/// live process blocked with nothing left to run) cut the flight dump
/// first, then exit 1. With `NSCC_FLIGHT` set the ring holds the last
/// events before the hang, including the scheduler's per-process
/// deadlock breadcrumbs.
pub fn unwrap_or_flight<T>(
    res: Result<T, nscc_sim::SimError>,
    scale: &Scale,
    hub: Option<&Hub>,
    auditor: &Option<Arc<Auditor>>,
    name: &str,
) -> T {
    match res {
        Ok(t) => t,
        Err(e) => {
            if let (Some(cap), Some(hub)) = (scale.flight, hub) {
                let dump = FlightDump::new(
                    name,
                    scale.seed,
                    "deadlock",
                    cap,
                    hub.flight_events(),
                    auditor.as_ref().map(|a| a.recorded()).unwrap_or_default(),
                )
                .with_proc_names(hub.summary().proc_names.values().cloned().collect());
                write_flight_doc(&dump);
            }
            eprintln!("error: {name}: simulation failed: {e}");
            std::process::exit(1);
        }
    }
}

/// Attach the live telemetry feed to `hub` when `NSCC_LIVE` is set (no-op
/// otherwise). Call once, on the main hub, right after [`make_hub`] —
/// per-cell checkpoint hubs must not each reopen the feed.
pub fn attach_live(scale: &Scale, hub: &Hub, bench: &str) {
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

/// Embed the wall-clock scheduler accounting as the report's `wall`
/// section when `NSCC_WALL` asked for it (no-op otherwise — the section
/// stays `null` and the report deterministic).
pub fn stamp_wall(scale: &Scale, hub: &Hub, report: &mut RunReport) {
    if scale.wall {
        report.wall = Some(hub.sched());
    }
}

/// Dump the hub's raw event/span streams as `TRACE_<name>.json` when
/// tracing is enabled (no-op otherwise), echoing the path written.
pub fn write_trace(scale: &Scale, hub: &Hub, name: &str) {
    if !scale.trace {
        return;
    }
    let path = format!("TRACE_{name}.json");
    match std::fs::write(&path, hub.export_events_json()) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("failed to write {path}: {e}"),
    }
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
        let proc = obs
            .proc_names
            .get(&row.pid)
            .cloned()
            .unwrap_or_else(|| format!("p{}", row.pid));
        let stack = if row.detail.is_empty() {
            format!("{proc};{}", row.phase)
        } else {
            format!("{proc};{};{}", row.phase, row.detail)
        };
        *merged.entry(stack).or_insert(0) += row.samples;
    }
    let mut out = String::new();
    for (stack, samples) in merged {
        let _ = writeln!(out, "{stack} {samples}");
    }
    out
}

/// Write the collapsed-stack profile to the `NSCC_FOLDED` path when one
/// is set (no-op otherwise), echoing the path written. The profile is a
/// pure function of the virtual clock, so same-seed runs produce byte
/// identical files.
pub fn write_folded(scale: &Scale, obs: &HubSummary) {
    let path = match &scale.folded {
        Some(p) => p,
        None => return,
    };
    match std::fs::write(path, folded_stacks(obs)) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("failed to write {path}: {e}"),
    }
}

/// A figure/table banner with the scale echoed, so saved outputs are
/// self-describing.
pub fn banner(title: &str, scale: &Scale) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "=== {title} ===");
    let _ = writeln!(
        s,
        "scale: runs={} generations={} ci=±{} seed={} json={}",
        scale.runs,
        scale.generations,
        scale.ci,
        scale.seed,
        if scale.json { "on" } else { "off" }
    );
    s
}

/// Write the run report into the working directory when JSON output is
/// enabled (no-op otherwise), echoing the path written.
pub fn write_report(scale: &Scale, report: &RunReport) {
    if !scale.json {
        return;
    }
    match report.write_json(".") {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("failed to write {}: {e}", report.filename()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fake environment for the pure parsers.
    fn env<'a>(pairs: &'a [(&'a str, &'a str)]) -> impl Fn(&str) -> Option<String> + 'a {
        move |name| {
            pairs
                .iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| v.to_string())
        }
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
        assert_eq!(s.profile_us, 100);
        assert!(!s.wants_obs());
        let s = Scale::parse(&env(&[
            ("NSCC_FOLDED", " out.folded "),
            ("NSCC_PROFILE_US", "50"),
        ]))
        .unwrap();
        assert_eq!(s.folded.as_deref(), Some("out.folded"));
        assert_eq!(s.profile_us, 50);
        assert!(s.wants_obs(), "a folded profile needs an attached hub");
        let e = Scale::parse(&env(&[("NSCC_PROFILE_US", "0")])).unwrap_err();
        assert!(e.contains("NSCC_PROFILE_US"), "{e}");

        let mut obs = Hub::new().summary();
        obs.proc_names.insert(0, "island0".to_string());
        for (pid, phase, detail, samples) in [
            (0u32, "compute", "", 3u64),
            (0, "Global_Read", "best", 2),
            (1, "compute", "", 1),
            (2, "barrier", "", 0),
        ] {
            obs.profile.push(nscc_obs::ProfileRow {
                pid,
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
        let hub = make_hub(&s);
        assert!(hub.staleness_enabled());
        let e = Scale::parse(&env(&[("NSCC_STALENESS", "armed")])).unwrap_err();
        assert!(e.contains("NSCC_STALENESS"), "{e}");

        // Untraced runs keep the section null; traced runs stamp the
        // main hub's anatomy, and sweep bins can pass a merged one.
        let mut rep = RunReport::new("unit", &hub);
        stamp_staleness(&Scale::paper(), &hub, None, &mut rep);
        assert!(rep.staleness.is_none());
        stamp_staleness(&s, &hub, None, &mut rep);
        assert!(rep.staleness.is_some());
        let mut merged = nscc_obs::StalenessSummary::default();
        merged.released = 7;
        let mut rep2 = RunReport::new("unit2", &hub);
        stamp_staleness(&s, &hub, Some(merged), &mut rep2);
        assert_eq!(rep2.staleness.expect("stamped").released, 7);
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
        assert!(attach_audit(&scale, &Hub::new()).is_none());
        scale.audit = true;
        let hub = make_hub(&scale);
        let auditor = attach_audit(&scale, &hub);
        assert!(hub.tap_enabled());
        // A violating ReadDone through the hub reaches the auditor.
        hub.emit(nscc_obs::ObsEvent::ReadDone {
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
        assert_eq!(auditor.as_ref().unwrap().violation_count(), 1);
        // Per-cell hubs share the same auditor via tap_audit.
        let cell = make_hub(&scale);
        tap_audit(&auditor, &cell);
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
        assert_eq!(auditor.as_ref().unwrap().violation_count(), 2);

        let mut rep = RunReport::new("unit", &hub);
        stamp_audit(&auditor, &mut rep);
        let audit = rep.audit.expect("audit section stamped");
        assert_eq!(audit.violations, 2);
        stamp_audit(&None, &mut RunReport::new("unit2", &hub));
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
        let b = banner("Figure 2", &Scale::paper());
        assert!(b.contains("Figure 2"));
        assert!(b.contains("runs=25"));
        assert!(b.contains("1000"));
    }
}
