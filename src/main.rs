//! `nscc` — the one command-line front door: the paper's experiments,
//! run-report analysis, the perf regression gate, and the robustness
//! hunt.
//!
//! `run` runs one of `nscc-bench`'s experiments in-process, its settings
//! given as flags (the flag table is `nscc-bench`'s crate doc). The
//! report subcommands render through `nscc-analyze`; `hunt`,
//! `shrink` and `replay` run `nscc-hunt` in-process. `hunt` runs `N`
//! generated trials (same seed + budget → identical findings, regardless
//! of worker count), then delta-debugs up to `K` findings (default 5) to
//! locally minimal repros, each written to `--out DIR` as a portable
//! JSON document. `shrink` re-minimises an existing repro in place (or
//! to `--out`). `replay` re-runs committed repros and fails on any
//! divergence — the corpus-forever CI check.
//!
//! Every subcommand reads its arguments through one reader (`Args`):
//! flags and positionals may interleave, and an unknown flag, a missing
//! value or a malformed number prints `nscc <cmd>: <msg>` and the usage
//! text, then exits 2.
//!
//! Exit codes: 0 success/pass, 1 regression/violation/divergence or a
//! failed run, 2 usage or config error, 3 a sweep stopped by
//! `--ckpt-exit-after`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;

use nscc_analyze::{
    anatomy, audit, diff, drill, follow, gate_all, heat, inspect, inspect_ckpt_dir, postmortem,
    top_file, trend_dir, trend_files, update_baselines, why, GateConfig, Report, TrendConfig,
};
use nscc_bench::{check_names, parsed, settings, Experiment, Flags, EXPERIMENTS};
use nscc_hunt::{hunt, shrink, Envelope, HuntConfig, Repro};

const USAGE: &str = "\
nscc — NSCC experiments and run analysis

usage:
  nscc run <EXPERIMENT> [FLAG...]
  nscc inspect <FILE...>
  nscc inspect --ckpt <DIR>
  nscc diff <OLD> <NEW>
  nscc heat <REPORT...>
  nscc why <REPORT> [--proc P] [--locn L]
  nscc gate [--baselines DIR] [--rel R] [--abs A] [--all] [--update-baselines] <FRESH...>
  nscc audit <REPORT...>
  nscc anatomy <REPORT...>
  nscc drill <REPORT...>
  nscc postmortem <FLIGHT>
  nscc top [--once] [--interval MS] <FEED>
  nscc trend [--dir DIR] [--window N] [--rel R] [--abs A] [--check] [POINT...]
  nscc hunt --seed S --budget N [--workers W] [--out DIR] [--sabotage] [--shrink-cap K]
  nscc shrink <repro.json> [--out PATH]
  nscc replay <file-or-dir>...

EXPERIMENT is table1, table2, fig2, fig3, fig4, fault_study, warp_study or
drill. FLAG is one of --json --trace --snap-ms MS --folded PATH --live
PATH|FD --wall --audit --flight N --staleness --runs N --gens N --ci X
--seed S --mailbox-warn N --modes LIST --all-functions --loss LIST --ages
LIST --fault-plan PATH --inject-stale N --ckpt-dir DIR --resume
--ckpt-exit-after N; an experiment takes only the flags it reads (the
table is in `cargo doc -p nscc-bench`). The other subcommands read what a
run writes: BENCH_*.json reports (--json), TRACE_*.json event dumps
(--trace), FLIGHT_*.json flight dumps (--flight), checkpoint stores
(--ckpt-dir) and live feeds (--live); trend points are numbered report
copies (BENCH_<name>.<seq>.json, e.g. under runs/).
Exit codes: 0 pass, 1 regression/violation/failed run, 2 usage/config
error, 3 --ckpt-exit-after reached.
";

#[cfg(unix)]
extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
}

fn main() -> ExitCode {
    // A reader that stops early (`nscc … | head`) ends the process the way
    // it ends `yes`, by SIGPIPE's default action, instead of a panic on
    // the next print. SIGPIPE is 13 and SIG_DFL is 0 on every unix.
    #[cfg(unix)]
    unsafe {
        signal(13, 0);
    }
    let mut argv = std::env::args().skip(1);
    let Some(cmd) = argv.next() else {
        eprint!("{USAGE}");
        return ExitCode::from(2);
    };
    let a = Args {
        cmd: cmd.clone(),
        rest: argv.collect(),
    };
    ExitCode::from(match cmd.as_str() {
        "run" => cmd_run(a),
        "inspect" => cmd_inspect(a),
        "diff" => cmd_diff(a),
        "heat" => each_report(a, false, |r| (heat(r), 0)),
        "why" => cmd_why(a),
        "gate" => cmd_gate(a),
        "audit" => each_report(a, false, audit),
        "anatomy" => each_report(a, false, anatomy),
        "drill" => each_report(a, false, drill),
        "postmortem" => cmd_postmortem(a),
        "top" => cmd_top(a),
        "trend" => cmd_trend(a),
        "hunt" => cmd_hunt(a),
        "shrink" => cmd_shrink(a),
        "replay" => cmd_replay(a),
        "-h" | "--help" | "help" => {
            print!("{USAGE}");
            0
        }
        other => {
            eprintln!("nscc: unknown subcommand `{other}`\n");
            eprint!("{USAGE}");
            2
        }
    })
}

/// One subcommand's arguments. Flags are taken by name, in any position;
/// what is left once they are taken are the positionals. Each command
/// takes its valued flags before its bare ones, so `--out --all` reads
/// `--all` as the value, as a left-to-right reading would.
struct Args {
    cmd: String,
    rest: Vec<String>,
}

impl Args {
    /// The one usage error: `nscc <cmd>: <msg>`, the usage text, exit 2.
    fn fail(&self, msg: impl std::fmt::Display) -> ! {
        eprintln!("nscc {}: {msg}\n", self.cmd);
        eprint!("{USAGE}");
        std::process::exit(2)
    }

    /// `name`'s value parsed as a `T` that `ok` accepts; anything else
    /// fails naming the `expected` format.
    fn num<T: FromStr>(&mut self, name: &str, ok: fn(&T) -> bool, expected: &str) -> Option<T> {
        parsed(self, name, ok, expected).unwrap_or_else(|e| self.fail(e))
    }

    /// What is left once every flag is taken; a leftover flag is unknown.
    fn positionals(&mut self) -> Vec<String> {
        if let Some(flag) = self.rest.iter().find(|a| a.starts_with('-')) {
            self.fail(format_args!("unknown flag `{flag}`"));
        }
        std::mem::take(&mut self.rest)
    }

    /// Exactly one positional, or fail naming what was `wanted`.
    fn one(&mut self, wanted: &str) -> String {
        match <[String; 1]>::try_from(self.positionals()) {
            Ok([p]) => p,
            Err(_) => self.fail(format_args!("expected exactly one {wanted}")),
        }
    }
}

impl Flags for Args {
    /// Whether the bare flag `name` was given.
    fn flag(&mut self, name: &str) -> bool {
        let before = self.rest.len();
        self.rest.retain(|a| a != name);
        self.rest.len() < before
    }

    /// The value following `name` (the last one if it repeats).
    fn value(&mut self, name: &str) -> Option<String> {
        let mut last = None;
        while let Some(i) = self.rest.iter().position(|a| a == name) {
            if i + 1 == self.rest.len() {
                self.fail(format_args!("{name} needs a value"));
            }
            last = self.rest.drain(i..i + 2).nth(1);
        }
        last
    }
}

/// `nscc run <EXPERIMENT> [FLAG...]`: read the settings from the flags
/// and run the experiment. A flag it does not read is a usage error.
fn cmd_run(mut a: Args) -> u8 {
    let vars = std::env::vars_os().map(|(k, v)| {
        let s = |o: std::ffi::OsString| o.to_string_lossy().into_owned();
        (s(k), s(v))
    });
    if let Err(e) = check_names(vars) {
        die("run", e);
    }
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    let name = match a.rest.first() {
        Some(n) if !n.starts_with('-') => a.rest.remove(0),
        _ => a.fail(format_args!("expected an experiment: {}", names.join(" "))),
    };
    let exp = Experiment::find(&name).unwrap_or_else(|| {
        a.fail(format_args!(
            "unknown experiment `{name}`: expected one of {}",
            names.join(" ")
        ))
    });
    let reads: Vec<&str> = exp.reads().collect();
    let unread = |t: &&String| t.starts_with("--") && !reads.contains(&t.as_str());
    if let Some(flag) = a.rest.iter().find(unread) {
        a.fail(format_args!(
            "{name} does not read `{flag}`: it reads {}",
            reads.join(" ")
        ));
    }
    let (scale, resume) = settings(&mut a).unwrap_or_else(|e| a.fail(e));
    if let Some(extra) = a.positionals().first() {
        a.fail(format_args!("unexpected argument `{extra}`"));
    }
    exp.run(scale, resume)
}

/// A runtime error after the arguments were read: one line, exit 2.
fn die(cmd: &str, msg: impl std::fmt::Display) -> ! {
    eprintln!("nscc {cmd}: {msg}");
    std::process::exit(2)
}

/// Load a report or dump. The lenient loader (for the read-only `inspect`
/// and `diff`) still loads a report stamped by a newer schema, with a
/// one-line note naming the sections this nscc cannot render; every other
/// command keeps the strict loader.
fn load(path: &str, lenient: bool) -> Report {
    let loaded = if lenient {
        Report::load_lenient(path)
    } else {
        Report::load(path)
    };
    let rep = loaded.unwrap_or_else(|e| {
        eprintln!("nscc: {e}");
        std::process::exit(2)
    });
    let unknown = rep.unknown_sections();
    if lenient && !unknown.is_empty() {
        eprintln!(
            "nscc: note: {}: schema v{} is newer than this analyzer's v{}; \
             skipping unrecognized section(s): {}",
            path,
            rep.schema_version(),
            nscc_analyze::SCHEMA_VERSION,
            unknown.join(", ")
        );
    }
    rep
}

/// The per-report commands: load each file, a blank line between files,
/// print the rendering, and add up what it counted (violations, leaks,
/// failed drill checks). Exit 1 when anything was counted.
fn each_report(mut a: Args, lenient: bool, render: impl Fn(&Report) -> (String, u64)) -> u8 {
    let files = a.positionals();
    if files.is_empty() {
        a.fail("no reports given");
    }
    let mut counted = 0;
    for (i, path) in files.iter().enumerate() {
        let rep = load(path, lenient);
        if i > 0 {
            println!();
        }
        let (text, n) = render(&rep);
        print!("{text}");
        counted += n;
    }
    u8::from(counted > 0)
}

/// Print `Ok` text and exit 0, or report the error and exit 2.
fn print_or_die(cmd: &str, result: Result<String, String>) -> u8 {
    match result {
        Ok(text) => print!("{text}"),
        Err(e) => die(cmd, e),
    }
    0
}

fn cmd_inspect(mut a: Args) -> u8 {
    if let Some(dir) = a.value("--ckpt") {
        if !a.positionals().is_empty() {
            a.fail("--ckpt needs exactly one directory");
        }
        return print_or_die("inspect", inspect_ckpt_dir(Path::new(&dir)));
    }
    each_report(a, true, |r| (inspect(r), 0))
}

fn cmd_diff(mut a: Args) -> u8 {
    let [old, new] = <[String; 2]>::try_from(a.positionals())
        .unwrap_or_else(|_| a.fail("expected exactly <OLD> <NEW>"));
    print!("{}", diff(&load(&old, true), &load(&new, true)));
    0
}

fn cmd_why(mut a: Args) -> u8 {
    let proc_sel = a.value("--proc");
    let loc_sel = a.value("--locn");
    let rep = load(&a.one("report"), false);
    print_or_die("why", why(&rep, proc_sel.as_deref(), loc_sel.as_deref()))
}

/// `--rel R` / `--abs A`, the tolerances `gate` and `trend` share.
fn tolerances(a: &mut Args, rel: &mut f64, abs: &mut f64) {
    for (name, slot) in [("--rel", rel), ("--abs", abs)] {
        if let Some(v) = a.num(name, |v: &f64| *v >= 0.0, "a non-negative number") {
            *slot = v;
        }
    }
}

fn cmd_gate(mut a: Args) -> u8 {
    let mut cfg = GateConfig::default();
    let baselines = PathBuf::from(a.value("--baselines").as_deref().unwrap_or("baselines"));
    tolerances(&mut a, &mut cfg.rel, &mut cfg.abs);
    cfg.all = a.flag("--all");
    let update = a.flag("--update-baselines");
    let fresh: Vec<PathBuf> = a.positionals().into_iter().map(PathBuf::from).collect();
    if fresh.is_empty() {
        a.fail("no fresh reports given");
    }
    if update {
        return print_or_die("gate", update_baselines(&baselines, &fresh));
    }
    let (text, outcome) = gate_all(&baselines, &fresh, &cfg);
    print!("{text}");
    outcome.exit_code() as u8
}

fn cmd_postmortem(mut a: Args) -> u8 {
    let rep = load(&a.one("FLIGHT_*.json dump"), false);
    print_or_die("postmortem", postmortem(&rep))
}

fn cmd_top(mut a: Args) -> u8 {
    let interval = a.num(
        "--interval",
        |ms: &u64| *ms > 0,
        "a positive millisecond count",
    );
    let once = a.flag("--once");
    let feed = PathBuf::from(a.one("feed file (run an experiment with --live <path>)"));
    let result = if once {
        top_file(&feed).map(|frame| print!("{frame}"))
    } else {
        follow(&feed, interval.unwrap_or(500))
    };
    result.map_or_else(|e| die("top", e), |()| 0)
}

fn cmd_trend(mut a: Args) -> u8 {
    let mut cfg = TrendConfig::default();
    let dir = PathBuf::from(a.value("--dir").as_deref().unwrap_or("runs"));
    if let Some(n) = a.num("--window", |n: &usize| *n > 0, "a positive integer") {
        cfg.window = n;
    }
    tolerances(&mut a, &mut cfg.rel, &mut cfg.abs);
    let check = a.flag("--check");
    let points: Vec<PathBuf> = a.positionals().into_iter().map(PathBuf::from).collect();
    let result = if points.is_empty() {
        trend_dir(&dir, &cfg)
    } else {
        trend_files(&points, &cfg)
    };
    let (text, regressed) = result.unwrap_or_else(|e| die("trend", e));
    print!("{text}");
    if regressed && check {
        2
    } else {
        0
    }
}

fn cmd_hunt(mut a: Args) -> u8 {
    let seed = a.num("--seed", |_| true, "an integer");
    let budget = a.num("--budget", |_| true, "an integer");
    let workers = a.num("--workers", |_| true, "an integer").unwrap_or(0);
    let shrink_cap = a.num("--shrink-cap", |_| true, "an integer").unwrap_or(5);
    let out_dir = a.value("--out").map(PathBuf::from);
    let mut envelope = Envelope::default();
    if a.flag("--sabotage") {
        envelope.sabotage_prob = 1.0;
    }
    if let Some(extra) = a.positionals().first() {
        a.fail(format_args!("unexpected argument `{extra}`"));
    }
    let cfg = HuntConfig {
        master_seed: seed.unwrap_or_else(|| a.fail("--seed is required")),
        budget: budget.unwrap_or_else(|| a.fail("--budget is required")),
        workers,
        envelope,
    };
    println!(
        "hunt: seed={} budget={} workers={}",
        cfg.master_seed,
        cfg.budget,
        cfg.effective_workers()
    );
    let findings = hunt(&cfg, &|line| eprintln!("  {line}"));
    println!("{} finding(s) in {} trial(s)", findings.len(), cfg.budget);
    for f in &findings {
        let first = f.verdict.findings.first();
        println!(
            "trial {}: {} — {}",
            f.trial,
            f.verdict.primary().unwrap_or("?"),
            first.map_or("", |x| x.detail.as_str())
        );
    }
    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir)
            .unwrap_or_else(|e| die("hunt", format_args!("cannot create {}: {e}", dir.display())));
    }
    for f in findings.iter().take(shrink_cap) {
        let note = format!(
            "hunted: seed={} trial={} ({} raw finding(s))",
            cfg.master_seed,
            f.trial,
            f.verdict.findings.len()
        );
        println!("shrinking trial {}:", f.trial);
        let (min, verdict) = shrink(&f.spec, |step| println!("  {step}"));
        let kind = verdict.primary().unwrap_or("clean").to_string();
        println!(
            "  minimal: {} plan event(s), primary {kind}",
            min.plan.as_ref().map_or(0, |p| p.removals().len())
        );
        if let Some(dir) = &out_dir {
            let slug: String = kind
                .chars()
                .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
                .collect();
            let path = dir.join(format!("trial{}-{slug}.json", f.trial));
            write("hunt", &path, &Repro::from_finding(min, &verdict, &note));
            println!("  wrote {}", path.display());
        }
    }
    if findings.len() > shrink_cap {
        println!(
            "note: shrank the first {shrink_cap} of {} finding(s) (raise --shrink-cap to widen)",
            findings.len()
        );
    }
    0
}

/// Write `repro` to `path`, or exit 2 naming the path.
fn write(cmd: &str, path: &Path, repro: &Repro) {
    std::fs::write(path, repro.to_json())
        .unwrap_or_else(|e| die(cmd, format_args!("cannot write {}: {e}", path.display())));
}

fn cmd_shrink(mut a: Args) -> u8 {
    let out = a.value("--out").map(PathBuf::from);
    let input = PathBuf::from(a.one("repro file"));
    let repro = Repro::load(&input).unwrap_or_else(|e| die("shrink", e));
    let (min, verdict) = shrink(&repro.scenario, |step| println!("  {step}"));
    if verdict.is_clean() {
        die(
            "shrink",
            format_args!(
                "{}: scenario no longer fails; nothing to shrink (use replay to check expectations)",
                input.display()
            ),
        );
    }
    let shrunk = Repro::from_finding(min, &verdict, &repro.note);
    let target = out.unwrap_or(input);
    write("shrink", &target, &shrunk);
    println!(
        "wrote {} ({} finding(s), digest {})",
        target.display(),
        shrunk.expect.findings.len(),
        shrunk.expect.digest
    );
    0
}

fn cmd_replay(mut a: Args) -> u8 {
    let mut paths: Vec<PathBuf> = Vec::new();
    for arg in a.positionals() {
        let p = PathBuf::from(&arg);
        if !p.is_dir() {
            paths.push(p);
            continue;
        }
        let rd = std::fs::read_dir(&p)
            .unwrap_or_else(|e| die("replay", format_args!("cannot read directory {arg}: {e}")));
        let mut entries: Vec<PathBuf> = rd
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        entries.sort();
        if entries.is_empty() {
            eprintln!("nscc replay: warning: no .json repros under {arg}");
        }
        paths.extend(entries);
    }
    if paths.is_empty() {
        a.fail("no repro file or directory given");
    }
    let mut failures = 0usize;
    for path in &paths {
        let repro = Repro::load(path).unwrap_or_else(|e| die("replay", e));
        match repro.replay() {
            Ok(confirmation) => println!("PASS {}: {confirmation}", path.display()),
            Err(e) => {
                failures += 1;
                println!("FAIL {}: {e}", path.display());
            }
        }
    }
    println!("replayed {} repro(s), {} failure(s)", paths.len(), failures);
    (failures > 0).into()
}

#[cfg(test)]
mod tests {
    use super::Args;
    use nscc_bench::{settings, Flags, LiveTarget};
    use nscc_dsm::Coherence;

    fn args(line: &str) -> Args {
        Args {
            cmd: "test".into(),
            rest: line.split_whitespace().map(String::from).collect(),
        }
    }

    #[test]
    fn flags_are_taken_in_any_position_and_the_last_value_wins() {
        let mut a = args("a.json --rel 0.1 --all b.json --rel 0.2 --out --all");
        assert_eq!(a.value("--out").as_deref(), Some("--all"));
        assert_eq!(a.num("--rel", |v: &f64| *v >= 0.0, "x"), Some(0.2));
        assert!(a.flag("--all"));
        assert!(!a.flag("--check"));
        assert_eq!(a.value("--dir"), None);
        assert_eq!(a.positionals(), ["a.json", "b.json"]);
    }

    #[test]
    fn run_flags_fill_the_settings_and_the_rest_keep_their_defaults() {
        let line = "--runs 7 --json --loss 0.01,0.05 --ages 0,10 --mailbox-warn 64 \
                    --flight 256 --live 3 --modes age=0,age=20 --ckpt-dir ck --ckpt-exit-after 2";
        let mut a = args(line);
        let (s, resume) = settings(&mut a).expect("well-formed flags");
        assert!(a.positionals().is_empty());
        assert_eq!((s.runs, s.generations, s.seed, s.ci), (7, 120, 42, 0.02));
        assert!(s.json && !s.trace && !s.audit && !s.all_functions);
        assert_eq!((s.losses, s.ages), (vec![0.01, 0.05], vec![0, 10]));
        assert_eq!((s.mailbox_warn, s.flight), (Some(64), Some(256)));
        assert_eq!(s.live, Some(LiveTarget::Fd(3)));
        let ages = [0, 20].map(|age| Coherence::PartialAsync { age });
        assert_eq!(s.modes, ages);
        assert_eq!(
            (resume.dir.as_deref(), resume.exit_after),
            (Some("ck"), Some(2))
        );
        assert!(!resume.resume);
        let (s, resume) = settings(&mut args("--resume --ckpt-dir ck --all-functions"))
            .expect("well-formed flags");
        assert!(resume.resume && s.all_functions && !s.json);
    }
}
