//! `nscc-hunt` — fuzz, shrink and replay robustness scenarios.
//!
//! ```text
//! nscc-hunt hunt --seed S --budget N [--workers W] [--out DIR]
//!                [--sabotage] [--shrink-cap K]
//! nscc-hunt shrink <repro.json> [--out PATH]
//! nscc-hunt replay <file-or-dir>...
//! ```
//!
//! `hunt` runs `N` generated trials (same seed + budget → identical
//! findings, regardless of worker count), then delta-debugs up to `K`
//! findings (default 5) to locally minimal repros; with `--out DIR`
//! each shrunk repro is written as a portable JSON document. `shrink`
//! re-minimises an existing repro in place (or to `--out`). `replay`
//! re-runs committed repros and fails (exit 1) on any divergence —
//! the corpus-forever CI check. Malformed arguments or documents exit 2.

use std::path::{Path, PathBuf};

use nscc_hunt::{hunt, shrink, Envelope, HuntConfig, Repro};

const USAGE: &str = "usage:
  nscc-hunt hunt --seed S --budget N [--workers W] [--out DIR] [--sabotage] [--shrink-cap K]
  nscc-hunt shrink <repro.json> [--out PATH]
  nscc-hunt replay <file-or-dir>...";

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn parse_num<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
    let raw = value.unwrap_or_else(|| die(&format!("{flag} needs a value")));
    raw.parse()
        .unwrap_or_else(|_| die(&format!("{flag} {raw:?} is malformed: expected an integer")))
}

fn main() {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("hunt") => cmd_hunt(args),
        Some("shrink") => cmd_shrink(args),
        Some("replay") => cmd_replay(args),
        Some("--help") | Some("-h") => println!("{USAGE}"),
        Some(other) => die(&format!("unknown subcommand {other:?}")),
        None => die("missing subcommand"),
    }
}

fn cmd_hunt(mut args: impl Iterator<Item = String>) {
    let mut seed = None;
    let mut budget = None;
    let mut workers = 0usize;
    let mut out_dir: Option<PathBuf> = None;
    let mut envelope = Envelope::default();
    let mut shrink_cap = 5usize;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => seed = Some(parse_num("--seed", args.next())),
            "--budget" => budget = Some(parse_num("--budget", args.next())),
            "--workers" => workers = parse_num("--workers", args.next()),
            "--out" => {
                out_dir = Some(PathBuf::from(
                    args.next().unwrap_or_else(|| die("--out needs a value")),
                ))
            }
            "--sabotage" => envelope.sabotage_prob = 1.0,
            "--shrink-cap" => shrink_cap = parse_num("--shrink-cap", args.next()),
            other => die(&format!("unknown hunt option {other:?}")),
        }
    }
    let cfg = HuntConfig {
        master_seed: seed.unwrap_or_else(|| die("hunt requires --seed")),
        budget: budget.unwrap_or_else(|| die("hunt requires --budget")),
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
        println!(
            "trial {}: {} — {}",
            f.trial,
            f.verdict.primary().unwrap_or("?"),
            f.verdict
                .findings
                .first()
                .map(|x| x.detail.as_str())
                .unwrap_or("")
        );
    }
    if let Some(dir) = &out_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            die(&format!("cannot create --out {}: {e}", dir.display()));
        }
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
            min.plan.as_ref().map_or(0, |p| p.events())
        );
        if let Some(dir) = &out_dir {
            let slug: String = kind
                .chars()
                .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
                .collect();
            let path = dir.join(format!("trial{}-{slug}.json", f.trial));
            let repro = Repro::from_finding(min, &verdict, &note);
            if let Err(e) = std::fs::write(&path, repro.to_json()) {
                die(&format!("cannot write {}: {e}", path.display()));
            }
            println!("  wrote {}", path.display());
        }
    }
    if findings.len() > shrink_cap {
        println!(
            "note: shrank the first {shrink_cap} of {} finding(s) (raise --shrink-cap to widen)",
            findings.len()
        );
    }
}

fn cmd_shrink(mut args: impl Iterator<Item = String>) {
    let mut input: Option<PathBuf> = None;
    let mut out: Option<PathBuf> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => {
                out = Some(PathBuf::from(
                    args.next().unwrap_or_else(|| die("--out needs a value")),
                ))
            }
            other if input.is_none() && !other.starts_with('-') => {
                input = Some(PathBuf::from(other))
            }
            other => die(&format!("unknown shrink option {other:?}")),
        }
    }
    let input = input.unwrap_or_else(|| die("shrink requires a repro file"));
    let repro = Repro::load(&input).unwrap_or_else(|e| die(&e));
    let (min, verdict) = shrink(&repro.scenario, |step| println!("  {step}"));
    if verdict.is_clean() {
        die(&format!(
            "{}: scenario no longer fails; nothing to shrink (use replay to check expectations)",
            input.display()
        ));
    }
    let shrunk = Repro::from_finding(min, &verdict, &repro.note);
    let target = out.unwrap_or(input);
    if let Err(e) = std::fs::write(&target, shrunk.to_json()) {
        die(&format!("cannot write {}: {e}", target.display()));
    }
    println!(
        "wrote {} ({} finding(s), digest {})",
        target.display(),
        shrunk.expect.findings.len(),
        shrunk.expect.digest
    );
}

fn cmd_replay(args: impl Iterator<Item = String>) {
    let mut paths: Vec<PathBuf> = Vec::new();
    for arg in args {
        if arg.starts_with('-') {
            die(&format!("unknown replay option {arg:?}"));
        }
        let p = Path::new(&arg);
        if p.is_dir() {
            let mut entries: Vec<PathBuf> = match std::fs::read_dir(p) {
                Ok(rd) => rd
                    .filter_map(|e| e.ok())
                    .map(|e| e.path())
                    .filter(|p| p.extension().is_some_and(|x| x == "json"))
                    .collect(),
                Err(e) => die(&format!("cannot read directory {arg}: {e}")),
            };
            entries.sort();
            if entries.is_empty() {
                eprintln!("warning: no .json repros under {arg}");
            }
            paths.extend(entries);
        } else {
            paths.push(p.to_path_buf());
        }
    }
    if paths.is_empty() {
        die("replay requires at least one repro file or directory");
    }
    let mut failures = 0usize;
    for path in &paths {
        let repro = Repro::load(path).unwrap_or_else(|e| die(&e));
        match repro.replay() {
            Ok(confirmation) => println!("PASS {}: {confirmation}", path.display()),
            Err(e) => {
                failures += 1;
                println!("FAIL {}: {e}", path.display());
            }
        }
    }
    println!("replayed {} repro(s), {} failure(s)", paths.len(), failures);
    if failures > 0 {
        std::process::exit(1);
    }
}
