//! The `nscc-perf` command line.
//!
//! ```text
//! nscc-perf run --workload W [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--record FILE]
//! nscc-perf suite --out FILE [--seed N] [--seconds S] [--smoke]
//! nscc-perf compare A.json B.json
//! nscc-perf probes [--seed N]
//! nscc-perf pin-test
//! ```
//!
//! `run` prints every metric by name with its unit and ends its standard
//! output with the one-line JSON result. `suite` runs every workload,
//! untraced then traced, each in its own pinned child process, and
//! collects their records into one set file. `compare` exits 0 when set B
//! is within every bound of set A, 1 on a regression or an inexact
//! deterministic value, 2 when the sets are not comparable.

use std::process::{Command, ExitCode};

use nscc_analyze::json::{parse, Json};

use crate::metrics::{probe_unit, COUNTERS, END_TO_END};
use crate::run::{run, RunArgs};
use crate::workloads::{repo_root, Size, NAMES};
use crate::{probes, sys};

/// Default workload seed.
pub const DEFAULT_SEED: u64 = 20_260_928;

/// Default seconds of timed passes (`run_seconds` in `BENCHMARK.json`).
pub const DEFAULT_SECONDS: f64 = 12.0;

const USAGE: &str = "usage: nscc-perf run --workload W [--seed N] [--seconds S] [--trace 0|1] \
[--smoke] [--record FILE]\n       nscc-perf suite --out FILE [--seed N] [--seconds S] [--smoke]\n       \
nscc-perf compare A.json B.json\n       nscc-perf probes [--seed N]\n       nscc-perf pin-test";

struct Flags {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    record: Option<String>,
    out: Option<String>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        record: None,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            f.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => f.workload = Some(value.clone()),
            "--seed" => f.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                f.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("a positive number"))?
            }
            "--trace" => {
                f.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--record" => f.record = Some(value.clone()),
            "--out" => f.out = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(f)
}

/// Entry point; `args` excludes the program name.
pub fn main(args: &[String]) -> ExitCode {
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = match cmd.as_str() {
        "run" => parse_flags(rest).and_then(cmd_run),
        "suite" => parse_flags(rest).and_then(cmd_suite),
        "probes" => parse_flags(rest).map(cmd_probes),
        "pin-test" => cmd_pin_test(),
        "compare" => match rest {
            [a, b] => return cmd_compare(a, b),
            _ => Err("compare takes exactly two set files".to_string()),
        },
        _ => Err(format!("unknown command `{cmd}`\n{USAGE}")),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("nscc-perf: {e}");
            ExitCode::from(2)
        }
    }
}

fn cmd_run(f: Flags) -> Result<ExitCode, String> {
    let args = RunArgs {
        workload: f.workload.ok_or("run needs --workload")?,
        seed: f.seed,
        seconds: f.seconds,
        trace: f.trace,
        size: if f.smoke { Size::Smoke } else { Size::Full },
    };
    let res = run(&args)?;
    print!("{}", res.table());
    if let Some(path) = f.record {
        std::fs::write(&path, res.record_json())
            .map_err(|e| format!("{path}: cannot write: {e}"))?;
    }
    println!("{}", res.result_line());
    Ok(ExitCode::SUCCESS)
}

fn cmd_probes(f: Flags) -> ExitCode {
    let pinned = sys::pin_to_one_cpu();
    println!(
        "probes · pinned cpu {} · median of {} batches",
        pinned.map_or("none".to_string(), |c| c.to_string()),
        probes::BATCHES
    );
    for p in probes::run_all(f.seed, probes::BATCHES) {
        println!(
            "  {:<34} {:>16.4} {:<5} ({:.2} sim events, {:.2} slices per call)",
            p.name,
            p.value,
            probe_unit(p.name),
            p.events_per_call,
            p.parks_per_call
        );
    }
    ExitCode::SUCCESS
}

fn cmd_pin_test() -> Result<ExitCode, String> {
    let before = sys::sim_thread_cpu();
    let pinned = sys::pin_to_one_cpu().ok_or("the host refused sched_setaffinity")?;
    // A few simulations: an unpinned thread would wander sooner or later.
    let seen: Vec<Option<u32>> = (0..8).map(|_| sys::sim_thread_cpu()).collect();
    println!(
        "pin-test: sim thread on cpu {before:?} before pinning; pinned to cpu {pinned}; \
         sim threads then ran on {seen:?}"
    );
    if seen.iter().all(|&c| c == Some(pinned)) {
        Ok(ExitCode::SUCCESS)
    } else {
        Err("a simulated-process thread escaped the pinned CPU".to_string())
    }
}

/// How the binary was built and on what, for the set file's header.
/// `run.sh` exports the build facts; a binary started by hand says so.
fn fingerprint() -> String {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or("unknown".to_string(), |s| s.trim().to_string());
    format!(
        "\"build\":{{\"mode\":\"{}\",\"opt_level\":\"{}\",\"rustc\":\"{}\"}},\
         \"host\":{{\"nproc\":{},\"kernel\":\"{}\"}}",
        env("NSCC_PERF_BUILD_MODE"),
        env("NSCC_PERF_OPT_LEVEL"),
        env("NSCC_PERF_RUSTC"),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        kernel
    )
}

fn cmd_suite(f: Flags) -> Result<ExitCode, String> {
    let out = f.out.ok_or("suite needs --out")?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let tmp = format!("{out}.part");
    let mut records = Vec::new();
    let mut failed = false;
    for workload in NAMES {
        for trace in ["0", "1"] {
            let mut child = Command::new(&exe);
            child
                .args(["run", "--workload", workload, "--trace", trace])
                .args(["--seed", &f.seed.to_string()])
                .args(["--seconds", &f.seconds.to_string()])
                .args(["--record", &tmp]);
            if f.smoke {
                child.arg("--smoke");
            }
            let status = child
                .status()
                .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
            if !status.success() {
                return Err(format!("{workload} --trace {trace} exited with {status}"));
            }
            let record =
                std::fs::read_to_string(&tmp).map_err(|e| format!("{tmp}: cannot read: {e}"))?;
            let doc = parse(&record).map_err(|e| format!("{tmp}: {e}"))?;
            failed |= doc.get("failed").and_then(Json::as_u64) != Some(0);
            records.push(record);
        }
    }
    let _ = std::fs::remove_file(&tmp);
    let set = format!(
        "{{\"schema\":1,{},\"seed\":{},\"runs\":[\n{}\n]}}\n",
        fingerprint(),
        f.seed,
        records.join(",\n")
    );
    std::fs::write(&out, set).map_err(|e| format!("{out}: cannot write: {e}"))?;
    println!("wrote {out}");
    Ok(if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: cannot read: {e}"))?;
    parse(text.trim()).map_err(|e| format!("{path}: {e}"))
}

/// The regression bound of each end-to-end metric, from `BENCHMARK.json`.
fn bounds() -> Result<Vec<(String, f64)>, String> {
    let path = repo_root()?.join("BENCHMARK.json");
    let doc = load(&path.display().to_string())?;
    let rows = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json: no end_to_end list")?;
    rows.iter()
        .map(|r| {
            let name = r.get("name").and_then(Json::as_str);
            let bound = r.get("bound").and_then(Json::as_f64);
            name.map(str::to_string)
                .zip(bound)
                .ok_or_else(|| "BENCHMARK.json: end_to_end row without name/bound".to_string())
        })
        .collect()
}

fn text(v: Option<&Json>) -> String {
    match v {
        Some(Json::Str(s)) => s.clone(),
        Some(Json::Num(n)) => n.to_string(),
        Some(Json::Bool(b)) => b.to_string(),
        _ => "missing".to_string(),
    }
}

fn cmd_compare(a_path: &str, b_path: &str) -> ExitCode {
    match compare(a_path, b_path) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("nscc-perf compare: not comparable: {e}");
            ExitCode::from(2)
        }
    }
}

/// `Ok(true)` when B is within bounds of A, `Ok(false)` on a regression,
/// `Err` when the two sets cannot be compared at all.
fn compare(a_path: &str, b_path: &str) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let bounds = bounds()?;
    for key in ["mode", "opt_level"] {
        let get = |d: &Json| text(d.get("build").and_then(|x| x.get(key)));
        if get(&a) != get(&b) {
            return Err(format!("build.{key} differs: {} vs {}", get(&a), get(&b)));
        }
    }
    let runs = |d: &Json, p: &str| -> Result<Vec<Json>, String> {
        d.get("runs")
            .and_then(Json::as_arr)
            .map(<[Json]>::to_vec)
            .ok_or(format!("{p}: no runs"))
    };
    let (ra, rb) = (runs(&a, a_path)?, runs(&b, b_path)?);
    if ra.len() != rb.len() {
        return Err(format!("{} runs vs {}", ra.len(), rb.len()));
    }
    let mut ok = true;
    println!(
        "{:<13} {:<24} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "A", "B", "diff", "bound"
    );
    for (x, y) in ra.iter().zip(&rb) {
        for key in [
            "workload",
            "trace",
            "seed",
            "size",
            "seconds",
            "ops",
            "tail_percentile",
        ] {
            if text(x.get(key)) != text(y.get(key)) {
                return Err(format!(
                    "run {}: {key} differs: {} vs {}",
                    text(x.get("workload")),
                    text(x.get(key)),
                    text(y.get(key))
                ));
            }
        }
        let name = text(x.get("workload"));
        for (r, p) in [(x, a_path), (y, b_path)] {
            if text(r.get("pinned")) != "true" {
                return Err(format!("{p}: run {name} was not pinned"));
            }
        }
        let mut exact = |metric: &str, va: String, vb: String| {
            let same = va == vb;
            ok &= same;
            if !same || !metric.contains('.') {
                println!(
                    "{name:<13} {metric:<24} {va:>14} {vb:>14} {:>9} {:>7}",
                    if same { "=" } else { "DIFFERS" },
                    "exact"
                );
            }
        };
        exact(
            "fail_share",
            text(x.get("fail_share")),
            text(y.get("fail_share")),
        );
        exact(
            "pass_digest",
            text(x.get("pass_digest")),
            text(y.get("pass_digest")),
        );
        if text(x.get("trace")) == "true" {
            exact("virt_s", text(x.get("virt_s")), text(y.get("virt_s")));
            exact(
                "improvement",
                text(x.get("improvement")),
                text(y.get("improvement")),
            );
            for (counter, _) in COUNTERS {
                let get = |r: &Json| text(r.get("per_layer").and_then(|m| m.get(counter)));
                exact(counter, get(x), get(y));
            }
            continue;
        }
        for (metric, _) in END_TO_END {
            let get = |r: &Json| {
                r.get("end_to_end")
                    .and_then(|m| m.get(metric))
                    .and_then(Json::as_f64)
                    .ok_or(format!("run {name}: no {metric}"))
            };
            let (va, vb) = (get(x)?, get(y)?);
            let bound = bounds
                .iter()
                .find(|(n, _)| n == metric)
                .map(|&(_, b)| b)
                .ok_or(format!("BENCHMARK.json has no bound for {metric}"))?;
            // Every end-to-end metric is lower-is-better.
            let diff = (vb - va) / va;
            let within = diff <= bound;
            ok &= within;
            println!(
                "{name:<13} {metric:<24} {va:>14.4} {vb:>14.4} {:>+8.1}% {:>6.0}%{}",
                diff * 100.0,
                bound * 100.0,
                if within { "" } else { "  REGRESSION" }
            );
        }
    }
    println!(
        "{}",
        if ok {
            "within bounds"
        } else {
            "OUTSIDE bounds"
        }
    );
    Ok(ok)
}
