//! The `nscc` command line, pinned: each row runs the binary from the repo
//! root and holds its exit code and an FNV-1a digest of its stdout. The
//! digests were captured from the binaries the CLI was merged from (`nscc`
//! and `nscc-hunt`, which agreed on every hunt-family row, and the
//! `table1` bench binary `nscc run table1` replaced), so a change to any
//! subcommand's output or exit code fails here.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Command, Stdio};

/// FNV-1a, 64-bit.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Run `nscc` with the whitespace-separated `args` from the repo root,
/// with an empty environment.
fn nscc(args: &str) -> (i32, Vec<u8>) {
    nscc_at(env!("CARGO_MANIFEST_DIR").as_ref(), args, &[])
}

/// [`nscc`] run in `dir`, with `vars` as the whole environment.
fn nscc_at(dir: &Path, args: &str, vars: &[(&str, &str)]) -> (i32, Vec<u8>) {
    let out = Command::new(env!("CARGO_BIN_EXE_nscc"))
        .args(args.split_whitespace())
        .current_dir(dir)
        .env_clear()
        .envs(vars.iter().copied())
        .output()
        .expect("nscc runs");
    (out.status.code().expect("exited"), out.stdout)
}

/// The digest of empty stdout: every usage error prints only to stderr.
const EMPTY: u64 = 0xcbf2_9ce4_8422_2325;

#[rustfmt::skip]
const ROWS: &[(&str, i32, u64)] = &[
    ("", 2, EMPTY),
    ("bogus", 2, EMPTY),
    ("gate --rel x baselines/BENCH_fig2.json", 2, EMPTY),
    ("trend --window 0", 2, EMPTY),
    ("top", 2, EMPTY),
    ("postmortem", 2, EMPTY),
    ("inspect --ckpt", 2, EMPTY),
    ("hunt", 2, EMPTY),
    ("shrink", 2, EMPTY),
    ("--help", 0, 0xc734_d887_8bf6_9dc2),
    ("inspect baselines/BENCH_fig2.json", 0, 0x0161_901e_b7fa_e26a),
    ("diff runs/BENCH_fig2.0001.json runs/BENCH_fig2.0002.json", 0, 0xa0bd_d60e_f768_f1ff),
    ("heat tests/fixtures/fig2_staleness.json", 0, 0x0fc5_ff6b_9eab_3cc5),
    ("why tests/fixtures/fig2_staleness.json", 0, 0x94d7_fd37_6e81_e4b0),
    ("anatomy tests/fixtures/fig2_staleness.json", 0, 0xef1b_fcea_c5bd_b517),
    ("audit runs/BENCH_fault_study.0003.json", 0, 0xebed_ed03_5565_9f72),
    ("drill baselines/BENCH_fig2.json", 0, 0x7634_f746_e629_9d3e),
    ("gate --baselines baselines baselines/BENCH_fig2.json", 0, 0x8ed3_9b8a_946b_f368),
    ("trend --check --dir runs", 0, 0x9fbe_1634_96e6_e02e),
    ("replay repros", 0, 0xbb61_cdf9_6c37_ba42),
    // How arguments are read: flags after positionals, missing values,
    // extra positionals, unknown flags, malformed and out-of-range numbers.
    ("gate baselines/BENCH_fig2.json --baselines baselines", 0, 0x8ed3_9b8a_946b_f368),
    ("gate --all --baselines baselines baselines/BENCH_fig2.json", 0, 0x8ed3_9b8a_946b_f368),
    ("why --proc", 2, EMPTY),
    ("why tests/fixtures/fig2_staleness.json extra", 2, EMPTY),
    ("why tests/fixtures/fig2_staleness.json --bogus", 2, EMPTY),
    ("top --interval 0 fig2.live", 2, EMPTY),
    ("trend --rel -1", 2, EMPTY),
    ("trend --dir runs --window 3 --rel 0.1 --abs 0.05", 0, 0xf263_ee53_6576_1b0f),
    ("diff runs/BENCH_fig2.0001.json", 2, EMPTY),
    ("audit", 2, EMPTY),
    ("inspect --ckpt baselines extra", 2, EMPTY),
    ("inspect runs/BENCH_fig2.0001.json runs/BENCH_fig2.0002.json", 0, 0xe87d_6418_fb5b_a91e),
    ("hunt --seed 7", 2, EMPTY),
    ("hunt --seed x --budget 1", 2, EMPTY),
    ("hunt --seed 7 --budget 1 extra", 2, EMPTY),
    ("replay --bogus", 2, EMPTY),
    ("replay repros/staleness-sabotage.json", 0, 0xfb88_33a9_8dff_b0c5),
    ("shrink a.json b.json", 2, EMPTY),
    // `run`: an unknown experiment, a flag the experiment does not read,
    // malformed values, and a resume with no store to resume from.
    ("run", 2, EMPTY),
    ("run bogus", 2, EMPTY),
    ("run fig2 --loss 0.1", 2, EMPTY),
    ("run fig2 --runs x", 2, EMPTY),
    ("run fault_study --flight 0", 2, EMPTY),
    ("run fault_study --loss 1.5", 2, EMPTY),
    ("run fig2 --modes sync,bogus", 2, EMPTY),
    ("run fig2 --resume", 2, EMPTY),
    ("run table1", 0, 0x5605_ec87_fe38_b5b0),
];

#[test]
fn every_subcommand_keeps_its_stdout_and_exit_code() {
    let drifted: Vec<String> = ROWS
        .iter()
        .filter_map(|&(argv, code, digest)| {
            let (got_code, stdout) = nscc(argv);
            let got = (got_code, fnv(&stdout));
            (got != (code, digest))
                .then(|| format!("nscc {argv}: exit {got_code}, stdout {:#018x}", got.1))
        })
        .collect();
    assert!(
        drifted.is_empty(),
        "drifted from the pins:\n{}",
        drifted.join("\n")
    );
}

/// Flags replaced the `NSCC_*` variables: a set one is refused before
/// anything runs, so it cannot quietly run the default scale. `nscc-perf`'s
/// `NSCC_PERF_*` stamps are not settings of a run and pass.
#[test]
fn a_set_nscc_variable_is_refused() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let nscc_env = |var| nscc_at(root, "run table1", &[(var, "5")]);
    assert_eq!(nscc_env("NSCC_RUNS"), (2, vec![]));
    let (code, stdout) = nscc_env("NSCC_PERF_ROOT");
    assert_eq!((code, fnv(&stdout)), (0, 0x5605_ec87_fe38_b5b0));
}

/// The checkpoint flags reach the sweep: a run stopped by
/// `--ckpt-exit-after` (exit 3, the hook named in the banner) and
/// finished by `--resume` writes the report an uninterrupted run writes.
#[test]
fn a_killed_sweep_resumes_to_the_uninterrupted_report() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli-resume");
    let _ = std::fs::remove_dir_all(&root);
    let sweep = "run fault_study --runs 1 --gens 12 --loss 0,0.05 --ages 0,10 --json --ckpt-dir ck";
    let report = |dir: &Path| std::fs::read(dir.join("BENCH_fault_study.json")).expect("report");
    let (whole, killed) = (root.join("whole"), root.join("killed"));
    for dir in [&whole, &killed] {
        std::fs::create_dir_all(dir).expect("a writable temp directory");
    }
    assert_eq!(nscc_at(&whole, sweep, &[]).0, 0);
    let (code, stdout) = nscc_at(&killed, &format!("{sweep} --ckpt-exit-after 2"), &[]);
    let stdout = String::from_utf8(stdout).expect("utf-8 stdout");
    assert_eq!(code, 3, "{stdout}");
    assert!(
        stdout.contains("armed test hooks: --ckpt-exit-after 2\n"),
        "{stdout}"
    );
    assert!(!killed.join("BENCH_fault_study.json").exists());
    assert_eq!(nscc_at(&killed, &format!("{sweep} --resume"), &[]).0, 0);
    assert_eq!(report(&killed), report(&whole));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_sabotaged_hunt_writes_the_pinned_repro() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli-hunt");
    let _ = std::fs::remove_dir_all(&out);
    let dir = out.to_str().expect("utf-8 temp path");
    let args = "hunt --seed 7 --budget 4 --workers 1 --sabotage --shrink-cap 1 --out";
    let (code, stdout) = nscc(&format!("{args} {dir}"));
    // The `wrote <path>` line names the output directory; pin it as `<out>`.
    let stdout = String::from_utf8(stdout)
        .expect("utf-8 stdout")
        .replace(dir, "<out>");
    assert_eq!(
        (code, fnv(stdout.as_bytes())),
        (0, 0x9827_671d_aa24_d32e),
        "{stdout}"
    );
    let mut written: Vec<(String, u64)> = std::fs::read_dir(&out)
        .expect("--out exists")
        .map(|e| {
            let path = e.expect("entry").path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, fnv(&std::fs::read(&path).expect("repro reads")))
        })
        .collect();
    written.sort();
    assert_eq!(
        written,
        [(
            "trial0-audit-conservation.json".to_string(),
            0xb01e_9aaa_60f8_ed31
        )]
    );
}

/// A reader that stops early ends the run quietly, the way `yes | head`
/// ends `yes`: no panic on the closed pipe and no exit 101.
#[test]
fn a_closed_stdout_ends_the_run_quietly() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_nscc"))
        .args(["run", "table2", "--runs", "1", "--ci", "0.2"])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .env_clear()
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("nscc runs");
    let mut first = String::new();
    let stdout = child.stdout.take().expect("piped stdout");
    BufReader::new(stdout)
        .read_line(&mut first)
        .expect("one line");
    assert!(first.starts_with("=== Table 2"), "{first}");
    // The reader is dropped: the rows still to come meet a closed pipe.
    let out = child.wait_with_output().expect("nscc ends");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_ne!(out.status.code(), Some(101), "{stderr}");
}
