//! The `nscc` command line, pinned: each row runs the binary from the repo
//! root and holds its exit code and an FNV-1a digest of its stdout. The
//! digests were captured from the two binaries the CLI was merged from
//! (`nscc` and `nscc-hunt`, which agreed on every hunt-family row), so a
//! change to any subcommand's output or exit code fails here.

use std::path::Path;
use std::process::Command;

/// FNV-1a, 64-bit.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Run `nscc` with the whitespace-separated `args` from the repo root,
/// with an empty environment.
fn nscc(args: &str) -> (i32, Vec<u8>) {
    let out = Command::new(env!("CARGO_BIN_EXE_nscc"))
        .args(args.split_whitespace())
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .env_clear()
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
    ("--help", 0, 0xd97b_878e_e62f_2605),
    ("inspect baselines/BENCH_fig2.json", 0, 0x0161_901e_b7fa_e26a),
    ("diff runs/BENCH_fig2.0001.json runs/BENCH_fig2.0002.json", 0, 0xa0bd_d60e_f768_f1ff),
    ("heat tests/fixtures/fig2_staleness.json", 0, 0x0fc5_ff6b_9eab_3cc5),
    ("why tests/fixtures/fig2_staleness.json", 0, 0x94d7_fd37_6e81_e4b0),
    ("anatomy tests/fixtures/fig2_staleness.json", 0, 0xef1b_fcea_c5bd_b517),
    ("audit runs/BENCH_fault_study.0003.json", 0, 0xbb89_d964_0df8_617a),
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
