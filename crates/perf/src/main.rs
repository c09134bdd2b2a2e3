//! `nscc-perf` — see `crates/perf/README.md`.

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    nscc_perf::cli::main(&args)
}
