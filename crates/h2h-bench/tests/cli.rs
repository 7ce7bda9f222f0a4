//! Subprocess tests of the bench binaries' argument handling: `--help`
//! exits 0 with a usage line, a bad invocation exits 2 without a panic.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("bench binary runs")
}

fn assert_usage_exit(out: &Output, code: i32) {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(code), "stdout: {stdout}\nstderr: {stderr}");
    assert!(
        stdout.contains("usage:") || stderr.contains("usage:"),
        "no usage line: {stdout}{stderr}"
    );
    assert!(!stderr.contains("panicked"), "panicked: {stderr}");
}

const SEARCH: &str = env!("CARGO_BIN_EXE_bench_search");
const SERVE: &str = env!("CARGO_BIN_EXE_bench_serve");

#[test]
fn help_prints_usage_and_exits_zero() {
    for bin in [SEARCH, SERVE] {
        assert_usage_exit(&run(bin, &["--help"]), 0);
    }
}

#[test]
fn unknown_flags_exit_two() {
    for bin in [SEARCH, SERVE] {
        assert_usage_exit(&run(bin, &["--bogus"]), 2);
    }
    // The removed scoring-thread axis is an unknown flag now.
    assert_usage_exit(&run(SEARCH, &["--threads", "1,2"]), 2);
}

#[test]
fn bad_values_exit_two() {
    assert_usage_exit(&run(SEARCH, &["--strategy", "replay"]), 2);
    assert_usage_exit(&run(SEARCH, &["--reps"]), 2);
    assert_usage_exit(&run(SEARCH, &["--reps", "many"]), 2);
    assert_usage_exit(&run(SEARCH, &["--models", "NoSuchModel"]), 2);
    assert_usage_exit(&run(SERVE, &["--budget-frac", "0.1,x"]), 2);
    assert_usage_exit(&run(SERVE, &["--policy", "fifo"]), 2);
    assert_usage_exit(&run(SERVE, &["--arrivals", "sometimes"]), 2);
}
