//! Command-line flag validation: the `ganopc` binary rejects flags its
//! command does not read with the usage exit code (2), instead of running
//! with the default a misspelled flag was meant to override.

use std::process::Command;

/// Runs `ganopc` with `args` and returns its exit code.
fn ganopc(args: &[&str]) -> i32 {
    let out = Command::new(env!("CARGO_BIN_EXE_ganopc")).args(args).output().unwrap();
    out.status.code().expect("ganopc was killed by a signal")
}

#[test]
fn misspelled_flag_is_a_usage_error() {
    assert_eq!(ganopc(&["synthesize", "--sede", "3"]), 2);
    assert_eq!(ganopc(&["suite", "--bogus", "1"]), 2);
    // A flag of another command is just as unknown here.
    assert_eq!(ganopc(&["evaluate", "--iters", "3"]), 2);
}

#[test]
fn known_and_global_flags_are_accepted() {
    assert_eq!(ganopc(&["synthesize", "--seed", "3"]), 0);
    let metrics = std::env::temp_dir().join(format!("ganopc-cli-{}.json", std::process::id()));
    assert_eq!(ganopc(&["suite", "--metrics-json", metrics.to_str().unwrap()]), 0);
    std::fs::remove_file(&metrics).unwrap();
}
