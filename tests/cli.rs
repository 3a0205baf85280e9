//! Command-line flag validation: the `ganopc` binary rejects flags its
//! command does not read with the usage exit code (2), instead of running
//! with the default a misspelled flag was meant to override. Invalid state
//! files fail with a typed exit code, never a panic (101).

use ganopc_core::{Discriminator, GanTrainer, Generator, TrainConfig};
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

#[test]
fn resume_from_non_finite_learning_rate_is_a_typed_error() {
    let dir = std::env::temp_dir().join(format!("ganopc-cli-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let state = dir.join("bad.ckpt");
    let mut trainer = GanTrainer::new(
        Generator::new(32, 4, 5),
        Discriminator::new(32, 4, 6),
        TrainConfig::fast(),
    );
    let mut ck = trainer.to_checkpoint();
    ck.put_f64("config/lr_generator", f64::NAN);
    ck.save(&state).unwrap();
    let out = dir.join("m.ckpt");
    let code = ganopc(&[
        "train",
        "--net",
        "32",
        "--count",
        "2",
        "--resume",
        state.to_str().unwrap(),
        "--out",
        out.to_str().unwrap(),
    ]);
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(code, 1, "a NaN learning rate must exit 1 (config error), not panic");
}
