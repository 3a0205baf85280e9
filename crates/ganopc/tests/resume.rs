//! Crash-safe resume: a run interrupted after `k` steps, checkpointed to
//! disk, and continued in a fresh trainer must be *bit-identical* to an
//! uninterrupted run — same per-step statistics, same final weights, same
//! optimizer state. Corrupt checkpoint files must fail with typed errors.

use ganopc_core::pretrain::pretrain_generator;
use ganopc_core::{
    Discriminator, GanOpcError, GanTrainer, Generator, OpcDataset, PretrainConfig, Pretrainer,
    TrainConfig,
};
use ganopc_ilt::IltConfig;
use ganopc_litho::{LithoModel, OpticalConfig};
use ganopc_nn::checkpoint::Checkpoint;
use std::path::PathBuf;

fn dataset() -> OpcDataset {
    OpcDataset::synthesize(32, 3, IltConfig::fast(), 42).unwrap()
}

fn litho_model() -> LithoModel {
    let mut cfg = OpticalConfig::default_32nm(2048.0 / 32.0);
    cfg.pupil_grid = 11;
    cfg.num_kernels = 6;
    LithoModel::new(cfg, 32, 32).unwrap()
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("ganopc-resume-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn fresh_trainer(config: TrainConfig) -> GanTrainer {
    GanTrainer::new(Generator::new(32, 4, 5), Discriminator::new(32, 4, 6), config)
}

#[test]
fn gan_training_resumes_bit_identically() {
    let ds = dataset();
    let mut config = TrainConfig::fast();
    config.iterations = 6;
    config.momentum = 0.5; // make optimizer state actually matter

    // Reference: N straight steps.
    let mut straight = fresh_trainer(config.clone());
    let straight_stats = straight.train(&ds);
    assert_eq!(straight_stats.len(), 6);

    // Interrupted: k steps, checkpoint to disk, fresh trainer, N − k steps.
    let path = temp_path("gan-trainer.ckpt");
    let mut first = fresh_trainer(config);
    let mut stats = first.train_for(&ds, 4);
    first.save_checkpoint(&path).unwrap();
    drop(first);
    let mut resumed = GanTrainer::resume(&path).unwrap();
    assert_eq!(resumed.step(), 4);
    stats.extend(resumed.train(&ds)); // runs the remaining 2

    // StepStats carries f64 losses and probabilities — PartialEq equality
    // here is bitwise equality of the whole training trajectory.
    assert_eq!(stats, straight_stats, "resumed trajectory diverged");
    assert_eq!(
        resumed.generator_mut().export_params(),
        straight.generator_mut().export_params(),
        "generator weights diverged after resume"
    );
    assert_eq!(
        resumed.discriminator_mut().export_params(),
        straight.discriminator_mut().export_params(),
        "discriminator weights diverged after resume"
    );
    // Optimizer velocity must match too, or the *next* step would diverge.
    let ck_a = resumed.to_checkpoint();
    let ck_b = straight.to_checkpoint();
    for section in ["opt_g/velocity", "opt_d/velocity"] {
        assert_eq!(
            ck_a.get_tensors(section).unwrap(),
            ck_b.get_tensors(section).unwrap(),
            "{section} diverged after resume"
        );
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn dropping_optimizer_state_would_diverge() {
    // The negative control for the bit-identity test: resuming weights but
    // not velocity must NOT reproduce the straight run (otherwise the
    // test above proves nothing about optimizer state).
    let ds = dataset();
    let mut config = TrainConfig::fast();
    config.iterations = 6;
    config.momentum = 0.5;

    let mut straight = fresh_trainer(config.clone());
    let straight_stats = straight.train(&ds);

    let mut first = fresh_trainer(config);
    let _ = first.train_for(&ds, 4);
    let mut ck = first.to_checkpoint();
    // Sabotage: wipe the velocity sections (empty = "never stepped").
    ck.put_tensors("opt_g/velocity", &[]);
    ck.put_tensors("opt_d/velocity", &[]);
    let mut resumed = GanTrainer::from_checkpoint(ck).unwrap();
    let tail = resumed.train(&ds);
    assert_ne!(
        &straight_stats[4..],
        &tail[..],
        "training is insensitive to dropped optimizer velocity"
    );
}

#[test]
fn pretraining_resumes_bit_identically() {
    let ds = dataset();
    let model = litho_model();
    let mut config = PretrainConfig::fast();
    config.iterations = 5;
    config.momentum = 0.5;

    // Reference A: the one-shot entry point (proves the Pretrainer matches
    // the historical pretrain_generator semantics exactly).
    let mut g_oneshot = Generator::new(32, 4, 9);
    let oneshot_stats = pretrain_generator(&mut g_oneshot, &model, &ds, &config).unwrap();

    // Reference B: an uninterrupted Pretrainer run.
    let mut straight = Pretrainer::new(Generator::new(32, 4, 9), config.clone());
    let straight_stats = straight.train(&model, &ds).unwrap();
    assert_eq!(straight_stats, oneshot_stats, "Pretrainer diverged from pretrain_generator");

    // Interrupted: 2 steps, checkpoint, fresh pre-trainer, remaining 3.
    let path = temp_path("pretrainer.ckpt");
    let mut first = Pretrainer::new(Generator::new(32, 4, 9), config);
    let mut stats = first.train_for(&model, &ds, 2).unwrap();
    first.save_checkpoint(&path).unwrap();
    drop(first);
    let mut resumed = Pretrainer::resume(&path).unwrap();
    assert_eq!(resumed.step(), 2);
    stats.extend(resumed.train(&model, &ds).unwrap());

    assert_eq!(stats, straight_stats, "resumed pre-training trajectory diverged");
    assert_eq!(
        resumed.generator_mut().export_params(),
        straight.generator_mut().export_params(),
        "generator weights diverged after pre-training resume"
    );
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn corrupt_checkpoints_fail_with_typed_errors() {
    let ds = dataset();
    let mut config = TrainConfig::fast();
    config.iterations = 3;
    let path = temp_path("corruptible.ckpt");
    let mut trainer = fresh_trainer(config);
    let _ = trainer.train_for(&ds, 1);
    trainer.save_checkpoint(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();

    // Truncations at several depths.
    for cut in [0, 7, 12, 40, bytes.len() / 2, bytes.len() - 1] {
        let p = temp_path("truncated.ckpt");
        std::fs::write(&p, &bytes[..cut]).unwrap();
        assert!(
            matches!(GanTrainer::resume(&p), Err(GanOpcError::Checkpoint(_))),
            "truncation at {cut} did not fail as a checkpoint error"
        );
    }

    // A bit flip anywhere past the version field trips the CRC.
    let mut flipped = bytes.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x01;
    let p = temp_path("flipped.ckpt");
    std::fs::write(&p, &flipped).unwrap();
    assert!(matches!(GanTrainer::resume(&p), Err(GanOpcError::Checkpoint(_))));

    // Not a checkpoint at all.
    let p = temp_path("garbage.ckpt");
    std::fs::write(&p, b"definitely not a checkpoint").unwrap();
    assert!(matches!(GanTrainer::resume(&p), Err(GanOpcError::Checkpoint(_))));

    // Missing file is an I/O-flavoured checkpoint error, not a panic.
    assert!(GanTrainer::resume(temp_path("does-not-exist.ckpt")).is_err());
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn wrong_kind_and_hostile_state_rejected() {
    let ds = dataset();
    let model = litho_model();

    // A pre-trainer checkpoint is not a GAN-trainer checkpoint (and vice
    // versa) — the meta/kind tag catches the mix-up with a typed error.
    let mut pre = Pretrainer::new(Generator::new(32, 4, 1), PretrainConfig::fast());
    let _ = pre.train_for(&model, &ds, 1).unwrap();
    let path = temp_path("kind-mismatch.ckpt");
    pre.save_checkpoint(&path).unwrap();
    assert!(matches!(GanTrainer::resume(&path), Err(GanOpcError::Config(_))));

    let mut config = TrainConfig::fast();
    config.iterations = 2;
    let mut trainer = fresh_trainer(config);
    let _ = trainer.train_for(&ds, 1);
    trainer.save_checkpoint(&path).unwrap();
    assert!(matches!(Pretrainer::resume(&path), Err(GanOpcError::Config(_))));

    // Hostile scalar state must surface as errors, not panics or huge
    // allocations inside network constructors.
    let base = trainer.to_checkpoint();
    let corrupt = |f: &dyn Fn(&mut Checkpoint)| {
        let mut ck = base.clone();
        f(&mut ck);
        GanTrainer::from_checkpoint(ck)
    };
    assert!(matches!(corrupt(&|ck| ck.put_u64("arch/size", 1 << 40)), Err(GanOpcError::Config(_))));
    assert!(matches!(corrupt(&|ck| ck.put_u64("arch/size", 7)), Err(GanOpcError::Config(_))));
    assert!(matches!(corrupt(&|ck| ck.put_u64("arch/g_base", 0)), Err(GanOpcError::Config(_))));
    assert!(matches!(
        corrupt(&|ck| ck.put_f64("config/momentum", 2.0)),
        Err(GanOpcError::Config(_))
    ));
    assert!(matches!(
        corrupt(&|ck| ck.put_f64("config/lr_generator", -1.0)),
        Err(GanOpcError::Config(_))
    ));
    // Velocity tensors that do not match the network layout.
    assert!(matches!(
        corrupt(&|ck| ck.put_tensors("opt_g/velocity", &[ganopc_nn::Tensor::zeros(&[3, 3])])),
        Err(GanOpcError::Config(_))
    ));
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn legacy_best_sections_are_ignored_on_resume() {
    // Older trainer states may carry `best/*` sections from the removed
    // best-validation snapshot. Loading ignores them: a state with them
    // planted continues bit-identically to the same state without them,
    // and the sections do not reappear in the next save.
    let ds = dataset();
    let mut config = TrainConfig::fast();
    config.iterations = 6;
    config.momentum = 0.5; // make optimizer state actually matter
    let mut trainer = fresh_trainer(config);
    let _ = trainer.train_for(&ds, 3);
    let clean = trainer.to_checkpoint();
    let mut legacy = clean.clone();
    legacy.put_u64("best/report/count", 2);
    legacy.put_f64("best/report/mask_l2", 0.25);
    legacy.put_f64("best/report/litho_error", 1.5e3);
    legacy.put_tensors("best/g_params", clean.get_tensors("g/params").unwrap());
    legacy.put_tensors("best/d_params", clean.get_tensors("d/params").unwrap());
    legacy.put_tensors("best/opt_g", clean.get_tensors("opt_g/velocity").unwrap());
    legacy.put_tensors("best/opt_d", clean.get_tensors("opt_d/velocity").unwrap());
    assert_ne!(legacy.to_bytes(), clean.to_bytes(), "legacy sections were not planted");

    let mut from_clean = GanTrainer::from_checkpoint(clean).unwrap();
    let mut from_legacy = GanTrainer::from_checkpoint(legacy).unwrap();
    assert_eq!(from_legacy.step(), 3);
    let clean_stats = from_clean.train(&ds);
    let legacy_stats = from_legacy.train(&ds);
    assert_eq!(legacy_stats.len(), 3);
    assert_eq!(legacy_stats, clean_stats, "legacy sections changed the trajectory");
    let after = from_legacy.to_checkpoint();
    assert!(!after.contains("best/g_params"), "legacy sections were written back");
    assert_eq!(
        after.to_bytes(),
        from_clean.to_checkpoint().to_bytes(),
        "weights or optimizer state differ after resuming a legacy state"
    );
}
