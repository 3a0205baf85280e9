//! Self-healing training supervisor: divergence detection + rollback.
//!
//! GAN-OPC's adversarial objective is notoriously unstable — a bad basin
//! or an exploding update can waste the whole run. The supervisor wraps
//! [`GanTrainer`] with two detectors and one recovery policy:
//!
//! * **non-finite loss** — any NaN/∞ in a step's reported losses;
//! * **loss explosion** — the L2 loss jumping past `explosion_factor` ×
//!   its mean over the trailing `divergence_window` steps.
//!
//! On a trip, the trainer is rolled back to the newest loadable entry of
//! a bounded [`CheckpointRing`], the learning rates are backed off by the
//! cumulative `lr_backoff` factor, and the run continues — up to
//! `max_retries` times, after which the run fails with the typed
//! [`DivergenceError`]. Because [`GanTrainer::from_checkpoint`] rebuilds
//! optimizers at the *config* learning rates, the cumulative scale is
//! re-applied in full after every rollback; the checkpoint files
//! themselves always carry the original schedule, which is what makes
//! supervisor recovery bit-identical to a clean resume from the same
//! file (at `lr_backoff = 1.0`).
//!
//! Every trip, rollback, retry and tolerated checkpoint failure is
//! counted through `ganopc-obs` (`supervisor_*` counters) and lands in
//! `--metrics-json`.

use crate::ring::CheckpointRing;
use crate::train::StepStats;
use crate::{GanOpcError, GanTrainer, OpcDataset};
use ganopc_obs as obs;
use std::collections::VecDeque;
use std::error::Error;
use std::fmt;
use std::path::Path;

/// Recovery policy of a [`TrainSupervisor`].
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisorConfig {
    /// Rotated checkpoints kept in the ring (`--ckpt-ring`).
    pub ckpt_ring: usize,
    /// Steps between ring checkpoints.
    pub checkpoint_every: usize,
    /// Rollback+retry budget before failing typed (`--max-retries`).
    pub max_retries: u32,
    /// Trailing window (steps) for the explosion test
    /// (`--divergence-window`).
    pub divergence_window: usize,
    /// Trip when the L2 loss exceeds this multiple of the window mean.
    pub explosion_factor: f64,
    /// Learning-rate multiplier applied per retry (1.0 = no backoff).
    pub lr_backoff: f32,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            ckpt_ring: 3,
            checkpoint_every: 25,
            max_retries: 2,
            divergence_window: 20,
            explosion_factor: 4.0,
            lr_backoff: 0.5,
        }
    }
}

impl SupervisorConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.ckpt_ring == 0 {
            return Err("ckpt_ring must be at least 1".into());
        }
        if self.checkpoint_every == 0 {
            return Err("checkpoint_every must be positive".into());
        }
        if self.divergence_window < 2 {
            return Err("divergence_window must be at least 2".into());
        }
        if !self.explosion_factor.is_finite() || self.explosion_factor <= 1.0 {
            return Err("explosion_factor must be finite and exceed 1".into());
        }
        if !self.lr_backoff.is_finite() || self.lr_backoff <= 0.0 || self.lr_backoff > 1.0 {
            return Err("lr_backoff must lie in (0, 1]".into());
        }
        Ok(())
    }
}

/// What tripped the divergence monitor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DivergenceReason {
    /// A reported loss was NaN or ±∞.
    NonFiniteLoss,
    /// The L2 loss exceeded `explosion_factor` × its window mean.
    LossExplosion {
        /// Observed loss / window mean at the trip.
        ratio: f64,
    },
}

impl fmt::Display for DivergenceReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DivergenceReason::NonFiniteLoss => write!(f, "non-finite loss"),
            DivergenceReason::LossExplosion { ratio } => {
                write!(f, "loss explosion ({ratio:.2}x the window mean)")
            }
        }
    }
}

/// A training run that diverged past its recovery budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DivergenceError {
    /// Step at which the final (unrecoverable) trip happened.
    pub step: usize,
    /// Recovery attempts consumed before giving up.
    pub retries: u32,
    /// What the final trip detected.
    pub reason: DivergenceReason,
}

impl fmt::Display for DivergenceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "training diverged at step {} ({}) after {} recovery attempt(s)",
            self.step, self.reason, self.retries
        )
    }
}

impl Error for DivergenceError {}

/// Sliding-window divergence detector over per-step [`StepStats`].
#[derive(Debug)]
pub struct DivergenceMonitor {
    window: usize,
    explosion_factor: f64,
    history: VecDeque<f64>,
}

impl DivergenceMonitor {
    /// A monitor with the given trailing window and explosion threshold.
    pub fn new(window: usize, explosion_factor: f64) -> Self {
        let window = window.max(2);
        DivergenceMonitor {
            window,
            explosion_factor,
            // ALLOC: bounded detector state, sized once at construction.
            history: VecDeque::with_capacity(window),
        }
    }

    /// Feeds one step's stats; `Some` means the run should roll back.
    /// The explosion test only arms once a full window of healthy steps
    /// has been seen, so warm-up noise cannot trip it.
    pub fn observe(&mut self, stats: &StepStats) -> Option<DivergenceReason> {
        let losses = [stats.adversarial_loss, stats.l2_loss, stats.discriminator_loss];
        if losses.iter().any(|l| !l.is_finite()) {
            return Some(DivergenceReason::NonFiniteLoss);
        }
        if self.history.len() == self.window {
            let mean = self.history.iter().sum::<f64>() / self.window as f64;
            if mean > 0.0 && stats.l2_loss > self.explosion_factor * mean {
                return Some(DivergenceReason::LossExplosion { ratio: stats.l2_loss / mean });
            }
            self.history.pop_front();
        }
        self.history.push_back(stats.l2_loss);
        None
    }

    /// Forgets all history (called after a rollback: the restored
    /// trainer's losses belong to a different timeline).
    pub fn reset(&mut self) {
        self.history.clear();
    }
}

/// The self-healing wrapper around [`GanTrainer`]; see the module docs
/// for the detection and recovery semantics.
#[derive(Debug)]
pub struct TrainSupervisor {
    config: SupervisorConfig,
    ring: CheckpointRing,
    monitor: DivergenceMonitor,
    lr_scale: f32,
    retries_used: u32,
}

impl TrainSupervisor {
    /// Creates a supervisor whose checkpoint ring lives in `ring_dir`
    /// (created, swept of stale temporaries, and re-indexed if it holds
    /// entries from a previous process).
    ///
    /// # Errors
    ///
    /// Fails on an invalid `config` or an unusable ring directory.
    pub fn new<P: AsRef<Path>>(ring_dir: P, config: SupervisorConfig) -> Result<Self, GanOpcError> {
        config.validate().map_err(GanOpcError::Config)?;
        let ring = CheckpointRing::open(ring_dir, config.ckpt_ring)?;
        let monitor = DivergenceMonitor::new(config.divergence_window, config.explosion_factor);
        Ok(TrainSupervisor { config, ring, monitor, lr_scale: 1.0, retries_used: 0 })
    }

    /// The checkpoint ring (e.g. to list the rollback points it holds).
    pub fn ring(&self) -> &CheckpointRing {
        &self.ring
    }

    /// Recovery attempts consumed so far.
    pub fn retries_used(&self) -> u32 {
        self.retries_used
    }

    /// Cumulative learning-rate scale currently applied to the trainer.
    pub fn lr_scale(&self) -> f32 {
        self.lr_scale
    }

    /// Runs `steps` further supervised training steps, rolling back and
    /// retrying on divergence. Returns the per-step stats of the
    /// surviving timeline (rolled-back steps are dropped).
    ///
    /// # Errors
    ///
    /// [`GanOpcError::Divergence`] once the retry budget is exhausted (or
    /// no ring entry is loadable); checkpoint errors from a rollback
    /// restore.
    pub fn run(
        &mut self,
        trainer: &mut GanTrainer,
        dataset: &OpcDataset,
        steps: usize,
    ) -> Result<Vec<StepStats>, GanOpcError> {
        let target = trainer.step() + steps;
        let mut stats: Vec<StepStats> = Vec::with_capacity(steps);
        // Seed the ring with the starting state so even a first-step trip
        // has a rollback point.
        self.checkpoint(trainer);
        while trainer.step() < target {
            let step_stats = trainer.train_for(dataset, 1);
            let Some(&s) = step_stats.first() else {
                break;
            };
            if let Some(reason) = self.monitor.observe(&s) {
                self.handle_trip(trainer, s.step, reason)?;
                let resumed = trainer.step();
                stats.retain(|st| st.step <= resumed);
                continue;
            }
            stats.push(s);
            if s.step % self.config.checkpoint_every == 0 {
                self.checkpoint(trainer);
            }
        }
        Ok(stats)
    }

    /// Best-effort ring save: a failed checkpoint (a full disk, say) must
    /// not kill a healthy run — the failure is counted and the previous
    /// rollback points stay valid.
    fn checkpoint(&mut self, trainer: &mut GanTrainer) {
        let step = trainer.step();
        if self.ring.push(step, &trainer.to_checkpoint()).is_err() {
            obs::counter_add(obs::Counter::SupervisorCkptFailures, 1);
        }
    }

    /// Rollback + LR backoff, or the typed failure once the budget is
    /// spent (or no ring entry loads).
    fn handle_trip(
        &mut self,
        trainer: &mut GanTrainer,
        step: usize,
        reason: DivergenceReason,
    ) -> Result<(), GanOpcError> {
        obs::counter_add(obs::Counter::SupervisorTrips, 1);
        self.monitor.reset();
        if self.retries_used >= self.config.max_retries {
            return Err(GanOpcError::Divergence(DivergenceError {
                step,
                retries: self.retries_used,
                reason,
            }));
        }
        let Some((_, ck)) = self.ring.load_latest_good() else {
            return Err(GanOpcError::Divergence(DivergenceError {
                step,
                retries: self.retries_used,
                reason,
            }));
        };
        *trainer = GanTrainer::from_checkpoint(ck)?;
        obs::counter_add(obs::Counter::SupervisorRollbacks, 1);
        self.retries_used += 1;
        obs::counter_add(obs::Counter::SupervisorRetries, 1);
        // Cumulative backoff: from_checkpoint rebuilt the optimizers at
        // the config rates, so the whole scale is re-applied, not just
        // this retry's factor.
        self.lr_scale *= self.config.lr_backoff;
        trainer.scale_learning_rates(self.lr_scale);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Discriminator, Generator, TrainConfig};
    use ganopc_ilt::IltConfig;

    fn synth_stats(step: usize, l2: f64) -> StepStats {
        StepStats {
            step,
            adversarial_loss: 0.5,
            l2_loss: l2,
            discriminator_loss: 0.7,
            d_real: 0.6,
            d_fake: 0.4,
        }
    }

    #[test]
    fn monitor_trips_on_non_finite_loss() {
        let mut m = DivergenceMonitor::new(4, 4.0);
        assert_eq!(m.observe(&synth_stats(1, 1.0)), None);
        let mut bad = synth_stats(2, 1.0);
        bad.adversarial_loss = f64::NAN;
        assert_eq!(m.observe(&bad), Some(DivergenceReason::NonFiniteLoss));
        let mut bad = synth_stats(3, f64::INFINITY);
        bad.l2_loss = f64::INFINITY;
        assert_eq!(m.observe(&bad), Some(DivergenceReason::NonFiniteLoss));
    }

    #[test]
    fn monitor_trips_on_explosion_only_after_warmup() {
        let mut m = DivergenceMonitor::new(3, 4.0);
        // A huge value during warm-up must not trip (no baseline yet).
        assert_eq!(m.observe(&synth_stats(1, 100.0)), None);
        m.reset();
        for step in 1..=3 {
            assert_eq!(m.observe(&synth_stats(step, 1.0)), None);
        }
        assert_eq!(m.observe(&synth_stats(4, 1.2)), None, "mild drift tolerated");
        match m.observe(&synth_stats(5, 10.0)) {
            Some(DivergenceReason::LossExplosion { ratio }) => assert!(ratio > 4.0),
            other => panic!("expected explosion trip, got {other:?}"),
        }
    }

    fn tiny_setup(seed: u64) -> (GanTrainer, OpcDataset) {
        let ds = OpcDataset::synthesize(32, 3, IltConfig::fast(), 3).unwrap();
        let g = Generator::new(32, 4, seed);
        let d = Discriminator::new(32, 4, seed ^ 1);
        (GanTrainer::new(g, d, TrainConfig::fast()), ds)
    }

    fn ring_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ganopc-supervisor-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn healthy_supervised_run_is_bit_identical_to_plain_training() {
        let dir = ring_dir("identity");
        let (mut supervised, ds) = tiny_setup(11);
        let (mut plain, _) = tiny_setup(11);
        let cfg = SupervisorConfig { checkpoint_every: 2, ..SupervisorConfig::default() };
        let mut sup = TrainSupervisor::new(&dir, cfg).unwrap();
        let stats = sup.run(&mut supervised, &ds, 6).unwrap();
        let plain_stats = plain.train_for(&ds, 6);
        assert_eq!(stats, plain_stats, "supervision changed the training trajectory");
        assert_eq!(sup.retries_used(), 0);
        assert_eq!(
            supervised.to_checkpoint().to_bytes(),
            plain.to_checkpoint().to_bytes(),
            "supervised state differs from plain training"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn exhausted_budget_fails_typed() {
        let dir = ring_dir("budget");
        let (mut trainer, ds) = tiny_setup(13);
        // A hair-trigger explosion threshold: adversarial training loss
        // noise exceeds 0.1% of the window mean almost immediately.
        let cfg = SupervisorConfig {
            divergence_window: 2,
            explosion_factor: 1.001,
            max_retries: 0,
            ..SupervisorConfig::default()
        };
        let mut sup = TrainSupervisor::new(&dir, cfg).unwrap();
        match sup.run(&mut trainer, &ds, 40) {
            Err(GanOpcError::Divergence(e)) => {
                assert_eq!(e.retries, 0);
                assert!(matches!(e.reason, DivergenceReason::LossExplosion { .. }));
            }
            other => panic!("expected a typed divergence failure, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn config_validation_rejects_bad_fields() {
        assert!(SupervisorConfig::default().validate().is_ok());
        let bad = SupervisorConfig { ckpt_ring: 0, ..SupervisorConfig::default() };
        assert!(bad.validate().is_err());
        let bad = SupervisorConfig { lr_backoff: 0.0, ..SupervisorConfig::default() };
        assert!(bad.validate().is_err());
        let bad = SupervisorConfig { explosion_factor: 1.0, ..SupervisorConfig::default() };
        assert!(bad.validate().is_err());
    }
}
