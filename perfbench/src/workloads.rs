//! The three workloads. Each is a closed loop over a fixed, seed-derived
//! *round* of operations (clips or training steps) issued one at a time;
//! every round repeats the same inputs, so each repetition must reproduce
//! the first bit for bit.

use crate::inputs::{self, fingerprint, is_binary, Seeds};
use crate::trace::Tracer;
use ganopc_core::pretrain::PretrainConfig;
use ganopc_core::{
    Discriminator, FlowConfig, GanOpcFlow, GanTrainer, Generator, OpcDataset, Pretrainer,
    TrainConfig, FRAME_NM,
};
use ganopc_ilt::{IltConfig, IltEngine};
use ganopc_litho::metrics::{squared_l2_nm2, DefectConfig, MaskMetrics};
use ganopc_litho::{Field, LithoModel, OpticalConfig};
use ganopc_nn::Tensor;

/// Which workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `GanOpcFlow::optimize` at 256 px (paper Fig. 6).
    Flow,
    /// `IltEngine::optimize` with `IltConfig::mosaic` at 128 px (Table 2 ILT).
    Ilt,
    /// Algorithm 2 pretraining, then Algorithm 1 GAN training, at 64 px.
    Train,
}

impl Kind {
    /// Every workload. `BENCHMARK.json` gates the first two; see the README
    /// for why `train_gan_64` runs only on request.
    pub const ALL: [Kind; 3] = [Kind::Flow, Kind::Ilt, Kind::Train];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Flow => "flow_fig6_256",
            Kind::Ilt => "ilt_pw_128",
            Kind::Train => "train_gan_64",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Sizes of one workload. [`Spec::full`] is what the benchmark runs;
/// [`Spec::tiny`] keeps the same call sequence at test scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spec {
    /// Which workload.
    pub kind: Kind,
    /// Lithography frame, px (the frame always spans 2048 nm).
    pub litho_size: usize,
    /// SOCS kernels of the lithography model.
    pub num_kernels: usize,
    /// Network input size, px. The ILT workload has no network; its layer
    /// probes use the size the Fig. 6 flow pairs with its litho frame.
    pub net_size: usize,
    /// Generator/discriminator base channel width.
    pub base_channels: usize,
    /// Mini-batch of the training steps and of the network-leg probes.
    pub batch: usize,
    /// Clips per round (flow, ILT) or held-out evaluation clips (training).
    pub clips: usize,
    /// Training-library instances (training only).
    pub library: usize,
    /// Algorithm 2 steps per round (training only).
    pub pretrain_steps: usize,
    /// Algorithm 1 steps per round (training only).
    pub gan_steps: usize,
}

impl Spec {
    /// The benchmark's configuration of `kind`.
    pub fn full(kind: Kind) -> Spec {
        let base = Spec {
            kind,
            litho_size: 0,
            num_kernels: 24,
            net_size: 0,
            base_channels: 16,
            batch: 4,
            clips: 0,
            library: 0,
            pretrain_steps: 0,
            gan_steps: 0,
        };
        match kind {
            Kind::Flow => Spec { litho_size: 256, net_size: 64, clips: 30, ..base },
            Kind::Ilt => Spec { litho_size: 128, net_size: 32, clips: 30, ..base },
            Kind::Train => Spec {
                litho_size: 64,
                num_kernels: 12,
                net_size: 64,
                base_channels: 8,
                clips: 48,
                library: 16,
                pretrain_steps: 40,
                gan_steps: 60,
                ..base
            },
        }
    }

    /// Test-scale configuration with the same call sequence.
    #[cfg(test)]
    pub fn tiny(kind: Kind) -> Spec {
        let full = Spec::full(kind);
        Spec {
            litho_size: 64,
            num_kernels: 6,
            net_size: match kind {
                Kind::Flow => 32,
                Kind::Ilt => 16,
                // Pretraining runs the generator at the litho frame size.
                Kind::Train => 64,
            },
            base_channels: 4,
            batch: 2,
            clips: 2,
            library: full.library.min(4),
            pretrain_steps: full.pretrain_steps.min(2),
            gan_steps: full.gan_steps.min(2),
            ..full
        }
    }

    /// Optics of the workload's lithography model.
    pub fn optics(&self) -> OpticalConfig {
        let mut opt = OpticalConfig::default_32nm(FRAME_NM / self.litho_size as f64);
        opt.num_kernels = self.num_kernels;
        opt
    }

    /// Operations in one round: the clips, or every training step.
    pub fn round_len(&self) -> usize {
        match self.kind {
            Kind::Flow | Kind::Ilt => self.clips,
            Kind::Train => self.pretrain_steps + self.gan_steps,
        }
    }
}

/// What one operation is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// One clip through the flow or the ILT baseline.
    Clip,
    /// One Algorithm 2 step.
    Pretrain,
    /// One Algorithm 1 step.
    Gan,
    /// Scoring the trained generator on the held-out clips (not counted
    /// as throughput).
    Eval,
}

/// Outcome of one operation.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// What the operation was.
    pub phase: Phase,
    /// Time inside the measured calls, seconds (the benchmark's own checks
    /// are outside it).
    pub secs: f64,
    /// The call succeeded and every check on its output held.
    pub ok: bool,
    /// Bit fingerprint of the outputs, compared across rounds.
    pub fingerprint: u64,
    /// `(L2, PVB)` in nm² per scored mask.
    pub quality: Vec<(f64, f64)>,
    /// Pretraining litho error or GAN mask-L2 loss of a training step.
    pub loss: Option<f64>,
    /// ILT time inside the operation, seconds.
    pub ilt_s: f64,
    /// Generator time inside the operation, seconds.
    pub generator_s: f64,
    /// Metric evaluation time inside the operation, seconds (traced runs).
    pub evaluate_s: f64,
    /// What went wrong, for the report.
    pub error: Option<String>,
}

impl Outcome {
    fn new(phase: Phase, secs: f64) -> Self {
        Outcome {
            phase,
            secs,
            ok: true,
            fingerprint: 0,
            quality: Vec::new(),
            loss: None,
            ilt_s: 0.0,
            generator_s: 0.0,
            evaluate_s: 0.0,
            error: None,
        }
    }

    fn failed(phase: Phase, secs: f64, error: String) -> Self {
        Outcome { ok: false, error: Some(error), ..Outcome::new(phase, secs) }
    }

    /// Folds a sub-operation (one clip of an evaluation) into this one.
    fn absorb(&mut self, part: Outcome) {
        self.secs += part.secs;
        self.check(part.ok, part.error.as_deref().unwrap_or("sub-operation failed"));
        self.fingerprint = self.fingerprint.rotate_left(5) ^ part.fingerprint;
        self.quality.extend(part.quality);
        self.ilt_s += part.ilt_s;
        self.generator_s += part.generator_s;
        self.evaluate_s += part.evaluate_s;
    }

    /// Applies one check: a violation fails the operation with `what`.
    fn check(&mut self, holds: bool, what: &str) {
        if !holds && self.ok {
            self.ok = false;
            self.error = Some(what.to_string());
        }
    }
}

/// Scores `mask` against `target` and checks the L2 the caller was given:
/// it must equal, bit for bit, both the metric evaluation and a fresh
/// `print_nominal` + `squared_l2_nm2` of the mask. The mask must be binary.
fn check_mask(
    out: &mut Outcome,
    model: &LithoModel,
    mask: &Field,
    target: &Field,
    reported_l2: f64,
    metrics: &MaskMetrics,
    tr: &mut Tracer,
) {
    let open = tr.enter("bench.check");
    let wafer = model.print_nominal(mask);
    let l2 = squared_l2_nm2(&wafer, target, model.pixel_nm());
    tr.exit(open);
    out.check(is_binary(mask), "mask is not binary and finite");
    out.check(l2.is_finite() && metrics.pvb_nm2.is_finite(), "non-finite L2 or PVB");
    out.check(l2.to_bits() == reported_l2.to_bits(), "recomputed L2 differs from the reported L2");
    out.check(
        metrics.l2_nm2.to_bits() == reported_l2.to_bits(),
        "metric-evaluation L2 differs from the reported L2",
    );
    out.fingerprint ^= fingerprint(mask.as_slice()).rotate_left(1) ^ reported_l2.to_bits();
    out.quality.push((reported_l2, metrics.pvb_nm2));
}

/// The seed's training library: `OpcDataset::synthesize` at the workload's
/// litho size, with `IltConfig::fast` reference masks. It derives its
/// kernels through the current cache directory.
///
/// # Errors
///
/// Returns a description of the synthesis failure.
pub fn library(spec: &Spec, seeds: Seeds) -> Result<OpcDataset, String> {
    OpcDataset::synthesize(spec.litho_size, spec.library, IltConfig::fast(), seeds.library)
        .map_err(|e| format!("dataset: {e}"))
}

/// A built workload, ready to run operations.
pub enum Workload {
    /// Fig. 6 flow.
    Flow(Box<FlowBench>),
    /// MOSAIC ILT baseline.
    Ilt(Box<IltBench>),
    /// Pretraining then GAN training.
    Train(Box<TrainBench>),
}

/// Fig. 6 flow state. Every clip of the round is paired with its own
/// untrained generator drawn from the weight seed, so a round averages
/// over generator draws as well as clips.
pub struct FlowBench {
    flow: GanOpcFlow,
    targets: Vec<Field>,
    weights: Vec<Vec<Tensor>>,
}

/// ILT baseline state.
pub struct IltBench {
    engine: IltEngine,
    targets: Vec<Field>,
}

/// Training state. A round starts from freshly initialized networks.
pub struct TrainBench {
    spec: Spec,
    seeds: Seeds,
    model: LithoModel,
    dataset: OpcDataset,
    eval_targets: Vec<Field>,
    pretrainer: Option<Pretrainer>,
    trainer: Option<GanTrainer>,
}

/// Set-up time split by layer (seconds), for the traced run.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupSplit {
    /// Clip synthesis and rasterization, total.
    pub clip_synth_s: f64,
    /// Clips synthesized.
    pub clips: usize,
    /// The training library (training only).
    pub dataset_s: f64,
}

impl Workload {
    /// Builds the workload from its seed: derives the lithography kernels
    /// (into whatever cache directory is current), synthesizes the inputs
    /// and initializes the networks.
    ///
    /// # Errors
    ///
    /// Returns a description of the first construction failure.
    pub fn build(
        spec: &Spec,
        seeds: Seeds,
        tr: &mut Tracer,
    ) -> Result<(Workload, SetupSplit), String> {
        let mut split = SetupSplit::default();
        let clips = |tr: &mut Tracer, split: &mut SetupSplit, size: usize| -> Vec<Field> {
            let m = tr.measure("geometry.clip_synth", || {
                (0..spec.clips).map(|i| inputs::clip(seeds.clips, i, size)).collect::<Vec<_>>()
            });
            split.clip_synth_s += m.secs;
            split.clips += spec.clips;
            m.value
        };
        let workload = match spec.kind {
            Kind::Flow => {
                let config = FlowConfig {
                    net_size: spec.net_size,
                    litho_size: spec.litho_size,
                    base_channels: spec.base_channels,
                    seed: seeds.weights,
                    num_kernels: spec.num_kernels,
                    ..FlowConfig::paper_scaled()
                };
                let m = tr.measure("flow.new", || GanOpcFlow::new(config));
                let flow = m.value.map_err(|e| format!("flow construction: {e}"))?;
                let targets = clips(tr, &mut split, spec.litho_size);
                let m = tr.measure("generator.init", || {
                    (0..spec.clips)
                        .map(|i| {
                            let seed = inputs::substream(seeds.weights, i as u64);
                            Generator::new(spec.net_size, spec.base_channels, seed).export_params()
                        })
                        .collect::<Vec<_>>()
                });
                Workload::Flow(Box::new(FlowBench { flow, targets, weights: m.value }))
            }
            Kind::Ilt => {
                let m = tr.measure("litho.model_new", || {
                    LithoModel::new_cached(spec.optics(), spec.litho_size, spec.litho_size)
                });
                let model = m.value.map_err(|e| format!("litho model: {e}"))?;
                let targets = clips(tr, &mut split, spec.litho_size);
                Workload::Ilt(Box::new(IltBench {
                    engine: IltEngine::new(model, IltConfig::mosaic()),
                    targets,
                }))
            }
            Kind::Train => {
                // The dataset derives the 64-px kernels cold and computes the
                // ILT reference masks; the pretraining model then loads the
                // same kernels warm.
                let m = tr.measure("dataset.synthesize", || library(spec, seeds));
                split.dataset_s = m.secs;
                let dataset = m.value?;
                let m = tr.measure("litho.model_new", || {
                    LithoModel::new_cached(spec.optics(), spec.litho_size, spec.litho_size)
                });
                let model = m.value.map_err(|e| format!("litho model: {e}"))?;
                let eval_targets = clips(tr, &mut split, spec.litho_size);
                Workload::Train(Box::new(TrainBench {
                    spec: *spec,
                    seeds,
                    model,
                    dataset,
                    eval_targets,
                    pretrainer: None,
                    trainer: None,
                }))
            }
        };
        Ok((workload, split))
    }

    /// The lithography model the workload runs on.
    pub fn model(&self) -> &LithoModel {
        match self {
            Workload::Flow(w) => w.flow.model(),
            Workload::Ilt(w) => w.engine.model(),
            Workload::Train(w) => &w.model,
        }
    }

    /// The workload's target clips at litho resolution (training: the
    /// dataset targets).
    pub fn targets(&self) -> &[Field] {
        match self {
            Workload::Flow(w) => &w.targets,
            Workload::Ilt(w) => &w.targets,
            Workload::Train(w) => w.dataset.targets(),
        }
    }

    /// Fingerprint of the generated inputs (seed plumbing checks).
    pub fn input_fingerprint(&self) -> u64 {
        let mut h = 0u64;
        for t in self.targets() {
            h = h.rotate_left(7) ^ fingerprint(t.as_slice());
        }
        if let Workload::Train(w) = self {
            for m in w.dataset.masks().iter().chain(&w.eval_targets) {
                h = h.rotate_left(7) ^ fingerprint(m.as_slice());
            }
        }
        h
    }

    /// Runs operation `index` (0-based within the round).
    pub fn op(&mut self, index: usize, tr: &mut Tracer) -> Outcome {
        match self {
            Workload::Flow(w) => w.op(index, tr),
            Workload::Ilt(w) => w.op(index, tr),
            Workload::Train(w) => w.op(index, tr),
        }
    }

    /// Closes round `round`. Training scores its first round's generator
    /// (later rounds repeat it bit for bit, as their losses show).
    pub fn after_round(&mut self, round: usize, tr: &mut Tracer) -> Option<Outcome> {
        match self {
            Workload::Train(w) if round == 0 => Some(w.evaluate(tr)),
            _ => None,
        }
    }
}

impl FlowBench {
    fn op(&mut self, index: usize, tr: &mut Tracer) -> Outcome {
        if let Err(e) = self.flow.generator_mut().import_params(&self.weights[index]) {
            return Outcome::failed(Phase::Clip, 0.0, format!("generator weights: {e}"));
        }
        flow_clip(&mut self.flow, &self.targets[index], Phase::Clip, "flow.optimize", tr)
    }
}

/// One clip through the Fig. 6 flow (`GanOpcFlow::optimize`), checked. When
/// tracing, the flow's own stage times become children of the call's span,
/// with the metric evaluation it runs inside re-timed on the same mask.
fn flow_clip(
    flow: &mut GanOpcFlow,
    target: &Field,
    phase: Phase,
    span: &'static str,
    tr: &mut Tracer,
) -> Outcome {
    let m = tr.measure(span, || flow.optimize(target));
    let r = match m.value {
        Ok(r) => r,
        Err(e) => return Outcome::failed(phase, m.secs, format!("flow: {e}")),
    };
    let mut out = Outcome::new(phase, m.secs);
    out.ilt_s = r.refinement_runtime_s;
    out.generator_s = r.generator_runtime_s;
    if tr.enabled() {
        // The benchmark's own work: a span of its own, kept out of the
        // operation's counts.
        tr.set_counting(false);
        let model = flow.model();
        let again = tr.measure("bench.reevaluate", || {
            MaskMetrics::evaluate(model, &r.mask, target, &DefectConfig::default())
        });
        tr.set_counting(true);
        out.evaluate_s = again.secs;
        out.check(again.value == r.metrics, "re-evaluated metrics differ");
        let (g, f) = (r.generator_runtime_s, r.refinement_runtime_s);
        tr.record_child(m.span, "flow.generator", 0.0, g);
        tr.record_child(m.span, "flow.refine", g, f);
        tr.record_child(m.span, "metrics.evaluate", g + f, out.evaluate_s);
    }
    check_mask(&mut out, flow.model(), &r.mask, target, r.l2_nm2, &r.metrics, tr);
    out
}

impl IltBench {
    fn op(&mut self, index: usize, tr: &mut Tracer) -> Outcome {
        let target = &self.targets[index];
        let engine = &mut self.engine;
        let m = tr.measure("ilt.optimize", || engine.optimize(target));
        let r = match m.value {
            Ok(r) => r,
            Err(e) => return Outcome::failed(Phase::Clip, m.secs, format!("ilt: {e}")),
        };
        let model = self.engine.model();
        let e = tr.measure("metrics.evaluate", || {
            MaskMetrics::evaluate(model, &r.mask, target, &DefectConfig::default())
        });
        let mut out = Outcome::new(Phase::Clip, m.secs + e.secs);
        out.ilt_s = m.secs;
        out.evaluate_s = e.secs;
        check_mask(&mut out, model, &r.mask, target, r.binary_l2_nm2, &e.value, tr);
        out
    }
}

impl TrainBench {
    fn op(&mut self, index: usize, tr: &mut Tracer) -> Outcome {
        let (p, g) = (self.spec.pretrain_steps, self.spec.gan_steps);
        if index == 0 {
            let generator =
                Generator::new(self.spec.net_size, self.spec.base_channels, self.seeds.weights);
            let config = PretrainConfig {
                iterations: p.max(1),
                batch_size: self.spec.batch,
                lr: 0.01,
                momentum: 0.5,
                seed: self.seeds.library,
            };
            self.pretrainer = Some(Pretrainer::new(generator, config));
            self.trainer = None;
        }
        if index == p {
            if let Some(pre) = self.pretrainer.take() {
                let d = Discriminator::new(
                    self.spec.net_size,
                    self.spec.base_channels,
                    self.seeds.weights ^ 1,
                );
                let config = TrainConfig {
                    iterations: g.max(1),
                    batch_size: self.spec.batch,
                    seed: self.seeds.library,
                    ..TrainConfig::paper_scaled()
                };
                self.trainer = Some(GanTrainer::new(pre.into_generator(), d, config));
            }
        }
        if index < p {
            self.pretrain_step(tr)
        } else {
            self.gan_step(tr)
        }
    }

    fn pretrain_step(&mut self, tr: &mut Tracer) -> Outcome {
        let Some(pre) = self.pretrainer.as_mut() else {
            return Outcome::failed(Phase::Pretrain, 0.0, "no pretrainer".into());
        };
        let (model, dataset) = (&self.model, &self.dataset);
        let m = tr.measure("pretrain.step", || pre.train_for(model, dataset, 1));
        let stats = match m.value {
            Ok(s) => s,
            Err(e) => return Outcome::failed(Phase::Pretrain, m.secs, format!("pretrain: {e}")),
        };
        let mut out = Outcome::new(Phase::Pretrain, m.secs);
        out.check(stats.len() == 1, "pretrain ran a wrong number of steps");
        let loss = stats.first().map_or(f64::NAN, |s| s.litho_error);
        out.check(loss.is_finite(), "non-finite pretraining loss");
        out.loss = Some(loss);
        out.fingerprint = loss.to_bits();
        out
    }

    fn gan_step(&mut self, tr: &mut Tracer) -> Outcome {
        let Some(trainer) = self.trainer.as_mut() else {
            return Outcome::failed(Phase::Gan, 0.0, "no trainer".into());
        };
        let dataset = &self.dataset;
        let m = tr.measure("train.step", || trainer.train_for(dataset, 1));
        let mut out = Outcome::new(Phase::Gan, m.secs);
        out.check(m.value.len() == 1, "training ran a wrong number of steps");
        let Some(s) = m.value.first() else { return out };
        let losses = [s.adversarial_loss, s.l2_loss, s.discriminator_loss, s.d_real, s.d_fake];
        out.check(losses.iter().all(|v| v.is_finite()), "non-finite training loss");
        out.loss = Some(s.l2_loss);
        out.fingerprint = losses.iter().fold(0u64, |h, v| h.rotate_left(13) ^ v.to_bits());
        out
    }

    /// Scores the trained generator the way the paper does: through the
    /// Fig. 6 flow (generator, then ILT refinement) on the held-out clips.
    /// This is the training workload's quality guard; the round's networks
    /// are consumed.
    fn evaluate(&mut self, tr: &mut Tracer) -> Outcome {
        let Some(trainer) = self.trainer.take() else {
            return Outcome::failed(Phase::Eval, 0.0, "no trainer".into());
        };
        let (generator, _) = trainer.into_networks();
        let config = FlowConfig {
            net_size: self.spec.net_size,
            litho_size: self.spec.litho_size,
            base_channels: self.spec.base_channels,
            num_kernels: self.spec.num_kernels,
            ..FlowConfig::paper_scaled()
        };
        let mut flow = match GanOpcFlow::with_generator(config, generator) {
            Ok(f) => f,
            Err(e) => return Outcome::failed(Phase::Eval, 0.0, format!("evaluation flow: {e}")),
        };
        let mut out = Outcome::new(Phase::Eval, 0.0);
        for target in &self.eval_targets {
            out.absorb(flow_clip(&mut flow, target, Phase::Eval, "eval.flow_optimize", tr));
        }
        out
    }
}
