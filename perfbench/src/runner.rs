//! The timed (untraced) run, the traced per-layer run and the seed
//! self-test.

use crate::inputs::Seeds;
use crate::probes;
use crate::report::Metrics;
use crate::stats::{median, tail, trimmed_mean, Tally};
use crate::trace::Tracer;
use crate::workloads::{self, Kind, Outcome, Phase, Spec, Workload};
use ganopc_ilt::{IltConfig, IltEngine};
use ganopc_litho::LithoModel;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Share of masks dropped from each end before averaging quality: above
/// the rate at which the Fig. 6 flow with an untrained generator saturates
/// on a clip (an L2 near 10⁶ nm², a hundred times the typical clip).
const TRIM: f64 = 0.1;

/// The run's private scratch directory. Each set-up gets a fresh, empty
/// kernel-cache directory inside it, so kernel derivation is always cold
/// and no other process's cache is ever read.
#[derive(Debug)]
pub struct Env {
    root: PathBuf,
    caches: usize,
}

impl Env {
    /// Creates (emptying first) the scratch directory `root`.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn new(root: PathBuf) -> std::io::Result<Env> {
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)?;
        Ok(Env { root, caches: 0 })
    }

    /// Points the kernel cache at a new empty directory and returns it.
    pub fn fresh_cache(&mut self) -> PathBuf {
        self.caches += 1;
        let dir = self.root.join(format!("kernel-cache-{}", self.caches));
        ganopc_litho::cache::set_cache_dir(Some(dir.clone()));
        dir
    }

    /// The scratch directory.
    #[cfg(test)]
    pub fn root(&self) -> &Path {
        &self.root
    }
}

impl Drop for Env {
    fn drop(&mut self) {
        ganopc_litho::cache::set_cache_dir(None);
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// When a loop of operations stops.
#[derive(Debug, Clone, Copy)]
enum Stop {
    /// At the first round boundary after `seconds` of wall time, so every
    /// input of the round is weighted alike.
    After(f64),
    /// At the first operation boundary after `seconds` of wall time, once
    /// `min_ops` operations ran.
    AfterOps(f64, usize),
    /// After exactly this many operations.
    Ops(usize),
}

/// Operations of one loop.
#[derive(Debug, Default)]
struct Pass {
    outcomes: Vec<Outcome>,
    tally: Tally,
    wall_s: f64,
    /// Outcomes of the first round (its evaluation included).
    round0: usize,
}

/// Runs operations in round order, one at a time. Every repetition of a
/// round must reproduce the first round's outputs bit for bit.
fn run_ops(w: &mut Workload, spec: &Spec, stop: Stop, tr: &mut Tracer) -> Pass {
    let len = spec.round_len();
    let mut pass = Pass::default();
    let t0 = Instant::now();
    let mut first_round = Vec::with_capacity(len);
    for i in 0.. {
        let k = i % len;
        let done = match stop {
            Stop::Ops(n) => i >= n,
            Stop::After(s) => k == 0 && i > 0 && t0.elapsed().as_secs_f64() >= s,
            Stop::AfterOps(s, min_ops) => i >= min_ops && t0.elapsed().as_secs_f64() >= s,
        };
        if done {
            break;
        }
        tr.set_op(i as u64);
        let open = tr.enter("op");
        let mut out = w.op(k, tr);
        tr.exit(open);
        if i < len {
            first_round.push(out.fingerprint);
        } else if first_round[k] != out.fingerprint && out.ok {
            out.ok = false;
            out.error = Some(format!("operation {k} of round {} differs from round 0", i / len));
        }
        pass.record(i, out);
        if k + 1 == len {
            // The closing evaluation is not an operation of the round: its
            // calls stay out of the per-operation counts.
            let open = tr.enter("op");
            tr.set_counting(false);
            if let Some(out) = w.after_round(i / len, tr) {
                pass.record(i, out);
            }
            tr.set_counting(true);
            tr.exit(open);
            if i + 1 == len {
                pass.round0 = pass.outcomes.len();
            }
        }
    }
    pass.wall_s = t0.elapsed().as_secs_f64();
    pass
}

impl Pass {
    /// Throughput operations (evaluations excluded).
    fn timed(&self) -> impl Iterator<Item = &Outcome> {
        self.outcomes.iter().filter(|o| o.phase != Phase::Eval)
    }

    fn of(&self, phase: Phase) -> impl Iterator<Item = &Outcome> {
        self.outcomes.iter().filter(move |o| o.phase == phase)
    }

    fn record(&mut self, i: usize, out: Outcome) {
        if let Some(e) = &out.error {
            eprintln!("perfbench: operation {i} failed: {e}");
        }
        self.tally.record(out.ok);
        self.outcomes.push(out);
    }

    /// Outcomes of the first round, or of everything run when it did not
    /// complete.
    fn first_round(&self) -> &[Outcome] {
        let end = if self.round0 == 0 { self.outcomes.len() } else { self.round0 };
        &self.outcomes[..end]
    }

    /// Median time of each operation index over the complete rounds run
    /// (one value per index), so a burst of host contention in one round
    /// does not move the result. Empty when no round completed.
    fn per_index_median_s(&self, len: usize) -> Vec<f64> {
        let secs: Vec<f64> = self.timed().map(|o| o.secs).collect();
        let rounds = secs.len() / len;
        (0..if rounds == 0 { 0 } else { len })
            .map(|k| {
                let samples: Vec<f64> = (0..rounds).map(|r| secs[r * len + k]).collect();
                median(&samples).unwrap_or(f64::NAN)
            })
            .collect()
    }
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        f64::NAN
    } else {
        sum / n as f64
    }
}

fn median_ms<'a>(ops: impl Iterator<Item = &'a Outcome>) -> f64 {
    let secs: Vec<f64> = ops.map(|o| o.secs).collect();
    median(&secs).map_or(f64::NAN, |s| s * 1e3)
}

/// Peak resident set of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Result of one run.
#[derive(Debug)]
pub struct RunResult {
    /// Named values.
    pub metrics: Metrics,
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Run-level checks (beyond per-operation ones) held.
    pub checks_ok: bool,
}

/// The untraced run: `SETUP_REPS` cold set-ups, then operations for
/// `seconds`.
///
/// # Errors
///
/// Returns a description when a set-up fails.
pub fn timed(spec: &Spec, seed: u64, seconds: f64, env: &mut Env) -> Result<RunResult, String> {
    let seeds = Seeds::derive(seed);
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous instance first so set-ups never overlap in memory.
        drop(built.take());
        env.fresh_cache();
        let t0 = Instant::now();
        let (w, _) = Workload::build(spec, seeds, &mut Tracer::new(false))?;
        setups.push(t0.elapsed().as_secs_f64());
        built = Some(w);
    }
    let mut w = built.ok_or("no set-up ran")?;
    ganopc_obs::reset();
    let pass = run_ops(&mut w, spec, Stop::After(seconds), &mut Tracer::new(false));
    let len = spec.round_len();
    let first = pass.first_round();
    let quality: Vec<(f64, f64)> = first.iter().flat_map(|o| o.quality.iter().copied()).collect();
    let l2: Vec<f64> = quality.iter().map(|q| q.0).collect();
    let pvb: Vec<f64> = quality.iter().map(|q| q.1).collect();
    let per_index = pass.per_index_median_s(len);
    let rounds = pass.timed().count() / len;

    let mut m = Metrics::default();
    m.set(
        "setup_s",
        median(&setups).unwrap_or(f64::NAN),
        format!("median of {SETUP_REPS} cold set-ups"),
    );
    m.set("peak_rss_mb", peak_rss_mb(), "");
    let n = pass.timed().count();
    let ops_per_s = len as f64 / per_index.iter().sum::<f64>();
    let note = format!(
        "{n} ops, {rounds} rounds of {len}, per-op median over rounds, {:.1} s wall",
        pass.wall_s
    );
    m.set("ops_per_s", ops_per_s, note);
    m.set("op_ms_p50", median_ms(pass.timed()), format!("n={n}"));
    let masks = format!("mean of {} masks less the top and bottom 10 %", quality.len());
    m.set("l2_nm2_trimmed", trimmed_mean(&l2, TRIM).unwrap_or(f64::NAN), masks.clone());
    m.set("pvb_nm2_trimmed", trimmed_mean(&pvb, TRIM).unwrap_or(f64::NAN), masks);
    m.set("l2_nm2_mean", mean(l2.iter().copied()), format!("mean of {} masks", quality.len()));
    m.set("pvb_nm2_mean", mean(pvb.iter().copied()), format!("mean of {} masks", quality.len()));
    m.set(
        "fail_frac",
        pass.tally.fail_frac(),
        format!("{}/{}", pass.tally.failed, pass.tally.attempted),
    );
    match spec.kind {
        Kind::Flow | Kind::Ilt => {
            m.set("clips_per_s", ops_per_s, "= ops_per_s");
            m.set("clip_s_p50", median_ms(pass.timed()) / 1e3, "= op_ms_p50 / 1000");
        }
        Kind::Train => {
            let p = spec.pretrain_steps;
            let phase_rate = |range: std::ops::Range<usize>| {
                range.len() as f64 / per_index[range].iter().sum::<f64>()
            };
            m.set("pretrain_steps_per_s", phase_rate(0..p), "per-step median over rounds");
            m.set("train_steps_per_s", phase_rate(p..len), "per-step median over rounds");
            let last = |phase: Phase| {
                let losses: Vec<f64> =
                    first.iter().filter(|o| o.phase == phase).filter_map(|o| o.loss).collect();
                mean(losses.iter().rev().take(10).copied())
            };
            m.set(
                "pretrain_litho_err_final",
                last(Phase::Pretrain),
                "mean of the last 10 steps of round 0",
            );
            m.set("train_l2_loss_final", last(Phase::Gan), "mean of the last 10 steps of round 0");
        }
    }
    Ok(RunResult { metrics: m, tally: pass.tally, checks_ok: true })
}

/// The traced run: one traced set-up, then the same operations twice — once
/// untraced, once traced — then the layer probes. Writes the spans to
/// `trace_path`.
///
/// # Errors
///
/// Returns a description when a set-up or probe fails.
pub fn traced(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    env: &mut Env,
    trace_path: &Path,
) -> Result<RunResult, String> {
    let seeds = Seeds::derive(seed);
    let mut tr = Tracer::new(true);
    env.fresh_cache();
    let setup = tr.enter("setup");
    let (mut w, split) = Workload::build(spec, seeds, &mut tr)?;
    tr.exit(setup);
    let mut m = Metrics::default();
    m.set(
        "geometry.clip_synth_ms",
        split.clip_synth_s / split.clips as f64 * 1e3,
        format!("{} clips", split.clips),
    );
    // The training library of the seed: built in set-up by `train_gan_64`,
    // probed here by the clip workloads, which do not need one.
    let dataset_s = match spec.kind {
        Kind::Train => split.dataset_s,
        _ => {
            let train = Spec::full(Kind::Train);
            let m = tr.measure("dataset.synthesize", || workloads::library(&train, seeds));
            m.value?;
            m.secs
        }
    };
    let note = "OpcDataset::synthesize, 16 clips at 64 px, reference ILT and kernels included";
    m.set("dataset.synth_s", dataset_s, note);

    // Kernel set-up: cold into an empty directory, then warm from it.
    let optics = spec.optics();
    let (h, wd) = (spec.litho_size, spec.litho_size);
    env.fresh_cache();
    let cold = tr.measure("litho.kernel_derive", || LithoModel::new_cached(optics.clone(), h, wd));
    cold.value.map_err(|e| format!("litho model: {e}"))?;
    let mut warm = Vec::new();
    for _ in 0..3 {
        let load =
            tr.measure("litho.kernel_load", || LithoModel::new_cached(optics.clone(), h, wd));
        load.value.map_err(|e| format!("litho model: {e}"))?;
        warm.push(load.secs);
    }
    m.set("litho.kernel_derive_s", cold.secs, "LithoModel::new_cached, empty cache");
    m.set(
        "litho.kernel_load_ms",
        median(&warm).unwrap_or(f64::NAN) * 1e3,
        "LithoModel::new_cached, warm, median of 3",
    );

    // The same operations untraced, then traced.
    ganopc_obs::reset();
    tr.take_counts();
    // Training passes cover whole rounds so both phases are traced.
    let min_ops = if spec.kind == Kind::Train { spec.round_len() } else { 1 };
    let plain =
        run_ops(&mut w, spec, Stop::AfterOps(seconds / 2.0, min_ops), &mut Tracer::new(false));
    let n_ops = plain.outcomes.len();
    let pass = run_ops(&mut w, spec, Stop::Ops(n_ops), &mut tr);
    let counts = tr.take_counts();
    let mut tally = plain.tally;
    tally.attempted += pass.tally.attempted;
    tally.failed += pass.tally.failed;
    let same =
        plain.outcomes.iter().zip(&pass.outcomes).all(|(a, b)| a.fingerprint == b.fingerprint);
    if !same {
        eprintln!("perfbench: traced outputs differ from untraced outputs");
    }
    m.set(
        "trace.overhead_ratio",
        pass.wall_s / plain.wall_s,
        format!("traced / untraced wall over the same {n_ops} ops"),
    );

    // Layer probes on the workload's own inputs.
    let targets = w.targets();
    let f = probes::fft(&targets[0])?;
    m.set("fft.r2c_us", f.r2c_s * 1e6, format!("{h}x{wd}"));
    m.set("fft.c2r_us", f.c2r_s * 1e6, format!("{h}x{wd}"));
    m.set("fft.gflops_computed", f.flops / f.r2c_s * 1e-9, "computed: 2.5 N log2 N flops per r2c");
    let l = probes::litho(w.model(), &targets[0])?;
    m.set("litho.gradient_ms", l.gradient_s * 1e3, "");
    m.set("litho.aerial_ms", l.aerial_s * 1e3, "");
    let nn = probes::nn(spec, seeds.weights, targets);
    m.set("generator.infer_ms", nn.infer_s * 1e3, format!("{0}x{0}, batch 1", spec.net_size));
    let leg =
        format!("{0}x{0}, base {1}, batch {2}", spec.net_size, spec.base_channels, spec.batch);
    m.set("nn.g_forward_ms", nn.g_forward_s * 1e3, leg.clone());
    m.set("nn.g_backward_ms", nn.g_backward_s * 1e3, leg.clone());
    m.set("nn.d_forward_ms", nn.d_forward_s * 1e3, leg.clone());
    m.set("nn.d_backward_ms", nn.d_backward_s * 1e3, leg);
    let (gm, gk, gn) = nn.gemm_shape;
    m.set("nn.gemm_gflops", nn.gemm_flops_per_s * 1e-9, format!("m={gm} k={gk} n={gn}"));
    m.set(
        "pool.dispatch_us",
        probes::dispatch_s() * 1e6,
        format!("empty run_chunks over {} threads", ganopc_nn::pool::max_threads()),
    );

    // Pool counts over the traced operations.
    let ops = pass.timed().count() as f64;
    m.set("pool.dispatches_per_op", counts.dispatches as f64 / ops, "");
    m.set("pool.wakes_per_dispatch", counts.wakes as f64 / counts.dispatches.max(1) as f64, "");
    let chunks = (counts.chunks_inline + counts.chunks_workers).max(1);
    m.set("pool.inline_chunk_frac", counts.chunks_inline as f64 / chunks as f64, "");

    // ILT: in the operations (flow, ILT baseline) or, for training, in the
    // dataset's reference-mask ILT, repeated here call for call.
    let (ilt_counts, ilt_s, ilt_clips) = match spec.kind {
        Kind::Flow | Kind::Ilt => {
            let clips = pass.of(Phase::Clip).count();
            (counts, pass.of(Phase::Clip).map(|o| o.ilt_s).sum::<f64>(), clips)
        }
        Kind::Train => {
            let model = LithoModel::new_cached(optics.clone(), h, wd)
                .map_err(|e| format!("litho model: {e}"))?;
            let mut engine = IltEngine::new(model, IltConfig::fast());
            let mut secs = 0.0;
            for target in targets {
                let r = tr.measure("ilt.optimize", || engine.optimize(target));
                r.value.map_err(|e| format!("reference ILT: {e}"))?;
                secs += r.secs;
            }
            (tr.take_counts(), secs, targets.len())
        }
    };
    let iters = ilt_counts.ilt_iterations.max(1) as f64;
    let calls_per_iter = ilt_counts.gradient_calls as f64 / iters;
    let ilt_note = if spec.kind == Kind::Train { "dataset reference ILT" } else { "" };
    m.set("litho.gradient_calls_per_iter", calls_per_iter, ilt_note);
    m.set(
        "litho.aerial_calls_per_clip",
        ilt_counts.aerial_calls as f64 / ilt_clips as f64,
        ilt_note,
    );
    m.set(
        "ilt.iterations_per_clip",
        ilt_counts.ilt_iterations as f64 / ilt_counts.ilt_runs.max(1) as f64,
        ilt_note,
    );
    m.set("ilt.iter_ms", ilt_s / iters * 1e3, ilt_note);
    m.set(
        "ilt.litho_share",
        ilt_counts.gradient_calls as f64 * l.gradient_s / ilt_s,
        "computed: gradient calls x litho.gradient_ms / ILT time",
    );
    let evals: Vec<f64> = pass
        .outcomes
        .iter()
        .filter(|o| o.evaluate_s > 0.0)
        .map(|o| o.evaluate_s / o.quality.len().max(1) as f64)
        .collect();
    m.set(
        "metrics.evaluate_ms",
        mean(evals.iter().copied()) * 1e3,
        "MaskMetrics::evaluate per mask",
    );

    // Stages the operations run inside one opaque call, attributed from the
    // program's own reports (flow) or the network-leg probes (training).
    match spec.kind {
        Kind::Flow => {
            let clips = pass.of(Phase::Clip).count() as f64;
            m.set(
                "flow.generator_ms",
                mean(pass.of(Phase::Clip).map(|o| o.generator_s)) * 1e3,
                "FlowResult.generator_runtime_s",
            );
            m.set(
                "flow.refine_s",
                mean(pass.of(Phase::Clip).map(|o| o.ilt_s)),
                "FlowResult.refinement_runtime_s",
            );
            m.set(
                "flow.unattributed_ms",
                tr.self_s("flow.optimize") / clips * 1e3,
                "optimize minus generator, refine, evaluate",
            );
        }
        Kind::Train => {
            attribute_training(&mut tr, &pass, &nn, &l, spec, &mut m);
        }
        Kind::Ilt => {}
    }
    let parents: f64 = ["op", "flow.optimize", "eval.flow_optimize", "pretrain.step", "train.step"]
        .iter()
        .map(|n| tr.self_s(n))
        .sum();
    m.set(
        "op.unattributed_ms",
        parents / ops * 1e3,
        "self time of every span with children, per op",
    );

    print_span_tree(&tr);
    tr.write_json(trace_path).map_err(|e| format!("writing {}: {e}", trace_path.display()))?;
    eprintln!("perfbench: {} spans written to {}", tr.spans().len(), trace_path.display());
    Ok(RunResult { metrics: m, tally, checks_ok: same })
}

/// Lays the probed network legs (and, for pretraining, the litho
/// gradients) out as reported children of each step span, so the steps'
/// self time is what the legs do not explain.
fn attribute_training(
    tr: &mut Tracer,
    pass: &Pass,
    nn: &probes::NnProbe,
    l: &probes::LithoProbe,
    spec: &Spec,
    m: &mut Metrics,
) {
    let gan_legs = [
        ("nn.g_forward", nn.g_forward_s),
        ("nn.d_forward", 2.0 * nn.d_forward_s),
        ("nn.d_backward", 3.0 * nn.d_backward_s),
        ("nn.g_backward", nn.g_backward_s),
    ];
    let litho_s = spec.batch as f64 * l.gradient_s;
    let pre_legs = [
        ("nn.g_forward", nn.g_forward_s),
        ("litho.gradient", litho_s),
        ("nn.g_backward", nn.g_backward_s),
    ];
    let steps: Vec<(usize, &'static str)> = tr
        .spans()
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "train.step" || s.name == "pretrain.step")
        .map(|(i, s)| (i, s.name))
        .collect();
    for (index, name) in steps {
        let legs: &[(&'static str, f64)] = if name == "train.step" { &gan_legs } else { &pre_legs };
        let mut offset = 0.0;
        for &(leg, secs) in legs {
            tr.record_child(Some(index), leg, offset, secs);
            offset += secs;
        }
    }
    let gan: Vec<f64> = pass.of(Phase::Gan).map(|o| o.secs).collect();
    let pre: Vec<f64> = pass.of(Phase::Pretrain).map(|o| o.secs).collect();
    m.set("train.step_ms_p50", median(&gan).unwrap_or(f64::NAN) * 1e3, format!("n={}", gan.len()));
    match tail(&gan, 99.0) {
        Some(t) => m.set(
            "train.step_ms_p99",
            t.value * 1e3,
            format!("reported p{:.1} of n={}", t.percentile, t.samples),
        ),
        None => m.set(
            "train.step_ms_p99",
            f64::NAN,
            format!("n={} leaves no percentile with 10 samples beyond it", gan.len()),
        ),
    }
    let pre_p50 = median(&pre).unwrap_or(f64::NAN);
    m.set("pretrain.step_ms_p50", pre_p50 * 1e3, format!("n={}", pre.len()));
    m.set(
        "train.unattributed_ms",
        tr.self_s("train.step") / gan.len().max(1) as f64 * 1e3,
        "step minus probed G/D legs (1 G fwd, 2 D fwd, 3 D bwd, 1 G bwd)",
    );
    m.set(
        "pretrain.litho_share",
        litho_s / pre_p50,
        format!("computed: {} gradients x litho.gradient_ms / step p50", spec.batch),
    );
}

/// Prints, per span name, count, total and self time (a parent's self time
/// is its unattributed time).
fn print_span_tree(tr: &Tracer) {
    let mut names: Vec<&'static str> = Vec::new();
    for s in tr.spans() {
        if !names.contains(&s.name) {
            names.push(s.name);
        }
    }
    println!("== spans (count, total ms, self ms = unattributed for parents)");
    for name in names {
        println!(
            "  {:<30} {:>8} {:>14.3} {:>14.3}",
            name,
            tr.count(name),
            tr.total_s(name) * 1e3,
            tr.self_s(name) * 1e3
        );
    }
}

/// Seed plumbing self-test: the same seed twice must give bit-identical
/// inputs and outputs; another seed must give different inputs, and every
/// operation of all three runs must pass its checks. Runs `ops` operations
/// (at least one full round for training).
///
/// # Errors
///
/// Returns a description of the first violated property.
pub fn self_test(spec: &Spec, seed: u64, ops: usize, env: &mut Env) -> Result<(), String> {
    let ops = if spec.kind == Kind::Train { ops.max(spec.round_len()) } else { ops };
    let mut run = |seed: u64| -> Result<(u64, Vec<u64>), String> {
        env.fresh_cache();
        let (mut w, _) = Workload::build(spec, Seeds::derive(seed), &mut Tracer::new(false))?;
        let pass = run_ops(&mut w, spec, Stop::Ops(ops), &mut Tracer::new(false));
        if pass.tally.failed > 0 {
            return Err(format!(
                "seed {seed}: {} of {} operations failed",
                pass.tally.failed, pass.tally.attempted
            ));
        }
        Ok((w.input_fingerprint(), pass.outcomes.iter().map(|o| o.fingerprint).collect()))
    };
    let (inputs_a, outputs_a) = run(seed)?;
    let (inputs_b, outputs_b) = run(seed)?;
    let (inputs_c, _) = run(seed.wrapping_add(1))?;
    if inputs_a != inputs_b || outputs_a != outputs_b {
        return Err(format!(
            "{}: seed {seed} twice gave different inputs or outputs",
            spec.kind.name()
        ));
    }
    if inputs_a == inputs_c {
        return Err(format!(
            "{}: seeds {seed} and {} gave the same inputs",
            spec.kind.name(),
            seed.wrapping_add(1)
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{declared, render_report, END_TO_END, PER_LAYER};

    fn scratch(tag: &str) -> Env {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.bench_build/perfbench-test")
            .join(format!("{tag}-{}", std::process::id()));
        Env::new(root).expect("scratch directory")
    }

    /// One test, because the kernel-cache directory and the crew size are
    /// process-wide: every workload at test scale runs the self-test, the
    /// untraced run and the traced run, and must report every declared
    /// metric with no failed operation.
    #[test]
    fn every_workload_runs_checks_and_reports_everything() {
        ganopc_nn::pool::set_max_threads(Some(2));
        let mut env = scratch("all");
        for kind in Kind::ALL {
            let spec = Spec::tiny(kind);
            self_test(&spec, 5, 2, &mut env).unwrap();
            for trace in [false, true] {
                let path = env.root().join("trace.json");
                let r = if trace {
                    traced(&spec, 9, 0.2, &mut env, &path).unwrap()
                } else {
                    timed(&spec, 9, 0.2, &mut env).unwrap()
                };
                assert_eq!(r.tally.failed, 0, "{} trace={trace}", kind.name());
                assert!(r.checks_ok);
                let report = render_report(kind, trace, &r.metrics);
                let gated = if trace { &PER_LAYER[..] } else { &END_TO_END[..] };
                for d in declared(kind, trace) {
                    let v = r.metrics.get(d.name);
                    let finite = v.is_some_and(f64::is_finite);
                    // A report-only tail may be absent at test scale, but
                    // it is still reported (as NaN with the reason).
                    assert!(
                        finite || (v.is_some() && !gated.contains(&d)),
                        "{} {}: {v:?}\n{report}",
                        kind.name(),
                        d.name
                    );
                }
            }
        }
    }
}
