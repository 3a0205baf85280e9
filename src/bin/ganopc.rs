//! `ganopc` — command-line interface to the GAN-OPC stack.
//!
//! ```text
//! ganopc synthesize --seed 7 --groups 10 --out clip.pgm
//! ganopc opc --flow ilt --size 128 --seed 7
//! ganopc train --out model.ckpt --count 40 --iters 300 --pretrain 100
//! ganopc evaluate --ckpt model.ckpt
//! ganopc suite
//! ```
//!
//! Run `ganopc help` for the full usage text.

use gan_opc::core::pretrain::{pretrain_generator, PretrainConfig};
use gan_opc::core::{
    Discriminator, FlowConfig, GanOpcError, GanOpcFlow, GanTrainer, Generator, OpcDataset,
    SupervisorConfig, TrainConfig, TrainSupervisor,
};
use gan_opc::geometry::io::{sweep_stale_tmp, write_pgm};
use gan_opc::geometry::synthesis::benchmark_suite;
use gan_opc::geometry::{ClipSynthesizer, DesignRules};
use gan_opc::ilt::{IltConfig, IltEngine};
use gan_opc::litho::metrics::{DefectConfig, MaskMetrics};
use gan_opc::litho::{Field, LithoModel};
use gan_opc::mbopc::{MbOpcConfig, MbOpcEngine};
use gan_opc::obs::{self, MetricsSnapshot};
use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "\
ganopc — lithography-guided generative adversarial mask optimization

USAGE:
    ganopc <command> [--key value]...

COMMANDS:
    synthesize   generate a DRC-clean M1 clip
                   --seed N (default 7)  --groups N (default 10)
                   --size PX (default 128)  --out FILE.pgm (optional)
    opc          optimize a clip (synthesized, or loaded with --clip)
                   --flow ilt|mbopc|gan (default ilt)  --seed N  --size PX
                   --clip FILE (text layout; see geometry::textfmt)
                   --ckpt FILE (gan flow: trained generator weights, a
                     train --out or --state file)
                   --outdir DIR (write target/mask/wafer PGMs)
    train        train a PGAN-OPC generator and save a checkpoint
                   --out FILE (default model.ckpt)  --count N (default 40)
                   --net PX (default 64)  --iters N (default 300)
                   --pretrain N (default 100)  --seed N
                   --state FILE (also save the full resumable trainer state;
                     enables the self-healing supervisor: divergence
                     detection + rollback from a checkpoint ring kept in
                     FILE.ring/)
                   --resume FILE (continue a run saved with --state; pass the
                     same --count/--net/--seed so the dataset matches)
                   --ckpt-ring N (supervisor: rollback checkpoints kept,
                     default 3)
                   --max-retries N (supervisor: rollback budget before the
                     run fails typed, default 2)
                   --divergence-window N (supervisor: trailing steps for the
                     loss-explosion test, default 20)
    evaluate     run the GAN-OPC flow over the 10 benchmark clips
                   --ckpt FILE (required; a train --out or --state file)
                   --net PX (default 64)
                   --size PX (default 128)
    suite        print the regenerated ICCAD-2013-like benchmark suite
    help         show this text

GLOBAL OPTIONS (any command):
    --metrics-json FILE   after the command, write the observability snapshot
                          (counters, latency histograms, ILT loss/EPE traces)
                          as JSON; also enables the per-iteration ILT EPE
                          trace (every 8th iteration)

EXIT CODES:
    0  success
    1  any other failure (lithography, configuration, ...)
    2  usage error (unknown command/flag, unparsable value)
    3  checkpoint failure (missing, corrupt, or unwritable state file)
    4  I/O failure (images, layouts, metrics snapshots)
    5  training diverged past its recovery budget

Commands that write artifacts sweep stale atomic-write temporaries
(`.*.tmp` orphans from a crashed run) out of their output directories at
startup; sweeps are counted under `stale_tmp_swept` in --metrics-json.
";

/// A CLI failure carrying its documented process exit code.
enum CliError {
    /// Bad invocation: unknown command/flag or unparsable value (exit 2).
    Usage(String),
    /// Checkpoint load/save failure (exit 3).
    Checkpoint(String),
    /// Filesystem/image/layout I/O failure (exit 4).
    Io(String),
    /// Training diverged past the supervisor's budget (exit 5).
    Divergence(String),
    /// Everything else (exit 1).
    Other(String),
}

impl CliError {
    fn exit_code(&self) -> u8 {
        match self {
            CliError::Other(_) => 1,
            CliError::Usage(_) => 2,
            CliError::Checkpoint(_) => 3,
            CliError::Io(_) => 4,
            CliError::Divergence(_) => 5,
        }
    }

    fn message(&self) -> &str {
        match self {
            CliError::Usage(m)
            | CliError::Checkpoint(m)
            | CliError::Io(m)
            | CliError::Divergence(m)
            | CliError::Other(m) => m,
        }
    }
}

/// Maps a core error to its exit class; the `context` prefixes the
/// one-line message (usually the file or stage involved).
fn classify(context: &str, e: GanOpcError) -> CliError {
    let msg = if context.is_empty() { e.to_string() } else { format!("{context}: {e}") };
    match e {
        GanOpcError::Divergence(_) => CliError::Divergence(msg),
        GanOpcError::Checkpoint(_) => CliError::Checkpoint(msg),
        _ => CliError::Other(msg),
    }
}

/// Parses `--key value` pairs. A key that a known `command` does not read
/// is a usage error, so a misspelled flag cannot silently fall back to the
/// default; unknown commands are left for the dispatcher to report.
fn parse_args(command: &str, args: &[String]) -> Result<HashMap<String, String>, CliError> {
    let keys = command_keys(command);
    let mut map = HashMap::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let Some(name) = key.strip_prefix("--") else {
            return Err(CliError::Usage(format!(
                "unexpected argument '{key}' (expected --key value)"
            )));
        };
        let Some(value) = it.next() else {
            return Err(CliError::Usage(format!("missing value for --{name}")));
        };
        if keys.is_some_and(|k| !k.contains(&name) && !GLOBAL_KEYS.contains(&name)) {
            return Err(CliError::Usage(format!("unknown flag --{name} for '{command}'")));
        }
        map.insert(name.to_string(), value.clone());
    }
    Ok(map)
}

/// Flags every command accepts.
const GLOBAL_KEYS: &[&str] = &["metrics-json"];

/// The flags `command` reads, or `None` for an unknown command.
fn command_keys(command: &str) -> Option<&'static [&'static str]> {
    Some(match command {
        "synthesize" => &["seed", "groups", "size", "out"],
        "opc" => &["flow", "seed", "size", "clip", "net", "ckpt", "outdir"],
        "train" => &[
            "out",
            "count",
            "net",
            "iters",
            "pretrain",
            "seed",
            "state",
            "resume",
            "ckpt-ring",
            "max-retries",
            "divergence-window",
        ],
        "evaluate" => &["ckpt", "net", "size"],
        "suite" | "help" | "--help" | "-h" => &[],
        _ => return None,
    })
}

fn get<T: std::str::FromStr>(
    args: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, CliError> {
    match args.get(key) {
        None => Ok(default),
        Some(raw) => {
            raw.parse().map_err(|_| CliError::Usage(format!("invalid value '{raw}' for --{key}")))
        }
    }
}

/// Startup hygiene for a command about to write `path`: sweep stale
/// atomic-write temporaries out of its directory.
fn sweep_output_dir(path: &str) {
    let parent = match Path::new(path).parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => std::path::PathBuf::from("."),
    };
    sweep_stale_tmp(parent);
}

fn synthesize_clip(seed: u64, groups: usize) -> gan_opc::geometry::Layout {
    ClipSynthesizer::new(DesignRules::m1_32nm(), 2048, groups).synthesize(seed)
}

fn cmd_synthesize(args: &HashMap<String, String>) -> Result<(), CliError> {
    let seed: u64 = get(args, "seed", 7)?;
    let groups: usize = get(args, "groups", 10)?;
    let size: usize = get(args, "size", 128)?;
    let clip = synthesize_clip(seed, groups);
    println!(
        "clip: {} shapes, pattern area {} nm², frame {} nm",
        clip.shapes().len(),
        clip.pattern_area(),
        clip.frame().width()
    );
    if let Some(path) = args.get("out") {
        sweep_output_dir(path);
        let raster = clip.rasterize_raster(size, size);
        write_pgm(path, &raster).map_err(|e| CliError::Io(format!("cannot write {path}: {e}")))?;
        println!("wrote {path} ({size}x{size})");
    }
    Ok(())
}

fn cmd_opc(args: &HashMap<String, String>) -> Result<(), CliError> {
    let seed: u64 = get(args, "seed", 7)?;
    let size: usize = get(args, "size", 128)?;
    let flow_kind = args.get("flow").map(String::as_str).unwrap_or("ilt");
    let clip = match args.get("clip") {
        Some(path) => gan_opc::geometry::textfmt::read_layout(path)
            .map_err(|e| CliError::Io(format!("cannot load {path}: {e}")))?,
        None => synthesize_clip(seed, 10),
    };
    let target: Field = clip.rasterize_raster(size, size).binarize(0.5);
    let model =
        LithoModel::iccad2013_like_cached(size).map_err(|e| CliError::Other(e.to_string()))?;

    let (label, mask, wafer, runtime_s) = match flow_kind {
        "ilt" => {
            let mut engine = IltEngine::new(
                LithoModel::iccad2013_like_cached(size)
                    .map_err(|e| CliError::Other(e.to_string()))?,
                IltConfig::mosaic(),
            );
            let r = engine.optimize(&target).map_err(|e| CliError::Other(e.to_string()))?;
            ("ILT", r.mask, r.wafer, r.runtime_s)
        }
        "mbopc" => {
            let mut engine = MbOpcEngine::new(
                LithoModel::iccad2013_like_cached(size)
                    .map_err(|e| CliError::Other(e.to_string()))?,
                MbOpcConfig::standard(),
            );
            let r = engine.optimize(&clip).map_err(|e| CliError::Other(e.to_string()))?;
            ("MB-OPC", r.mask, r.wafer, r.runtime_s)
        }
        "gan" => {
            let net: usize = get(args, "net", 64)?;
            let mut cfg = FlowConfig::paper_scaled();
            cfg.net_size = net;
            cfg.litho_size = size;
            cfg.base_channels = 8; // must match `ganopc train`
            let mut flow = GanOpcFlow::new(cfg).map_err(|e| classify("", e))?;
            if let Some(ckpt) = args.get("ckpt") {
                flow.generator_mut().load(ckpt).map_err(|e| classify(ckpt, e))?;
            } else {
                eprintln!("warning: no --ckpt given; running with an untrained generator");
            }
            let r = flow.optimize(&target).map_err(|e| classify("", e))?;
            ("GAN-OPC", r.mask, r.wafer, r.total_runtime_s)
        }
        other => return Err(CliError::Usage(format!("unknown flow '{other}' (ilt|mbopc|gan)"))),
    };

    let metrics = MaskMetrics::evaluate(&model, &mask, &target, &DefectConfig::default());
    println!("{label} on seed {seed} ({size}x{size}):");
    println!("  squared L2 : {:>10.0} nm²", metrics.l2_nm2);
    println!("  PV band    : {:>10.0} nm²", metrics.pvb_nm2);
    println!(
        "  defects    : {} EPE / {} bridges / {} breaks / {} necks",
        metrics.epe_violations, metrics.bridges, metrics.breaks, metrics.necks
    );
    println!("  runtime    : {runtime_s:.2}s");
    if let Some(dir) = args.get("outdir") {
        std::fs::create_dir_all(dir).map_err(|e| CliError::Io(e.to_string()))?;
        let dir = std::path::Path::new(dir);
        sweep_stale_tmp(dir);
        write_pgm(dir.join("target.pgm"), &target).map_err(|e| CliError::Io(e.to_string()))?;
        write_pgm(dir.join("mask.pgm"), &mask).map_err(|e| CliError::Io(e.to_string()))?;
        write_pgm(dir.join("wafer.pgm"), &wafer).map_err(|e| CliError::Io(e.to_string()))?;
        println!("wrote {}/{{target,mask,wafer}}.pgm", dir.display());
    }
    Ok(())
}

fn cmd_train(args: &HashMap<String, String>) -> Result<(), CliError> {
    let out = args.get("out").cloned().unwrap_or_else(|| "model.ckpt".to_string());
    let count: usize = get(args, "count", 40)?;
    let net: usize = get(args, "net", 64)?;
    let iters: usize = get(args, "iters", 300)?;
    let pretrain: usize = get(args, "pretrain", 100)?;
    let seed: u64 = get(args, "seed", 2018)?;
    let state_path = args.get("state").cloned();
    let defaults = SupervisorConfig::default();
    let sup_cfg = SupervisorConfig {
        ckpt_ring: get(args, "ckpt-ring", defaults.ckpt_ring)?,
        max_retries: get(args, "max-retries", defaults.max_retries)?,
        divergence_window: get(args, "divergence-window", defaults.divergence_window)?,
        ..defaults
    };
    sup_cfg.validate().map_err(CliError::Usage)?;

    sweep_output_dir(&out);
    if let Some(state) = &state_path {
        sweep_output_dir(state);
    }

    eprintln!("[1/3] synthesizing {count} training instances at {net}x{net}...");
    let mut ref_cfg = IltConfig::refinement();
    ref_cfg.max_iterations = 50;
    let dataset = OpcDataset::synthesize(net, count, ref_cfg, seed).map_err(|e| classify("", e))?;

    let mut trainer = if let Some(state) = args.get("resume") {
        let trainer = GanTrainer::resume(state)
            .map_err(|e| classify(&format!("cannot resume from {state}"), e))?;
        eprintln!(
            "[2/3] resumed trainer from {state} at step {}/{}",
            trainer.step(),
            trainer.config().iterations
        );
        trainer
    } else {
        let mut generator = Generator::new(net, 8, seed);
        if pretrain > 0 {
            eprintln!("[2/3] ILT-guided pre-training ({pretrain} steps)...");
            let model = LithoModel::iccad2013_like_cached(net)
                .map_err(|e| CliError::Other(e.to_string()))?;
            let mut pcfg = PretrainConfig::paper_scaled();
            pcfg.iterations = pretrain;
            let stats = pretrain_generator(&mut generator, &model, &dataset, &pcfg)
                .map_err(|e| classify("pre-training", e))?;
            eprintln!(
                "      litho error {:.0} -> {:.0}",
                stats.first().map(|s| s.litho_error).unwrap_or(0.0),
                stats.last().map(|s| s.litho_error).unwrap_or(0.0)
            );
        } else {
            eprintln!("[2/3] skipping pre-training (--pretrain 0)");
        }
        let mut tcfg = TrainConfig::paper_scaled();
        tcfg.iterations = iters;
        GanTrainer::new(generator, Discriminator::new(net, 8, seed ^ 1), tcfg)
    };

    // With a state file the run gets the self-healing supervisor: a
    // checkpoint ring next to the state file provides rollback points,
    // and divergence (NaN/∞ or exploding loss) triggers rollback + LR
    // backoff instead of wasting the run.
    let mut supervisor = match &state_path {
        Some(state) => {
            let ring_dir = format!("{state}.ring");
            eprintln!(
                "      supervisor armed: ring {} (K={}), {} retr{}, window {}",
                ring_dir,
                sup_cfg.ckpt_ring,
                sup_cfg.max_retries,
                if sup_cfg.max_retries == 1 { "y" } else { "ies" },
                sup_cfg.divergence_window
            );
            Some(TrainSupervisor::new(&ring_dir, sup_cfg).map_err(|e| classify(&ring_dir, e))?)
        }
        None => None,
    };

    let remaining = trainer.config().iterations.saturating_sub(trainer.step());
    eprintln!("[3/3] adversarial training ({remaining} steps)...");
    // Train in slices so the log carries periodic obs summaries: per-step
    // latency from the span histograms plus pool activity, with no timing
    // code of its own.
    let report_every = (remaining / 5).max(1);
    let mut stats = Vec::with_capacity(remaining);
    while trainer.step() < trainer.config().iterations {
        let left = trainer.config().iterations - trainer.step();
        let slice = report_every.min(left);
        match &mut supervisor {
            Some(sup) => stats.extend(
                sup.run(&mut trainer, &dataset, slice).map_err(|e| classify("training", e))?,
            ),
            None => stats.extend(trainer.train_for(&dataset, slice)),
        }
        let snap = MetricsSnapshot::capture();
        let step_ms = |name: &str, f: fn(&gan_opc::obs::SpanStats) -> f64| {
            snap.span_stats(name).map(f).unwrap_or(0.0) / 1e6
        };
        eprintln!(
            "      step {:>4}/{} | l2 {:.4} | step p50 {:.1} ms mean {:.1} ms | \
             dispatches {} parks {}",
            trainer.step(),
            trainer.config().iterations,
            stats.last().map(|s| s.l2_loss).unwrap_or(0.0),
            step_ms("train_step", |s| s.p50_ns),
            step_ms("train_step", |s| s.mean_ns),
            snap.counter("pool_dispatches"),
            snap.counter("pool_worker_parks"),
        );
    }
    if let Some(sup) = &supervisor {
        if sup.retries_used() > 0 {
            eprintln!(
                "      supervisor recovered {} divergence(s); lr scale {:.3}",
                sup.retries_used(),
                sup.lr_scale()
            );
        }
    }
    eprintln!(
        "      mask L2 loss {:.4} -> {:.4}",
        stats.first().map(|s| s.l2_loss).unwrap_or(0.0),
        stats.last().map(|s| s.l2_loss).unwrap_or(0.0)
    );
    if let Some(state) = &state_path {
        trainer
            .save_checkpoint(state)
            .map_err(|e| classify(&format!("cannot save trainer state to {state}"), e))?;
        println!("saved resumable trainer state to {state}");
    }
    let (mut generator, _) = trainer.into_networks();
    generator.save(&out).map_err(|e| classify(&out, e))?;
    println!("saved generator checkpoint to {out}");
    Ok(())
}

fn cmd_evaluate(args: &HashMap<String, String>) -> Result<(), CliError> {
    let ckpt = args
        .get("ckpt")
        .ok_or_else(|| CliError::Usage("--ckpt is required for evaluate".into()))?;
    let net: usize = get(args, "net", 64)?;
    let size: usize = get(args, "size", 128)?;
    let mut cfg = FlowConfig::paper_scaled();
    cfg.net_size = net;
    cfg.litho_size = size;
    cfg.base_channels = 8; // must match `ganopc train`
    let mut flow = GanOpcFlow::new(cfg).map_err(|e| classify("", e))?;
    flow.generator_mut().load(ckpt).map_err(|e| classify(ckpt, e))?;

    println!("{:>4} {:>10} {:>10} {:>8}", "ID", "L2 (nm²)", "PVB (nm²)", "RT (s)");
    let mut sums = (0.0f64, 0.0f64, 0.0f64);
    let suite = benchmark_suite(2048);
    for clip in &suite {
        let target = clip.layout.rasterize_raster(size, size).binarize(0.5);
        let r = flow.optimize(&target).map_err(|e| classify("", e))?;
        println!(
            "{:>4} {:>10.0} {:>10.0} {:>8.2}",
            clip.id, r.l2_nm2, r.metrics.pvb_nm2, r.total_runtime_s
        );
        sums.0 += r.l2_nm2;
        sums.1 += r.metrics.pvb_nm2;
        sums.2 += r.total_runtime_s;
    }
    let n = suite.len() as f64;
    println!("{:>4} {:>10.0} {:>10.0} {:>8.2}", "avg", sums.0 / n, sums.1 / n, sums.2 / n);
    Ok(())
}

fn cmd_suite() -> Result<(), CliError> {
    println!("{:>4} {:>12} {:>12} {:>8}", "ID", "paper nm²", "ours nm²", "shapes");
    for clip in benchmark_suite(2048) {
        println!(
            "{:>4} {:>12} {:>12} {:>8}",
            clip.id,
            clip.paper_area_nm2,
            clip.layout.pattern_area(),
            clip.layout.shapes().len()
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = argv.first() else {
        eprint!("{USAGE}");
        return ExitCode::from(2);
    };
    let parsed = match parse_args(command, &argv[1..]) {
        Ok(map) => map,
        Err(e) => {
            eprintln!("error: {}\n", e.message());
            eprint!("{USAGE}");
            return ExitCode::from(e.exit_code());
        }
    };
    let metrics_path = parsed.get("metrics-json").cloned();
    if let Some(path) = &metrics_path {
        sweep_output_dir(path);
        // Opt into the per-iteration ILT EPE trace only when someone is
        // going to read it — it costs one extra aerial simulation per
        // sampled iteration.
        obs::set_epe_trace_stride(8);
    }
    let result = match command.as_str() {
        "synthesize" => cmd_synthesize(&parsed),
        "opc" => cmd_opc(&parsed),
        "train" => cmd_train(&parsed),
        "evaluate" => cmd_evaluate(&parsed),
        "suite" => cmd_suite(),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(CliError::Usage(format!("unknown command '{other}'"))),
    };
    let result = result.and_then(|()| match &metrics_path {
        None => Ok(()),
        Some(path) => {
            let snapshot = MetricsSnapshot::capture();
            gan_opc::geometry::io::write_atomic(path, snapshot.render_json().as_bytes())
                .map_err(|e| CliError::Io(format!("cannot write metrics snapshot to {path}: {e}")))
                .map(|()| eprintln!("wrote metrics snapshot to {path}"))
        }
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {}", e.message());
            ExitCode::from(e.exit_code())
        }
    }
}
