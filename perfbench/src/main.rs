//! End-to-end benchmark of the GAN-OPC stack.
//!
//! ```text
//! perfbench --workload <flow_fig6_256|ilt_pw_128|train_gan_64> --seed <n>
//!           --seconds <s> --trace <0|1>
//! perfbench --self-test [--workload <name>] [--seed <n>]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of an untraced run, `--trace 1`
//! the per-layer metrics of a traced run. The last line of standard output
//! is the JSON result. Run it from the repository root; scratch files go to
//! `.bench_build/perfbench/`. See `perfbench/README.md`.

mod counts;
mod inputs;
mod probes;
mod report;
mod runner;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Kind, Spec};

/// Largest crew the benchmark uses (capped further by the host's cores).
const MAX_THREADS: usize = 2;

#[derive(Debug)]
struct Args {
    workloads: Vec<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_test: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args =
        Args { workloads: Vec::new(), seed: 1, seconds: 10.0, trace: false, self_test: false };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workloads.push(Kind::parse(name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--self-test" => args.self_test = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.self_test && args.workloads.is_empty() {
        args.workloads = Kind::ALL.to_vec();
    }
    if !args.self_test && args.workloads.len() != 1 {
        return Err("give exactly one --workload".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let scratch = PathBuf::from(".bench_build/perfbench");
    let mut env = match runner::Env::new(scratch.join(format!("run-{}", std::process::id()))) {
        Ok(env) => env,
        Err(e) => {
            eprintln!("perfbench: scratch directory: {e}");
            return ExitCode::from(1);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = cores.min(MAX_THREADS);
    ganopc_nn::pool::set_max_threads(Some(threads));
    ganopc_obs::set_epe_trace_stride(0);
    println!("perfbench: crew of {threads} threads ({cores} cores available)");

    if args.self_test {
        for kind in &args.workloads {
            let spec = Spec::full(*kind);
            ganopc_obs::reset();
            match runner::self_test(&spec, args.seed, 2, &mut env) {
                Ok(()) => println!("self-test {}: ok", kind.name()),
                Err(e) => {
                    eprintln!("perfbench: self-test failed: {e}");
                    return ExitCode::from(1);
                }
            }
        }
        return ExitCode::SUCCESS;
    }

    let kind = args.workloads[0];
    let spec = Spec::full(kind);
    ganopc_obs::reset();
    let result = if args.trace {
        let trace_path = scratch.join(format!("trace-{}-seed{}.json", kind.name(), args.seed));
        runner::traced(&spec, args.seed, args.seconds, &mut env, &trace_path)
    } else {
        runner::timed(&spec, args.seed, args.seconds, &mut env)
    };
    drop(env);
    match result {
        Ok(r) => {
            print!("{}", report::render_report(kind, args.trace, &r.metrics));
            println!("{}", report::render_json(args.trace, &r.tally, r.checks_ok, &r.metrics));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", kind.name());
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse(&argv("--workload ilt_pw_128 --seed 42 --seconds 12 --trace 1")).unwrap();
        assert_eq!(a.workloads, vec![Kind::Ilt]);
        assert_eq!((a.seed, a.seconds, a.trace, a.self_test), (42, 12.0, true, false));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "",
            "--workload nope",
            "--workload ilt_pw_128 --trace 2",
            "--workload ilt_pw_128 --seconds 0",
            "--seed",
        ] {
            assert!(parse(&argv(bad)).is_err(), "{bad}");
        }
        assert_eq!(parse(&argv("--self-test")).unwrap().workloads, Kind::ALL.to_vec());
    }
}
