//! Metric names, units and the two renderings: the human-readable report
//! and the one-line JSON result.

use crate::stats::Tally;
use crate::workloads::Kind;
use std::fmt::Write as _;

/// A metric as declared in `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Def {
    /// Metric name.
    pub name: &'static str,
    /// Unit label.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> Def {
    Def { name, unit, better }
}

/// End-to-end metrics, measured untraced and reported by every workload.
pub const END_TO_END: [Def; 4] = [
    def("setup_s", "s", "lower"),
    def("peak_rss_mb", "MB", "lower"),
    def("ops_per_s", "1/s", "higher"),
    def("l2_nm2_trimmed", "nm2", "lower"),
];

/// Per-layer metrics, from the traced run of every workload.
pub const PER_LAYER: [Def; 27] = [
    def("geometry.clip_synth_ms", "ms", "lower"),
    def("litho.kernel_derive_s", "s", "lower"),
    def("litho.kernel_load_ms", "ms", "lower"),
    def("dataset.synth_s", "s", "lower"),
    def("fft.r2c_us", "us", "lower"),
    def("fft.c2r_us", "us", "lower"),
    def("fft.gflops_computed", "GFLOP/s", "higher"),
    def("litho.gradient_ms", "ms", "lower"),
    def("litho.aerial_ms", "ms", "lower"),
    def("litho.gradient_calls_per_iter", "count", "lower"),
    def("litho.aerial_calls_per_clip", "count", "lower"),
    def("ilt.iterations_per_clip", "count", "lower"),
    def("ilt.iter_ms", "ms", "lower"),
    def("ilt.litho_share", "ratio", "lower"),
    def("metrics.evaluate_ms", "ms", "lower"),
    def("generator.infer_ms", "ms", "lower"),
    def("nn.g_forward_ms", "ms", "lower"),
    def("nn.g_backward_ms", "ms", "lower"),
    def("nn.d_forward_ms", "ms", "lower"),
    def("nn.d_backward_ms", "ms", "lower"),
    def("nn.gemm_gflops", "GFLOP/s", "higher"),
    def("op.unattributed_ms", "ms", "lower"),
    def("pool.dispatches_per_op", "count", "lower"),
    def("pool.wakes_per_dispatch", "ratio", "lower"),
    def("pool.inline_chunk_frac", "ratio", "higher"),
    def("pool.dispatch_us", "us", "lower"),
    def("trace.overhead_ratio", "ratio", "lower"),
];

/// Metrics printed in the report only: names specific to one workload;
/// the median operation time (with one caller it adds no information to
/// `ops_per_s` but spreads more from seed to seed); the PV band, whose
/// average over a round still spreads about 20 % from seed to seed on the
/// ILT baseline, too close to any bound the gate allows; the plain means
/// beside the trimmed ones; and `fail_frac`, which the JSON result carries
/// as `failed`/`attempted`.
pub fn report_only(kind: Kind, trace: bool) -> &'static [Def] {
    const CLIP_E2E: [Def; 7] = [
        def("fail_frac", "ratio", "lower"),
        def("op_ms_p50", "ms", "lower"),
        def("pvb_nm2_trimmed", "nm2", "lower"),
        def("l2_nm2_mean", "nm2", "lower"),
        def("pvb_nm2_mean", "nm2", "lower"),
        def("clips_per_s", "1/s", "higher"),
        def("clip_s_p50", "s", "lower"),
    ];
    const TRAIN_E2E: [Def; 9] = [
        def("fail_frac", "ratio", "lower"),
        def("op_ms_p50", "ms", "lower"),
        def("pvb_nm2_trimmed", "nm2", "lower"),
        def("l2_nm2_mean", "nm2", "lower"),
        def("pvb_nm2_mean", "nm2", "lower"),
        def("pretrain_steps_per_s", "1/s", "higher"),
        def("train_steps_per_s", "1/s", "higher"),
        def("pretrain_litho_err_final", "px", "lower"),
        def("train_l2_loss_final", "ratio", "lower"),
    ];
    const FLOW_LAYER: [Def; 3] = [
        def("flow.generator_ms", "ms", "lower"),
        def("flow.refine_s", "s", "lower"),
        def("flow.unattributed_ms", "ms", "lower"),
    ];
    const TRAIN_LAYER: [Def; 5] = [
        def("train.step_ms_p50", "ms", "lower"),
        def("train.step_ms_p99", "ms", "lower"),
        def("pretrain.step_ms_p50", "ms", "lower"),
        def("train.unattributed_ms", "ms", "lower"),
        def("pretrain.litho_share", "ratio", "lower"),
    ];
    match (kind, trace) {
        (Kind::Flow | Kind::Ilt, false) => &CLIP_E2E,
        (Kind::Train, false) => &TRAIN_E2E,
        (Kind::Flow, true) => &FLOW_LAYER,
        (Kind::Ilt, true) => &[],
        (Kind::Train, true) => &TRAIN_LAYER,
    }
}

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name from [`END_TO_END`], [`PER_LAYER`] or [`report_only`].
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// How it was obtained, for the report.
    pub note: String,
}

/// Named values of one run, in the order they were set.
#[derive(Debug, Clone, Default)]
pub struct Metrics(Vec<Metric>);

impl Metrics {
    /// Sets `name` (replacing an earlier value).
    pub fn set(&mut self, name: &'static str, value: f64, note: impl Into<String>) {
        self.0.retain(|m| m.name != name);
        self.0.push(Metric { name, value, note: note.into() });
    }

    /// Value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// The declared metrics a run must report, then the report-only ones.
pub fn declared(kind: Kind, trace: bool) -> Vec<Def> {
    let main: &[Def] = if trace { &PER_LAYER } else { &END_TO_END };
    main.iter().chain(report_only(kind, trace)).copied().collect()
}

/// Human-readable report: every declared metric once, with its unit.
/// Missing values read `missing`.
pub fn render_report(kind: Kind, trace: bool, metrics: &Metrics) -> String {
    let mut out = String::new();
    let title = if trace { "per-layer (traced run)" } else { "end-to-end (untraced run)" };
    let _ = writeln!(out, "== {} {title}", kind.name());
    for d in declared(kind, trace) {
        match metrics.0.iter().find(|m| m.name == d.name) {
            Some(m) if m.note.is_empty() => {
                let _ = writeln!(out, "  {:<30} {:>14.6} {}", d.name, m.value, d.unit);
            }
            Some(m) => {
                let _ =
                    writeln!(out, "  {:<30} {:>14.6} {}  ({})", d.name, m.value, d.unit, m.note);
            }
            None => {
                let _ = writeln!(out, "  {:<30} {:>14} {}", d.name, "missing", d.unit);
            }
        }
    }
    out
}

/// The result line: `correct`, `attempted`, `failed` and every declared
/// `BENCHMARK.json` metric of the run with its unit. A run missing a metric,
/// or holding a non-finite one, is not correct.
pub fn render_json(trace: bool, tally: &Tally, checks_ok: bool, metrics: &Metrics) -> String {
    let defs: &[Def] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut complete = true;
    let mut body = String::new();
    for (i, d) in defs.iter().enumerate() {
        let value = metrics.get(d.name).filter(|v| v.is_finite());
        complete &= value.is_some();
        let shown = value.map_or("null".to_string(), |v| format!("{v:?}"));
        let sep = if i == 0 { "" } else { ", " };
        let _ =
            write!(body, "{sep}\"{}\": {{\"value\": {shown}, \"unit\": \"{}\"}}", d.name, d.unit);
    }
    let correct = checks_ok && complete && tally.failed == 0 && tally.attempted > 0;
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        tally.attempted, tally.failed
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(kind: Kind, trace: bool) -> Metrics {
        let mut m = Metrics::default();
        for (i, d) in declared(kind, trace).iter().enumerate() {
            m.set(d.name, 1.0 + i as f64 / 8.0, "");
        }
        m
    }

    #[test]
    fn every_name_is_printed_exactly_once_with_its_unit() {
        for kind in Kind::ALL {
            for trace in [false, true] {
                let report = render_report(kind, trace, &filled(kind, trace));
                for d in declared(kind, trace) {
                    let lines: Vec<&str> = report
                        .lines()
                        .filter(|l| l.split_whitespace().next() == Some(d.name))
                        .collect();
                    assert_eq!(lines.len(), 1, "{} in {}", d.name, kind.name());
                    assert_eq!(lines[0].split_whitespace().nth(2), Some(d.unit), "{}", d.name);
                }
                let json = render_json(
                    trace,
                    &Tally { attempted: 3, failed: 0 },
                    true,
                    &filled(kind, trace),
                );
                let defs: &[Def] = if trace { &PER_LAYER } else { &END_TO_END };
                for d in defs {
                    let key = format!("\"{}\": {{\"value\": ", d.name);
                    assert_eq!(json.matches(&key).count(), 1, "{}", d.name);
                    assert!(json.contains(&format!("\"unit\": \"{}\"}}", d.unit)));
                }
                assert!(json.starts_with(
                    "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {"
                ));
            }
        }
    }

    #[test]
    fn names_are_unique() {
        for kind in Kind::ALL {
            for trace in [false, true] {
                let names = declared(kind, trace);
                for (i, d) in names.iter().enumerate() {
                    assert!(names[i + 1..].iter().all(|o| o.name != d.name), "{}", d.name);
                }
            }
        }
    }

    #[test]
    fn failures_and_gaps_make_the_result_incorrect() {
        let full = filled(Kind::Ilt, false);
        let ok = Tally { attempted: 4, failed: 0 };
        assert!(render_json(false, &ok, true, &full).starts_with("{\"correct\": true"));
        let one_failed = Tally { attempted: 4, failed: 1 };
        assert!(render_json(false, &one_failed, true, &full)
            .starts_with("{\"correct\": false, \"attempted\": 4, \"failed\": 1"));
        assert!(render_json(false, &ok, false, &full).starts_with("{\"correct\": false"));
        let mut gap = full.clone();
        gap.set("ops_per_s", f64::NAN, "");
        let json = render_json(false, &ok, true, &gap);
        assert!(
            json.starts_with("{\"correct\": false")
                && json.contains("\"ops_per_s\": {\"value\": null")
        );
    }

    #[test]
    fn declarations_match_benchmark_json() {
        let manifest = include_str!("../../BENCHMARK.json");
        for (defs, section) in [(&END_TO_END[..], "end_to_end"), (&PER_LAYER[..], "per_layer")] {
            let start = manifest.find(&format!("\"{section}\"")).expect("section present");
            let body = &manifest[start..];
            let body = &body[..body.find(']').expect("section closes")];
            assert_eq!(body.matches("\"name\"").count(), defs.len(), "{section}");
            for d in defs {
                let entry = format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                    d.name, d.unit, d.better
                );
                assert!(body.contains(&entry), "{section}: {entry}");
            }
        }
    }
}
