//! The benchmark's own span recorder. Spans are recorded around the
//! benchmark's calls into the program (never inside it), kept in memory and
//! written out once at the end. Each span has a name, start, end, parent and
//! the id of the operation (clip or step) it belongs to.

use crate::counts::Counts;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `ilt.optimize`.
    pub name: &'static str,
    /// Operation id shared by every span of one clip or step.
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder; a disabled tracer records nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
    counts: Counts,
    counting: bool,
}

/// Result of one call timed by [`Tracer::measure`].
pub struct Measured<R> {
    /// What the call returned.
    pub value: R,
    /// Wall time of the call alone, seconds.
    pub secs: f64,
    /// Index of its span (`None` when tracing is off).
    pub span: Option<usize>,
}

/// Handle of an open span (`None` when tracing is off).
#[must_use = "an entered span must be exited"]
pub struct Open(Option<usize>);

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            counts: Counts::default(),
            counting: true,
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts operation `id`: spans entered from now on carry it.
    pub fn set_op(&mut self, id: u64) {
        self.op = id;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let start_ns = self.now_ns();
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(index);
        Open(Some(index))
    }

    /// Closes a span opened by [`Tracer::enter`], returning its index.
    pub fn exit(&mut self, open: Open) -> Option<usize> {
        let index = open.0?;
        self.spans[index].end_ns = self.now_ns();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(index), "spans must nest");
        Some(index)
    }

    /// Times one call in a span of its own. When tracing, the program's
    /// exact counters are read before and after the call (outside the timed
    /// interval) and their deltas accumulated; see [`Tracer::take_counts`].
    pub fn measure<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> Measured<R> {
        let open = self.enter(name);
        let before = (self.enabled && self.counting).then(Counts::capture);
        let t0 = Instant::now();
        let value = f();
        let secs = t0.elapsed().as_secs_f64();
        if let Some(before) = before {
            self.counts.add(&Counts::capture().since(&before));
        }
        let span = self.exit(open);
        Measured { value, secs, span }
    }

    /// Whether [`Tracer::measure`] accumulates counter deltas (on by
    /// default); calls made while off are timed but not counted.
    pub fn set_counting(&mut self, on: bool) {
        self.counting = on;
    }

    /// Counter deltas accumulated by [`Tracer::measure`] since the last
    /// call; resets the accumulator.
    pub fn take_counts(&mut self) -> Counts {
        std::mem::take(&mut self.counts)
    }

    /// Records a child of span `parent` whose duration the program reported
    /// itself (a stage inside one opaque call), laid out from `offset_s`
    /// after the parent's start.
    pub fn record_child(
        &mut self,
        parent: Option<usize>,
        name: &'static str,
        offset_s: f64,
        dur_s: f64,
    ) {
        let Some(p) = parent else { return };
        let start_ns = self.spans[p].start_ns + (offset_s * 1e9) as u64;
        let end_ns = start_ns + (dur_s * 1e9) as u64;
        self.spans.push(Span { name, op: self.op, parent: Some(p), start_ns, end_ns });
    }

    /// All recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of every span named `name`, seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.named(name).map(|s| s.dur_ns() as f64 * 1e-9).sum()
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.named(name).count()
    }

    /// Self time of the spans named `name`, seconds: their duration minus
    /// the part covered by their direct children (the parent's unattributed
    /// time).
    pub fn self_s(&self, name: &str) -> f64 {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(&child_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(s, &c)| s.dur_ns().saturating_sub(c) as f64 * 1e-9)
            .sum()
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Writes the spans as a JSON array, one span per line.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}{sep}",
                s.name, s.op, s.start_ns, s.end_ns
            );
        }
        out.push_str("]\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let m = t.measure("a", || 1 + 1);
        assert_eq!(m.value, 2);
        t.record_child(m.span, "b", 0.0, 1.0);
        assert!(m.span.is_none() && t.spans().is_empty());
        assert_eq!(t.take_counts(), Counts::default());
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new(true);
        t.set_op(3);
        let root = t.enter("op");
        std::thread::sleep(std::time::Duration::from_millis(300));
        let index = t.exit(root);
        t.record_child(index, "stage", 0.0, 0.25);
        assert_eq!(t.count("op"), 1);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans().iter().all(|s| s.op == 3));
        let (total, own) = (t.total_s("op"), t.self_s("op"));
        assert!((total - own - 0.25).abs() < 1e-6, "{total} {own}");
    }
}
