//! In-memory span recorder for the traced pass.
//!
//! A span is one call from the benchmark into a layer's public function
//! (or a telemetry scope the program already records, imported after the
//! fact): name, start, end, parent, and the work unit it belongs to. Spans
//! stay in memory until the run ends; `write_json` dumps them and the
//! derived self times to `benchmark/out/trace_<workload>.json`.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Work unit the span belongs to.
    pub unit: usize,
    /// Seconds since the tracer was created.
    pub start: f64,
    pub end: f64,
}

impl Span {
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }
}

pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    unit: usize,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            unit: 0,
        }
    }

    pub fn set_unit(&mut self, unit: usize) {
        self.unit = unit;
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Open a span under the innermost open one; returns its index.
    pub fn enter(&mut self, name: &str) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.stack.last().copied(),
            unit: self.unit,
            start,
            end: start,
        });
        let id = self.spans.len() - 1;
        self.stack.push(id);
        id
    }

    /// Close the innermost span (must be `id`); returns its duration.
    pub fn exit(&mut self, id: usize) -> f64 {
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id].end = self.now();
        self.spans[id].dur()
    }

    /// Time `f` as one span.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.enter(name);
        let r = f(self);
        self.exit(id);
        r
    }

    /// Record a child of `parent` whose duration was measured elsewhere (a
    /// telemetry scope, a rank thread's clock, a latency the server
    /// reported). It is laid at the parent's start: only its length counts.
    pub fn import(&mut self, parent: usize, name: &str, dur: f64) -> usize {
        let start = self.spans[parent].start;
        self.spans.push(Span {
            name: name.to_string(),
            parent: Some(parent),
            unit: self.spans[parent].unit,
            start,
            end: start + dur,
        });
        self.spans.len() - 1
    }

    /// Durations of every span called `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur)
            .collect()
    }
}

/// Self time of every span: its duration minus the durations of its direct
/// children, floored at zero (imported children can overlap on a clock
/// that is not the parent's).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::dur).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.dur();
        }
    }
    own.iter().map(|v| v.max(0.0)).collect()
}

/// Per work unit, the time all spans called `name` took.
pub fn totals_per_unit(spans: &[Span], name: &str, units: usize) -> Vec<f64> {
    let mut totals = vec![0.0; units];
    for s in spans.iter().filter(|s| s.name == name) {
        totals[s.unit] += s.dur();
    }
    totals
}

/// Per work unit, the time the direct children of the spans called
/// `parent_name` account for.
pub fn children_per_unit(spans: &[Span], parent_name: &str, units: usize) -> Vec<f64> {
    let mut covered = vec![0.0; units];
    for c in spans {
        if c.parent.is_some_and(|p| spans[p].name == parent_name) {
            covered[c.unit] += c.dur();
        }
    }
    covered
}

/// The trace file: one object per span, self time included.
pub fn write_json(workload: &str, spans: &[Span]) -> String {
    let own = self_times(spans);
    let mut out = String::new();
    let _ = writeln!(out, "{{\"workload\": \"{workload}\", \"spans\": [");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "  {{\"id\": {i}, \"name\": \"{}\", \"unit\": {}, \"parent\": {parent}, \
             \"start_s\": {:.9}, \"end_s\": {:.9}, \"self_s\": {:.9}}}",
            s.name, s.unit, s.start, s.end, own[i]
        );
        out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<usize>, start: f64, end: f64) -> Span {
        Span {
            name: name.into(),
            parent,
            unit: 0,
            start,
            end,
        }
    }

    #[test]
    fn self_time_is_span_minus_direct_children() {
        let spans = vec![
            span("setup", None, 0.0, 10.0),
            span("rap", Some(0), 1.0, 4.0),
            span("smoother", Some(0), 4.0, 9.0),
            span("factor", Some(2), 5.0, 8.0),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![2.0, 3.0, 2.0, 3.0]);
        // Self times of a tree add up to the root's duration.
        assert_eq!(own.iter().sum::<f64>(), 10.0);
        assert_eq!(totals_per_unit(&spans, "setup", 1), [10.0]);
        assert_eq!(children_per_unit(&spans, "setup", 1), [8.0]);
        assert_eq!(children_per_unit(&spans, "smoother", 1), [3.0]);
    }

    #[test]
    fn overlapping_imports_floor_at_zero() {
        let spans = vec![
            span("solve", None, 0.0, 1.0),
            span("rank0", Some(0), 0.0, 0.9),
            span("rank1", Some(0), 0.0, 0.8),
        ];
        assert_eq!(self_times(&spans)[0], 0.0);
    }

    #[test]
    fn tracer_nests_and_imports() {
        let mut t = Tracer::new();
        t.set_unit(3);
        let outer = t.enter("unit");
        t.span("ingest", |_| ());
        let imp = t.import(outer, "telemetry", 0.25);
        t.exit(outer);
        assert_eq!(t.spans[1].parent, Some(outer));
        assert_eq!(t.spans[imp].parent, Some(outer));
        assert_eq!(t.spans[imp].unit, 3);
        // `(start + 0.25) - start` rounds: the length is kept to an ulp or two.
        assert!((t.durations("telemetry")[0] - 0.25).abs() < 1e-12);
        let json = write_json("w", &t.spans);
        assert!(pmg_telemetry::json::parse(&json).is_ok(), "{json}");
    }
}
