//! The traced run's span recorder: spans live in memory (name, start, end,
//! parent, operation id) and are written out when the run ends. Spans are
//! recorded by the benchmark around its calls into each layer; a span's
//! layer is the prefix of its name before the first `.` (`csdf.parse` is in
//! `csdf`); the harness's own spans (`op`, `request`, `replay`) are in
//! `bench`, and their self time is the time no layer span covers.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }

    pub fn layer(&self) -> &'static str {
        match self.name.split_once('.') {
            Some((layer, _)) => layer,
            None => "bench",
        }
    }
}

/// Records spans for one thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn offset(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a closed span from `start` to `end`, nested in the innermost
    /// open span.
    pub fn record(&mut self, name: &'static str, op: u64, start: Instant, end: Instant) -> usize {
        self.child(self.open.last().copied(), name, op, start, end)
    }

    /// Records a closed span from `start` to `end` under an explicit parent.
    pub fn child(
        &mut self,
        parent: Option<usize>,
        name: &'static str,
        op: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        let span = Span {
            name,
            start_ns: self.offset(start),
            end_ns: self.offset(end),
            parent,
            op,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Opens a span starting now; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, op: u64) -> usize {
        let now = Instant::now();
        let id = self.record(name, op, now, now);
        self.open.push(id);
        id
    }

    pub fn end(&mut self, id: usize) {
        let closed = self.open.pop();
        assert_eq!(closed, Some(id), "spans close in reverse order");
        self.spans[id].end_ns = self.offset(Instant::now());
    }

    /// Times `work` as a span nested in the innermost open span.
    pub fn span<T>(&mut self, name: &'static str, op: u64, work: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let value = work();
        self.record(name, op, start, Instant::now());
        value
    }

    /// Records a child of span `parent` whose duration is known but whose
    /// position is not (the library reports some splits only as totals); it
    /// is placed at the parent's start.
    pub fn nested(&mut self, parent: usize, name: &'static str, duration: Duration) {
        let start_ns = self.spans[parent].start_ns;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + duration.as_nanos() as u64,
            parent: Some(parent),
            op: self.spans[parent].op,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-operation sums of the durations (ms) of the spans called `name`.
    pub fn per_op_ms(&self, name: &str) -> Vec<f64> {
        let mut sums: BTreeMap<u64, f64> = BTreeMap::new();
        for span in self.spans.iter().filter(|span| span.name == name) {
            *sums.entry(span.op).or_default() += span.ms();
        }
        sums.into_values().collect()
    }

    /// Summed durations (ms) of each span's children.
    fn children_ms(&self) -> Vec<f64> {
        let mut children = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent] += span.ms();
            }
        }
        children
    }

    /// Self time (ms) per layer: each span's duration minus its children's.
    pub fn self_ms_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut layers: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (span, children_ms) in self.spans.iter().zip(self.children_ms()) {
            *layers.entry(span.layer()).or_default() += (span.ms() - children_ms).max(0.0);
        }
        layers
    }

    /// Share of the operations' time covered by no layer span: the self
    /// time of the root spans over their total duration.
    pub fn unattributed_ratio(&self) -> f64 {
        let roots: Vec<(usize, &Span)> = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, span)| span.parent.is_none())
            .collect();
        let children = self.children_ms();
        let total: f64 = roots.iter().map(|(_, span)| span.ms()).sum();
        let unattributed: f64 = roots
            .iter()
            .map(|&(index, span)| (span.ms() - children[index]).max(0.0))
            .sum();
        crate::stats::ratio(unattributed, total)
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for span in &self.spans {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{}}}",
                span.name, span.start_ns, span.end_ns, parent, span.op
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let origin = Instant::now();
        let mut tracer = Tracer::new(origin);
        let root = tracer.begin("op", 0);
        let child_start = Instant::now();
        std::thread::sleep(Duration::from_millis(2));
        tracer.record("csdf.parse", 0, child_start, Instant::now());
        tracer.nested(root, "mcr.solve", Duration::from_micros(10));
        std::thread::sleep(Duration::from_millis(1));
        tracer.end(root);
        let layers = tracer.self_ms_by_layer();
        assert!(layers["csdf"] >= 2.0);
        assert!((layers["mcr"] - 0.01).abs() < 1e-9);
        let root_ms = tracer.spans()[root].ms();
        let total: f64 = layers.values().sum();
        assert!((total - root_ms).abs() < 1e-6);
        assert_eq!(tracer.per_op_ms("csdf.parse").len(), 1);
    }
}
