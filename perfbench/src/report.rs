//! What one run reports: the metrics of the result line, the correctness
//! tally, and the extra fields of the run record.

use crate::stats::median;
use crate::trace::Tracer;
use std::collections::BTreeMap;

/// The end-to-end metrics every untraced run prints, with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("slo_ok_ratio", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// The layers whose self time the traced run reports.
pub const LAYERS: &[&str] = &[
    "csdf",
    "kperiodic",
    "mcr",
    "explore",
    "service",
    "lint",
    "baselines",
    "bench",
];

/// The per-layer metrics every traced run prints, with their units. A layer
/// a workload never crosses reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("csdf.parse_ms", "ms"),
    ("csdf.repetition_ms", "ms"),
    ("kperiodic.build_ms", "ms"),
    ("kperiodic.patch_ms", "ms"),
    ("kperiodic.dirty_tasks", "count"),
    ("kperiodic.buffer_reuse_ratio", "ratio"),
    ("kperiodic.assemble_patched_ratio", "ratio"),
    ("kperiodic.marking_dirty_buffers", "count"),
    ("kperiodic.iterations", "count"),
    ("kperiodic.event_graph_nodes", "count"),
    ("kperiodic.event_graph_arcs", "count"),
    ("kperiodic.kiter_other_ms", "ms"),
    ("mcr.solve_ms", "ms"),
    ("mcr.solves", "count"),
    ("mcr.scc_ms", "ms"),
    ("mcr.components", "count"),
    ("mcr.largest_component_nodes", "count"),
    ("explore.run_ms", "ms"),
    ("explore.evaluations", "count"),
    ("explore.full_builds", "count"),
    ("service.parse_request_ms", "ms"),
    ("service.graph_load_ms", "ms"),
    ("service.handle_ms.evaluate_hit", "ms"),
    ("service.handle_ms.evaluate_miss", "ms"),
    ("service.handle_ms.sweep", "ms"),
    ("service.handle_ms.min_storage", "ms"),
    ("service.handle_ms.scenario_set", "ms"),
    ("service.handle_ms.lint", "ms"),
    ("service.handle_ms.verify", "ms"),
    ("service.handle_ms.error", "ms"),
    ("service.queue_wait_ms", "ms"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.warm_checkout_ratio", "ratio"),
    ("service.quarantined", "count"),
    ("service.rejected", "count"),
    ("lint.analyze_ms", "ms"),
    ("baselines.expansion_ms", "ms"),
    ("self_ms.csdf", "ms"),
    ("self_ms.kperiodic", "ms"),
    ("self_ms.mcr", "ms"),
    ("self_ms.explore", "ms"),
    ("self_ms.service", "ms"),
    ("self_ms.lint", "ms"),
    ("self_ms.baselines", "ms"),
    ("self_ms.bench", "ms"),
    ("trace.unattributed_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    failures: Vec<String>,
    metrics: BTreeMap<String, f64>,
    /// Extra run-record fields, as raw JSON values.
    notes: Vec<(String, String)>,
    spans: String,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    pub fn note(&mut self, key: &str, json_value: String) {
        self.notes.push((key.to_string(), json_value));
    }

    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(message);
        }
    }

    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    pub fn notes(&self) -> &[(String, String)] {
        &self.notes
    }

    pub fn spans_jsonl(&self) -> &str {
        &self.spans
    }

    pub fn spans(&mut self, tracer: &Tracer) {
        self.spans.push_str(&tracer.to_jsonl());
    }

    /// Reports each layer's self time over the traced pass (ms per
    /// operation) and the unattributed share of the operations' time.
    pub fn layer_self_times(&mut self, tracer: &Tracer, operations: usize) {
        let by_layer = tracer.self_ms_by_layer();
        for layer in LAYERS {
            let total = by_layer.get(layer).copied().unwrap_or(0.0);
            self.metric(
                &format!("self_ms.{layer}"),
                total / operations.max(1) as f64,
            );
        }
        self.metric("trace.unattributed_ratio", tracer.unattributed_ratio());
    }

    /// A measured metric, or 0 when the run did not measure it.
    pub fn value(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(0.0)
    }

    /// The metrics of `list`, in its order, as `(name, value, unit)`;
    /// metrics of `list` the run did not measure read 0.
    pub fn metrics_of(
        &self,
        list: &[(&'static str, &'static str)],
    ) -> Vec<(&'static str, f64, &'static str)> {
        list.iter()
            .map(|&(name, unit)| (name, self.value(name), unit))
            .collect()
    }

    /// Names of measured metrics missing from `list` (a bug in the
    /// benchmark, not in the program under test).
    pub fn unlisted(&self, list: &[(&str, &str)]) -> Vec<String> {
        self.metrics
            .keys()
            .filter(|name| !list.iter().any(|(listed, _)| listed == name))
            .cloned()
            .collect()
    }
}

/// Per-call samples of per-layer times, reported as medians.
#[derive(Debug, Default)]
pub struct LayerSamples {
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl LayerSamples {
    pub fn push(&mut self, metric: &'static str, ms: f64) {
        self.samples.entry(metric).or_default().push(ms);
    }

    /// Adds the per-operation sums of the spans called `span`.
    pub fn extend_from(&mut self, tracer: &Tracer, span: &str, metric: &'static str) {
        self.samples
            .entry(metric)
            .or_default()
            .extend(tracer.per_op_ms(span));
    }

    pub fn report(&self, report: &mut Report) {
        for (metric, samples) in &self.samples {
            report.metric(metric, median(samples));
        }
    }
}
