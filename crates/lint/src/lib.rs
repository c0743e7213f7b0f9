//! # csdf-lint — static analysis of CSDF graphs
//!
//! A linter for [`csdf::CsdfGraph`]s: it inspects the *model* only — no
//! event graph is built, no MCR is solved — and produces structured
//! [`Diagnostic`]s with stable codes plus a sound static throughput bracket
//! ([`ThroughputBounds`]) that the exact K-Iter answer must fall into.
//!
//! | code | severity | meaning |
//! |------|----------|---------|
//! | `L000` | error | input could not be imported |
//! | `L001` | error | rate-inconsistent (cycle certificate attached) |
//! | `L002` | error | certain deadlock on a buffer cycle |
//! | `L003` | error | channel capacity below a single firing's need |
//! | `L004` | error | task starves on its own self-loop |
//! | `W001` | warning | live cycle stores < 1 iteration of tokens |
//! | `W002` | warning | more than one weakly-connected component |
//! | `W003` | warning | task with zero total duration |
//! | `W004` | warning | analysis budget exhausted |
//! | `B001` | note | workload upper bound on throughput |
//! | `B002` | note | cycle upper bound on throughput |
//! | `B003` | note | lower bound on throughput |
//!
//! Every error-severity verdict is *proved* (certificates attached; the
//! deadlock codes imply the solver returns
//! [`csdf::Throughput::Deadlocked`]); warnings may be heuristic. The
//! analysis is deterministic: the same graph yields a bit-identical report
//! on every run and thread.
//!
//! # Examples
//!
//! ```
//! use csdf::CsdfGraphBuilder;
//!
//! let mut builder = CsdfGraphBuilder::new();
//! let a = builder.add_sdf_task("a", 1);
//! let b = builder.add_sdf_task("b", 1);
//! builder.add_sdf_buffer(a, b, 2, 1, 0);
//! builder.add_sdf_buffer(b, a, 1, 1, 0); // forces q_a = 2·q_a
//! let graph = builder.build()?;
//!
//! let report = csdf_lint::analyze(&graph);
//! assert!(report.has_errors());
//! assert_eq!(report.diagnostics[0].code, csdf_lint::LintCode::RateInconsistent);
//! # Ok::<(), csdf::CsdfError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bounds;
mod consistency;
mod diag;
mod graphops;
mod liveness;
mod structure;

pub use diag::{Diagnostic, LintCode, LintReport, Severity, ThroughputBounds};

use csdf::text;
use csdf::{CsdfError, CsdfGraph, SourceMap};

/// Source spans to attach to diagnostics; absent when the graph was built
/// programmatically.
pub(crate) struct Spans<'a> {
    map: Option<&'a SourceMap>,
}

impl Spans<'_> {
    #[cfg(test)]
    pub(crate) fn none() -> Spans<'static> {
        Spans { map: None }
    }

    pub(crate) fn task_line(&self, index: usize) -> Option<usize> {
        self.map.and_then(|m| m.task_line(csdf::TaskId::new(index)))
    }

    pub(crate) fn buffer_line(&self, index: usize) -> Option<usize> {
        self.map
            .and_then(|m| m.buffer_line(csdf::BufferId::new(index)))
    }
}

/// Analyzes a graph with no source spans.
pub fn analyze(graph: &CsdfGraph) -> LintReport {
    analyze_with(graph, None)
}

/// Analyzes a graph, attaching declaration lines from `sources` (see
/// [`csdf::text::parse_with_sources`] and
/// [`csdf::text::parse_sdf3_xml_import`]).
pub fn analyze_with_sources(graph: &CsdfGraph, sources: &SourceMap) -> LintReport {
    analyze_with(graph, Some(sources))
}

/// Analyzes a graph. Passes run in a fixed order — consistency (`L001`),
/// components (`W002`), durations (`W003`), capacities (`L003`), self-loops
/// (`L004`), liveness (`L002`/`W004`), cycles and bounds (`W001`/`B0xx`) —
/// so the report is deterministic. Two fixed limits bound the work on
/// generated graphs with huge repetition vectors: a component whose
/// liveness simulation needs more than 2^20 phase firings is skipped with
/// `W004`, and at most 64 witness cycles are sampled per strongly connected
/// component for `W001`/`B002`.
pub fn analyze_with(graph: &CsdfGraph, sources: Option<&SourceMap>) -> LintReport {
    let spans = Spans { map: sources };
    let mut report = LintReport::new();
    let q = consistency::check(graph, &spans, &mut report);
    structure::check_components(graph, &spans, &mut report);
    structure::check_zero_durations(graph, &spans, &mut report);
    structure::check_capacity_pairs(graph, &spans, &mut report);
    let self_loop_ok = structure::check_self_loops(graph, &spans, &mut report);
    if let Some(q) = q {
        let outcome = liveness::check(graph, &q, &self_loop_ok, &spans, &mut report);
        report.bounds = Some(bounds::compute(graph, &q, &outcome, &spans, &mut report));
    }
    report
}

/// Input formats the loader understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputFormat {
    /// The line-oriented text format of [`csdf::text`].
    Text,
    /// SDF3 `<sdf>`/`<csdf>` XML; `bufferSize` annotations are applied as
    /// channel capacities before analysis.
    Sdf3,
}

impl InputFormat {
    /// Guesses the format from a file name: `.xml` (and `.sdf3`) mean SDF3,
    /// everything else the text format.
    pub fn from_path(path: &str) -> InputFormat {
        let lower = path.to_ascii_lowercase();
        if lower.ends_with(".xml") || lower.ends_with(".sdf3") {
            InputFormat::Sdf3
        } else {
            InputFormat::Text
        }
    }
}

/// Loads a graph plus its source spans from either supported format. SDF3
/// `bufferSize` annotations are materialised as reverse buffers
/// ([`csdf::text::Sdf3Import::into_bounded`]), so capacity contradictions
/// are visible to the `L003` pass; the appended reverse buffers simply have
/// no source line.
///
/// # Errors
///
/// The parse/build errors of the underlying importer.
pub fn load_source(source: &str, format: InputFormat) -> Result<(CsdfGraph, SourceMap), CsdfError> {
    match format {
        InputFormat::Text => text::parse_with_sources(source),
        InputFormat::Sdf3 => text::parse_sdf3_xml_import(source)?.into_bounded(),
    }
}

/// Lints a source file in one step: [`load_source`], then
/// [`lint_loaded`].
pub fn lint_source(source: &str, format: InputFormat) -> LintReport {
    lint_loaded(&load_source(source, format))
}

/// Lints what [`load_source`] returned: a loaded graph is analysed with
/// its source spans, and an import failure becomes a report with a single
/// error diagnostic (`L000`, or `L003` when a declared capacity already
/// contradicts the marking), so callers can treat broken files uniformly.
pub fn lint_loaded(loaded: &Result<(CsdfGraph, SourceMap), CsdfError>) -> LintReport {
    match loaded {
        Ok((graph, sources)) => analyze_with(graph, Some(sources)),
        Err(err) => import_failure_report(err),
    }
}

fn import_failure_report(err: &CsdfError) -> LintReport {
    let mut report = LintReport::new();
    let diagnostic = match err {
        CsdfError::Parse { line, message } => {
            let mut d = Diagnostic::new(LintCode::ImportError, format!("parse error: {message}"));
            d.line = Some(*line);
            d
        }
        CsdfError::CapacityBelowMarking {
            buffer,
            capacity,
            marking,
        } => {
            let mut d = Diagnostic::new(
                LintCode::CapacityContradiction,
                format!(
                    "declared capacity {capacity} of {buffer} is below its initial \
                     marking {marking}"
                ),
            );
            d.buffers = vec![buffer.clone()];
            d
        }
        other => Diagnostic::new(LintCode::ImportError, format!("import failed: {other}")),
    };
    report.push(diagnostic);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    // Both tasks carry a serialising self-loop so the `B002` cycle bound is
    // emitted (it is withheld on non-serialised cycles, see `bounds`).
    const SAMPLE: &str = "graph sample\n\
                          task a durations=2\n\
                          task b durations=3\n\
                          buffer a -> b prod=1 cons=1 tokens=0\n\
                          buffer b -> a prod=1 cons=1 tokens=1\n\
                          buffer a -> a prod=1 cons=1 tokens=1\n\
                          buffer b -> b prod=1 cons=1 tokens=1\n";

    #[test]
    fn lint_source_attaches_declaration_lines() {
        let report = lint_source(SAMPLE, InputFormat::Text);
        assert!(!report.has_errors());
        let bounds = report.bounds.expect("consistent graph has bounds");
        assert!(bounds.lower <= bounds.upper);
        // The cycle bound diagnostic points at the first cycle buffer's line.
        let cycle_note = report
            .diagnostics
            .iter()
            .find(|d| d.code == LintCode::CycleUpperBound)
            .expect("ring produces a cycle bound");
        assert_eq!(cycle_note.line, Some(4));
    }

    #[test]
    fn import_failure_becomes_l000_with_line() {
        let report = lint_source("graph g\nnot a directive\n", InputFormat::Text);
        assert!(report.has_errors());
        assert_eq!(report.diagnostics.len(), 1);
        assert_eq!(report.diagnostics[0].code, LintCode::ImportError);
        assert_eq!(report.diagnostics[0].line, Some(2));
        assert!(report.bounds.is_none());
    }

    #[test]
    fn sdf3_buffer_sizes_feed_the_capacity_pass() {
        let xml = r#"
<sdf3 type="sdf">
  <applicationGraph name="pair">
    <sdf name="pair" type="G">
      <actor name="a"><port name="o" type="out" rate="3"/></actor>
      <actor name="b"><port name="i" type="in" rate="3"/></actor>
      <channel name="c" srcActor="a" srcPort="o" dstActor="b" dstPort="i"/>
    </sdf>
    <sdfProperties>
      <channelProperties channel="c"><bufferSize sz="2"/></channelProperties>
    </sdfProperties>
  </applicationGraph>
</sdf3>"#;
        let report = lint_source(xml, InputFormat::Sdf3);
        assert!(report.has_code(LintCode::CapacityContradiction));
        assert!(report.certain_deadlock());
    }

    #[test]
    fn format_is_guessed_from_the_extension() {
        assert_eq!(InputFormat::from_path("g.csdf"), InputFormat::Text);
        assert_eq!(InputFormat::from_path("G.XML"), InputFormat::Sdf3);
        assert_eq!(InputFormat::from_path("g.sdf3"), InputFormat::Sdf3);
    }

    #[test]
    fn reports_are_bit_identical_across_threads() {
        let baseline = lint_source(SAMPLE, InputFormat::Text);
        let reports: Vec<LintReport> = std::thread::scope(|scope| {
            (0..4)
                .map(|_| scope.spawn(|| lint_source(SAMPLE, InputFormat::Text)))
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        for report in reports {
            assert_eq!(report, baseline);
            assert_eq!(report.render(Some("f")), baseline.render(Some("f")));
        }
    }
}
