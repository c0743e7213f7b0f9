//! The diagnostic model: stable codes, severities, structured diagnostics and
//! the report `analyze` returns.

use std::fmt;

use csdf::json::{throughput_to_string, Json};
use csdf::{BufferRef, Throughput};

/// How serious a diagnostic is.
///
/// Ordered `Note < Warning < Error` so `max` over a report gives the overall
/// verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational, e.g. the static throughput bounds.
    Note,
    /// Suspicious but not provably wrong.
    Warning,
    /// A structural defect; the solver would fail or the graph can never run.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Note => write!(f, "note"),
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Stable diagnostic codes.
///
/// `L0xx` are structural errors, `W0xx` warnings, `B0xx` informational
/// bound/verdict notes. Codes are append-only: a code is never renumbered
/// once released, so scripts may match on the string form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LintCode {
    /// `L000` — the input could not be imported as a CSDF graph.
    ImportError,
    /// `L001` — the balance equations have no positive solution; the
    /// diagnostic carries an inconsistent cycle of buffers as certificate.
    RateInconsistent,
    /// `L002` — a directed buffer cycle can never complete one graph
    /// iteration from the initial marking: certain deadlock.
    DeadlockedCycle,
    /// `L003` — a bounded channel's capacity is below the tokens a single
    /// firing of one of its endpoint phases needs: that phase can never fire.
    CapacityContradiction,
    /// `L004` — a task starves on its own self-loop: some phase needs more
    /// tokens than the loop can ever hold at that point of the iteration.
    SelfStarvingTask,
    /// `W001` — a live directed cycle stores less than one full iteration of
    /// tokens; it is likely to be the throughput bottleneck.
    NearDeadlockCycle,
    /// `W002` — the graph splits into more than one weakly-connected
    /// component; components run independently.
    IsolatedComponent,
    /// `W003` — a task has zero total duration; it takes no time and the
    /// workload bounds ignore it.
    ZeroDurationTask,
    /// `W004` — an analysis budget was exhausted (or arithmetic overflowed),
    /// so liveness could not be established statically.
    AnalysisBudgetExceeded,
    /// `B001` — the binding per-task workload upper bound on throughput.
    WorkloadUpperBound,
    /// `B002` — the binding sampled-cycle upper bound on throughput.
    CycleUpperBound,
    /// `B003` — the static lower bound on throughput (sequential schedule,
    /// or the deadlock/unproven verdict).
    SequentialLowerBound,
}

impl LintCode {
    /// Every code, in catalog order.
    pub fn all() -> [LintCode; 12] {
        [
            LintCode::ImportError,
            LintCode::RateInconsistent,
            LintCode::DeadlockedCycle,
            LintCode::CapacityContradiction,
            LintCode::SelfStarvingTask,
            LintCode::NearDeadlockCycle,
            LintCode::IsolatedComponent,
            LintCode::ZeroDurationTask,
            LintCode::AnalysisBudgetExceeded,
            LintCode::WorkloadUpperBound,
            LintCode::CycleUpperBound,
            LintCode::SequentialLowerBound,
        ]
    }

    /// The stable string form (`"L001"`, `"W002"`, ...).
    pub fn as_str(&self) -> &'static str {
        match self {
            LintCode::ImportError => "L000",
            LintCode::RateInconsistent => "L001",
            LintCode::DeadlockedCycle => "L002",
            LintCode::CapacityContradiction => "L003",
            LintCode::SelfStarvingTask => "L004",
            LintCode::NearDeadlockCycle => "W001",
            LintCode::IsolatedComponent => "W002",
            LintCode::ZeroDurationTask => "W003",
            LintCode::AnalysisBudgetExceeded => "W004",
            LintCode::WorkloadUpperBound => "B001",
            LintCode::CycleUpperBound => "B002",
            LintCode::SequentialLowerBound => "B003",
        }
    }

    /// Parses the stable string form back into a code.
    pub fn parse(text: &str) -> Option<LintCode> {
        LintCode::all().into_iter().find(|c| c.as_str() == text)
    }

    /// One-line description for the catalog (`csdf-lint --codes`).
    pub fn description(&self) -> &'static str {
        match self {
            LintCode::ImportError => "the input could not be imported as a CSDF graph",
            LintCode::RateInconsistent => {
                "balance equations have no positive solution (inconsistent cycle attached)"
            }
            LintCode::DeadlockedCycle => {
                "a directed buffer cycle can never complete one iteration: certain deadlock"
            }
            LintCode::CapacityContradiction => {
                "a channel capacity is below the tokens a single firing needs"
            }
            LintCode::SelfStarvingTask => "a task starves on its own self-loop marking",
            LintCode::NearDeadlockCycle => {
                "a live cycle stores less than one iteration of tokens (likely bottleneck)"
            }
            LintCode::IsolatedComponent => "the graph has more than one weakly-connected component",
            LintCode::ZeroDurationTask => "a task has zero total duration",
            LintCode::AnalysisBudgetExceeded => {
                "an analysis budget was exhausted; liveness not established statically"
            }
            LintCode::WorkloadUpperBound => "static per-task workload upper bound on throughput",
            LintCode::CycleUpperBound => "static cycle-ratio upper bound on throughput",
            LintCode::SequentialLowerBound => "static lower bound on throughput",
        }
    }

    /// The severity every diagnostic with this code has.
    pub fn severity(&self) -> Severity {
        match self.as_str().as_bytes()[0] {
            b'L' => Severity::Error,
            b'W' => Severity::Warning,
            _ => Severity::Note,
        }
    }

    /// Returns `true` for the codes that prove the graph deadlocks
    /// (`L002`/`L003`/`L004`).
    pub fn proves_deadlock(&self) -> bool {
        matches!(
            self,
            LintCode::DeadlockedCycle
                | LintCode::CapacityContradiction
                | LintCode::SelfStarvingTask
        )
    }
}

impl fmt::Display for LintCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

/// One structured finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The stable code.
    pub code: LintCode,
    /// Human-readable message (already names the involved tasks/buffers).
    pub message: String,
    /// Names of the tasks involved, in certificate order.
    pub tasks: Vec<String>,
    /// The buffers involved — for cycle certificates, the cycle in order.
    pub buffers: Vec<BufferRef>,
    /// 1-based source line of the primary model element, when the graph was
    /// imported with span tracking ([`csdf::SourceMap`]).
    pub line: Option<usize>,
}

impl Diagnostic {
    /// Creates a diagnostic with no certificate attachments.
    pub fn new(code: LintCode, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            message: message.into(),
            tasks: Vec::new(),
            buffers: Vec::new(),
            line: None,
        }
    }

    /// The severity implied by the code.
    pub fn severity(&self) -> Severity {
        self.code.severity()
    }

    /// Renders the diagnostic as a single `file:line: severity[CODE]:
    /// message` line (the CLI output format).
    pub fn render(&self, file: Option<&str>) -> String {
        let mut out = String::new();
        if let Some(file) = file {
            out.push_str(file);
            out.push(':');
        }
        if let Some(line) = self.line {
            out.push_str(&line.to_string());
            out.push(':');
        }
        if !out.is_empty() {
            out.push(' ');
        }
        out.push_str(&format!(
            "{}[{}]: {}",
            self.severity(),
            self.code,
            self.message
        ));
        out
    }

    /// The diagnostic as a JSON object: `code`, `severity` and `message`,
    /// then `line`, `tasks` and `buffers` only when set.
    fn to_json(&self) -> Json {
        let mut entries = vec![
            ("code".to_string(), self.code.as_str().into()),
            ("severity".to_string(), self.severity().to_string().into()),
            ("message".to_string(), self.message.as_str().into()),
        ];
        if let Some(line) = self.line {
            entries.push(("line".to_string(), line.into()));
        }
        if !self.tasks.is_empty() {
            let tasks = self.tasks.iter().map(|task| task.as_str().into());
            entries.push(("tasks".to_string(), Json::Array(tasks.collect())));
        }
        if !self.buffers.is_empty() {
            let buffers = self.buffers.iter().map(|buffer| {
                Json::object([
                    ("index", buffer.index.into()),
                    ("source", buffer.source.as_str().into()),
                    ("target", buffer.target.as_str().into()),
                ])
            });
            entries.push(("buffers".to_string(), Json::Array(buffers.collect())));
        }
        Json::Object(entries)
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render(None))
    }
}

/// Static throughput bracket: `lower ≤ Th* ≤ upper` for the exact normalised
/// throughput `Th*` the solver would compute.
///
/// The bounds are sound, not tight: `lower` is [`Throughput::Deadlocked`]
/// whenever liveness could not be proven statically, and `upper` is
/// [`Throughput::Unbounded`] when no static constraint applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThroughputBounds {
    /// Guaranteed achievable throughput.
    pub lower: Throughput,
    /// Throughput the graph can never exceed.
    pub upper: Throughput,
}

impl ThroughputBounds {
    /// The vacuous bracket `[Deadlocked, Unbounded]`.
    pub fn vacuous() -> ThroughputBounds {
        ThroughputBounds {
            lower: Throughput::Deadlocked,
            upper: Throughput::Unbounded,
        }
    }

    /// Returns `true` when `actual` lies inside the bracket (inclusive),
    /// under the usual [`Throughput`] ordering.
    pub fn brackets(&self, actual: &Throughput) -> bool {
        self.lower <= *actual && *actual <= self.upper
    }
}

impl fmt::Display for ThroughputBounds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} <= Th <= {}", self.lower, self.upper)
    }
}

/// The result of one `analyze` run: diagnostics in deterministic order plus
/// the static throughput bracket.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LintReport {
    /// All findings, grouped by pass in a fixed order (deterministic and
    /// bit-identical across runs and threads).
    pub diagnostics: Vec<Diagnostic>,
    /// The static throughput bracket; `None` when the graph is inconsistent
    /// (throughput is undefined without a repetition vector).
    pub bounds: Option<ThroughputBounds>,
}

impl LintReport {
    /// Creates an empty report.
    pub fn new() -> LintReport {
        LintReport::default()
    }

    /// Appends a diagnostic.
    pub fn push(&mut self, diagnostic: Diagnostic) {
        self.diagnostics.push(diagnostic);
    }

    /// Number of error-severity diagnostics.
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == Severity::Error)
            .count()
    }

    /// Number of warning-severity diagnostics.
    pub fn warning_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == Severity::Warning)
            .count()
    }

    /// Returns `true` when any error-severity diagnostic is present.
    pub fn has_errors(&self) -> bool {
        self.error_count() > 0
    }

    /// Returns `true` when any diagnostic code is present.
    pub fn has_code(&self, code: LintCode) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// Returns `true` when lint proved the graph deadlocks (the exact solver
    /// must agree with [`Throughput::Deadlocked`]).
    pub fn certain_deadlock(&self) -> bool {
        self.diagnostics.iter().any(|d| d.code.proves_deadlock())
    }

    /// The report as the entries of a JSON object, in this order:
    /// `diagnostics`, `errors`, `warnings`, `certain_deadlock` and, when
    /// the graph is consistent, `bounds` (`lower`/`upper` in the exact
    /// throughput wire form). This is the report's one JSON rendering: the
    /// service's `lint` and `verify` responses carry these entries after
    /// their header, and `csdf-lint --json` prints them after `file`.
    pub fn json_fields(&self) -> Vec<(String, Json)> {
        let diagnostics = self.diagnostics.iter().map(Diagnostic::to_json).collect();
        let mut fields = vec![
            ("diagnostics".to_string(), Json::Array(diagnostics)),
            ("errors".to_string(), self.error_count().into()),
            ("warnings".to_string(), self.warning_count().into()),
            (
                "certain_deadlock".to_string(),
                self.certain_deadlock().into(),
            ),
        ];
        if let Some(bounds) = &self.bounds {
            let bounds = Json::object([
                ("lower", throughput_to_string(bounds.lower).into()),
                ("upper", throughput_to_string(bounds.upper).into()),
            ]);
            fields.push(("bounds".to_string(), bounds));
        }
        fields
    }

    /// Renders every diagnostic plus a summary line, the CLI text format.
    pub fn render(&self, file: Option<&str>) -> String {
        let mut out = String::new();
        for diagnostic in &self.diagnostics {
            out.push_str(&diagnostic.render(file));
            out.push('\n');
        }
        if let Some(bounds) = &self.bounds {
            match file {
                Some(file) => out.push_str(&format!("{file}: bounds: {bounds}\n")),
                None => out.push_str(&format!("bounds: {bounds}\n")),
            }
        }
        let summary = format!(
            "{} error(s), {} warning(s)",
            self.error_count(),
            self.warning_count()
        );
        match file {
            Some(file) => out.push_str(&format!("{file}: {summary}\n")),
            None => {
                out.push_str(&summary);
                out.push('\n');
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csdf::Rational;

    #[test]
    fn codes_have_stable_strings_and_severities() {
        for code in LintCode::all() {
            assert_eq!(LintCode::parse(code.as_str()), Some(code));
            let expected = match code.as_str().as_bytes()[0] {
                b'L' => Severity::Error,
                b'W' => Severity::Warning,
                b'B' => Severity::Note,
                _ => unreachable!(),
            };
            assert_eq!(code.severity(), expected);
            assert!(!code.description().is_empty());
        }
        assert_eq!(LintCode::parse("X999"), None);
    }

    #[test]
    fn deadlock_proving_codes() {
        assert!(LintCode::DeadlockedCycle.proves_deadlock());
        assert!(LintCode::CapacityContradiction.proves_deadlock());
        assert!(LintCode::SelfStarvingTask.proves_deadlock());
        assert!(!LintCode::RateInconsistent.proves_deadlock());
        assert!(!LintCode::NearDeadlockCycle.proves_deadlock());
    }

    #[test]
    fn render_includes_file_line_and_code() {
        let mut d = Diagnostic::new(LintCode::RateInconsistent, "boom");
        d.line = Some(7);
        assert_eq!(d.render(Some("g.csdf")), "g.csdf:7: error[L001]: boom");
        assert_eq!(d.to_string(), "7: error[L001]: boom");
    }

    #[test]
    fn bounds_bracket_under_throughput_ordering() {
        let half = Throughput::Finite(Rational::new(1, 2).unwrap());
        let third = Throughput::Finite(Rational::new(1, 3).unwrap());
        let bounds = ThroughputBounds {
            lower: third,
            upper: half,
        };
        assert!(bounds.brackets(&half));
        assert!(bounds.brackets(&third));
        assert!(!bounds.brackets(&Throughput::Unbounded));
        assert!(!bounds.brackets(&Throughput::Deadlocked));
        assert!(ThroughputBounds::vacuous().brackets(&Throughput::Unbounded));
        assert!(ThroughputBounds::vacuous().brackets(&Throughput::Deadlocked));
        assert_eq!(bounds.to_string(), "1/3 <= Th <= 1/2");
    }

    #[test]
    fn report_counts_and_verdicts() {
        let mut report = LintReport::new();
        assert!(!report.has_errors());
        report.push(Diagnostic::new(LintCode::IsolatedComponent, "split"));
        report.push(Diagnostic::new(LintCode::DeadlockedCycle, "stuck"));
        assert_eq!(report.error_count(), 1);
        assert_eq!(report.warning_count(), 1);
        assert!(report.has_errors());
        assert!(report.certain_deadlock());
        assert!(report.has_code(LintCode::DeadlockedCycle));
        assert!(!report.has_code(LintCode::RateInconsistent));
        let rendered = report.render(Some("f"));
        assert!(rendered.contains("f: 1 error(s), 1 warning(s)"));
    }
}
