//! Shared harness code for regenerating the paper's tables and figures.
//!
//! The actual entry points are the binaries `table1` and `table2` (one row
//! per line, mirroring the layout of the paper's tables) and the Criterion
//! benches under `benches/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::{Duration, Instant};

use csdf::json::Json;
use csdf::{CsdfGraph, Throughput};
use csdf_baselines::{
    expansion_throughput, periodic_throughput, symbolic_execution_throughput, Budget,
    EvaluationStatus,
};
use kperiodic::{kiter_with_options, AnalysisError, KIterOptions};

/// The throughput-evaluation methods compared in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// The paper's K-Iter algorithm (exact).
    KIter,
    /// (C)SDF → HSDF expansion + maximum cycle ratio (exact) — the `[6]`
    /// column of Table 1.
    Expansion,
    /// Self-timed state-space exploration (exact) — the `[8]`/`[16]` columns.
    SymbolicExecution,
    /// 1-periodic scheduling (approximate) — the `[4]` column of Table 2.
    Periodic,
}

impl Method {
    /// Short label used in table headers.
    pub fn label(&self) -> &'static str {
        match self {
            Method::KIter => "K-Iter",
            Method::Expansion => "expansion[6]",
            Method::SymbolicExecution => "symbolic[8/16]",
            Method::Periodic => "periodic[4]",
        }
    }
}

/// Outcome of running one method on one graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MethodOutcome {
    /// The method that ran.
    pub method: Method,
    /// Wall-clock time of the evaluation.
    pub duration: Duration,
    /// The throughput found, if any.
    pub throughput: Option<Throughput>,
    /// `true` when the method completed within its resource budget.
    pub completed: bool,
}

impl MethodOutcome {
    /// Formats the duration like the paper (milliseconds, or a budget
    /// marker).
    pub fn time_cell(&self) -> String {
        if self.completed {
            format!("{:.2} ms", self.duration.as_secs_f64() * 1e3)
        } else {
            "> budget".to_string()
        }
    }

    /// Formats the optimality of this method relative to an exact reference,
    /// like the percentage column of Table 2.
    pub fn optimality_cell(&self, reference: Option<Throughput>) -> String {
        match (self.throughput, reference) {
            (Some(Throughput::Finite(mine)), Some(Throughput::Finite(exact))) => {
                let ratio = 100.0 * mine.to_f64() / exact.to_f64().max(f64::MIN_POSITIVE);
                format!("{ratio:.0}%")
            }
            (Some(Throughput::Deadlocked), Some(Throughput::Deadlocked)) => "100%".to_string(),
            (Some(_), None) => "??%".to_string(),
            (None, _) if !self.completed => "-".to_string(),
            (None, _) => "N/S".to_string(),
            _ => "??%".to_string(),
        }
    }
}

/// Runs one evaluation method on a graph under a budget.
///
/// Errors from the analysis (event-graph limits, overflow) are folded into a
/// "did not complete" outcome so that a benchmark sweep never aborts.
pub fn run_method(graph: &CsdfGraph, method: Method, budget: &Budget) -> MethodOutcome {
    let start = Instant::now();
    let (throughput, completed) = match method {
        Method::KIter => match run_kiter(graph) {
            Ok(result) => (Some(result.throughput), true),
            Err(AnalysisError::EventGraphTooLarge { .. })
            | Err(AnalysisError::IterationLimitReached { .. }) => (None, false),
            Err(_) => (None, false),
        },
        Method::Expansion => match expansion_throughput(graph, budget) {
            Ok(result) => {
                let completed = result.status != EvaluationStatus::BudgetExhausted;
                (result.throughput, completed)
            }
            Err(_) => (None, false),
        },
        Method::SymbolicExecution => match symbolic_execution_throughput(graph, budget) {
            Ok(result) => {
                let completed = result.status != EvaluationStatus::BudgetExhausted;
                (result.throughput, completed)
            }
            Err(_) => (None, false),
        },
        Method::Periodic => match periodic_throughput(graph) {
            Ok(result) => (result.throughput, true),
            Err(_) => (None, false),
        },
    };
    MethodOutcome {
        method,
        duration: start.elapsed(),
        throughput,
        completed,
    }
}

fn run_kiter(graph: &CsdfGraph) -> Result<kperiodic::KIterResult, AnalysisError> {
    // Tighter event-graph limits than the library default: benchmark sweeps
    // must fail fast (reported as "> budget") on instances whose periodicity
    // vectors explode, instead of building multi-million-node event graphs.
    let options = KIterOptions {
        analysis: kperiodic::AnalysisOptions {
            limits: kperiodic::EventGraphLimits {
                max_nodes: 200_000,
                max_arcs: 2_000_000,
            },
            max_iterations: 64,
            ..kperiodic::AnalysisOptions::default()
        },
        ..KIterOptions::default()
    };
    kiter_with_options(graph, &options)
}

/// Aggregate statistics over a category of graphs (one row of Table 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CategoryRow {
    /// Category name.
    pub name: String,
    /// Number of graphs evaluated.
    pub graphs: usize,
    /// min/avg/max task count.
    pub tasks: (usize, usize, usize),
    /// min/avg/max buffer count.
    pub buffers: (usize, usize, usize),
    /// min/avg/max repetition-vector sum.
    pub repetition_sum: (u128, u128, u128),
    /// min/avg/max HSDF copy count `Σ_t q_t·φ_t` — the actor count of the
    /// expansion method's graph (the paper's Table 1 reports this growth as
    /// the reason the `[6]` column blows up on multi-rate categories). Equals
    /// `repetition_sum` exactly on the plain SDF categories (`φ_t = 1`).
    pub expansion_copies: (u128, u128, u128),
    /// Average wall-clock time per method (only over completed runs), plus
    /// the number of graphs that method failed to finish.
    pub averages: Vec<(Method, Duration, usize)>,
}

/// Computes the min/avg/max statistics and average method times for a set of
/// graphs (one Table-1 category).
pub fn category_row(
    name: &str,
    graphs: &[CsdfGraph],
    methods: &[Method],
    budget: &Budget,
) -> CategoryRow {
    let mut tasks = Vec::new();
    let mut buffers = Vec::new();
    let mut sums = Vec::new();
    let mut copies = Vec::new();
    let mut per_method: Vec<(Method, Vec<Duration>, usize)> =
        methods.iter().map(|&m| (m, Vec::new(), 0usize)).collect();
    for graph in graphs {
        tasks.push(graph.task_count());
        buffers.push(graph.buffer_count());
        sums.push(graph.repetition_vector().map_or(0, |q| q.sum()));
        copies.push(hsdf_copy_count(graph));
        for (method, times, failures) in &mut per_method {
            let outcome = run_method(graph, *method, budget);
            if outcome.completed {
                times.push(outcome.duration);
            } else {
                *failures += 1;
            }
        }
    }
    CategoryRow {
        name: name.to_string(),
        graphs: graphs.len(),
        tasks: min_avg_max(&tasks),
        buffers: min_avg_max(&buffers),
        repetition_sum: min_avg_max_u128(&sums),
        expansion_copies: min_avg_max_u128(&copies),
        averages: per_method
            .into_iter()
            .map(|(method, times, failures)| {
                let avg = if times.is_empty() {
                    Duration::ZERO
                } else {
                    times.iter().sum::<Duration>() / times.len() as u32
                };
                (method, avg, failures)
            })
            .collect(),
    }
}

/// Actor count of the HSDF expansion of `graph`, computed analytically as
/// `Σ_t q_t·φ_t` without building the expansion (inconsistent graphs count
/// 0). Kept in lock-step with the real expansion:
/// [`csdf::transform::expand_to_hsdf`]'s `copy_count()` returns exactly this
/// number (asserted in this crate's tests), so Table 1 can report the `[6]`
/// column's graph growth even for categories where materialising the
/// expansion would be slow.
pub fn hsdf_copy_count(graph: &CsdfGraph) -> u128 {
    let Ok(q) = graph.repetition_vector() else {
        return 0;
    };
    graph
        .tasks()
        .map(|(id, task)| u128::from(q.get(id)) * task.phase_count() as u128)
        .sum()
}

fn min_avg_max(values: &[usize]) -> (usize, usize, usize) {
    if values.is_empty() {
        return (0, 0, 0);
    }
    let min = *values.iter().min().expect("non-empty");
    let max = *values.iter().max().expect("non-empty");
    let avg = values.iter().sum::<usize>() / values.len();
    (min, avg, max)
}

fn min_avg_max_u128(values: &[u128]) -> (u128, u128, u128) {
    if values.is_empty() {
        return (0, 0, 0);
    }
    let min = *values.iter().min().expect("non-empty");
    let max = *values.iter().max().expect("non-empty");
    let avg = values.iter().sum::<u128>() / values.len() as u128;
    (min, avg, max)
}

/// Command-line options shared by the `table1`/`table2` binaries.
///
/// * `--json` — emit one JSON object per row (JSON Lines) instead of the
///   human-readable table, for committing reference numbers and for CI
///   assertions;
/// * `--only <substring>` — evaluate only rows whose name contains the
///   (case-insensitive) substring;
/// * `--section <name>` — evaluate only the named section of `table2`
///   (`no-buffer`, `sized` or `synthetic`).
#[derive(Debug, Clone, Default)]
pub struct TableArgs {
    /// Emit JSON Lines instead of the aligned text table.
    pub json: bool,
    /// Case-insensitive substring filter on row names.
    pub only: Option<String>,
    /// Section filter (`table2` only).
    pub section: Option<String>,
}

impl TableArgs {
    /// Parses the process arguments, ignoring anything unknown.
    pub fn parse() -> Self {
        let mut args = TableArgs::default();
        let mut iterator = std::env::args().skip(1);
        while let Some(argument) = iterator.next() {
            match argument.as_str() {
                "--json" => args.json = true,
                "--only" => args.only = iterator.next().map(|v| v.to_lowercase()),
                "--section" => args.section = iterator.next().map(|v| v.to_lowercase()),
                _ => {}
            }
        }
        args
    }

    /// Whether a row with this name passes the `--only` filter.
    pub fn wants(&self, name: &str) -> bool {
        self.only
            .as_deref()
            .map_or(true, |filter| name.to_lowercase().contains(filter))
    }

    /// Whether this section passes the `--section` filter.
    pub fn wants_section(&self, section: &str) -> bool {
        self.section
            .as_deref()
            .map_or(true, |filter| filter == section)
    }
}

impl MethodOutcome {
    /// This outcome as a JSON object, e.g.
    /// `{"throughput":"1/42","time_ms":3.142,"completed":true}`.
    pub fn json(&self) -> Json {
        let throughput = self
            .throughput
            .map_or(Json::Null, |value| value.to_string().into());
        Json::object([
            ("throughput", throughput),
            (
                "time_ms",
                Json::rounded(self.duration.as_secs_f64() * 1e3, 3),
            ),
            ("completed", self.completed.into()),
        ])
    }
}

/// Number of graphs per generated category, overridable with the
/// `KITER_BENCH_GRAPHS` environment variable (the paper uses 100; the default
/// here keeps a full table run under a minute).
pub fn graphs_per_category() -> usize {
    std::env::var("KITER_BENCH_GRAPHS")
        .ok()
        .and_then(|value| value.parse().ok())
        .unwrap_or(8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use csdf::CsdfGraphBuilder;

    fn ring() -> CsdfGraph {
        let mut b = CsdfGraphBuilder::new();
        let x = b.add_sdf_task("x", 1);
        let y = b.add_sdf_task("y", 1);
        b.add_sdf_buffer(x, y, 1, 1, 0);
        b.add_sdf_buffer(y, x, 1, 1, 1);
        b.build().unwrap()
    }

    #[test]
    fn run_method_reports_all_methods() {
        let g = ring();
        let budget = Budget::small();
        for method in [
            Method::KIter,
            Method::Expansion,
            Method::SymbolicExecution,
            Method::Periodic,
        ] {
            let outcome = run_method(&g, method, &budget);
            assert!(outcome.completed, "{method:?} should complete");
            assert!(outcome.throughput.is_some());
            assert!(!outcome.time_cell().is_empty());
        }
    }

    #[test]
    fn optimality_cell_formats() {
        let g = ring();
        let exact = run_method(&g, Method::KIter, &Budget::small());
        let periodic = run_method(&g, Method::Periodic, &Budget::small());
        assert_eq!(periodic.optimality_cell(exact.throughput), "100%");
    }

    #[test]
    fn category_row_aggregates() {
        let graphs = vec![ring(), ring()];
        let row = category_row("demo", &graphs, &[Method::KIter], &Budget::small());
        assert_eq!(row.graphs, 2);
        assert_eq!(row.tasks, (2, 2, 2));
        assert_eq!(row.averages.len(), 1);
        assert_eq!(row.averages[0].2, 0);
    }

    #[test]
    fn graphs_per_category_has_a_default() {
        assert!(graphs_per_category() >= 1);
    }

    #[test]
    fn analytic_copy_count_matches_the_real_expansion() {
        // Multi-rate CSDF: q = [3, 2] with 2 phases on `b` -> 3·1 + 2·2 = 7.
        let mut b = CsdfGraphBuilder::new();
        let x = b.add_sdf_task("a", 1);
        let y = b.add_task("b", vec![1, 1]);
        b.add_buffer(x, y, vec![2], vec![1, 2], 0);
        let multirate = b.build().unwrap();
        for graph in [ring(), multirate] {
            let expansion = csdf::transform::expand_to_hsdf(&graph).unwrap();
            assert_eq!(hsdf_copy_count(&graph), expansion.copy_count() as u128);
            assert_eq!(
                hsdf_copy_count(&graph),
                expansion.graph.task_count() as u128
            );
        }
    }
}
