//! Pre-solve throughput bounds (`B001`/`B002`/`B003`) and the near-deadlock
//! warning (`W001`).
//!
//! Every bound is *sound*, never tight-by-construction:
//!
//! * **Workload upper bound** — a task serialised by an all-ones-rate
//!   self-loop holding `m` tokens runs at most `m` firings concurrently, so
//!   one graph iteration keeps it busy for at least `q_t · Σd_t / m` time:
//!   `Th ≤ m / (q_t · Σd_t)`.
//! * **Cycle upper bound** — a directed cycle `C` of `k` buffers stores
//!   `W(C) = Σ M0(b) / (q_src(b) · i_b)` graph iterations of tokens; at most
//!   `W(C) + k` iterations are ever in flight around it (each buffer hides
//!   less than one extra partial iteration), and each must thread through
//!   `k` dependent firings of total duration at least
//!   `L(C) = Σ min-phase-duration`: `Th ≤ (W(C) + k) / L(C)`. Emitted only
//!   when every task on the cycle is serialised by an all-ones self-loop
//!   holding exactly one token: the event-graph model evaluated by the
//!   K-periodic solver leaves the firings of a non-serialised multiphase
//!   task unordered, and that extra concurrency can push its answer above
//!   the bound (up to [`Throughput::Unbounded`]). With every cycle task
//!   serialised the solver's model contains the firing-level precedences
//!   the bound is derived from, so the bracket holds.
//! * **Sequential lower bound** — when the liveness pass proves the graph
//!   live, the greedy firing order is a feasible schedule that repeats from
//!   `M0`; run sequentially it takes `Σ_t q_t · Σd_t` per iteration:
//!   `Th ≥ 1 / Σ_t q_t · Σd_t`. Without a liveness proof the lower bound
//!   stays vacuous ([`Throughput::Deadlocked`]).

use csdf::{BufferId, CsdfGraph, Rational, RationalSum, RepetitionVector, TaskId, Throughput};

use crate::diag::{Diagnostic, LintCode, LintReport, ThroughputBounds};
use crate::graphops;
use crate::liveness::LivenessOutcome;
use crate::Spans;

/// Upper bound on the witness cycles sampled per strongly connected
/// component for the `W001`/`B002` passes.
const MAX_CYCLES_PER_SCC: usize = 64;

/// Computes the bracket and pushes `W001` + `B0xx` diagnostics.
pub(crate) fn compute(
    graph: &CsdfGraph,
    q: &RepetitionVector,
    liveness: &LivenessOutcome,
    spans: &Spans<'_>,
    report: &mut LintReport,
) -> ThroughputBounds {
    let mut upper = Throughput::Unbounded;

    // `B002` soundness gate: a task counts as serialised when some all-ones
    // self-loop holds exactly one token, forcing its firings into a chain.
    let serialized: Vec<bool> = (0..graph.task_count())
        .map(|index| {
            graph.outgoing(TaskId::new(index)).iter().any(|&buffer_id| {
                let buffer = graph.buffer(buffer_id);
                buffer.is_self_loop()
                    && buffer.initial_tokens() == 1
                    && buffer.production().iter().all(|&r| r == 1)
                    && buffer.consumption().iter().all(|&r| r == 1)
            })
        })
        .collect();

    // Near-deadlock warnings and cycle bounds from sampled witness cycles.
    let mut best_cycle: Option<(Rational, Vec<usize>)> = None;
    for (scc, &live) in liveness.sccs.iter().zip(&liveness.scc_live) {
        if !scc.cyclic || scc.members.len() < 2 {
            continue;
        }
        let cycles = graphops::sample_cycles(&liveness.digraph, &scc.members, MAX_CYCLES_PER_SCC);
        let mut nearest: Option<(Rational, Vec<usize>)> = None;
        for cycle in cycles {
            let Some(stats) = cycle_stats(graph, q, &cycle) else {
                continue;
            };
            if live
                && stats.stored_iterations < Rational::ONE
                && nearest
                    .as_ref()
                    .map_or(true, |(w, _)| stats.stored_iterations < *w)
            {
                nearest = Some((stats.stored_iterations, cycle.clone()));
            }
            let cycle_serialized = cycle
                .iter()
                .all(|&b| serialized[graph.buffer(BufferId::new(b)).source().index()]);
            if cycle_serialized {
                if let Some(bound) = stats.upper_bound() {
                    if best_cycle.as_ref().map_or(true, |(b, _)| bound < *b) {
                        best_cycle = Some((bound, cycle));
                    }
                }
            }
        }
        if let Some((stored, cycle)) = nearest {
            report.push(near_deadlock_diagnostic(graph, spans, stored, &cycle));
        }
    }

    // Workload bounds from serialising self-loops.
    let mut best_workload: Option<(Rational, usize, u64)> = None; // (bound, task, m)
    for (task_id, task) in graph.tasks() {
        let mut concurrency: Option<u64> = None;
        for &buffer_id in graph.outgoing(task_id) {
            let buffer = graph.buffer(buffer_id);
            if !buffer.is_self_loop()
                || buffer.production().iter().any(|&r| r != 1)
                || buffer.consumption().iter().any(|&r| r != 1)
            {
                continue;
            }
            let m = buffer.initial_tokens();
            concurrency = Some(concurrency.map_or(m, |c| c.min(m)));
        }
        let Some(m) = concurrency else { continue };
        if m == 0 || task.total_duration() == 0 {
            // m == 0 is a self-starving task (`L004`); zero duration never
            // constrains throughput.
            continue;
        }
        let busy = (q.get(task_id) as i128).checked_mul(task.total_duration() as i128);
        let Some(busy) = busy else { continue };
        let Ok(bound) = Rational::new(m as i128, busy) else {
            continue;
        };
        if best_workload
            .as_ref()
            .map_or(true, |(best, _, _)| bound < *best)
        {
            best_workload = Some((bound, task_id.index(), m));
        }
    }

    if let Some((bound, task_index, m)) = &best_workload {
        let task = graph.task(TaskId::new(*task_index));
        let mut diagnostic = Diagnostic::new(
            LintCode::WorkloadUpperBound,
            format!(
                "workload bound: task `{}` admits {m} concurrent firing(s) and needs \
                 {} time unit(s) per graph iteration, so Th <= {bound}",
                task.name(),
                q.get(TaskId::new(*task_index)) as u128 * task.total_duration() as u128,
            ),
        );
        diagnostic.line = spans.task_line(*task_index);
        diagnostic.tasks = vec![task.name().to_string()];
        report.push(diagnostic);
        upper = upper.min(Throughput::Finite(*bound));
    }
    if let Some((bound, cycle)) = &best_cycle {
        let buffers: Vec<_> = cycle
            .iter()
            .map(|&b| graph.buffer_ref(BufferId::new(b)))
            .collect();
        let tasks: Vec<String> = buffers.iter().map(|b| b.source.clone()).collect();
        let mut diagnostic = Diagnostic::new(
            LintCode::CycleUpperBound,
            format!(
                "cycle bound: the {}-buffer cycle through tasks [{}] limits throughput \
                 to Th <= {bound}",
                cycle.len(),
                tasks.join(", "),
            ),
        );
        diagnostic.line = cycle.first().and_then(|&b| spans.buffer_line(b));
        diagnostic.tasks = tasks;
        diagnostic.buffers = buffers;
        report.push(diagnostic);
        upper = upper.min(Throughput::Finite(*bound));
    }

    // Lower bound: deadlock verdict, proven-live sequential schedule, or
    // vacuous when liveness is unknown.
    let lower = if report.certain_deadlock() {
        upper = Throughput::Deadlocked;
        report.push(Diagnostic::new(
            LintCode::SequentialLowerBound,
            "the graph deadlocks: throughput is exactly 0".to_string(),
        ));
        Throughput::Deadlocked
    } else if liveness.live_proven() {
        let mut total: u128 = 0;
        for (task_id, task) in graph.tasks() {
            total += q.get(task_id) as u128 * task.total_duration() as u128;
        }
        match i128::try_from(total) {
            Ok(0) => {
                report.push(Diagnostic::new(
                    LintCode::SequentialLowerBound,
                    "the graph is live and all durations are zero: throughput is unbounded"
                        .to_string(),
                ));
                upper = Throughput::Unbounded;
                Throughput::Unbounded
            }
            Ok(total) => {
                let bound = Rational::new(1, total).expect("nonzero total");
                report.push(Diagnostic::new(
                    LintCode::SequentialLowerBound,
                    format!(
                        "the graph is live; a sequential schedule achieves Th >= {bound} \
                         (one iteration in {total} time unit(s))"
                    ),
                ));
                Throughput::Finite(bound)
            }
            Err(_) => Throughput::Deadlocked,
        }
    } else {
        report.push(Diagnostic::new(
            LintCode::SequentialLowerBound,
            "liveness not established statically: no positive lower bound claimed".to_string(),
        ));
        Throughput::Deadlocked
    };

    ThroughputBounds { lower, upper }
}

struct CycleStats {
    /// `W(C)`: initial tokens normalised to graph iterations.
    stored_iterations: Rational,
    /// `k`: number of buffers (= tasks) on the cycle.
    length: usize,
    /// `L(C)`: sum of the minimum phase duration of every task on the cycle.
    min_duration_sum: u128,
}

impl CycleStats {
    /// `(W + k) / L`, or `None` when `L == 0` or arithmetic overflows
    /// (skipping a candidate is always sound).
    fn upper_bound(&self) -> Option<Rational> {
        let denominator = i128::try_from(self.min_duration_sum).ok()?;
        if denominator == 0 {
            return None;
        }
        let numerator = self
            .stored_iterations
            .checked_add(&Rational::from_integer(self.length as i128))
            .ok()?;
        numerator
            .checked_div(&Rational::from_integer(denominator))
            .ok()
    }
}

/// Computes `W(C)`, `k` and `L(C)` for one sampled cycle; `None` when a
/// normalisation term overflows.
fn cycle_stats(graph: &CsdfGraph, q: &RepetitionVector, cycle: &[usize]) -> Option<CycleStats> {
    let mut stored = RationalSum::new();
    let mut min_duration_sum: u128 = 0;
    for &buffer_index in cycle {
        let buffer = graph.buffer(BufferId::new(buffer_index));
        let producer = buffer.source();
        let per_iteration =
            (q.get(producer) as i128).checked_mul(buffer.total_production() as i128)?;
        let term = Rational::new(buffer.initial_tokens() as i128, per_iteration).ok()?;
        stored.add(&term).ok()?;
        let task = graph.task(producer);
        let min_duration = task.durations().iter().copied().min().unwrap_or(0);
        min_duration_sum += min_duration as u128;
    }
    Some(CycleStats {
        stored_iterations: stored.finish(),
        length: cycle.len(),
        min_duration_sum,
    })
}

fn near_deadlock_diagnostic(
    graph: &CsdfGraph,
    spans: &Spans<'_>,
    stored: Rational,
    cycle: &[usize],
) -> Diagnostic {
    let buffers: Vec<_> = cycle
        .iter()
        .map(|&b| graph.buffer_ref(BufferId::new(b)))
        .collect();
    let tasks: Vec<String> = buffers.iter().map(|b| b.source.clone()).collect();
    let mut diagnostic = Diagnostic::new(
        LintCode::NearDeadlockCycle,
        format!(
            "near-deadlock cycle: the cycle through tasks [{}] stores only {stored} \
             iteration(s) of tokens (< 1); it is live but likely the throughput bottleneck",
            tasks.join(", "),
        ),
    );
    diagnostic.line = cycle.first().and_then(|&b| spans.buffer_line(b));
    diagnostic.tasks = tasks;
    diagnostic.buffers = buffers;
    diagnostic
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::liveness;
    use csdf::CsdfGraphBuilder;

    fn analyze_bounds(graph: &CsdfGraph) -> (ThroughputBounds, LintReport) {
        let q = graph.repetition_vector().unwrap();
        let self_loop_ok = vec![true; graph.task_count()];
        let mut report = LintReport::new();
        let outcome = liveness::check(graph, &q, &self_loop_ok, &Spans::none(), &mut report);
        let bounds = compute(graph, &q, &outcome, &Spans::none(), &mut report);
        (bounds, report)
    }

    #[test]
    fn serialized_chain_gets_workload_upper_and_sequential_lower() {
        let mut b = CsdfGraphBuilder::new();
        let x = b.add_sdf_task("x", 4);
        let y = b.add_sdf_task("y", 2);
        b.add_sdf_buffer(x, y, 1, 1, 0);
        b.add_serializing_self_loop(x);
        b.add_serializing_self_loop(y);
        let g = b.build().unwrap();
        let (bounds, report) = analyze_bounds(&g);
        // Upper: slowest serialized task runs 4 time units per iteration.
        assert_eq!(
            bounds.upper,
            Throughput::Finite(Rational::new(1, 4).unwrap())
        );
        // Lower: sequential schedule takes 6.
        assert_eq!(
            bounds.lower,
            Throughput::Finite(Rational::new(1, 6).unwrap())
        );
        assert!(report.has_code(LintCode::WorkloadUpperBound));
        assert!(report.has_code(LintCode::SequentialLowerBound));
        // The exact throughput 1/4 is inside the bracket.
        assert!(bounds.brackets(&Throughput::Finite(Rational::new(1, 4).unwrap())));
    }

    #[test]
    fn tight_cycle_produces_cycle_bound_and_near_deadlock_warning() {
        // Live multirate 2-cycle (q = [2, 3]) storing W = 5/6 < 1 iterations;
        // both tasks serialised, so the cycle bound is emitted.
        let mut b = CsdfGraphBuilder::new();
        let x = b.add_sdf_task("x", 3);
        let y = b.add_sdf_task("y", 5);
        b.add_sdf_buffer(x, y, 3, 2, 0);
        b.add_sdf_buffer(y, x, 2, 3, 5);
        b.add_serializing_self_loop(x);
        b.add_serializing_self_loop(y);
        let g = b.build().unwrap();
        let (bounds, report) = analyze_bounds(&g);
        assert!(!report.certain_deadlock(), "the cycle is live");
        assert!(report.has_code(LintCode::NearDeadlockCycle), "W = 5/6 < 1");
        // Cycle bound: W = 5/6, k = 2, L = 3 + 5: Th <= (5/6 + 2)/8 = 17/48.
        assert!(report.has_code(LintCode::CycleUpperBound));
        // Workload bound on `y` is tighter: Th <= 1 / (3 · 5) = 1/15 < 17/48.
        assert!(report.has_code(LintCode::WorkloadUpperBound));
        assert_eq!(
            bounds.upper,
            Throughput::Finite(Rational::new(1, 15).unwrap())
        );
        // Sequential lower bound: 1/(2·3 + 3·5) = 1/21.
        assert_eq!(
            bounds.lower,
            Throughput::Finite(Rational::new(1, 21).unwrap())
        );
    }

    #[test]
    fn cycle_bound_is_withheld_without_full_serialization() {
        // The same 2-cycle without self-loops: the solver's event graph does
        // not order concurrent firings of the tasks, so no cycle bound may be
        // claimed. Only the sequential lower bound remains.
        let mut b = CsdfGraphBuilder::new();
        let x = b.add_sdf_task("x", 3);
        let y = b.add_sdf_task("y", 5);
        b.add_sdf_buffer(x, y, 3, 2, 0);
        b.add_sdf_buffer(y, x, 2, 3, 5);
        let g = b.build().unwrap();
        let (bounds, report) = analyze_bounds(&g);
        assert!(
            report.has_code(LintCode::NearDeadlockCycle),
            "W001 is heuristic, stays"
        );
        assert!(!report.has_code(LintCode::CycleUpperBound));
        assert!(!report.has_code(LintCode::WorkloadUpperBound));
        assert_eq!(bounds.upper, Throughput::Unbounded);
        assert_eq!(
            bounds.lower,
            Throughput::Finite(Rational::new(1, 21).unwrap())
        );
    }

    #[test]
    fn deadlocked_graph_collapses_the_bracket_to_zero() {
        let mut b = CsdfGraphBuilder::new();
        let x = b.add_sdf_task("x", 1);
        let y = b.add_sdf_task("y", 1);
        b.add_sdf_buffer(x, y, 1, 1, 0);
        b.add_sdf_buffer(y, x, 1, 1, 0);
        let g = b.build().unwrap();
        let (bounds, report) = analyze_bounds(&g);
        assert!(report.certain_deadlock());
        assert_eq!(bounds.lower, Throughput::Deadlocked);
        assert_eq!(bounds.upper, Throughput::Deadlocked);
        assert!(bounds.brackets(&Throughput::Deadlocked));
    }

    #[test]
    fn unconstrained_acyclic_graph_is_unbounded_above() {
        let mut b = CsdfGraphBuilder::new();
        let x = b.add_sdf_task("x", 1);
        let y = b.add_sdf_task("y", 1);
        b.add_sdf_buffer(x, y, 1, 1, 0);
        let g = b.build().unwrap();
        let (bounds, _) = analyze_bounds(&g);
        assert_eq!(bounds.upper, Throughput::Unbounded);
        assert_eq!(
            bounds.lower,
            Throughput::Finite(Rational::new(1, 2).unwrap())
        );
    }
}
