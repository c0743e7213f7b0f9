//! The 1-periodic approximate baseline (reference [4] of the paper).
//!
//! A 1-periodic schedule fixes a single starting time and a period per task.
//! Computing its best throughput is fast (one MCRP on a small event graph)
//! but the result is only a lower bound of the maximum throughput — Table 2
//! of the paper reports how far off it can be (down to 0.1 % of the optimum
//! on synthetic graphs, or no solution at all).

use std::time::Instant;

use csdf::{CsdfGraph, Throughput};
use kperiodic::{
    evaluate_k_periodic, AnalysisError, AnalysisOptions, EvaluationOutcome, PeriodicityVector,
};

use crate::{EvaluationStatus, MethodResult};

/// Evaluates the best throughput reachable by a 1-periodic schedule.
///
/// The result is a *lower bound* of the maximum throughput, reported with
/// [`EvaluationStatus::LowerBound`]. Graphs that admit no periodic schedule at
/// all (the paper's "N/S" cells) yield [`EvaluationStatus::NoSolution`].
///
/// # Errors
///
/// Propagates [`AnalysisError`] from the underlying fixed-K evaluation.
///
/// # Examples
///
/// ```
/// use csdf::CsdfGraphBuilder;
/// use csdf_baselines::periodic_throughput;
///
/// let mut builder = CsdfGraphBuilder::new();
/// let a = builder.add_sdf_task("a", 1);
/// let b = builder.add_sdf_task("b", 1);
/// builder.add_sdf_buffer(a, b, 2, 1, 0);
/// builder.add_sdf_buffer(b, a, 1, 2, 4);
/// builder.add_serializing_self_loop(a);
/// builder.add_serializing_self_loop(b);
/// let graph = builder.build()?;
///
/// let result = periodic_throughput(&graph)?;
/// assert!(result.throughput().is_some());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn periodic_throughput(graph: &CsdfGraph) -> Result<MethodResult, AnalysisError> {
    let start = Instant::now();
    let evaluation = evaluate_k_periodic(
        graph,
        &PeriodicityVector::unitary(graph),
        &AnalysisOptions::default(),
    )?;
    let (status, throughput) = match evaluation.outcome {
        EvaluationOutcome::Feasible { throughput, .. } => {
            (EvaluationStatus::LowerBound, Some(throughput))
        }
        EvaluationOutcome::Infeasible { .. } => (EvaluationStatus::NoSolution, None),
        EvaluationOutcome::Unconstrained => (EvaluationStatus::Exact, Some(Throughput::Unbounded)),
    };
    Ok(MethodResult {
        status,
        throughput,
        events: evaluation.event_graph_size.1 as u64,
        states: evaluation.event_graph_size.0,
        wall_time: start.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use csdf::{CsdfGraphBuilder, Rational};

    #[test]
    fn periodic_bound_is_below_the_optimum() {
        // A multirate ring where the 1-periodic schedule is pessimistic.
        let mut b = CsdfGraphBuilder::new();
        let x = b.add_sdf_task("x", 1);
        let y = b.add_sdf_task("y", 1);
        b.add_sdf_buffer(x, y, 2, 3, 1);
        b.add_sdf_buffer(y, x, 3, 2, 3);
        b.add_serializing_self_loop(x);
        b.add_serializing_self_loop(y);
        let g = b.build().unwrap();
        let periodic = periodic_throughput(&g).unwrap();
        let optimal = kperiodic::optimal_throughput(&g).unwrap();
        if let (Some(bound), Throughput::Finite(_)) = (periodic.throughput(), optimal.throughput) {
            assert!(bound <= optimal.throughput);
        }
    }

    #[test]
    fn no_solution_is_reported_for_infeasible_periodic_instances() {
        // Deadlocked ring: not even a periodic schedule exists.
        let mut b = CsdfGraphBuilder::new();
        let x = b.add_sdf_task("x", 1);
        let y = b.add_sdf_task("y", 1);
        b.add_sdf_buffer(x, y, 1, 1, 0);
        b.add_sdf_buffer(y, x, 1, 1, 0);
        let g = b.build().unwrap();
        let result = periodic_throughput(&g).unwrap();
        assert_eq!(result.status, EvaluationStatus::NoSolution);
        assert_eq!(result.throughput(), None);
    }

    #[test]
    fn exact_simple_case() {
        let mut b = CsdfGraphBuilder::new();
        let x = b.add_sdf_task("x", 1);
        let y = b.add_sdf_task("y", 1);
        b.add_sdf_buffer(x, y, 1, 1, 0);
        b.add_sdf_buffer(y, x, 1, 1, 1);
        let g = b.build().unwrap();
        let result = periodic_throughput(&g).unwrap();
        assert_eq!(
            result.throughput(),
            Some(Throughput::Finite(Rational::new(1, 2).unwrap()))
        );
    }
}
