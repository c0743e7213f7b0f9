//! The running example of the paper (Figure 2), reconstructed.
//!
//! The PDF text extraction garbles the exact rate and marking labels of
//! Figure 2 (the values as extracted do not form a consistent graph), so this
//! module ships a *reconstruction*: four tasks `A, B, C, D` with the same
//! phase counts (`ϕ = [2, 3, 1, 1]`), unit phase durations, the same
//! repetition vector `q = [6, 12, 6, 1]`, and the same topology (a multirate
//! cycle `A → B → C → A` plus a slow outer loop through `D`). Every task
//! carries a one-token self-loop, which is what produces the intra-task
//! precedence arcs visible in the paper's Figure 5.
//!
//! The qualitative behaviour narrated in the paper is preserved: the
//! 1-periodic bound is pessimistic, K-Iter grows the periodicity vector of
//! the tasks on the critical circuit and proves optimality after a few
//! iterations. The exact numbers for this reconstruction are recorded in
//! `EXPERIMENTS.md`.

use csdf::{CsdfGraph, CsdfGraphBuilder, TaskId};

/// Handles to the four tasks of the [`paper_example`] graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PaperExampleTasks {
    /// Task `A` (2 phases).
    pub a: TaskId,
    /// Task `B` (3 phases).
    pub b: TaskId,
    /// Task `C` (1 phase).
    pub c: TaskId,
    /// Task `D` (1 phase).
    pub d: TaskId,
}

/// Builds the reconstructed Figure-2 graph.
///
/// # Panics
///
/// Never panics: the construction is statically valid.
///
/// # Examples
///
/// ```
/// use kperiodic::paper_example;
///
/// let (graph, tasks) = paper_example();
/// let q = graph.repetition_vector().expect("consistent");
/// assert_eq!(q.get(tasks.a), 6);
/// assert_eq!(q.get(tasks.b), 12);
/// assert_eq!(q.get(tasks.c), 6);
/// assert_eq!(q.get(tasks.d), 1);
/// ```
pub fn paper_example() -> (CsdfGraph, PaperExampleTasks) {
    let mut builder = CsdfGraphBuilder::named("paper_figure2");
    let a = builder.add_task("A", vec![1, 1]);
    let b = builder.add_task("B", vec![1, 1, 1]);
    let c = builder.add_task("C", vec![1]);
    let d = builder.add_task("D", vec![1]);

    // Multirate inner cycle A -> B -> C -> A.
    // Balance: 6·8 = 12·4, 12·4 = 6·8, 6·2 = 6·2.
    builder.add_buffer(a, b, vec![3, 5], vec![1, 1, 2], 0);
    builder.add_buffer(b, c, vec![1, 2, 1], vec![8], 0);
    builder.add_buffer(c, a, vec![2], vec![1, 1], 5);

    // Slow outer loop A -> D -> A (D fires once per graph iteration).
    // Balance: 6·2 = 1·12, 1·24 = 6·4.
    builder.add_buffer(a, d, vec![1, 1], vec![12], 0);
    builder.add_buffer(d, a, vec![24], vec![2, 2], 26);

    // Serialise every task, as the paper's event graph (Figure 5) does.
    builder.add_serializing_self_loop(a);
    builder.add_serializing_self_loop(b);
    builder.add_serializing_self_loop(c);
    builder.add_serializing_self_loop(d);

    let graph = builder.build().expect("the paper example is well formed");
    (graph, PaperExampleTasks { a, b, c, d })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{evaluate_k_periodic, AnalysisOptions};
    use crate::kiter::{kiter_with_options, KIterOptions};
    use crate::periodicity::PeriodicityVector;

    #[test]
    fn repetition_vector_matches_the_paper() {
        let (graph, tasks) = paper_example();
        let q = graph.repetition_vector().unwrap();
        assert_eq!(q.get(tasks.a), 6);
        assert_eq!(q.get(tasks.b), 12);
        assert_eq!(q.get(tasks.c), 6);
        assert_eq!(q.get(tasks.d), 1);
        assert_eq!(q.sum(), 25);
    }

    #[test]
    fn kiter_terminates_and_dominates_the_periodic_bound() {
        let (graph, _) = paper_example();
        let unitary = PeriodicityVector::unitary(&graph);
        let periodic = evaluate_k_periodic(&graph, &unitary, &AnalysisOptions::default()).unwrap();
        let options = KIterOptions {
            record_history: true,
            ..KIterOptions::default()
        };
        let optimal = kiter_with_options(&graph, &options).unwrap();
        assert!(matches!(optimal.throughput, csdf::Throughput::Finite(_)));
        assert!(optimal.throughput >= periodic.throughput());
        assert!(optimal.history.last().unwrap().optimal);
    }

    #[test]
    fn structure_matches_figure2() {
        let (graph, tasks) = paper_example();
        assert_eq!(graph.task_count(), 4);
        // 5 data buffers + 4 self-loops.
        assert_eq!(graph.buffer_count(), 9);
        assert_eq!(graph.task(tasks.a).phase_count(), 2);
        assert_eq!(graph.task(tasks.b).phase_count(), 3);
        assert_eq!(graph.task(tasks.c).phase_count(), 1);
        assert_eq!(graph.task(tasks.d).phase_count(), 1);
    }
}
