//! Disabling auto-concurrency by adding one-token self-loops.

use crate::builder::CsdfGraphBuilder;
use crate::error::CsdfError;
use crate::graph::CsdfGraph;

/// Returns a copy of `graph` in which every task that does not already have a
/// self-loop buffer receives a one-token self-loop with unit rates on every
/// phase.
///
/// With such a loop, execution `n+1` of a task can only start after execution
/// `n` has completed, which is the usual "auto-concurrency disabled"
/// convention of the SDF3 tool and of the paper's benchmarks. Tasks that
/// already carry a self-loop (whatever its marking) are left untouched so that
/// intentionally pipelined tasks keep their degree of concurrency.
///
/// # Errors
///
/// Propagates builder validation errors, which cannot occur for a graph that
/// was itself built through [`CsdfGraphBuilder`].
///
/// # Examples
///
/// ```
/// use csdf::{CsdfGraphBuilder, transform::serialize_tasks};
///
/// let mut builder = CsdfGraphBuilder::new();
/// let a = builder.add_sdf_task("a", 1);
/// let b = builder.add_sdf_task("b", 1);
/// builder.add_sdf_buffer(a, b, 1, 1, 0);
/// let graph = builder.build()?;
/// let serialized = serialize_tasks(&graph)?;
/// assert_eq!(serialized.buffer_count(), 3);
/// # Ok::<(), csdf::CsdfError>(())
/// ```
pub fn serialize_tasks(graph: &CsdfGraph) -> Result<CsdfGraph, CsdfError> {
    let mut builder = CsdfGraphBuilder::extending(graph, graph.name().to_string());
    for task_id in graph.task_ids() {
        let has_self_loop = graph
            .outgoing(task_id)
            .iter()
            .any(|&b| graph.buffer(b).is_self_loop());
        if !has_self_loop {
            builder.add_serializing_self_loop(task_id);
        }
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CsdfGraphBuilder;

    #[test]
    fn adds_self_loops_only_where_missing() {
        let mut b = CsdfGraphBuilder::new();
        let x = b.add_task("x", vec![1, 1]);
        let y = b.add_sdf_task("y", 1);
        b.add_buffer(x, y, vec![1, 1], vec![2], 0);
        b.add_serializing_self_loop(y);
        let g = b.build().unwrap();
        let s = serialize_tasks(&g).unwrap();
        assert_eq!(s.buffer_count(), 3);
        let self_loops = s
            .buffers()
            .filter(|(_, buffer)| buffer.is_self_loop())
            .count();
        assert_eq!(self_loops, 2);
        // The added loop covers every phase of the multi-phase task.
        let x_loop = s
            .buffers()
            .find(|(_, buffer)| buffer.is_self_loop() && buffer.source() == x)
            .unwrap()
            .1;
        assert_eq!(x_loop.production(), &[1, 1]);
        assert_eq!(x_loop.initial_tokens(), 1);
    }

    #[test]
    fn idempotent_on_already_serialized_graphs() {
        let mut b = CsdfGraphBuilder::new();
        let x = b.add_sdf_task("x", 1);
        b.add_serializing_self_loop(x);
        let g = b.build().unwrap();
        let s = serialize_tasks(&g).unwrap();
        assert_eq!(s.buffer_count(), g.buffer_count());
        let s2 = serialize_tasks(&s).unwrap();
        assert_eq!(s2.buffer_count(), s.buffer_count());
    }

    #[test]
    fn preserves_consistency() {
        let mut b = CsdfGraphBuilder::new();
        let x = b.add_sdf_task("x", 1);
        let y = b.add_sdf_task("y", 1);
        b.add_sdf_buffer(x, y, 3, 5, 0);
        let g = b.build().unwrap();
        let s = serialize_tasks(&g).unwrap();
        let q = s.repetition_vector().unwrap();
        assert_eq!(q.get(x), 5);
        assert_eq!(q.get(y), 3);
    }
}
