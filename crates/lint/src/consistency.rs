//! Rate-consistency pass (`L001`): re-runs the balance-equation propagation
//! of [`csdf::RepetitionVector`] with parent tracking, so a conflict can be
//! reported with a *certificate* — the undirected cycle of buffers whose
//! rate ratios multiply to something other than one.

use csdf::{CsdfGraph, Rational, RepetitionVector, TaskId};

use crate::diag::{Diagnostic, LintCode, LintReport};
use crate::Spans;

/// Checks consistency. On success returns the repetition vector; on failure
/// pushes `L001` (or `W004` if the vector overflows) and returns `None`.
pub(crate) fn check(
    graph: &CsdfGraph,
    spans: &Spans<'_>,
    report: &mut LintReport,
) -> Option<RepetitionVector> {
    // The propagation below mirrors `repetition_vector`'s, so it finds a
    // conflict exactly when that one fails as inconsistent: a consistent
    // graph is propagated once.
    let err = match graph.repetition_vector() {
        Ok(q) => return Some(q),
        Err(err) => err,
    };
    if let Some(conflict) = find_conflict(graph) {
        report.push(certificate_diagnostic(graph, spans, &conflict));
    } else {
        // No conflict, so this is arithmetic overflow, not inconsistency.
        report.push(Diagnostic::new(
            LintCode::AnalysisBudgetExceeded,
            format!("repetition vector could not be computed: {err}"),
        ));
    }
    None
}

/// A balance conflict: the buffer whose ratio contradicts the fractions
/// already assigned to its two endpoints, plus the BFS parent forest needed
/// to extract the certificate cycle.
struct Conflict {
    buffer: usize,
    /// The task whose neighbours were being expanded.
    from: usize,
    /// The already-settled other endpoint.
    to: usize,
    /// `parent[t]` = `(parent_task, buffer)` in the BFS forest.
    parent: Vec<Option<(usize, usize)>>,
}

/// Mirrors the fraction propagation of `RepetitionVector::compute` exactly
/// (same totals-ratio orientation, same BFS order), additionally recording
/// the parent edge of every task. Arithmetic failures are treated as "no
/// conflict found" and left to `repetition_vector` to classify.
fn find_conflict(graph: &CsdfGraph) -> Option<Conflict> {
    let n = graph.task_count();
    let mut fractions: Vec<Option<Rational>> = vec![None; n];
    let mut parent: Vec<Option<(usize, usize)>> = vec![None; n];
    let mut queue = std::collections::VecDeque::new();

    for start in 0..n {
        if fractions[start].is_some() {
            continue;
        }
        fractions[start] = Some(Rational::ONE);
        queue.push_back(TaskId::new(start));
        while let Some(task) = queue.pop_front() {
            let task_fraction = fractions[task.index()].expect("assigned before queueing");
            for &buffer_id in graph.incident(task) {
                let buffer = graph.buffer(buffer_id);
                let ratio = if buffer.source() == task {
                    Rational::new(
                        buffer.total_production() as i128,
                        buffer.total_consumption() as i128,
                    )
                } else {
                    Rational::new(
                        buffer.total_consumption() as i128,
                        buffer.total_production() as i128,
                    )
                };
                let other = if buffer.source() == task {
                    buffer.target()
                } else {
                    buffer.source()
                };
                let Ok(expected) = ratio.and_then(|r| task_fraction.checked_mul(&r)) else {
                    return None;
                };
                match fractions[other.index()] {
                    None => {
                        fractions[other.index()] = Some(expected);
                        parent[other.index()] = Some((task.index(), buffer_id.index()));
                        queue.push_back(other);
                    }
                    Some(existing) => {
                        if existing != expected {
                            return Some(Conflict {
                                buffer: buffer_id.index(),
                                from: task.index(),
                                to: other.index(),
                                parent,
                            });
                        }
                    }
                }
            }
        }
    }
    None
}

/// Builds the `L001` diagnostic: the certificate is the conflicting buffer
/// plus the BFS-forest paths from its endpoints up to their lowest common
/// ancestor — an undirected simple cycle, near-minimal because the forest is
/// a breadth-first (shortest-path) tree.
fn certificate_diagnostic(graph: &CsdfGraph, spans: &Spans<'_>, conflict: &Conflict) -> Diagnostic {
    // Ancestors of `from`, with their depth, walking to the forest root.
    let mut from_chain: Vec<(usize, Option<usize>)> = Vec::new(); // (task, buffer to parent)
    let mut cursor = conflict.from;
    from_chain.push((cursor, None));
    while let Some((p, b)) = conflict.parent[cursor] {
        from_chain.last_mut().expect("nonempty").1 = Some(b);
        from_chain.push((p, None));
        cursor = p;
    }
    let mut depth_of = vec![usize::MAX; graph.task_count()];
    for (depth, &(task, _)) in from_chain.iter().enumerate() {
        depth_of[task] = depth;
    }

    // Walk up from `to` until the chain of `from` is hit (the LCA). `to` and
    // `from` are in the same BFS tree: the conflicting buffer connects them.
    let mut to_path: Vec<usize> = Vec::new(); // buffers from `to` towards LCA
    let mut cursor = conflict.to;
    while depth_of[cursor] == usize::MAX {
        let (p, b) = conflict.parent[cursor].expect("reaches the tree root");
        to_path.push(b);
        cursor = p;
    }
    let lca_depth = depth_of[cursor];

    // Cycle: conflict buffer, `to → LCA` buffers, then `LCA → from` buffers.
    let mut cycle: Vec<usize> = vec![conflict.buffer];
    cycle.extend(&to_path);
    for &(_, buffer) in from_chain[..lca_depth].iter().rev() {
        cycle.push(buffer.expect("every non-terminal chain entry has an edge"));
    }

    let buffers: Vec<_> = cycle
        .iter()
        .map(|&b| graph.buffer_ref(csdf::BufferId::new(b)))
        .collect();
    let mut tasks = vec![
        graph.task(TaskId::new(conflict.from)).name().to_string(),
        graph.task(TaskId::new(conflict.to)).name().to_string(),
    ];
    tasks.dedup();
    let cycle_text = buffers
        .iter()
        .map(|b| format!("`{}`->`{}`", b.source, b.target))
        .collect::<Vec<_>>()
        .join(", ");
    let mut diagnostic = Diagnostic::new(
        LintCode::RateInconsistent,
        format!(
            "rate-inconsistent cycle: the balance equations around {} admit no positive \
             repetition vector (cycle of {} buffer(s): {})",
            buffers[0],
            buffers.len(),
            cycle_text
        ),
    );
    diagnostic.line = spans.buffer_line(conflict.buffer);
    diagnostic.tasks = tasks;
    diagnostic.buffers = buffers;
    diagnostic
}

#[cfg(test)]
mod tests {
    use super::*;
    use csdf::CsdfGraphBuilder;

    #[test]
    fn consistent_graph_returns_q() {
        let mut b = CsdfGraphBuilder::new();
        let x = b.add_sdf_task("x", 1);
        let y = b.add_sdf_task("y", 1);
        b.add_sdf_buffer(x, y, 3, 2, 0);
        let g = b.build().unwrap();
        let mut report = LintReport::new();
        let q = check(&g, &Spans::none(), &mut report).expect("consistent");
        assert_eq!(q.as_slice(), &[2, 3]);
        assert!(report.diagnostics.is_empty());
    }

    #[test]
    fn two_cycle_certificate_names_both_buffers() {
        let mut b = CsdfGraphBuilder::new();
        let x = b.add_sdf_task("x", 1);
        let y = b.add_sdf_task("y", 1);
        b.add_sdf_buffer(x, y, 2, 1, 0);
        b.add_sdf_buffer(y, x, 1, 1, 0);
        let g = b.build().unwrap();
        let mut report = LintReport::new();
        assert!(check(&g, &Spans::none(), &mut report).is_none());
        assert_eq!(report.diagnostics.len(), 1);
        let d = &report.diagnostics[0];
        assert_eq!(d.code, LintCode::RateInconsistent);
        assert_eq!(d.buffers.len(), 2, "certificate is the 2-cycle");
        let indices: Vec<usize> = d.buffers.iter().map(|b| b.index).collect();
        assert!(indices.contains(&0) && indices.contains(&1));
    }

    #[test]
    fn inconsistent_self_loop_certificate_is_the_loop_itself() {
        let mut b = CsdfGraphBuilder::new();
        let t = b.add_task("t", vec![1, 1]);
        b.add_buffer(t, t, vec![2, 1], vec![1, 1], 1);
        let g = b.build().unwrap();
        let mut report = LintReport::new();
        assert!(check(&g, &Spans::none(), &mut report).is_none());
        let d = &report.diagnostics[0];
        assert_eq!(d.code, LintCode::RateInconsistent);
        assert_eq!(d.buffers.len(), 1);
        assert_eq!(d.buffers[0].index, 0);
    }

    #[test]
    fn longer_cycle_certificate_is_a_cycle() {
        // x -> y -> z and x -> z with a rate mismatch on the direct edge.
        let mut b = CsdfGraphBuilder::new();
        let x = b.add_sdf_task("x", 1);
        let y = b.add_sdf_task("y", 1);
        let z = b.add_sdf_task("z", 1);
        b.add_sdf_buffer(x, y, 1, 1, 0);
        b.add_sdf_buffer(y, z, 1, 1, 0);
        b.add_sdf_buffer(x, z, 2, 1, 0);
        let g = b.build().unwrap();
        let mut report = LintReport::new();
        assert!(check(&g, &Spans::none(), &mut report).is_none());
        let d = &report.diagnostics[0];
        assert_eq!(d.code, LintCode::RateInconsistent);
        assert_eq!(d.buffers.len(), 3, "triangle certificate");
    }
}
