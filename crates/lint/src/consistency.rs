//! Rate-consistency pass (`L001`): reports the conflict met by the balance
//! propagation of [`csdf::RepetitionVector::balance`] with a *certificate*
//! — the undirected cycle of buffers whose rate ratios multiply to
//! something other than one — built from the propagation's own
//! breadth-first forest.

use csdf::{BalanceConflict, BalanceError, CsdfGraph, RepetitionVector};

use crate::diag::{Diagnostic, LintCode, LintReport};
use crate::Spans;

/// Checks consistency. On success returns the repetition vector; on failure
/// pushes `L001` (or `W004` if the vector overflows) and returns `None`.
pub(crate) fn check(
    graph: &CsdfGraph,
    spans: &Spans<'_>,
    report: &mut LintReport,
) -> Option<RepetitionVector> {
    match RepetitionVector::balance(graph) {
        Ok(q) => return Some(q),
        Err(BalanceError::Inconsistent(conflict)) => {
            report.push(certificate_diagnostic(graph, spans, &conflict));
        }
        Err(BalanceError::Overflow(err)) => {
            report.push(Diagnostic::new(
                LintCode::AnalysisBudgetExceeded,
                format!("repetition vector could not be computed: {err}"),
            ));
        }
    }
    None
}

/// Builds the `L001` diagnostic: the certificate is the conflicting buffer
/// plus the BFS-forest paths from its endpoints up to their lowest common
/// ancestor — an undirected simple cycle, near-minimal because the forest is
/// a breadth-first (shortest-path) tree.
fn certificate_diagnostic(
    graph: &CsdfGraph,
    spans: &Spans<'_>,
    conflict: &BalanceConflict,
) -> Diagnostic {
    // `(parent task, buffer)` of a task in the forest: the buffer's other
    // endpoint.
    let parent = |task: usize| {
        conflict.parent[task].map(|buffer_id| {
            let buffer = graph.buffer(buffer_id);
            let other = if buffer.target().index() == task {
                buffer.source()
            } else {
                buffer.target()
            };
            (other.index(), buffer_id.index())
        })
    };
    let (from, to) = (conflict.from.index(), conflict.to.index());
    // Ancestors of `from`, with their depth, walking to the forest root.
    let mut from_chain: Vec<(usize, Option<usize>)> = Vec::new(); // (task, buffer to parent)
    let mut cursor = from;
    from_chain.push((cursor, None));
    while let Some((p, b)) = parent(cursor) {
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
    let mut cursor = to;
    while depth_of[cursor] == usize::MAX {
        let (p, b) = parent(cursor).expect("reaches the tree root");
        to_path.push(b);
        cursor = p;
    }
    let lca_depth = depth_of[cursor];

    // Cycle: conflict buffer, `to → LCA` buffers, then `LCA → from` buffers.
    let mut cycle: Vec<usize> = vec![conflict.buffer.index()];
    cycle.extend(&to_path);
    for &(_, buffer) in from_chain[..lca_depth].iter().rev() {
        cycle.push(buffer.expect("every non-terminal chain entry has an edge"));
    }

    let buffers: Vec<_> = cycle
        .iter()
        .map(|&b| graph.buffer_ref(csdf::BufferId::new(b)))
        .collect();
    let mut tasks = vec![
        graph.task(conflict.from).name().to_string(),
        graph.task(conflict.to).name().to_string(),
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
    diagnostic.line = spans.buffer_line(conflict.buffer.index());
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
