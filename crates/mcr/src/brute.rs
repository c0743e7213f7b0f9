//! Brute-force cycle enumeration, used as a test oracle for the parametric
//! MCRP solver on small graphs.

use csdf::Rational;

use crate::graph::{ArcId, NodeId, RatioGraph};
use crate::solve::{CriticalCycle, CycleRatioOutcome, McrError};

/// Enumerates every elementary circuit of `graph` and returns them as arc
/// sequences.
///
/// The enumeration is a straightforward DFS from each start node that only
/// visits nodes with an index greater than or equal to the start node (so each
/// elementary circuit is reported exactly once, rooted at its smallest node).
/// Intended for small graphs only — the number of circuits can be exponential.
pub fn enumerate_elementary_cycles(graph: &RatioGraph) -> Vec<Vec<ArcId>> {
    let mut cycles = Vec::new();
    let n = graph.node_count();
    // Local adjacency so the oracle works on graphs whose CSR index was
    // never rebuilt (it is a test helper; the allocation is irrelevant).
    let mut outgoing: Vec<Vec<ArcId>> = vec![Vec::new(); n];
    for (arc_id, arc) in graph.arcs() {
        outgoing[arc.from().index()].push(arc_id);
    }
    for start in 0..n {
        let start_node = NodeId::new(start);
        let mut path_arcs: Vec<ArcId> = Vec::new();
        let mut on_path = vec![false; n];
        dfs(
            graph,
            &outgoing,
            start_node,
            start_node,
            &mut path_arcs,
            &mut on_path,
            &mut cycles,
        );
    }
    cycles
}

#[allow(clippy::too_many_arguments)]
fn dfs(
    graph: &RatioGraph,
    outgoing: &[Vec<ArcId>],
    start: NodeId,
    current: NodeId,
    path_arcs: &mut Vec<ArcId>,
    on_path: &mut [bool],
    cycles: &mut Vec<Vec<ArcId>>,
) {
    on_path[current.index()] = true;
    for &arc_id in &outgoing[current.index()] {
        let next = graph.arc(arc_id).to();
        if next == start {
            let mut cycle = path_arcs.clone();
            cycle.push(arc_id);
            cycles.push(cycle);
        } else if next.index() > start.index() && !on_path[next.index()] {
            path_arcs.push(arc_id);
            dfs(graph, outgoing, start, next, path_arcs, on_path, cycles);
            path_arcs.pop();
        }
    }
    on_path[current.index()] = false;
}

/// Computes the maximum cycle ratio by enumerating every elementary circuit.
///
/// Semantics match [`crate::maximum_cycle_ratio`]: circuits with non-positive
/// total time and positive lexicographic weight make the outcome
/// [`CycleRatioOutcome::Infinite`]; circuits with non-positive ratio are
/// ignored.
///
/// # Errors
///
/// Returns [`McrError::Rational`] on arithmetic overflow.
pub fn maximum_cycle_ratio_brute_force(graph: &RatioGraph) -> Result<CycleRatioOutcome, McrError> {
    let cycles = enumerate_elementary_cycles(graph);
    if cycles.is_empty() {
        return Ok(CycleRatioOutcome::Acyclic);
    }
    let mut best: Option<(Rational, CriticalCycle)> = None;
    for arcs in cycles {
        let (cost, time) = graph.path_weight(&arcs)?;
        let nodes = arcs.iter().map(|&a| graph.arc(a).from()).collect();
        let cycle = CriticalCycle {
            arcs,
            nodes,
            cost,
            time,
        };
        if !time.is_positive() {
            if cost.is_positive() || time.is_negative() {
                return Ok(CycleRatioOutcome::Infinite {
                    cycle,
                    others: Vec::new(),
                });
            }
            continue;
        }
        let ratio = cost.checked_div(&time)?;
        if !ratio.is_positive() {
            continue;
        }
        if best.as_ref().map_or(true, |(r, _)| ratio > *r) {
            best = Some((ratio, cycle));
        }
    }
    Ok(match best {
        Some((ratio, cycle)) => CycleRatioOutcome::Finite { ratio, cycle },
        None => CycleRatioOutcome::NonPositive,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve::maximum_cycle_ratio;

    fn int(v: i128) -> Rational {
        Rational::from_integer(v)
    }

    #[test]
    fn enumerates_all_cycles_of_a_small_graph() {
        let mut g = RatioGraph::new(3);
        g.add_arc(g.node(0), g.node(1), int(1), int(1));
        g.add_arc(g.node(1), g.node(0), int(1), int(1));
        g.add_arc(g.node(1), g.node(2), int(1), int(1));
        g.add_arc(g.node(2), g.node(0), int(1), int(1));
        g.add_arc(g.node(2), g.node(2), int(1), int(1));
        let cycles = enumerate_elementary_cycles(&g);
        // 0->1->0, 0->1->2->0, 2->2
        assert_eq!(cycles.len(), 3);
    }

    #[test]
    fn agrees_with_the_parametric_solver() {
        let mut g = RatioGraph::new(4);
        g.add_arc(g.node(0), g.node(1), int(2), int(1));
        g.add_arc(g.node(1), g.node(2), int(5), int(2));
        g.add_arc(g.node(2), g.node(0), int(1), int(1));
        g.add_arc(g.node(2), g.node(3), int(4), int(1));
        g.add_arc(g.node(3), g.node(1), int(3), int(2));
        let brute = maximum_cycle_ratio_brute_force(&g).unwrap();
        let fast = maximum_cycle_ratio(&g).unwrap();
        assert_eq!(brute.ratio(), fast.ratio());
    }

    #[test]
    fn infinite_outcome_matches() {
        let mut g = RatioGraph::new(2);
        g.add_arc(g.node(0), g.node(1), int(1), int(0));
        g.add_arc(g.node(1), g.node(0), int(1), int(0));
        assert!(matches!(
            maximum_cycle_ratio_brute_force(&g).unwrap(),
            CycleRatioOutcome::Infinite { .. }
        ));
        assert!(matches!(
            maximum_cycle_ratio(&g).unwrap(),
            CycleRatioOutcome::Infinite { .. }
        ));
    }

    #[test]
    fn acyclic_graph_has_no_cycles() {
        let mut g = RatioGraph::new(2);
        g.add_arc(g.node(0), g.node(1), int(1), int(1));
        assert!(enumerate_elementary_cycles(&g).is_empty());
        assert_eq!(
            maximum_cycle_ratio_brute_force(&g).unwrap(),
            CycleRatioOutcome::Acyclic
        );
    }
}
