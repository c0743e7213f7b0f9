//! Karp's algorithm for the maximum cycle mean.
//!
//! The maximum cycle *mean* is the special case of the cost-to-time ratio in
//! which every arc has time 1 (`λ = max_c ΣL(c) / |c|`). Karp's classical
//! dynamic program computes it in `O(V·E)` per strongly connected component
//! and is used in this workspace as an independent oracle for the parametric
//! solver and for homogeneous (HSDF-style) analyses.

use csdf::Rational;

use crate::graph::RatioGraph;
use crate::scc::SccDecomposition;
use crate::solve::McrError;

/// Computes the maximum cycle mean `max_c ΣL(c) / |c|` of `graph`, ignoring
/// the arc times entirely.
///
/// Returns `None` when the graph has no circuit.
///
/// # Errors
///
/// Returns [`McrError::Rational`] on arithmetic overflow.
///
/// # Examples
///
/// ```
/// use mcr::{RatioGraph, maximum_cycle_mean};
/// use csdf::Rational;
///
/// let mut graph = RatioGraph::new(2);
/// let (a, b) = (graph.node(0), graph.node(1));
/// graph.add_arc(a, b, Rational::from_integer(3), Rational::ONE);
/// graph.add_arc(b, a, Rational::from_integer(1), Rational::ONE);
/// let mean = maximum_cycle_mean(&graph)?;
/// assert_eq!(mean, Some(Rational::from_integer(2)));
/// # Ok::<(), mcr::McrError>(())
/// ```
pub fn maximum_cycle_mean(graph: &RatioGraph) -> Result<Option<Rational>, McrError> {
    let scc = SccDecomposition::compute(graph);
    // Group the intra-component arcs (local endpoints) in ONE pass over the
    // flat arc storage — every node has exactly one component, so a single
    // global local-index table serves all components at once. Works without
    // a rebuilt CSR index and stays linear however many components exist.
    let mut local_of = vec![usize::MAX; graph.node_count()];
    for component in 0..scc.component_count() {
        for (local, node) in scc.component(component).iter().enumerate() {
            local_of[node.index()] = local;
        }
    }
    let mut arcs_by_component: Vec<Vec<(usize, usize, Rational)>> =
        vec![Vec::new(); scc.component_count()];
    for (_, arc) in graph.arcs() {
        let component = scc.component_of(arc.from());
        if component == scc.component_of(arc.to()) {
            arcs_by_component[component].push((
                local_of[arc.from().index()],
                local_of[arc.to().index()],
                arc.cost(),
            ));
        }
    }

    let mut best: Option<Rational> = None;
    for (component, arcs) in arcs_by_component.iter().enumerate() {
        // A component is cyclic iff it has more than one node or its single
        // node carries a self-arc — i.e. iff it has any intra-component arc.
        let n = scc.component(component).len();
        if n == 1 && arcs.is_empty() {
            continue;
        }
        let mean = rolling_cycle_mean(n, arcs)?;
        if let Some(mean) = mean {
            if best.map_or(true, |b| mean > b) {
                best = Some(mean);
            }
        }
    }
    Ok(best)
}

/// Rolling-row Karp recurrence over a dense arc list (`(from, to, cost)` with
/// local indices `< n`), for one component of [`maximum_cycle_mean`].
///
/// `D_k(v)` = maximum weight of a walk of exactly k arcs ending at v, starting
/// anywhere in the component (classical Karp table with a virtual source).
/// Materialising the full (n+1)×n table is quadratic memory and blows up on
/// the 10k-task components the scalability work targets, so only two rolling
/// rows are kept and the recurrence runs twice: pass one computes the final
/// row `D_n`, pass two recomputes each `D_k` and folds
/// λ = `max_v` min_{0 ≤ k < n} (`D_n(v)` − `D_k(v)`) / (n − k) incrementally.
fn rolling_cycle_mean(
    n: usize,
    arcs: &[(usize, usize, Rational)],
) -> Result<Option<Rational>, McrError> {
    let relax =
        |prev: &[Option<Rational>], curr: &mut [Option<Rational>]| -> Result<(), McrError> {
            curr.fill(None);
            for &(from, to, cost) in arcs {
                if let Some(previous) = prev[from] {
                    let candidate = previous.checked_add(&cost)?;
                    if curr[to].map_or(true, |current| candidate > current) {
                        curr[to] = Some(candidate);
                    }
                }
            }
            Ok(())
        };

    let mut prev: Vec<Option<Rational>> = vec![Some(Rational::ZERO); n];
    let mut curr: Vec<Option<Rational>> = vec![None; n];
    for _ in 1..=n {
        relax(&prev, &mut curr)?;
        std::mem::swap(&mut prev, &mut curr);
    }
    let final_row = prev;

    let mut minima: Vec<Option<Rational>> = vec![None; n];
    let mut prev: Vec<Option<Rational>> = vec![Some(Rational::ZERO); n];
    let mut curr: Vec<Option<Rational>> = vec![None; n];
    for k in 0..n {
        for v in 0..n {
            let (Some(final_value), Some(intermediate)) = (final_row[v], prev[v]) else {
                continue;
            };
            let numerator = final_value.checked_sub(&intermediate)?;
            let mean = numerator.checked_div(&Rational::from_integer((n - k) as i128))?;
            if minima[v].map_or(true, |m| mean < m) {
                minima[v] = Some(mean);
            }
        }
        if k + 1 < n {
            relax(&prev, &mut curr)?;
            std::mem::swap(&mut prev, &mut curr);
        }
    }

    let mut best: Option<Rational> = None;
    for v in 0..n {
        if final_row[v].is_none() {
            continue;
        }
        if let Some(minimum) = minima[v] {
            if best.map_or(true, |b| minimum > b) {
                best = Some(minimum);
            }
        }
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve::{maximum_cycle_ratio, CycleRatioOutcome};

    fn int(v: i128) -> Rational {
        Rational::from_integer(v)
    }

    #[test]
    fn simple_two_cycle() {
        let mut g = RatioGraph::new(3);
        g.add_arc(g.node(0), g.node(1), int(4), Rational::ONE);
        g.add_arc(g.node(1), g.node(0), int(2), Rational::ONE);
        g.add_arc(g.node(1), g.node(2), int(10), Rational::ONE);
        g.add_arc(g.node(2), g.node(1), int(0), Rational::ONE);
        // Means: (4+2)/2 = 3 and (10+0)/2 = 5.
        assert_eq!(maximum_cycle_mean(&g).unwrap(), Some(int(5)));
    }

    #[test]
    fn acyclic_graph_has_no_mean() {
        let mut g = RatioGraph::new(2);
        g.add_arc(g.node(0), g.node(1), int(1), Rational::ONE);
        assert_eq!(maximum_cycle_mean(&g).unwrap(), None);
    }

    #[test]
    fn self_loop_mean_is_its_cost() {
        let mut g = RatioGraph::new(1);
        g.add_arc(g.node(0), g.node(0), int(9), Rational::ONE);
        assert_eq!(maximum_cycle_mean(&g).unwrap(), Some(int(9)));
    }

    #[test]
    fn agrees_with_ratio_solver_on_unit_times() {
        let mut g = RatioGraph::new(4);
        g.add_arc(g.node(0), g.node(1), int(3), Rational::ONE);
        g.add_arc(g.node(1), g.node(2), int(1), Rational::ONE);
        g.add_arc(g.node(2), g.node(0), int(5), Rational::ONE);
        g.add_arc(g.node(2), g.node(3), int(2), Rational::ONE);
        g.add_arc(g.node(3), g.node(2), int(8), Rational::ONE);
        let karp = maximum_cycle_mean(&g).unwrap().unwrap();
        match maximum_cycle_ratio(&g).unwrap() {
            CycleRatioOutcome::Finite { ratio, .. } => assert_eq!(ratio, karp),
            other => panic!("unexpected {other:?}"),
        }
    }

    /// With the old (n+1)×n table this allocated ~34M `Option<Rational>`
    /// entries (gigabytes); the rolling-row recurrence keeps it at O(n).
    #[test]
    fn large_scc_stays_in_linear_memory() {
        let n = 2048usize;
        let mut g = RatioGraph::new(n);
        // A single ring whose costs cycle 1, 2, 3, 4: mean = 10/4 = 5/2.
        for i in 0..n {
            g.add_arc(
                g.node(i),
                g.node((i + 1) % n),
                int(1 + (i as i128 % 4)),
                Rational::ONE,
            );
        }
        assert_eq!(
            maximum_cycle_mean(&g).unwrap(),
            Some(Rational::new(5, 2).unwrap())
        );
    }

    #[test]
    fn negative_means_are_supported() {
        // A single cycle whose mean is negative: the ratio solver reports
        // NonPositive, Karp still reports the exact mean.
        let mut g = RatioGraph::new(2);
        g.add_arc(g.node(0), g.node(1), int(-3), Rational::ONE);
        g.add_arc(g.node(1), g.node(0), int(1), Rational::ONE);
        assert_eq!(
            maximum_cycle_mean(&g).unwrap(),
            Some(Rational::new(-1, 1).unwrap())
        );
        assert_eq!(
            maximum_cycle_ratio(&g).unwrap(),
            CycleRatioOutcome::NonPositive
        );
    }
}
