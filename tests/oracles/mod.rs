//! Independent reference computations for the property tests, written only
//! on the public API: Karp's maximum cycle mean and an exhaustive maximum
//! cycle ratio over elementary circuits (for the MCR solvers), and the
//! Section-3.2 transformation `G → G̃` with its repetition vector (for
//! Theorem 3).

use kiter::analysis::PeriodicityVector;
use kiter::model::{CsdfGraph, CsdfGraphBuilder, RepetitionVector};
use kiter::ratio::{
    ArcId, CriticalCycle, CycleRatioOutcome, McrError, NodeId, RatioGraph, SccDecomposition,
};
use kiter::Rational;

/// Karp's maximum cycle mean `max_c ΣL(c) / |c|` of `graph`, ignoring the
/// arc times entirely; `None` when the graph has no circuit.
pub(crate) fn maximum_cycle_mean(graph: &RatioGraph) -> Result<Option<Rational>, McrError> {
    let scc = SccDecomposition::compute(graph);
    // Intra-component arcs with local endpoints, grouped in one pass.
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
        // A component is cyclic iff it has any intra-component arc.
        if arcs.is_empty() {
            continue;
        }
        let mean = rolling_cycle_mean(scc.component(component).len(), arcs)?;
        if let Some(mean) = mean {
            if best.map_or(true, |b| mean > b) {
                best = Some(mean);
            }
        }
    }
    Ok(best)
}

/// Rolling-row Karp recurrence over one component's arcs (`(from, to,
/// cost)` with local indices `< n`).
///
/// `D_k(v)` is the maximum weight of a walk of exactly `k` arcs ending at
/// `v`, starting anywhere in the component. Only two rows are kept, so the
/// recurrence runs twice: pass one computes `D_n`, pass two recomputes each
/// `D_k` and folds `λ = max_v min_{0 ≤ k < n} (D_n(v) − D_k(v)) / (n − k)`.
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
    for k in 0..n {
        for v in 0..n {
            let (Some(final_value), Some(intermediate)) = (final_row[v], prev[v]) else {
                continue;
            };
            let mean = final_value
                .checked_sub(&intermediate)?
                .checked_div(&Rational::from_integer((n - k) as i128))?;
            if minima[v].map_or(true, |m| mean < m) {
                minima[v] = Some(mean);
            }
        }
        if k + 1 < n {
            relax(&prev, &mut curr)?;
            std::mem::swap(&mut prev, &mut curr);
        }
    }
    Ok((0..n)
        .filter(|&v| final_row[v].is_some())
        .filter_map(|v| minima[v])
        .max())
}

/// Every elementary circuit of `graph` as an arc sequence, each reported
/// once, rooted at its smallest node (a DFS from each start node through
/// larger nodes only). The count can be exponential: small graphs only.
pub(crate) fn enumerate_elementary_cycles(graph: &RatioGraph) -> Vec<Vec<ArcId>> {
    let n = graph.node_count();
    let mut outgoing: Vec<Vec<ArcId>> = vec![Vec::new(); n];
    for (arc_id, arc) in graph.arcs() {
        outgoing[arc.from().index()].push(arc_id);
    }
    let mut cycles = Vec::new();
    let mut path = Vec::new();
    let mut on_path = vec![false; n];
    for start in 0..n {
        extend_path(
            graph,
            &outgoing,
            start,
            start,
            &mut path,
            &mut on_path,
            &mut cycles,
        );
    }
    cycles
}

fn extend_path(
    graph: &RatioGraph,
    outgoing: &[Vec<ArcId>],
    start: usize,
    current: usize,
    path: &mut Vec<ArcId>,
    on_path: &mut [bool],
    cycles: &mut Vec<Vec<ArcId>>,
) {
    on_path[current] = true;
    for &arc_id in &outgoing[current] {
        let next = graph.arc(arc_id).to().index();
        path.push(arc_id);
        if next == start {
            cycles.push(path.clone());
        } else if next > start && !on_path[next] {
            extend_path(graph, outgoing, start, next, path, on_path, cycles);
        }
        path.pop();
    }
    on_path[current] = false;
}

/// The maximum cycle ratio by enumerating every elementary circuit, with
/// the solvers' semantics, component by component: `λ` is the largest
/// positive ratio of a positive-time circuit (else 0), and a circuit of
/// non-positive time whose weight `(ΣL − λΣH, −ΣH)` is lexicographically
/// positive makes the outcome `Infinite`.
pub(crate) fn maximum_cycle_ratio_brute_force(
    graph: &RatioGraph,
) -> Result<CycleRatioOutcome, McrError> {
    let scc = SccDecomposition::compute(graph);
    let mut circuits: Vec<Vec<CriticalCycle>> = vec![Vec::new(); scc.component_count()];
    for arcs in enumerate_elementary_cycles(graph) {
        let (cost, time) = graph.path_weight(&arcs)?;
        let nodes: Vec<NodeId> = arcs.iter().map(|&arc| graph.arc(arc).from()).collect();
        circuits[scc.component_of(nodes[0])].push(CriticalCycle {
            arcs,
            nodes,
            cost,
            time,
        });
    }
    let cyclic = circuits.iter().any(|component| !component.is_empty());
    let mut best: Option<(Rational, CriticalCycle)> = None;
    for component in circuits {
        let mut lambda = Rational::ZERO;
        let mut critical = None;
        for cycle in component.iter().filter(|cycle| cycle.time.is_positive()) {
            let ratio = cycle.ratio()?;
            if ratio > lambda {
                lambda = ratio;
                critical = Some(cycle.clone());
            }
        }
        for cycle in component.iter().filter(|cycle| !cycle.time.is_positive()) {
            let weight = cycle.cost.checked_sub(&lambda.checked_mul(&cycle.time)?)?;
            if weight.is_positive() || (weight.is_zero() && cycle.time.is_negative()) {
                return Ok(CycleRatioOutcome::Infinite {
                    cycle: cycle.clone(),
                    others: Vec::new(),
                });
            }
        }
        if let Some(cycle) = critical {
            if best.as_ref().map_or(true, |(ratio, _)| lambda > *ratio) {
                best = Some((lambda, cycle));
            }
        }
    }
    Ok(match best {
        Some((ratio, cycle)) => CycleRatioOutcome::Finite { ratio, cycle },
        None if cyclic => CycleRatioOutcome::NonPositive,
        None => CycleRatioOutcome::Acyclic,
    })
}

/// The Section-3.2 transformation `G → G̃`: every task's durations and the
/// rates it produces and consumes repeated `K_t` times, markings unchanged.
/// A 1-periodic schedule of `G̃` is a K-periodic schedule of `G`.
pub(crate) fn duplicate_phases(graph: &CsdfGraph, k: &PeriodicityVector) -> CsdfGraph {
    let repeats = |task| usize::try_from(k.get(task)).expect("K_t fits usize");
    let mut builder = CsdfGraphBuilder::named(format!("{}_k", graph.name()));
    for (task, view) in graph.tasks() {
        builder.add_task(view.name(), view.durations().repeat(repeats(task)));
    }
    for (_, buffer) in graph.buffers() {
        builder.add_buffer(
            buffer.source(),
            buffer.target(),
            buffer.production().repeat(repeats(buffer.source())),
            buffer.consumption().repeat(repeats(buffer.target())),
            buffer.initial_tokens(),
        );
    }
    builder.build().expect("G̃ of a valid graph is valid")
}

/// The paper's repetition vector of `G̃`, `q̃_t = q_t · lcm(K) / K_t`. It is
/// deliberately not reduced: Theorem 3's `Ω_G = Ω_G̃ / lcm(K)` relies on
/// this scaling.
pub(crate) fn transformed_repetition_vector(
    q: &RepetitionVector,
    k: &PeriodicityVector,
) -> RepetitionVector {
    let lcm = k.lcm().expect("lcm(K) fits u64");
    q.as_slice()
        .iter()
        .zip(k.as_slice())
        .map(|(&q_t, &k_t)| q_t.checked_mul(lcm / k_t).expect("q̃_t fits u64"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kiter::model::TaskId;
    use kiter::ratio::maximum_cycle_ratio;

    fn int(v: i128) -> Rational {
        Rational::from_integer(v)
    }

    #[test]
    fn cycle_mean_of_two_cycles() {
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
    fn cycle_mean_agrees_with_ratio_solver_on_unit_times() {
        let mut g = RatioGraph::new(4);
        g.add_arc(g.node(0), g.node(1), int(3), Rational::ONE);
        g.add_arc(g.node(1), g.node(2), int(1), Rational::ONE);
        g.add_arc(g.node(2), g.node(0), int(5), Rational::ONE);
        g.add_arc(g.node(2), g.node(3), int(2), Rational::ONE);
        g.add_arc(g.node(3), g.node(2), int(8), Rational::ONE);
        let karp = maximum_cycle_mean(&g).unwrap().unwrap();
        assert_eq!(maximum_cycle_ratio(&g).unwrap().ratio(), Some(karp));
    }

    /// An `(n+1)×n` Karp table would hold ~34M entries here; the rolling
    /// rows keep the oracle in linear memory.
    #[test]
    fn large_scc_cycle_mean_stays_in_linear_memory() {
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
    fn negative_cycle_means_are_supported() {
        // The ratio solver reports NonPositive, Karp the exact mean.
        let mut g = RatioGraph::new(2);
        g.add_arc(g.node(0), g.node(1), int(-3), Rational::ONE);
        g.add_arc(g.node(1), g.node(0), int(1), Rational::ONE);
        assert_eq!(maximum_cycle_mean(&g).unwrap(), Some(int(-1)));
        assert_eq!(
            maximum_cycle_ratio(&g).unwrap(),
            CycleRatioOutcome::NonPositive
        );
    }

    #[test]
    fn enumerates_all_cycles_of_a_small_graph() {
        let mut g = RatioGraph::new(3);
        g.add_arc(g.node(0), g.node(1), int(1), int(1));
        g.add_arc(g.node(1), g.node(0), int(1), int(1));
        g.add_arc(g.node(1), g.node(2), int(1), int(1));
        g.add_arc(g.node(2), g.node(0), int(1), int(1));
        g.add_arc(g.node(2), g.node(2), int(1), int(1));
        // 0->1->0, 0->1->2->0, 2->2
        assert_eq!(enumerate_elementary_cycles(&g).len(), 3);
    }

    #[test]
    fn brute_force_agrees_with_the_parametric_solver() {
        let mut g = RatioGraph::new(4);
        g.add_arc(g.node(0), g.node(1), int(2), int(1));
        g.add_arc(g.node(1), g.node(2), int(5), int(2));
        g.add_arc(g.node(2), g.node(0), int(1), int(1));
        g.add_arc(g.node(2), g.node(3), int(4), int(1));
        g.add_arc(g.node(3), g.node(1), int(3), int(2));
        let brute = maximum_cycle_ratio_brute_force(&g).unwrap();
        assert_eq!(brute.ratio(), maximum_cycle_ratio(&g).unwrap().ratio());
    }

    #[test]
    fn brute_force_infinite_outcome_matches() {
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

    fn sample() -> CsdfGraph {
        let mut b = CsdfGraphBuilder::new();
        let x = b.add_task("x", vec![1, 1]);
        let y = b.add_task("y", vec![2, 1, 1]);
        b.add_buffer(x, y, vec![2, 1], vec![1, 1, 2], 0);
        b.add_buffer(y, x, vec![1, 2, 1], vec![2, 1], 5);
        b.build().unwrap()
    }

    #[test]
    fn duplication_scales_vectors() {
        let g = sample();
        let k = PeriodicityVector::from_entries(&g, vec![3, 2]).unwrap();
        let t = duplicate_phases(&g, &k);
        assert_eq!(t.task(TaskId::new(0)).phase_count(), 6);
        assert_eq!(t.task(TaskId::new(1)).phase_count(), 6);
        let forward = t.buffer(kiter::model::BufferId::new(0));
        assert_eq!(forward.production(), &[2, 1, 2, 1, 2, 1]);
        assert_eq!(forward.total_consumption(), 2 * 4);
        assert_eq!(forward.initial_tokens(), 0);
        assert_eq!(t.buffer(kiter::model::BufferId::new(1)).initial_tokens(), 5);
    }

    #[test]
    fn transformed_graph_is_consistent() {
        let g = sample();
        let q = g.repetition_vector().unwrap();
        let k = PeriodicityVector::from_entries(&g, vec![2, 3]).unwrap();
        let t = duplicate_phases(&g, &k);
        assert!(t.is_consistent());
        // The paper's q̃ satisfies G̃'s balance equations although it need
        // not be the smallest solution.
        assert!(transformed_repetition_vector(&q, &k).validates(&t));
    }

    #[test]
    fn unitary_duplication_is_identity_on_structure() {
        let g = sample();
        let k = PeriodicityVector::unitary(&g);
        let t = duplicate_phases(&g, &k);
        assert_eq!(t.task_count(), g.task_count());
        assert_eq!(t.buffer_count(), g.buffer_count());
        assert_eq!(
            t.task(TaskId::new(0)).durations(),
            g.task(TaskId::new(0)).durations()
        );
        let q = g.repetition_vector().unwrap();
        assert_eq!(
            transformed_repetition_vector(&q, &k).as_slice(),
            q.as_slice()
        );
    }
}
