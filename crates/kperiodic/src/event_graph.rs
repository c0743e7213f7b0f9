//! Construction of the bi-valued event graph (Section 3.3).
//!
//! For a CSDF graph `G`, a repetition vector `q` and a periodicity vector `K`,
//! the event graph has one node per execution `⟨t_p̃, 1⟩` of the transformed
//! graph `G̃` (`K_t · ϕ(t)` nodes per task) and one arc per useful Theorem-2
//! constraint, bi-valued by
//!
//! ```text
//! L(e) = d̃(t_p̃)           H(e) = −β̃_a(p̃, p̃') / (i_b · q_t)
//! ```
//!
//! Compared to the paper's formula the stored `H(e)` omits the uniform
//! `lcm(K)` factor (see [`EventGraphArena`](crate::EventGraphArena) for the
//! argument): the maximum cost-to-time ratio of this graph is therefore
//! directly the normalised minimum period `Ω_G` of a K-periodic schedule of
//! `G` (Theorem 3), and the transformed period is `Ω*_{G̃} = Ω_G · lcm(K)`.
//!
//! The graph itself is built and patched in place by
//! [`EventGraphArena`](crate::EventGraphArena); this module holds the node
//! identity and the size limits that construction honours.

use csdf::TaskId;

/// Identity of an event-graph node: an execution `⟨t_p̃, 1⟩` of the
/// transformed graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventNode {
    /// The task this execution belongs to.
    pub task: TaskId,
    /// 0-based phase index in the *transformed* graph, i.e. in
    /// `0 .. K_t · ϕ(t)`.
    pub phase: usize,
}

/// Limits applied while building event graphs (guards against accidental
/// blow-ups when K grows towards the repetition vector).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventGraphLimits {
    /// Maximum number of nodes (executions) the event graph may contain.
    pub max_nodes: usize,
    /// Maximum number of arcs (constraints) the event graph may contain.
    pub max_arcs: usize,
}

impl Default for EventGraphLimits {
    fn default() -> Self {
        EventGraphLimits {
            max_nodes: 2_000_000,
            max_arcs: 20_000_000,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::EventGraphArena;
    use crate::error::AnalysisError;
    use crate::periodicity::PeriodicityVector;
    use csdf::{CsdfGraph, CsdfGraphBuilder, Rational};
    use mcr::{maximum_cycle_ratio, CycleRatioOutcome};

    /// Two unit-rate tasks in a loop with one token: the classic period-2
    /// marked graph.
    fn ring() -> CsdfGraph {
        let mut b = CsdfGraphBuilder::new();
        let x = b.add_sdf_task("x", 1);
        let y = b.add_sdf_task("y", 1);
        b.add_sdf_buffer(x, y, 1, 1, 0);
        b.add_sdf_buffer(y, x, 1, 1, 1);
        b.build().unwrap()
    }

    #[test]
    fn ring_event_graph_has_period_two() {
        let g = ring();
        let q = g.repetition_vector().unwrap();
        let k = PeriodicityVector::unitary(&g);
        let eg = EventGraphArena::build(&g, &q, &k, &EventGraphLimits::default()).unwrap();
        assert_eq!(eg.node_count(), 2);
        assert_eq!(eg.arc_count(), 2);
        assert_eq!(eg.lcm_k(), 1);
        match maximum_cycle_ratio(eg.ratio_graph()).unwrap() {
            CycleRatioOutcome::Finite { ratio, cycle } => {
                assert_eq!(ratio, Rational::from_integer(2));
                let tasks = eg.tasks_on_cycle(&cycle);
                assert_eq!(tasks.len(), 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn node_lookup_round_trips() {
        let g = ring();
        let q = g.repetition_vector().unwrap();
        let mut k = PeriodicityVector::unitary(&g);
        k.set(TaskId::new(0), 3).unwrap();
        let eg = EventGraphArena::build(&g, &q, &k, &EventGraphLimits::default()).unwrap();
        assert_eq!(eg.node_count(), 4);
        assert_eq!(eg.phase_count_of(TaskId::new(0)), 3);
        assert_eq!(eg.phase_count_of(TaskId::new(1)), 1);
        let node = eg.node_of(TaskId::new(0), 2);
        assert_eq!(
            eg.event(node),
            EventNode {
                task: TaskId::new(0),
                phase: 2
            }
        );
        assert_eq!(eg.periodicity_of(TaskId::new(0)), 3);
    }

    #[test]
    fn serialized_multirate_sdf_matches_hand_computation() {
        // x (duration 1) produces 2 tokens consumed 1 at a time by y
        // (duration 3); both tasks serialised. q = [1, 2].
        // The throughput is limited by y: one graph iteration needs 2
        // executions of y, 6 time units, so the optimal period is 6, and it is
        // already reached by a 1-periodic schedule for y... but the event
        // graph at K = 1 only bounds the period by max(1, 2·3) = 6.
        let mut b = CsdfGraphBuilder::new();
        let x = b.add_sdf_task("x", 1);
        let y = b.add_sdf_task("y", 3);
        b.add_sdf_buffer(x, y, 2, 1, 0);
        b.add_serializing_self_loop(x);
        b.add_serializing_self_loop(y);
        let g = b.build().unwrap();
        let q = g.repetition_vector().unwrap();
        let k = PeriodicityVector::unitary(&g);
        let eg = EventGraphArena::build(&g, &q, &k, &EventGraphLimits::default()).unwrap();
        match maximum_cycle_ratio(eg.ratio_graph()).unwrap() {
            CycleRatioOutcome::Finite { ratio, .. } => {
                assert_eq!(ratio, Rational::from_integer(6));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    /// At `K ≠ 1` the stored ratio graph is scaled by `lcm(K)` relative to
    /// the paper's formula: the maximum cycle ratio *is* the normalised
    /// period, not the transformed one.
    #[test]
    fn scaled_times_make_the_ratio_the_normalised_period() {
        let g = ring();
        let q = g.repetition_vector().unwrap();
        let k = PeriodicityVector::from_entries(&g, vec![2, 2]).unwrap();
        let eg = EventGraphArena::build(&g, &q, &k, &EventGraphLimits::default()).unwrap();
        assert_eq!(eg.lcm_k(), 2);
        match maximum_cycle_ratio(eg.ratio_graph()).unwrap() {
            // The ring's normalised period stays 2 whatever K is.
            CycleRatioOutcome::Finite { ratio, .. } => {
                assert_eq!(ratio, Rational::from_integer(2));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn node_limit_is_enforced() {
        let g = ring();
        let q = g.repetition_vector().unwrap();
        let k = PeriodicityVector::unitary(&g);
        let limits = EventGraphLimits {
            max_nodes: 1,
            max_arcs: 1000,
        };
        assert!(matches!(
            EventGraphArena::build(&g, &q, &k, &limits),
            Err(AnalysisError::EventGraphTooLarge { .. })
        ));
    }

    #[test]
    fn arc_limit_is_enforced() {
        let g = ring();
        let q = g.repetition_vector().unwrap();
        let k = PeriodicityVector::unitary(&g);
        let limits = EventGraphLimits {
            max_nodes: 1000,
            max_arcs: 1,
        };
        let err = EventGraphArena::build(&g, &q, &k, &limits).unwrap_err();
        assert_eq!(
            err,
            AnalysisError::EventGraphTooManyArcs { arcs: 2, limit: 1 }
        );
        assert_eq!(err.to_string(), "event graph needs 2 arcs, limit is 1");
    }

    #[test]
    fn wrong_periodicity_length_is_rejected() {
        let g = ring();
        let q = g.repetition_vector().unwrap();
        let mut other = CsdfGraphBuilder::new();
        other.add_sdf_task("z", 1);
        let other = other.build().unwrap();
        let k = PeriodicityVector::unitary(&other);
        assert!(matches!(
            EventGraphArena::build(&g, &q, &k, &EventGraphLimits::default()),
            Err(AnalysisError::Model(_))
        ));
    }
}
