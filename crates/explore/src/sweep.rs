//! Throughput vs. storage Pareto sweeps over bounded graphs.

use csdf::transform::{bound_all_buffers_tracked, uniform_slack_capacity, BoundedGraph};
use csdf::{BufferId, CsdfGraph, Throughput};
use kperiodic::{AnalysisError, KIterResult, PipelineStats};

use crate::runner::{machine_width, reverse_of, run_points};

/// One capacity assignment to evaluate: a capacity per bounded (forward)
/// buffer of the design's [`BoundedGraph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CapacityPoint {
    /// Free-form label carried into the [`SweepPoint`] (the slack value for
    /// uniform sweeps).
    pub label: u64,
    /// `(forward buffer, capacity)` pairs; buffers omitted here keep the
    /// capacity of the previous point evaluated by the same worker, and which
    /// worker runs which point depends on the machine's core count, so list
    /// every bounded buffer.
    pub capacities: Vec<(BufferId, u64)>,
}

/// The evaluated design point of a sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepPoint {
    /// The [`CapacityPoint::label`] of the assignment.
    pub label: u64,
    /// The capacities that were applied, as listed in the point.
    pub capacities: Vec<(BufferId, u64)>,
    /// Sum of the applied capacities — the storage axis of the trade-off.
    pub total_storage: u64,
    /// The full K-Iter result (bit-identical to a cold evaluation of this
    /// design point).
    pub result: KIterResult,
}

impl SweepPoint {
    /// The throughput of this design point.
    pub fn throughput(&self) -> Throughput {
        self.result.throughput
    }
}

/// The outcome of [`ParetoSweep::run`]: every evaluated point (in input
/// order) plus the aggregated pipeline statistics of all worker sessions.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// Evaluated points, in the order the sweep listed them.
    pub points: Vec<SweepPoint>,
    /// Construction/solve split summed over all worker sessions
    /// ([`PipelineStats::merge`]).
    pub stats: PipelineStats,
    /// Number of worker sessions that participated (= number of from-scratch
    /// arena builds the sweep needed at most).
    pub sessions: usize,
}

impl SweepOutcome {
    /// The Pareto-optimal points of the throughput/storage trade-off: a
    /// point survives when no other point reaches at least its throughput
    /// with less storage, or more throughput with at most its storage.
    /// Returned sorted by total storage (ascending); among equal-throughput
    /// points only the cheapest survives.
    pub fn pareto_frontier(&self) -> Vec<&SweepPoint> {
        let mut by_storage: Vec<&SweepPoint> = self.points.iter().collect();
        by_storage.sort_by(|a, b| {
            a.total_storage
                .cmp(&b.total_storage)
                .then(b.throughput().cmp(&a.throughput()))
        });
        let mut frontier: Vec<&SweepPoint> = Vec::new();
        for point in by_storage {
            let dominated = frontier
                .last()
                .is_some_and(|best| best.throughput() >= point.throughput());
            if !dominated {
                frontier.push(point);
            }
        }
        frontier
    }
}

/// A list of capacity assignments evaluated over one bounded design.
///
/// Build one with [`ParetoSweep::uniform_slack`] (the Table-2 convention) or
/// [`ParetoSweep::from_points`] for arbitrary per-buffer assignments, then
/// [`ParetoSweep::run`] it. Workers share nothing but the atomic point
/// cursor: each owns an [`kperiodic::AnalysisSession`] seeded with the
/// bounded graph, applies each point's capacities in place and re-evaluates,
/// so consecutive points on a worker reuse the arena, caches and solver
/// scratch.
///
/// # Examples
///
/// ```
/// use csdf::CsdfGraphBuilder;
/// use csdf_explore::ParetoSweep;
///
/// let mut builder = CsdfGraphBuilder::new();
/// let a = builder.add_sdf_task("a", 1);
/// let b = builder.add_sdf_task("b", 2);
/// builder.add_sdf_buffer(a, b, 2, 1, 0);
/// builder.add_sdf_buffer(b, a, 1, 2, 2);
/// builder.add_serializing_self_loop(a);
/// builder.add_serializing_self_loop(b);
/// let graph = builder.build()?;
///
/// let sweep = ParetoSweep::uniform_slack(&graph, &[1, 2, 4])?;
/// let outcome = sweep.run()?;
/// assert_eq!(outcome.points.len(), 3);
/// assert!(!outcome.pareto_frontier().is_empty());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct ParetoSweep {
    bounded: BoundedGraph,
    points: Vec<CapacityPoint>,
}

impl ParetoSweep {
    /// A sweep of uniform capacity slacks over `graph`: every non-self-loop
    /// buffer is bounded, and the point for slack `s` sizes each buffer to
    /// [`uniform_slack_capacity`]`(buffer, s)`.
    ///
    /// # Errors
    ///
    /// Propagates [`AnalysisError::Model`] from the bounding transformation.
    pub fn uniform_slack(graph: &CsdfGraph, slacks: &[u64]) -> Result<Self, AnalysisError> {
        let bounded = bound_all_buffers_tracked(graph, |_, buffer| {
            uniform_slack_capacity(buffer, slacks.first().copied().unwrap_or(1))
        })?;
        let points = slacks
            .iter()
            .map(|&slack| CapacityPoint {
                label: slack,
                capacities: bounded
                    .bounded_pairs()
                    .map(|(forward, _)| {
                        (
                            forward,
                            uniform_slack_capacity(bounded.graph().buffer(forward), slack),
                        )
                    })
                    .collect(),
            })
            .collect();
        Ok(ParetoSweep { bounded, points })
    }

    /// A sweep over explicit capacity assignments on an existing bounded
    /// design (see [`csdf::transform::bound_buffers_tracked`]).
    pub fn from_points(bounded: BoundedGraph, points: Vec<CapacityPoint>) -> Self {
        ParetoSweep { bounded, points }
    }

    /// The bounded design the sweep mutates.
    pub fn bounded(&self) -> &BoundedGraph {
        &self.bounded
    }

    /// The capacity assignments, in evaluation order.
    pub fn points(&self) -> &[CapacityPoint] {
        &self.points
    }

    /// Evaluates every point on one worker per available core (at most one
    /// per point) and returns them in input order together with the
    /// sweep-wide pipeline statistics.
    ///
    /// # Errors
    ///
    /// The first evaluation error aborts the sweep: capacity assignments
    /// below a buffer's marking, unknown buffer ids, solver failures or
    /// event-graph limits.
    pub fn run(&self) -> Result<SweepOutcome, AnalysisError> {
        let (points, stats, sessions) = run_points(
            machine_width(),
            self.bounded.graph(),
            self.points.len(),
            |session, index| self.evaluate_point(session, index),
        )?;
        Ok(SweepOutcome {
            points,
            stats,
            sessions,
        })
    }

    /// Evaluates every point sequentially on a **borrowed** session — the
    /// serving-path variant of [`ParetoSweep::run`]: a daemon checks a
    /// session out of a [`kperiodic::SessionPool`] keyed on the bounded
    /// graph's structure, runs the sweep on it, and returns it warm for the
    /// next request. Results are identical to [`ParetoSweep::run`]'s (each
    /// point is bit-identical to a cold evaluation of its design point).
    ///
    /// The reported [`SweepOutcome::stats`] are the session's *lifetime*
    /// statistics (a pooled session carries counts from earlier requests).
    ///
    /// # Errors
    ///
    /// [`AnalysisError::ArenaGraphMismatch`] when `session` was not built
    /// for this sweep's bounded graph structure, plus the evaluation errors
    /// of [`ParetoSweep::run`].
    pub fn run_on_session(
        &self,
        session: &mut kperiodic::AnalysisSession,
    ) -> Result<SweepOutcome, AnalysisError> {
        if session.structure_fingerprint() != kperiodic::structure_fingerprint(self.bounded.graph())
        {
            return Err(AnalysisError::ArenaGraphMismatch);
        }
        let mut points = Vec::with_capacity(self.points.len());
        for index in 0..self.points.len() {
            points.push(self.evaluate_point(session, index)?);
        }
        Ok(SweepOutcome {
            points,
            stats: *session.stats(),
            sessions: 1,
        })
    }

    /// Applies one point's capacities to `session` and evaluates it.
    fn evaluate_point(
        &self,
        session: &mut kperiodic::AnalysisSession,
        index: usize,
    ) -> Result<SweepPoint, AnalysisError> {
        let point = &self.points[index];
        for &(forward, capacity) in &point.capacities {
            let reverse = reverse_of(&self.bounded, forward)?;
            session.set_capacity(forward, reverse, capacity)?;
        }
        let result = session.evaluate()?;
        Ok(SweepPoint {
            label: point.label,
            capacities: point.capacities.clone(),
            total_storage: point.capacities.iter().map(|&(_, capacity)| capacity).sum(),
            result,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csdf::CsdfGraphBuilder;

    fn pipeline_graph() -> CsdfGraph {
        let mut b = CsdfGraphBuilder::new();
        let x = b.add_sdf_task("x", 2);
        let y = b.add_task("y", vec![1, 3]);
        let z = b.add_sdf_task("z", 1);
        b.add_buffer(x, y, vec![2], vec![1, 1], 0);
        b.add_buffer(y, z, vec![1, 1], vec![2], 0);
        b.add_sdf_buffer(z, x, 1, 1, 2);
        b.add_serializing_self_loop(x);
        b.add_serializing_self_loop(y);
        b.add_serializing_self_loop(z);
        b.build().unwrap()
    }

    #[test]
    fn uniform_sweep_is_monotone_and_frontier_is_minimal() {
        let graph = pipeline_graph();
        let sweep = ParetoSweep::uniform_slack(&graph, &[1, 2, 3, 4, 8]).unwrap();
        let outcome = sweep.run().unwrap();
        assert_eq!(outcome.points.len(), 5);
        for pair in outcome.points.windows(2) {
            assert!(pair[1].throughput() >= pair[0].throughput());
            assert!(pair[1].total_storage >= pair[0].total_storage);
        }
        let frontier = outcome.pareto_frontier();
        assert!(!frontier.is_empty());
        for pair in frontier.windows(2) {
            assert!(pair[1].total_storage > pair[0].total_storage);
            assert!(pair[1].throughput() > pair[0].throughput());
        }
    }

    #[test]
    fn run_matches_a_fresh_borrowed_session() {
        let graph = pipeline_graph();
        let sweep = ParetoSweep::uniform_slack(&graph, &[1, 2, 3, 4, 5, 6]).unwrap();
        let outcome = sweep.run().unwrap();
        let mut session = kperiodic::AnalysisSession::new(
            sweep.bounded().graph().clone(),
            kperiodic::KIterOptions::default(),
        )
        .unwrap();
        let borrowed = sweep.run_on_session(&mut session).unwrap();
        assert_eq!(outcome.points, borrowed.points);
        assert!(outcome.sessions <= machine_width().min(6));
    }

    #[test]
    fn sweep_points_match_independent_cold_evaluations() {
        let graph = pipeline_graph();
        let sweep = ParetoSweep::uniform_slack(&graph, &[1, 3, 2]).unwrap();
        let outcome = sweep.run().unwrap();
        for point in &outcome.points {
            let mut cold = sweep.bounded().clone();
            for &(forward, capacity) in &point.capacities {
                let reverse = cold.reverse_of(forward).unwrap();
                cold.graph_mut()
                    .set_capacity(forward, reverse, capacity)
                    .unwrap();
            }
            let reference = kperiodic::optimal_throughput(cold.graph()).unwrap();
            assert_eq!(point.result, reference, "slack {}", point.label);
        }
    }

    #[test]
    fn capacity_errors_abort_the_sweep() {
        let mut b = CsdfGraphBuilder::new();
        let x = b.add_sdf_task("x", 1);
        let y = b.add_sdf_task("y", 1);
        b.add_sdf_buffer(x, y, 1, 1, 5);
        let graph = b.build().unwrap();
        let bounded = bound_all_buffers_tracked(&graph, |_, b| b.initial_tokens()).unwrap();
        let forward = BufferId::new(0);
        let sweep = ParetoSweep::from_points(
            bounded,
            vec![CapacityPoint {
                label: 0,
                // Below the forward marking of 5.
                capacities: vec![(forward, 1)],
            }],
        );
        assert!(sweep.run().is_err());
    }
}
