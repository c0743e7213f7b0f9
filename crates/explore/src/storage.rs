//! Storage minimisation under a throughput constraint.

use csdf::transform::{bound_all_buffers_tracked, uniform_slack_capacity, BoundedGraph};
use csdf::{BufferId, CsdfError, CsdfGraph, Throughput};
use kperiodic::{AnalysisError, AnalysisSession, KIterOptions, KIterResult};

use crate::runner::reverse_of;

/// The result of a storage-minimisation search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MinStorageOutcome {
    /// The smallest uniform slack whose throughput reaches the target
    /// ([`min_storage_for_throughput`]); `0` when the point does not come
    /// from a uniform-slack search ([`tighten_capacities`], whose savings
    /// show up in `capacities` instead).
    pub slack: u64,
    /// The per-buffer capacities of the returned design point.
    pub capacities: Vec<(BufferId, u64)>,
    /// Sum of those capacities.
    pub total_storage: u64,
    /// The K-Iter result at the returned design point.
    pub result: KIterResult,
    /// Number of throughput evaluations the search spent.
    pub evaluations: usize,
}

/// Finds the smallest **uniform slack** `s ∈ [1, max_slack]` for which the
/// graph, with every non-self-loop buffer bounded to
/// [`uniform_slack_capacity`]`(buffer, s)`, reaches `target` throughput.
/// Returns `Ok(None)` when even `max_slack` falls short.
///
/// Throughput is monotone in buffer capacity (more space can only relax
/// constraints — property-tested in the workspace test-suite), so a binary
/// search over the slack is exact. The whole search drives **one**
/// [`AnalysisSession`]: each probe re-sizes the capacities in place and
/// re-evaluates, so the event-graph arena and solver scratch survive all
/// `O(log max_slack)` probes. Mutation direction alternates during the
/// search; every probe is still bit-identical to a cold evaluation of that
/// slack.
///
/// # Errors
///
/// Propagates model and evaluation errors from the bounding transformation
/// and the session.
pub fn min_storage_for_throughput(
    graph: &CsdfGraph,
    target: Throughput,
    max_slack: u64,
) -> Result<Option<MinStorageOutcome>, AnalysisError> {
    let max_slack = max_slack.max(1);
    let bounded =
        bound_all_buffers_tracked(graph, |_, buffer| uniform_slack_capacity(buffer, max_slack))?;
    let mut session = AnalysisSession::new(bounded.graph().clone(), KIterOptions::default())?;
    min_storage_for_throughput_on(&mut session, &bounded, target, max_slack)
}

/// The session-borrowing core of [`min_storage_for_throughput`]: the same
/// binary search, driven on a caller-owned session. `bounded` must be the
/// design the session's graph was built from (structure checked), sized so
/// that every capacity up to [`uniform_slack_capacity`]`(buffer, max_slack)`
/// is reachable — which [`min_storage_for_throughput`] guarantees by
/// bounding at `max_slack`. This is the serving-path entry point: a daemon
/// checks the session out of a [`kperiodic::SessionPool`] keyed on the
/// bounded structure and returns it warm afterwards.
///
/// # Errors
///
/// [`AnalysisError::ArenaGraphMismatch`] when `session` was not built for
/// `bounded`'s structure, plus the errors of [`min_storage_for_throughput`].
pub fn min_storage_for_throughput_on(
    session: &mut AnalysisSession,
    bounded: &BoundedGraph,
    target: Throughput,
    max_slack: u64,
) -> Result<Option<MinStorageOutcome>, AnalysisError> {
    let max_slack = max_slack.max(1);
    if session.structure_fingerprint() != kperiodic::structure_fingerprint(bounded.graph()) {
        return Err(AnalysisError::ArenaGraphMismatch);
    }
    let mut evaluations = 0usize;

    let mut evaluate_at =
        |session: &mut AnalysisSession, slack: u64| -> Result<KIterResult, AnalysisError> {
            for (forward, reverse) in bounded.bounded_pairs() {
                let capacity = uniform_slack_capacity(session.graph().buffer(forward), slack);
                session.set_capacity(forward, reverse, capacity)?;
            }
            evaluations += 1;
            session.evaluate()
        };

    // Even the most generous slack may miss the target.
    let at_max = evaluate_at(session, max_slack)?;
    if at_max.throughput < target {
        return Ok(None);
    }

    // Invariant: `high` reaches the target, everything below `low` does not.
    let (mut low, mut high) = (1u64, max_slack);
    let mut best = (max_slack, at_max);
    while low < high {
        let mid = low + (high - low) / 2;
        let probe = evaluate_at(session, mid)?;
        if probe.throughput >= target {
            high = mid;
            best = (mid, probe);
        } else {
            low = mid + 1;
        }
    }

    let capacities: Vec<(BufferId, u64)> = bounded
        .bounded_pairs()
        .map(|(forward, _)| {
            (
                forward,
                uniform_slack_capacity(bounded.graph().buffer(forward), best.0),
            )
        })
        .collect();
    Ok(Some(MinStorageOutcome {
        slack: best.0,
        total_storage: capacities.iter().map(|&(_, c)| c).sum(),
        capacities,
        result: best.1,
        evaluations,
    }))
}

/// Greedy per-buffer refinement of a feasible design point: for each bounded
/// buffer in turn (ascending id), binary-searches the smallest capacity —
/// with all other buffers fixed — that still reaches `target`, and locks it
/// in. Per-buffer monotonicity makes each inner search exact; the combined
/// point is feasible by construction but, like all greedy descents, not
/// necessarily the global storage minimum.
///
/// `start` must name **every** bounded buffer of `bounded` exactly once,
/// with capacities that already reach `target` (e.g. the outcome of
/// [`min_storage_for_throughput`]) — an incomplete or duplicated list would
/// silently misreport the total storage, so it is rejected. All probes run
/// on one session.
///
/// # Errors
///
/// Propagates evaluation errors; returns [`AnalysisError::Model`] with
/// [`csdf::CsdfError::DuplicateBufferCapacity`] when `start` lists a buffer
/// twice and [`csdf::CsdfError::MissingBufferCapacity`] when it references
/// an unbounded buffer or omits a bounded one.
pub fn tighten_capacities(
    bounded: &BoundedGraph,
    start: &[(BufferId, u64)],
    target: Throughput,
) -> Result<MinStorageOutcome, AnalysisError> {
    // Every bounded buffer, exactly once: otherwise `total_storage` would
    // compare apples to oranges against a full uniform-slack outcome.
    let mut pending = vec![false; bounded.graph().buffer_count()];
    for (forward, _) in bounded.bounded_pairs() {
        pending[forward.index()] = true;
    }
    let mut seen = vec![false; pending.len()];
    for &(forward, _) in start {
        if seen.get(forward.index()).copied() == Some(true) {
            return Err(AnalysisError::Model(CsdfError::DuplicateBufferCapacity {
                buffer: bounded.graph().buffer_ref(forward),
            }));
        }
        if pending.get(forward.index()).copied() != Some(true) {
            return Err(AnalysisError::Model(CsdfError::MissingBufferCapacity {
                buffer: bounded.graph().buffer_ref(forward),
            }));
        }
        seen[forward.index()] = true;
    }
    if let Some(missing) = pending
        .iter()
        .zip(&seen)
        .position(|(&is_bounded, &covered)| is_bounded && !covered)
    {
        return Err(AnalysisError::Model(CsdfError::MissingBufferCapacity {
            buffer: bounded.graph().buffer_ref(BufferId::new(missing)),
        }));
    }

    let mut session = AnalysisSession::new(bounded.graph().clone(), KIterOptions::default())?;
    let mut evaluations = 0usize;

    let mut capacities: Vec<(BufferId, u64)> = start.to_vec();
    for &(forward, capacity) in &capacities {
        let reverse = reverse_of(bounded, forward)?;
        session.set_capacity(forward, reverse, capacity)?;
    }

    for entry in &mut capacities {
        let (forward, start_capacity) = *entry;
        let reverse = reverse_of(bounded, forward)?;
        // The capacity can never go below the forward marking.
        let floor = bounded.graph().buffer(forward).initial_tokens();
        // Invariant: `high` reaches the target (the start point is
        // feasible), everything below `low` does not.
        let (mut low, mut high) = (floor, start_capacity);
        while low < high {
            let mid = low + (high - low) / 2;
            session.set_capacity(forward, reverse, mid)?;
            evaluations += 1;
            if session.evaluate()?.throughput >= target {
                high = mid;
            } else {
                low = mid + 1;
            }
        }
        entry.1 = high;
        session.set_capacity(forward, reverse, high)?;
    }
    // Evaluate the final assignment so the reported result matches the
    // reported capacities exactly.
    let result = session.evaluate()?;
    evaluations += 1;

    Ok(MinStorageOutcome {
        slack: 0,
        total_storage: capacities.iter().map(|&(_, c)| c).sum(),
        capacities,
        result,
        evaluations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use csdf::CsdfGraphBuilder;
    use csdf::Rational;

    fn multirate_chain() -> CsdfGraph {
        let mut b = CsdfGraphBuilder::new();
        let x = b.add_sdf_task("x", 1);
        let y = b.add_sdf_task("y", 2);
        let z = b.add_sdf_task("z", 1);
        b.add_sdf_buffer(x, y, 2, 1, 0);
        b.add_sdf_buffer(y, z, 1, 2, 0);
        b.add_sdf_buffer(z, x, 2, 2, 4);
        b.add_serializing_self_loop(x);
        b.add_serializing_self_loop(y);
        b.add_serializing_self_loop(z);
        b.build().unwrap()
    }

    #[test]
    fn finds_the_smallest_feasible_slack() {
        let graph = multirate_chain();
        // The unbounded optimum is the loosest possible target.
        let unbounded = kperiodic::optimal_throughput(&graph).unwrap();
        let target = unbounded.throughput;
        let outcome = min_storage_for_throughput(&graph, target, 64)
            .unwrap()
            .expect("a generous slack reaches the unbounded optimum");
        assert!(outcome.result.throughput >= target);
        assert!(outcome.slack >= 1);
        // Minimality: one step tighter misses the target (unless already 1).
        if outcome.slack > 1 {
            let bounded = bound_all_buffers_tracked(&graph, |_, b| {
                uniform_slack_capacity(b, outcome.slack - 1)
            })
            .unwrap();
            let tighter = kperiodic::optimal_throughput(bounded.graph()).unwrap();
            assert!(tighter.throughput < target);
        }
        // A binary search beats a linear scan.
        assert!(outcome.evaluations <= 8, "{} probes", outcome.evaluations);
    }

    #[test]
    fn impossible_targets_return_none() {
        let graph = multirate_chain();
        let unbounded = kperiodic::optimal_throughput(&graph).unwrap();
        let Throughput::Finite(exact) = unbounded.throughput else {
            panic!("chain has finite throughput");
        };
        let impossible = Throughput::Finite(exact.checked_mul(&Rational::from_integer(2)).unwrap());
        let outcome = min_storage_for_throughput(&graph, impossible, 32).unwrap();
        assert!(outcome.is_none());
    }

    #[test]
    fn tightening_rejects_incomplete_or_duplicated_assignments() {
        let graph = multirate_chain();
        let bounded =
            bound_all_buffers_tracked(&graph, |_, b| uniform_slack_capacity(b, 8)).unwrap();
        let full: Vec<(BufferId, u64)> = bounded
            .bounded_pairs()
            .map(|(forward, _)| (forward, bounded.capacity_of(forward).unwrap()))
            .collect();
        let target = kperiodic::optimal_throughput(bounded.graph())
            .unwrap()
            .throughput;

        // Missing a bounded buffer.
        let partial = &full[1..];
        assert!(matches!(
            tighten_capacities(&bounded, partial, target),
            Err(AnalysisError::Model(
                CsdfError::MissingBufferCapacity { .. }
            ))
        ));
        // A buffer listed twice.
        let mut duplicated = full.clone();
        duplicated.push(full[0]);
        assert!(matches!(
            tighten_capacities(&bounded, &duplicated, target),
            Err(AnalysisError::Model(
                CsdfError::DuplicateBufferCapacity { .. }
            ))
        ));
        // An unbounded buffer (a self-loop) in the list.
        let self_loop = bounded
            .graph()
            .buffers()
            .find(|(_, b)| b.is_self_loop())
            .map(|(id, _)| id)
            .expect("chain has self-loops");
        let mut unbounded = full.clone();
        unbounded[0] = (self_loop, 4);
        assert!(matches!(
            tighten_capacities(&bounded, &unbounded, target),
            Err(AnalysisError::Model(
                CsdfError::MissingBufferCapacity { .. }
            ))
        ));
    }

    #[test]
    fn tightening_only_reduces_storage_and_keeps_the_target() {
        let graph = multirate_chain();
        let unbounded = kperiodic::optimal_throughput(&graph).unwrap();
        let target = unbounded.throughput;
        let uniform = min_storage_for_throughput(&graph, target, 64)
            .unwrap()
            .expect("feasible");

        let bounded =
            bound_all_buffers_tracked(&graph, |_, b| uniform_slack_capacity(b, uniform.slack))
                .unwrap();
        let tightened = tighten_capacities(&bounded, &uniform.capacities, target).unwrap();
        assert!(tightened.total_storage <= uniform.total_storage);
        assert!(tightened.result.throughput >= target);
        // The reported result matches a cold evaluation of the reported
        // capacities.
        let mut cold = bounded.clone();
        for &(forward, capacity) in &tightened.capacities {
            let reverse = cold.reverse_of(forward).unwrap();
            cold.graph_mut()
                .set_capacity(forward, reverse, capacity)
                .unwrap();
        }
        assert_eq!(
            tightened.result,
            kperiodic::optimal_throughput(cold.graph()).unwrap()
        );
    }
}
