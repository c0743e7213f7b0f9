//! The scoped-thread work loop the sweep runners use.

use std::sync::atomic::{AtomicUsize, Ordering};

use csdf::transform::BoundedGraph;
use csdf::{BufferId, CsdfGraph};
use kperiodic::{AnalysisError, AnalysisSession, KIterOptions, PipelineStats};

/// Resolves the reverse (back-pressure) buffer of a bounded forward buffer,
/// mapping a missing pairing to [`csdf::CsdfError::MissingBufferCapacity`]
/// (the buffer id is valid — it just has no capacity to re-size).
pub(crate) fn reverse_of(
    bounded: &BoundedGraph,
    forward: BufferId,
) -> Result<BufferId, AnalysisError> {
    bounded.reverse_of(forward).ok_or_else(|| {
        AnalysisError::Model(csdf::CsdfError::MissingBufferCapacity {
            buffer: bounded.graph().buffer_ref(forward),
        })
    })
}

/// The worker count every runner uses: the machine's available parallelism
/// (1 when it cannot be queried). [`run_points`] caps it at the point count.
pub(crate) fn machine_width() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Evaluates `count` design points with `evaluate(session, index)` on a pool
/// of `workers` scoped workers (capped at `count`, at least 1), each owning
/// one [`AnalysisSession`] over a copy of `graph` with the default
/// [`KIterOptions`]. Each point's result
/// depends only on the point, never on the worker that ran it, so the output
/// is bit-identical at any width. Results are written into a dense `Vec` by
/// point index, so the output order is deterministic whatever the
/// interleaving; the per-worker pipeline stats are merged into one
/// sweep-wide [`PipelineStats`]. Returns the results, the stats and the
/// number of sessions used. The first error (by worker, arbitrary) aborts
/// the sweep.
pub(crate) fn run_points<T, E>(
    workers: usize,
    graph: &CsdfGraph,
    count: usize,
    evaluate: E,
) -> Result<(Vec<T>, PipelineStats, usize), AnalysisError>
where
    T: Send,
    E: Fn(&mut AnalysisSession, usize) -> Result<T, AnalysisError> + Sync,
{
    let make_session = || AnalysisSession::new(graph.clone(), KIterOptions::default());
    let workers = workers.min(count).max(1);
    let cursor = AtomicUsize::new(0);
    let mut merged = PipelineStats::default();

    if workers <= 1 {
        // Sequential fast path: no thread spawn, same code path semantics.
        let mut session = make_session()?;
        let mut results = Vec::with_capacity(count);
        for index in 0..count {
            results.push(evaluate(&mut session, index)?);
        }
        merged.merge(session.stats());
        return Ok((results, merged, 1));
    }

    // Workers pull point indices off the shared cursor, collect their own
    // (index, value) pairs, and the parent scatters them into dense slots
    // afterwards — no locks, deterministic output order.
    let worker_outcomes = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let cursor = &cursor;
            let make_session = &make_session;
            let evaluate = &evaluate;
            handles.push(scope.spawn(move || -> WorkerOutcome<T> {
                let mut session = match make_session() {
                    Ok(session) => session,
                    Err(err) => {
                        // Exhaust the cursor so the other workers stop
                        // pulling points for a run that is already doomed.
                        cursor.store(count, Ordering::Relaxed);
                        return WorkerOutcome::failed(err);
                    }
                };
                let mut produced = Vec::new();
                loop {
                    let index = cursor.fetch_add(1, Ordering::Relaxed);
                    if index >= count {
                        break;
                    }
                    match evaluate(&mut session, index) {
                        Ok(value) => produced.push((index, value)),
                        Err(err) => {
                            cursor.store(count, Ordering::Relaxed);
                            return WorkerOutcome {
                                produced,
                                stats: *session.stats(),
                                error: Some(err),
                            };
                        }
                    }
                }
                WorkerOutcome {
                    produced,
                    stats: *session.stats(),
                    error: None,
                }
            }));
        }
        handles
            .into_iter()
            .map(|handle| handle.join().expect("explore worker panicked"))
            .collect::<Vec<_>>()
    });

    let mut slots: Vec<Option<T>> = Vec::with_capacity(count);
    slots.resize_with(count, || None);
    let mut first_error = None;
    for outcome in worker_outcomes {
        merged.merge(&outcome.stats);
        if let Some(err) = outcome.error {
            first_error.get_or_insert(err);
        }
        for (index, value) in outcome.produced {
            slots[index] = Some(value);
        }
    }
    if let Some(err) = first_error {
        return Err(err);
    }
    let results = slots
        .into_iter()
        .map(|slot| slot.expect("every point evaluated"))
        .collect();
    Ok((results, merged, workers))
}

struct WorkerOutcome<T> {
    produced: Vec<(usize, T)>,
    stats: PipelineStats,
    error: Option<AnalysisError>,
}

impl<T> WorkerOutcome<T> {
    fn failed(error: AnalysisError) -> Self {
        WorkerOutcome {
            produced: Vec::new(),
            stats: PipelineStats::default(),
            error: Some(error),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csdf::{CsdfGraph, CsdfGraphBuilder};
    use kperiodic::KIterResult;

    fn multirate_ring() -> (CsdfGraph, BufferId) {
        let mut b = CsdfGraphBuilder::new();
        let x = b.add_sdf_task("x", 2);
        let y = b.add_sdf_task("y", 1);
        b.add_sdf_buffer(x, y, 2, 1, 0);
        let feedback = b.add_sdf_buffer(y, x, 1, 2, 2);
        b.add_serializing_self_loop(x);
        b.add_serializing_self_loop(y);
        (b.build().unwrap(), feedback)
    }

    #[test]
    fn every_width_returns_cold_results_in_point_order() {
        let (graph, feedback) = multirate_ring();
        let markings = [2u64, 5, 0, 3, 8, 2, 4];
        let cold: Vec<KIterResult> = markings
            .iter()
            .map(|&tokens| {
                let mut point = graph.clone();
                point.set_initial_tokens(feedback, tokens).unwrap();
                kperiodic::optimal_throughput(&point).unwrap()
            })
            .collect();
        for width in [1usize, 2, 3, markings.len() + 5] {
            let (results, stats, sessions) =
                run_points(width, &graph, markings.len(), |session, index| {
                    session.set_initial_tokens(feedback, markings[index])?;
                    session.evaluate()
                })
                .unwrap();
            assert_eq!(results, cold, "width {width}");
            assert!(sessions >= 1 && sessions <= width.min(markings.len()));
            assert!(stats.full_builds <= sessions, "one arena build per session");
        }
    }
}
