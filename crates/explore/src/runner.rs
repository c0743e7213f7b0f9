//! Shared options and the scoped-thread work loop the sweep runners use.

use std::sync::atomic::{AtomicUsize, Ordering};

use csdf::transform::BoundedGraph;
use csdf::BufferId;
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

/// Options shared by every exploration runner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExploreOptions {
    /// The K-Iter options every session evaluation runs with (event-graph
    /// limits, iteration budget, update policy).
    pub analysis: KIterOptions,
    /// Number of worker threads evaluating independent design points in
    /// parallel (`std::thread::scope`; `0` is treated as `1`). Each worker
    /// owns one [`AnalysisSession`], so results are bit-identical to
    /// independent cold evaluations at every width.
    pub workers: usize,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        ExploreOptions {
            analysis: KIterOptions::default(),
            workers: 1,
        }
    }
}

impl ExploreOptions {
    /// The effective worker count for `points` design points.
    pub(crate) fn effective_workers(&self, points: usize) -> usize {
        self.workers.max(1).min(points.max(1))
    }
}

/// Evaluates `count` design points with `evaluate(session, index)` on a pool
/// of scoped workers, each owning one [`AnalysisSession`] created by
/// `make_session`. Results are written into a dense `Vec` by point index, so
/// the output order is deterministic whatever the interleaving; the
/// per-worker pipeline stats are merged into one sweep-wide
/// [`PipelineStats`]. The first error (by worker, arbitrary) aborts the
/// sweep.
pub(crate) fn run_points<T, M, E>(
    count: usize,
    options: &ExploreOptions,
    make_session: M,
    evaluate: E,
) -> Result<(Vec<T>, PipelineStats, usize), AnalysisError>
where
    T: Send,
    M: Fn() -> Result<AnalysisSession, AnalysisError> + Sync,
    E: Fn(&mut AnalysisSession, usize) -> Result<T, AnalysisError> + Sync,
{
    let workers = options.effective_workers(count);
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
