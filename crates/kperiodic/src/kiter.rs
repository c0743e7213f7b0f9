//! The K-Iter algorithm (Algorithm 1 of the paper) and its Theorem-4
//! optimality test.
//!
//! Three mechanisms cut the number and the cost of the iterations; none of
//! them changes the throughput, which Theorem 4 certifies either way:
//!
//! * **Every infeasible circuit raises K.** When the evaluation reports
//!   several infeasible policy circuits, the paper's update
//!   `K_t ← lcm(K_t, q̄_t)` is applied for each of them at once.
//! * **Warm starts.** Each Howard solve after the first starts from the
//!   previous iteration's final policy (see
//!   [`EvaluationPipeline`](crate::EvaluationPipeline)).
//! * **The jump to `K = q`.** `q̄_t` divides `q_t`, so the paper's update
//!   keeps `K_t | q_t` for every task, and every vector it reaches lies below
//!   `q`. At `K = q` every circuit passes Theorem 4, since `q̄_t | q_t = K_t`.
//!   So when an iteration fails the test and the `K = q` event graph
//!   (`N_q = Σ_t ϕ_t·q_t` live nodes) has at most
//!   `FULL_PERIODICITY_FACTOR` (4) times that iteration's live nodes, and fits
//!   the node limit, the next iteration evaluates `K = q` directly and
//!   certifies there. The same test runs once before the first iteration,
//!   against the unitary graph's `N_1 = Σ_t ϕ_t` live nodes: when it passes,
//!   the first evaluation is `K = q`, one cold build and one solve. If a
//!   jumped evaluation fails for any reason but cancellation (an arc limit,
//!   an overflow), the run resumes from the vector the paper's update would
//!   have produced (the unitary vector, for a jumped start) and never jumps
//!   again.
//!
//! The contract: the throughput is the one the paper's loop returns, bit for
//! bit. The final K, the iteration count, the critical tasks, the final
//! event-graph size and the Howard round counts may differ from it, but they
//! are deterministic per graph and its limits, and a reused pipeline or
//! session returns exactly what a fresh run returns.

use csdf::{
    gcd_u64, lcm_u64, CsdfError, CsdfGraph, Rational, RepetitionVector, TaskId, Throughput,
};

use crate::analysis::{AnalysisOptions, EvaluationOutcome, EvaluationPipeline};
use crate::arena::graph_fingerprint;
use crate::error::AnalysisError;
use crate::periodicity::PeriodicityVector;

/// The K-Iter update jumps to `K = q` once the `K = q` event graph has at
/// most this many times the live nodes of the iteration that failed
/// Theorem 4, or of the unitary graph before the first iteration (see the
/// [module docs](self)). Growing K step by step redoes the patch, the SCC
/// pass and the Howard rounds on the whole graph every iteration; a
/// bounded-size jump replaces all remaining iterations with one.
const FULL_PERIODICITY_FACTOR: u128 = 4;

/// Configuration of the K-Iter loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KIterOptions {
    /// Shared evaluation options (event-graph limits, iteration budget).
    pub analysis: AnalysisOptions,
    /// When `true`, the per-iteration history is recorded in the result.
    pub record_history: bool,
}

/// One iteration of the K-Iter loop, as recorded in [`KIterResult::history`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KIterIteration {
    /// The periodicity vector evaluated at this iteration.
    pub periodicity: PeriodicityVector,
    /// Size of the event graph (nodes, arcs).
    pub event_graph_size: (usize, usize),
    /// Normalised period obtained (`None` when the vector was infeasible).
    pub period: Option<Rational>,
    /// Tasks on the critical circuit. When the vector was infeasible and the
    /// evaluation reported several circuits, the one that passed the
    /// Theorem-4 test, else the first one.
    pub critical_tasks: Vec<TaskId>,
    /// Whether the Theorem-4 optimality test passed.
    pub optimal: bool,
}

/// Result of the K-Iter algorithm.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KIterResult {
    /// The maximum reachable throughput `Th*_G` of the graph.
    pub throughput: Throughput,
    /// The periodicity vector for which optimality was proven.
    pub periodicity: PeriodicityVector,
    /// Number of fixed-K evaluations performed.
    pub iterations: usize,
    /// Tasks of the final critical circuit (empty when the throughput is
    /// unbounded).
    pub critical_tasks: Vec<TaskId>,
    /// Per-iteration details (empty unless [`KIterOptions::record_history`]).
    pub history: Vec<KIterIteration>,
}

impl KIterResult {
    /// The optimal period `Ω*_G = 1 / Th*_G`, when finite.
    pub fn period(&self) -> Option<Rational> {
        self.throughput.period()
    }
}

/// Computes the maximum reachable throughput of `graph` with default options.
///
/// This is the paper's headline contribution: an exact throughput evaluation
/// that iteratively grows a periodicity vector until a critical circuit
/// certifies optimality (Theorem 4), instead of exploring the exponential
/// state space of an as-soon-as-possible execution.
///
/// # Errors
///
/// * [`AnalysisError::Model`] if the graph is inconsistent or `i128`/`u64`
///   arithmetic overflows;
/// * [`AnalysisError::EventGraphTooLarge`] /
///   [`AnalysisError::EventGraphTooManyArcs`] /
///   [`AnalysisError::IterationLimitReached`] when the default resource
///   budgets are exceeded (use
///   [`kiter_with_options`] to raise them).
///
/// # Examples
///
/// ```
/// use csdf::{CsdfGraphBuilder, Rational, Throughput};
/// use kperiodic::optimal_throughput;
///
/// let mut builder = CsdfGraphBuilder::new();
/// let ping = builder.add_sdf_task("ping", 1);
/// let pong = builder.add_sdf_task("pong", 1);
/// builder.add_sdf_buffer(ping, pong, 1, 1, 0);
/// builder.add_sdf_buffer(pong, ping, 1, 1, 1);
/// let graph = builder.build()?;
///
/// let result = optimal_throughput(&graph)?;
/// assert_eq!(result.throughput, Throughput::Finite(Rational::new(1, 2)?));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn optimal_throughput(graph: &CsdfGraph) -> Result<KIterResult, AnalysisError> {
    kiter_with_options(graph, &KIterOptions::default())
}

/// Computes the maximum reachable throughput of `graph` with explicit options.
///
/// # Errors
///
/// See [`optimal_throughput`].
pub fn kiter_with_options(
    graph: &CsdfGraph,
    options: &KIterOptions,
) -> Result<KIterResult, AnalysisError> {
    let mut pipeline = EvaluationPipeline::new(options.analysis);
    kiter_with_pipeline(graph, options, &mut pipeline)
}

/// Computes the maximum reachable throughput of `graph`, driving a
/// caller-provided [`EvaluationPipeline`].
///
/// The pipeline keeps the event-graph arena and the MCR solver alive across
/// the whole run — each iteration patches the arena in place instead of
/// rebuilding it — and its [`stats`](EvaluationPipeline::stats) expose the
/// construction/solve time split afterwards. The pipeline's own
/// [`AnalysisOptions`] govern the event-graph limits and the iteration
/// budget: `options.analysis` is ignored in favour of the pipeline's.
///
/// A cancellation token installed on the pipeline
/// ([`EvaluationPipeline::set_cancel_token`]) is honoured once per K-Iter
/// iteration (at the head of each evaluation) and inside the arena patch and
/// MCR solve loops; a cancelled run returns
/// [`AnalysisError::DeadlineExceeded`](crate::AnalysisError::DeadlineExceeded)
/// and leaves the pipeline reusable.
///
/// # Errors
///
/// See [`optimal_throughput`].
pub fn kiter_with_pipeline(
    graph: &CsdfGraph,
    options: &KIterOptions,
    pipeline: &mut EvaluationPipeline,
) -> Result<KIterResult, AnalysisError> {
    let repetition = graph.repetition_vector()?;
    kiter_with_repetition(
        graph,
        graph_fingerprint(graph),
        &repetition,
        options,
        pipeline,
    )
}

/// The K-Iter loop over a precomputed structure fingerprint and repetition
/// vector (an [`AnalysisSession`](crate::AnalysisSession) computes both once
/// for its whole lifetime). The loop borrows `graph` for the whole run, so
/// the fingerprint stays valid for every iteration's arena check. Like
/// Algorithm 1, it starts from the unitary vector, unless the start rule
/// (see the [module docs](self)) starts it at `K = q`.
pub(crate) fn kiter_with_repetition(
    graph: &CsdfGraph,
    fingerprint: u64,
    repetition: &RepetitionVector,
    options: &KIterOptions,
    pipeline: &mut EvaluationPipeline,
) -> Result<KIterResult, AnalysisError> {
    let mut periodicity = PeriodicityVector::unitary(graph);
    let mut history = Vec::new();
    let max_iterations = pipeline.options().max_iterations.max(1);
    let max_nodes = pipeline.options().limits.max_nodes as u128;
    // Live nodes of the `K = q` event graph; `None` once a jump is ruled out
    // for the rest of the run.
    let mut full_nodes = full_periodicity_nodes(graph, repetition);
    let jump_fits = |full_nodes: Option<u128>, live_nodes: u128| {
        full_nodes
            .is_some_and(|full| full <= FULL_PERIODICITY_FACTOR * live_nodes && full <= max_nodes)
    };
    // Tasks raised by the previous update: the dirty set the arena patch is
    // told about (empty on the first iteration, which builds).
    let mut dirty: Vec<TaskId> = Vec::new();
    // After a jump to `K = q`: the vector the paper's update would have
    // produced, evaluated instead if the jumped evaluation fails.
    let mut fallback: Option<PeriodicityVector> = None;
    // The start rule: the jump test against the unitary graph's
    // `N_1 = Σ_t ϕ_t` live nodes. A start at `K = q` falls back to the
    // unitary vector, the paper's own start.
    let unitary_nodes = graph
        .tasks()
        .map(|(_, task)| task.phase_count() as u128)
        .sum();
    if jump_fits(full_nodes, unitary_nodes) {
        let mut full = periodicity.clone();
        if !raise_to_repetition(&mut full, repetition)?.is_empty() {
            fallback = Some(std::mem::replace(&mut periodicity, full));
        }
    }

    for iteration in 1..=max_iterations {
        let hint = (iteration > 1).then_some(dirty.as_slice());
        let evaluation =
            match pipeline.evaluate_keyed(graph, fingerprint, repetition, &periodicity, hint) {
                Ok(evaluation) => evaluation,
                Err(err) => match fallback.take() {
                    // A jump must never turn an answer into an error (a
                    // limit, an overflow): resume the paper's trajectory.
                    // The failed evaluation dropped the arena and the warm
                    // policy, so this one rebuilds from scratch.
                    Some(paper) if err != AnalysisError::DeadlineExceeded => {
                        periodicity = paper;
                        full_nodes = None;
                        pipeline.evaluate_keyed(
                            graph,
                            fingerprint,
                            repetition,
                            &periodicity,
                            None,
                        )?
                    }
                    _ => return Err(err),
                },
            };
        fallback = None;
        let live_nodes = evaluation.event_graph_size.0 as u128;

        let (mut circuits, period): (Vec<Vec<TaskId>>, _) = match evaluation.outcome {
            EvaluationOutcome::Unconstrained => {
                // No circuit constrains the schedule; enlarging K cannot
                // create new circuits, so the throughput is unbounded.
                if options.record_history {
                    history.push(KIterIteration {
                        periodicity: periodicity.clone(),
                        event_graph_size: evaluation.event_graph_size,
                        period: None,
                        critical_tasks: Vec::new(),
                        optimal: true,
                    });
                }
                return Ok(KIterResult {
                    throughput: Throughput::Unbounded,
                    periodicity,
                    iterations: iteration,
                    critical_tasks: Vec::new(),
                    history,
                });
            }
            EvaluationOutcome::Feasible {
                period,
                critical_tasks,
                ..
            } => (vec![critical_tasks], Some(period)),
            EvaluationOutcome::Infeasible {
                critical_tasks,
                others,
            } => (
                std::iter::once(critical_tasks).chain(others).collect(),
                None,
            ),
        };

        // One q̄ per circuit. Any infeasible circuit passing Theorem 4 proves
        // the deadlock; otherwise every circuit raises its tasks' K.
        let normalized: Vec<Vec<(TaskId, u64)>> = circuits
            .iter()
            .map(|tasks| normalized_repetition(repetition, tasks))
            .collect();
        let certified = normalized
            .iter()
            .position(|circuit| optimality_test(&periodicity, circuit));
        let optimal = certified.is_some();
        let critical_tasks = circuits.swap_remove(certified.unwrap_or(0));

        if options.record_history {
            history.push(KIterIteration {
                periodicity: periodicity.clone(),
                event_graph_size: evaluation.event_graph_size,
                period,
                critical_tasks: critical_tasks.clone(),
                optimal,
            });
        }

        if optimal {
            let throughput = match period {
                Some(period) => Throughput::from_period(period)?,
                // The critical circuit is infeasible even at its maximal
                // useful periodicity: the graph deadlocks.
                None => Throughput::Deadlocked,
            };
            return Ok(KIterResult {
                throughput,
                periodicity,
                iterations: iteration,
                critical_tasks,
                history,
            });
        }

        if jump_fits(full_nodes, live_nodes) {
            let mut paper = periodicity.clone();
            apply_update(&mut paper, &normalized)?;
            dirty = raise_to_repetition(&mut periodicity, repetition)?;
            fallback = Some(paper);
        } else {
            dirty = apply_update(&mut periodicity, &normalized)?;
        }
        debug_assert!(divides_repetition(&periodicity, repetition));
    }

    Err(AnalysisError::IterationLimitReached {
        iterations: max_iterations,
    })
}

/// Live node count `N_q = Σ_t ϕ_t·q_t` of the event graph at `K = q`, or
/// `None` when it does not fit in `u128`.
fn full_periodicity_nodes(graph: &CsdfGraph, repetition: &RepetitionVector) -> Option<u128> {
    graph.tasks().try_fold(0u128, |total, (task, spec)| {
        (spec.phase_count() as u128)
            .checked_mul(u128::from(repetition.get(task)))
            .and_then(|nodes| total.checked_add(nodes))
    })
}

/// The jump: raises every `K_t` to `q_t` and reports the dirty set, the tasks
/// whose `K_t` changed, sorted. Every `K_t` divides `q_t`, so this only
/// raises.
fn raise_to_repetition(
    periodicity: &mut PeriodicityVector,
    repetition: &RepetitionVector,
) -> Result<Vec<TaskId>, AnalysisError> {
    let mut dirty = Vec::new();
    for task in (0..periodicity.len()).map(TaskId::new) {
        if periodicity.raise(task, repetition.get(task))? {
            dirty.push(task);
        }
    }
    Ok(dirty)
}

/// Whether every `K_t` divides `q_t`: the invariant both update rules keep.
fn divides_repetition(periodicity: &PeriodicityVector, repetition: &RepetitionVector) -> bool {
    (0..periodicity.len())
        .map(TaskId::new)
        .all(|task| repetition.get(task) % periodicity.get(task) == 0)
}

/// The per-task values `q̄_t = q_t / gcd{q_{t'} : t' on the circuit}` for the
/// tasks of a critical circuit.
fn normalized_repetition(
    repetition: &RepetitionVector,
    critical_tasks: &[TaskId],
) -> Vec<(TaskId, u64)> {
    let gcd = critical_tasks
        .iter()
        .fold(0u64, |acc, &task| gcd_u64(acc, repetition.get(task)));
    let gcd = gcd.max(1);
    critical_tasks
        .iter()
        .map(|&task| (task, repetition.get(task) / gcd))
        .collect()
}

/// Theorem 4: the critical circuit certifies global optimality when every task
/// on it has a periodicity that is a multiple of its normalised repetition
/// count.
fn optimality_test(periodicity: &PeriodicityVector, normalized: &[(TaskId, u64)]) -> bool {
    normalized
        .iter()
        .all(|&(task, q_bar)| periodicity.get(task) % q_bar == 0)
}

/// Enlarges the periodicity vector after a failed optimality test with the
/// paper's rule — `K_t ← lcm(K_t, q̄_t)` for every task `t` on a critical
/// circuit, applied for every circuit the evaluation reported (each with its
/// own `q̄`; one circuit when the vector was feasible, every infeasible
/// policy circuit otherwise) — and reports the dirty set: the tasks whose
/// `K_t` actually changed, sorted (the arena patch only re-derives their
/// node blocks and incident buffers). Raising on several circuits at once is
/// sound because `K` only grows by lcm and the final answer is still
/// certified by Theorem 4.
fn apply_update(
    periodicity: &mut PeriodicityVector,
    circuits: &[Vec<(TaskId, u64)>],
) -> Result<Vec<TaskId>, AnalysisError> {
    let mut dirty = Vec::new();
    for &(task, q_bar) in circuits.iter().flatten() {
        let updated = lcm_u64(periodicity.get(task), q_bar).map_err(|_| CsdfError::Overflow)?;
        if periodicity.raise(task, updated)? {
            dirty.push(task);
        }
    }
    // A task raised by two circuits was pushed twice.
    dirty.sort_unstable();
    dirty.dedup();
    Ok(dirty)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event_graph::EventGraphLimits;
    use csdf::CsdfGraphBuilder;

    fn multirate_ring(tokens: u64) -> CsdfGraph {
        // x produces 2 per firing, y consumes 1; feedback closes the loop.
        let mut b = CsdfGraphBuilder::new();
        let x = b.add_sdf_task("x", 2);
        let y = b.add_sdf_task("y", 1);
        b.add_sdf_buffer(x, y, 2, 1, 0);
        b.add_sdf_buffer(y, x, 1, 2, tokens);
        b.add_serializing_self_loop(x);
        b.add_serializing_self_loop(y);
        b.build().unwrap()
    }

    /// Two multirate rings sharing `y`, with `q = [1, rate, rate²]`: the
    /// critical circuit moves from `y`–`z` to `x`–`y` as K grows.
    fn ring_chain(rate: u64, x_duration: u64) -> CsdfGraph {
        let mut b = CsdfGraphBuilder::new();
        let x = b.add_sdf_task("x", x_duration);
        let y = b.add_sdf_task("y", 1);
        let z = b.add_sdf_task("z", 1);
        b.add_sdf_buffer(x, y, rate, 1, 0);
        b.add_sdf_buffer(y, x, 1, rate, rate);
        b.add_sdf_buffer(y, z, rate, 1, 0);
        b.add_sdf_buffer(z, y, 1, rate, rate);
        for task in [x, y, z] {
            b.add_serializing_self_loop(task);
        }
        b.build().unwrap()
    }

    fn trajectory(result: &KIterResult) -> Vec<Vec<u64>> {
        result
            .history
            .iter()
            .map(|iteration| iteration.periodicity.as_slice().to_vec())
            .collect()
    }

    fn with_limits(max_nodes: usize, max_arcs: usize) -> KIterOptions {
        KIterOptions {
            analysis: AnalysisOptions {
                limits: EventGraphLimits {
                    max_nodes,
                    max_arcs,
                },
                ..AnalysisOptions::default()
            },
            record_history: true,
        }
    }

    #[test]
    fn a_full_expansion_beyond_the_factor_takes_the_lcm_path() {
        // q = [1, 8, 64]: N_q = 73 nodes stays above 4·N(K) at every
        // iteration (3, then 10), so K only grows by the paper's lcm rule
        // and Theorem 4 certifies below q.
        let g = ring_chain(8, 8);
        let q = g.repetition_vector().unwrap();
        assert_eq!(full_periodicity_nodes(&g, &q), Some(73));
        let result = kiter_with_options(&g, &with_limits(usize::MAX, usize::MAX)).unwrap();
        assert_eq!(result.iterations, 3);
        assert_eq!(
            trajectory(&result),
            vec![vec![1, 1, 1], vec![1, 1, 8], vec![1, 8, 8]]
        );
        assert_eq!(
            result.throughput,
            Throughput::Finite(Rational::new(1, 72).unwrap())
        );
    }

    #[test]
    fn a_small_full_expansion_is_evaluated_directly() {
        // q = [1, 4, 16]: N_q = 21 ≤ 4·6 after the second iteration, so the
        // third evaluates K = q (the paper's rule would stop at [1, 4, 4]).
        let g = ring_chain(4, 4);
        let result = kiter_with_options(&g, &with_limits(usize::MAX, usize::MAX)).unwrap();
        assert_eq!(
            trajectory(&result),
            vec![vec![1, 1, 1], vec![1, 1, 4], vec![1, 4, 16]]
        );
        assert_eq!(result.history.last().unwrap().event_graph_size, (21, 31));
        assert_eq!(
            result.throughput,
            Throughput::Finite(Rational::new(1, 20).unwrap())
        );
    }

    #[test]
    fn tight_limits_refuse_or_undo_the_jump_without_changing_the_answer() {
        let g = ring_chain(4, 4);
        let unlimited = kiter_with_options(&g, &with_limits(usize::MAX, usize::MAX)).unwrap();
        let paper = vec![vec![1, 1, 1], vec![1, 1, 4], vec![1, 4, 4]];
        // N_q = 21 nodes over the node limit: the jump is refused, so no
        // evaluation is spent on it. The K = q graph has 31 arcs: over the
        // arc limit its evaluation fails, and the run resumes from the
        // paper's update ([1, 4, 4], 19 arcs).
        for (options, evaluations) in [
            (with_limits(20, usize::MAX), 3),
            (with_limits(usize::MAX, 20), 4),
        ] {
            let mut pipeline = EvaluationPipeline::new(options.analysis);
            let limited = kiter_with_pipeline(&g, &options, &mut pipeline).unwrap();
            assert_eq!(limited.throughput, unlimited.throughput);
            assert_eq!(trajectory(&limited), paper);
            assert_eq!(limited.iterations, 3);
            assert_eq!(pipeline.stats().evaluations, evaluations);
            // A reused pipeline returns what the fresh run returned.
            let reused = kiter_with_pipeline(&g, &options, &mut pipeline).unwrap();
            assert_eq!(reused, limited);
            assert_eq!(kiter_with_options(&g, &options).unwrap(), limited);
        }
    }

    #[test]
    fn a_small_full_expansion_is_where_the_run_starts() {
        // q = [1, 2, 4]: N_q = 7 ≤ 4·N_1 = 12, so the first and only
        // evaluation is K = q: one cold build and one solve.
        let g = ring_chain(2, 2);
        let q = g.repetition_vector().unwrap();
        let options = with_limits(usize::MAX, usize::MAX);
        let mut pipeline = EvaluationPipeline::new(options.analysis);
        let started = kiter_with_pipeline(&g, &options, &mut pipeline).unwrap();
        assert_eq!(trajectory(&started), vec![vec![1, 2, 4]]);
        assert_eq!(started.iterations, 1);
        assert_eq!(started.periodicity, PeriodicityVector::full(&q));
        assert_eq!(pipeline.stats().evaluations, 1);
        assert_eq!(pipeline.stats().full_builds, 1);
        assert_eq!(
            started.throughput,
            Throughput::Finite(Rational::new(1, 6).unwrap())
        );
        // A reused pipeline and a session return what the fresh run returns.
        assert_eq!(
            kiter_with_pipeline(&g, &options, &mut pipeline).unwrap(),
            started
        );
        let mut session = crate::AnalysisSession::new(g.clone(), options).unwrap();
        assert_eq!(session.evaluate().unwrap(), started);
        assert_eq!(session.evaluate().unwrap(), started);
    }

    #[test]
    fn tight_limits_refuse_or_undo_the_start_without_changing_the_answer() {
        let g = ring_chain(2, 2);
        let started = kiter_with_options(&g, &with_limits(usize::MAX, usize::MAX)).unwrap();
        let paper = vec![vec![1, 1, 1], vec![1, 1, 2], vec![1, 2, 2]];
        // N_q = 7 nodes over the node limit: the start at K = q is refused,
        // so no evaluation is spent on it. The K = q graph has 13 arcs: over
        // the arc limit its evaluation fails, and the run goes back to the
        // unitary vector and follows the paper's trajectory (at most 11
        // arcs).
        for (options, evaluations) in [
            (with_limits(6, usize::MAX), 3),
            (with_limits(usize::MAX, 12), 4),
        ] {
            let mut pipeline = EvaluationPipeline::new(options.analysis);
            let limited = kiter_with_pipeline(&g, &options, &mut pipeline).unwrap();
            assert_eq!(limited.throughput, started.throughput);
            assert_eq!(trajectory(&limited), paper);
            assert_eq!(limited.iterations, 3);
            assert_eq!(pipeline.stats().evaluations, evaluations);
            // A reused pipeline and a session return what the fresh run
            // returns.
            let reused = kiter_with_pipeline(&g, &options, &mut pipeline).unwrap();
            assert_eq!(reused, limited);
            assert_eq!(kiter_with_options(&g, &options).unwrap(), limited);
            let mut session = crate::AnalysisSession::new(g.clone(), options).unwrap();
            assert_eq!(session.evaluate().unwrap(), limited);
        }
    }

    #[test]
    fn simple_ring_is_optimal_at_k_one() {
        let mut b = CsdfGraphBuilder::new();
        let x = b.add_sdf_task("x", 1);
        let y = b.add_sdf_task("y", 1);
        b.add_sdf_buffer(x, y, 1, 1, 0);
        b.add_sdf_buffer(y, x, 1, 1, 1);
        let g = b.build().unwrap();
        let result = optimal_throughput(&g).unwrap();
        assert_eq!(result.iterations, 1);
        assert_eq!(
            result.throughput,
            Throughput::Finite(Rational::new(1, 2).unwrap())
        );
        assert!(result.periodicity.is_unitary());
        assert_eq!(result.period(), Some(Rational::from_integer(2)));
    }

    #[test]
    fn multirate_ring_requires_growing_k() {
        // q = [1, 2]: the critical circuit mixes both tasks, so K_y has to
        // grow to 2 before the optimality test passes.
        let g = multirate_ring(4);
        let options = KIterOptions {
            record_history: true,
            ..KIterOptions::default()
        };
        let result = kiter_with_options(&g, &options).unwrap();
        assert!(matches!(result.throughput, Throughput::Finite(_)));
        assert!(!result.history.is_empty());
        // Whatever the path taken, the final vector satisfies Theorem 4.
        assert!(result.history.last().unwrap().optimal);
        // The optimal throughput of this graph is limited by x (duration 2,
        // once per iteration) and y (duration 1, twice per iteration,
        // serialised): period 2 per iteration of x / 2 firings of y.
        assert_eq!(
            result.throughput,
            Throughput::Finite(Rational::new(1, 2).unwrap())
        );
    }

    #[test]
    fn deadlocked_graph_is_detected() {
        let mut b = CsdfGraphBuilder::new();
        let x = b.add_sdf_task("x", 1);
        let y = b.add_sdf_task("y", 1);
        b.add_sdf_buffer(x, y, 1, 1, 0);
        b.add_sdf_buffer(y, x, 1, 1, 0);
        let g = b.build().unwrap();
        let result = optimal_throughput(&g).unwrap();
        assert_eq!(result.throughput, Throughput::Deadlocked);
    }

    #[test]
    fn acyclic_graph_is_unbounded() {
        let mut b = CsdfGraphBuilder::new();
        let x = b.add_sdf_task("x", 1);
        let y = b.add_sdf_task("y", 1);
        b.add_sdf_buffer(x, y, 3, 2, 0);
        let g = b.build().unwrap();
        let result = optimal_throughput(&g).unwrap();
        assert_eq!(result.throughput, Throughput::Unbounded);
        assert!(result.critical_tasks.is_empty());
    }

    #[test]
    fn kiter_never_reports_less_than_the_periodic_bound() {
        use crate::analysis::evaluate_k_periodic;
        let g = multirate_ring(5);
        let unitary = PeriodicityVector::unitary(&g);
        let periodic = evaluate_k_periodic(&g, &unitary, &AnalysisOptions::default()).unwrap();
        let optimal = optimal_throughput(&g).unwrap();
        assert!(optimal.throughput >= periodic.throughput());
    }

    #[test]
    fn iteration_limit_is_reported() {
        let g = multirate_ring(4);
        let options = KIterOptions {
            analysis: AnalysisOptions {
                max_iterations: 1,
                ..AnalysisOptions::default()
            },
            ..KIterOptions::default()
        };
        match kiter_with_options(&g, &options) {
            Err(AnalysisError::IterationLimitReached { iterations: 1 }) => {}
            Ok(result) if result.iterations <= 1 => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn update_raises_every_circuit_and_reports_each_task_once() {
        let g = multirate_ring(4);
        let (x, y) = (TaskId::new(0), TaskId::new(1));
        let mut k = PeriodicityVector::unitary(&g);
        // Two circuits share `y`, with different q̄: K_y becomes lcm(3, 2).
        let circuits = vec![vec![(x, 2), (y, 3)], vec![(y, 2)]];
        let dirty = apply_update(&mut k, &circuits).unwrap();
        assert_eq!(dirty, vec![x, y]);
        assert_eq!(k.as_slice(), &[2, 6]);
        // Nothing left to raise: an empty dirty set.
        assert!(apply_update(&mut k, &circuits).unwrap().is_empty());
    }

    #[test]
    fn normalized_repetition_uses_circuit_gcd() {
        let q: RepetitionVector = vec![6u64, 12, 6, 1].into_iter().collect();
        let tasks = vec![TaskId::new(0), TaskId::new(2)];
        let normalized = normalized_repetition(&q, &tasks);
        assert_eq!(normalized, vec![(TaskId::new(0), 1), (TaskId::new(2), 1)]);
        let tasks = vec![TaskId::new(0), TaskId::new(3)];
        let normalized = normalized_repetition(&q, &tasks);
        assert_eq!(normalized, vec![(TaskId::new(0), 6), (TaskId::new(3), 1)]);
    }

    #[test]
    fn a_reused_pipeline_rebuilds_for_a_same_shaped_different_graph() {
        // Same task and buffer counts as `multirate_ring`, other rates: the
        // run's one fingerprint must still tell the graphs apart.
        let mut b = CsdfGraphBuilder::new();
        let x = b.add_sdf_task("x", 2);
        let y = b.add_sdf_task("y", 1);
        b.add_sdf_buffer(x, y, 3, 1, 0);
        b.add_sdf_buffer(y, x, 1, 3, 5);
        b.add_serializing_self_loop(x);
        b.add_serializing_self_loop(y);
        let other = b.build().unwrap();
        let ring = multirate_ring(4);
        assert_eq!(
            (ring.task_count(), ring.buffer_count()),
            (other.task_count(), other.buffer_count())
        );

        let options = KIterOptions::default();
        let mut pipeline = EvaluationPipeline::new(options.analysis);
        let mut iterations = 0;
        for graph in [&ring, &other, &ring] {
            let piped = kiter_with_pipeline(graph, &options, &mut pipeline).unwrap();
            assert_eq!(piped, kiter_with_options(graph, &options).unwrap());
            iterations += piped.iterations;
        }
        // One build per run; every later iteration of a run patched.
        let stats = pipeline.stats();
        assert_eq!(stats.full_builds, 3);
        assert_eq!(stats.patched, iterations - 3);
    }
}
