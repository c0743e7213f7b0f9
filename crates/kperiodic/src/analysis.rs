//! Fixed-K throughput evaluation.
//!
//! Given a periodicity vector `K`, the minimum period of a K-periodic
//! schedule is the maximum cost-to-time ratio of the event graph (Sections
//! 3.2–3.3 of the paper). [`EvaluationPipeline`] is the one fixed-K code
//! path: it owns the [`EventGraphArena`] and the MCR [`Solver`], builds the
//! event graph once, and patches it in place for every subsequent
//! periodicity vector (only the dirty tasks' blocks and their incident
//! buffers' arcs are re-derived). The K-Iter loop threads one pipeline
//! through its iterations, and each of its solves after the first starts
//! Howard's policy iteration from the previous solve's final policy; the
//! one-shot [`evaluate_k_periodic`] runs a fresh one.

use std::time::{Duration, Instant};

use csdf::{CsdfGraph, Rational, RepetitionVector, TaskId, Throughput};
use mcr::{CancelToken, CycleRatioOutcome, Policy, Solver};

use crate::arena::{graph_fingerprint, EventGraphArena};
use crate::error::AnalysisError;
use crate::event_graph::EventGraphLimits;
use crate::periodicity::PeriodicityVector;

/// Options shared by the fixed-K evaluation and the K-Iter loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnalysisOptions {
    /// Limits on the size of the event graphs that may be built.
    pub limits: EventGraphLimits,
    /// Maximum number of K-Iter iterations (ignored by fixed-K evaluation).
    pub max_iterations: usize,
    /// Run the `csdf-lint` static analyzer before building an event graph
    /// and fail fast with [`AnalysisError::RejectedByLint`] on any
    /// error-severity diagnostic (inconsistency, certain deadlock, capacity
    /// contradiction, ...). The gate runs when the pipeline (re)builds its
    /// arena — once per graph structure, not per K-Iter iteration. Off by
    /// default: deadlocked graphs are a legitimate solver answer
    /// ([`csdf::Throughput::Deadlocked`]) unless the caller opts into
    /// rejecting them early.
    pub pre_lint: bool,
}

impl Default for AnalysisOptions {
    fn default() -> Self {
        AnalysisOptions {
            limits: EventGraphLimits::default(),
            max_iterations: 256,
            pre_lint: false,
        }
    }
}

/// What the fixed-K evaluation concluded for the given periodicity vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvaluationOutcome {
    /// A K-periodic schedule exists; the fields give its minimum period.
    Feasible {
        /// Minimum period of the transformed graph `G̃` (the paper's raw
        /// maximum cost-to-time ratio `Ω*_{G̃} = Ω_G · lcm(K)`).
        transformed_period: Rational,
        /// Normalised period `Ω_G` of the original graph.
        period: Rational,
        /// The throughput `1 / Ω_G` this schedule guarantees (a lower bound
        /// of the maximum throughput, tight when the optimality test passes).
        throughput: Throughput,
        /// Tasks appearing on the critical circuit.
        critical_tasks: Vec<TaskId>,
    },
    /// No K-periodic schedule exists for this periodicity vector (a circuit
    /// of the event graph has non-positive total time). Larger periodicity
    /// values may still admit a schedule.
    Infeasible {
        /// Tasks appearing on the offending circuit.
        critical_tasks: Vec<TaskId>,
        /// Tasks of every further offending circuit the solver reported
        /// (see [`mcr::CycleRatioOutcome::Infinite`]), one entry per circuit.
        others: Vec<Vec<TaskId>>,
    },
    /// The event graph has no circuit with positive ratio: nothing bounds the
    /// period and the throughput is unbounded (this happens for graphs
    /// without feedback when tasks are not serialised).
    Unconstrained,
}

/// Result of a fixed-K evaluation: the outcome plus the size of the event
/// graph that was solved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KPeriodicEvaluation {
    /// Size of the event graph that was solved (nodes, arcs).
    pub event_graph_size: (usize, usize),
    /// The conclusion.
    pub outcome: EvaluationOutcome,
}

impl KPeriodicEvaluation {
    /// The throughput guaranteed by this evaluation: finite for feasible
    /// outcomes, [`Throughput::Deadlocked`] for infeasible ones (pessimistic:
    /// a larger K may still be feasible), [`Throughput::Unbounded`] when the
    /// period is unconstrained.
    pub fn throughput(&self) -> Throughput {
        match &self.outcome {
            EvaluationOutcome::Feasible { throughput, .. } => *throughput,
            EvaluationOutcome::Infeasible { .. } => Throughput::Deadlocked,
            EvaluationOutcome::Unconstrained => Throughput::Unbounded,
        }
    }

    /// The normalised period, when the outcome is feasible.
    pub fn period(&self) -> Option<Rational> {
        match &self.outcome {
            EvaluationOutcome::Feasible { period, .. } => Some(*period),
            _ => None,
        }
    }
}

/// Cumulative counters and timings of an [`EvaluationPipeline`], split into
/// event-graph construction work and MCR solve work (the construction/solve
/// split reported by `benches/scalability` and the `scale_smoke` binary).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PipelineStats {
    /// Total number of evaluations performed.
    pub evaluations: usize,
    /// Evaluations that built the event graph from scratch (the first one,
    /// plus any rebuild after an error).
    pub full_builds: usize,
    /// Evaluations that patched the arena in place.
    pub patched: usize,
    /// Buffers whose constraint arcs were re-derived across all patches.
    pub rebuilt_buffers: usize,
    /// Buffers whose cached arcs were reused across all patches.
    pub reused_buffers: usize,
    /// Wall-clock time spent building event graphs from scratch.
    pub build_time: Duration,
    /// Wall-clock time spent patching the arena in place.
    pub patch_time: Duration,
    /// Wall-clock time spent in the MCR solver.
    pub solve_time: Duration,
    /// Howard policy-evaluation rounds run by the MCR solver.
    pub howard_rounds: u64,
    /// Strongly connected components the MCR solver solved per path
    /// (integer-kernel lane, scalar fallback or parametric method).
    pub lanes: mcr::LaneCounts,
    /// Construction time (build or patch) of the most recent evaluation —
    /// together with [`PipelineStats::last_solve_time`] this is the
    /// per-iteration construction/solve split of the K-Iter loop.
    pub last_construction_time: Duration,
    /// MCR solve time of the most recent evaluation.
    pub last_solve_time: Duration,
}

impl PipelineStats {
    /// Cumulative wall-clock time spent constructing event graphs — the sum
    /// of the from-scratch builds ([`PipelineStats::build_time`]) and the
    /// in-place patches ([`PipelineStats::patch_time`]). Together with
    /// [`PipelineStats::solve_time`] and
    /// [`PipelineStats::evaluations`] this is the honest construction/solve
    /// split of a whole sweep, not just its last evaluation.
    pub fn total_construction_time(&self) -> Duration {
        self.build_time + self.patch_time
    }

    /// Folds the counters of another pipeline into these: cumulative
    /// counters and times add up; the `last_*` fields keep the larger of the
    /// two (across parallel workers "the most recent evaluation" is
    /// ill-defined, so the merge is deterministic rather than temporal).
    /// This is how the `explore` sweep runner aggregates the per-worker
    /// session pipelines into one sweep-wide split.
    pub fn merge(&mut self, other: &PipelineStats) {
        self.evaluations += other.evaluations;
        self.full_builds += other.full_builds;
        self.patched += other.patched;
        self.rebuilt_buffers += other.rebuilt_buffers;
        self.reused_buffers += other.reused_buffers;
        self.build_time += other.build_time;
        self.patch_time += other.patch_time;
        self.solve_time += other.solve_time;
        self.howard_rounds += other.howard_rounds;
        self.lanes.merge(&other.lanes);
        self.last_construction_time = self
            .last_construction_time
            .max(other.last_construction_time);
        self.last_solve_time = self.last_solve_time.max(other.last_solve_time);
    }
}

/// A reusable fixed-K evaluation pipeline: periodicity update → dirty set →
/// arena patch → MCR solve.
///
/// The pipeline owns the [`EventGraphArena`] and the [`Solver`] (the default
/// [`mcr::SolverChoice::Auto`], every solve on the calling thread); the K-Iter
/// loop drives one pipeline for its whole run so that each iteration only
/// re-derives the event-graph pieces its periodicity update dirtied and the
/// solver scratch buffers are resized, never recreated. The arena is reused
/// only while the same graph (by structural fingerprint,
/// [`EventGraphArena::matches_graph`]) is evaluated; switching graphs
/// triggers a from-scratch rebuild, so one pipeline can safely serve a sweep
/// over many graphs.
///
/// An evaluation with a dirty hint (a K-Iter iteration after the first)
/// also warm-starts Howard's policy iteration from the policy the previous
/// solve ended with, carried across the arena patch by event. The warm state
/// is dropped by every evaluation without a hint, every rebuild and every
/// error, so a K-Iter run's result depends only on its graph, never on what
/// the pipeline solved before.
#[derive(Debug)]
pub struct EvaluationPipeline {
    options: AnalysisOptions,
    solver: Solver,
    arena: Option<EventGraphArena>,
    /// The previous solve's final policy, keyed by event.
    warm: EventPolicy,
    stats: PipelineStats,
    cancel: CancelToken,
}

impl EvaluationPipeline {
    /// Creates an empty pipeline; the first evaluation builds the arena.
    pub fn new(options: AnalysisOptions) -> Self {
        EvaluationPipeline {
            options,
            solver: Solver::default(),
            arena: None,
            warm: EventPolicy::default(),
            stats: PipelineStats::default(),
            cancel: CancelToken::default(),
        }
    }

    /// Installs a cancellation token checked at the start of every
    /// evaluation, once per arena buffer rebuild and once per solver round.
    /// A cancelled evaluation returns [`AnalysisError::DeadlineExceeded`];
    /// the pipeline stays reusable. Pass [`CancelToken::default`] to detach.
    pub fn set_cancel_token(&mut self, token: CancelToken) {
        self.solver.set_cancel_token(token.clone());
        self.cancel = token;
    }

    /// The analysis options the pipeline was created with.
    pub fn options(&self) -> &AnalysisOptions {
        &self.options
    }

    /// Cumulative statistics over all evaluations so far.
    pub fn stats(&self) -> &PipelineStats {
        &self.stats
    }

    /// The current arena, if at least one evaluation succeeded.
    pub fn arena(&self) -> Option<&EventGraphArena> {
        self.arena.as_ref()
    }

    /// Evaluates the minimum period of a K-periodic schedule for `periodicity`,
    /// patching the arena in place when one exists.
    ///
    /// `dirty_hint` may name the tasks whose periodicity changed since the
    /// previous evaluation (as returned by the K-Iter update rule); pass
    /// `None` to let the arena detect changes by comparison. With a hint, the
    /// solve starts from the previous evaluation's final policy (see the
    /// type docs); without one it starts cold.
    ///
    /// # Errors
    ///
    /// Same as [`evaluate_k_periodic`]. After an error the arena is dropped;
    /// the next evaluation rebuilds it from scratch.
    pub fn evaluate(
        &mut self,
        graph: &CsdfGraph,
        repetition: &RepetitionVector,
        periodicity: &PeriodicityVector,
        dirty_hint: Option<&[TaskId]>,
    ) -> Result<KPeriodicEvaluation, AnalysisError> {
        let fingerprint = graph_fingerprint(graph);
        self.evaluate_keyed(graph, fingerprint, repetition, periodicity, dirty_hint)
    }

    /// [`EvaluationPipeline::evaluate`] with the structure fingerprint of
    /// `graph` already computed ([`graph_fingerprint`]): the K-Iter loop
    /// hashes its graph once per run, not once per iteration.
    pub(crate) fn evaluate_keyed(
        &mut self,
        graph: &CsdfGraph,
        fingerprint: u64,
        repetition: &RepetitionVector,
        periodicity: &PeriodicityVector,
        dirty_hint: Option<&[TaskId]>,
    ) -> Result<KPeriodicEvaluation, AnalysisError> {
        if self.cancel.is_cancelled() {
            return Err(AnalysisError::DeadlineExceeded);
        }
        self.stats.evaluations += 1;
        // Take the warm state out too, so an error drops it.
        let mut warm = std::mem::take(&mut self.warm);
        if dirty_hint.is_none() {
            warm.clear();
        }
        // Take the arena out so an error cannot leave a half-patched arena
        // installed. If the caller switched graph *structures* — detected by
        // fingerprint, so even same-shape different graphs are caught — fall
        // back to a from-scratch build. Marking-only differences (the
        // in-place token/capacity mutations of an analysis session) stay on
        // the patch path: `apply_update` re-derives exactly the mutated
        // buffers' arcs.
        let reusable = self
            .arena
            .take()
            .filter(|arena| arena.matches_key(graph, fingerprint));
        let arena = match reusable {
            Some(mut arena) => {
                let started = Instant::now();
                let update = arena.apply_update_keyed(
                    graph,
                    fingerprint,
                    periodicity,
                    dirty_hint,
                    &self.cancel,
                )?;
                self.stats.last_construction_time = started.elapsed();
                self.stats.patch_time += self.stats.last_construction_time;
                self.stats.patched += 1;
                self.stats.rebuilt_buffers += update.rebuilt_buffers;
                self.stats.reused_buffers += update.reused_buffers;
                arena
            }
            None => {
                if self.options.pre_lint {
                    pre_lint_gate(graph)?;
                }
                let started = Instant::now();
                let arena = EventGraphArena::build_keyed(
                    graph,
                    fingerprint,
                    repetition,
                    periodicity,
                    &self.options.limits,
                    &self.cancel,
                )?;
                self.stats.last_construction_time = started.elapsed();
                self.stats.build_time += self.stats.last_construction_time;
                self.stats.full_builds += 1;
                warm.clear();
                arena
            }
        };

        let started = Instant::now();
        let rounds = self.solver.howard_rounds();
        let mut policy = warm.seed(&arena);
        let solved = self.solver.solve_from(arena.ratio_graph(), &mut policy)?;
        warm.capture(&arena, &policy);
        self.stats.howard_rounds += self.solver.howard_rounds() - rounds;
        self.stats.lanes = self.solver.lane_counts();
        self.stats.last_solve_time = started.elapsed();
        self.stats.solve_time += self.stats.last_solve_time;

        let evaluation = KPeriodicEvaluation {
            event_graph_size: (arena.node_count(), arena.arc_count()),
            outcome: classify(solved, &arena)?,
        };
        self.arena = Some(arena);
        self.warm = warm;
        Ok(evaluation)
    }
}

/// A Howard policy keyed by event instead of node id: per event
/// `(task, phase)`, the event its policy arc leads to. The arena's blocks
/// are laid out densely, so every `K` change moves the nodes of the blocks
/// after the first changed one; this is how a policy survives that.
#[derive(Debug, Default)]
struct EventPolicy {
    /// Start of each task's phases in `successor` (one extra trailing entry);
    /// empty when there is no policy.
    first: Vec<usize>,
    /// Successor event `(task, phase)` per event, [`NO_EVENT`] when absent.
    successor: Vec<(u32, u32)>,
}

const NO_EVENT: (u32, u32) = (u32::MAX, u32::MAX);

impl EventPolicy {
    fn clear(&mut self) {
        self.first.clear();
        self.successor.clear();
    }

    /// Records `policy` (node ids of `arena`) by event.
    fn capture(&mut self, arena: &EventGraphArena, policy: &Policy) {
        self.clear();
        for task in (0..arena.task_count()).map(TaskId::new) {
            self.first.push(self.successor.len());
            for phase in 0..arena.phase_count_of(task) {
                let next = policy
                    .successor(arena.node_of(task, phase))
                    .map_or(NO_EVENT, |node| {
                        let event = arena.event(node);
                        (event.task.index() as u32, event.phase as u32)
                    });
                self.successor.push(next);
            }
        }
        self.first.push(self.successor.len());
    }

    /// Translates the recorded policy onto `arena`'s current numbering:
    /// every event that still exists, with a successor that still exists,
    /// keeps it. The policy is empty (a cold start) when nothing is
    /// recorded.
    fn seed(&self, arena: &EventGraphArena) -> Policy {
        let mut policy = Policy::new();
        if self.first.is_empty() {
            return policy;
        }
        for task in (0..arena.task_count()).map(TaskId::new) {
            let recorded = &self.successor[self.first[task.index()]..self.first[task.index() + 1]];
            for (phase, &(next_task, next_phase)) in
                recorded.iter().enumerate().take(arena.phase_count_of(task))
            {
                if next_task == NO_EVENT.0 {
                    continue;
                }
                let next_task = TaskId::new(next_task as usize);
                if (next_phase as usize) < arena.phase_count_of(next_task) {
                    policy.set_successor(
                        arena.node_of(task, phase),
                        arena.node_of(next_task, next_phase as usize),
                    );
                }
            }
        }
        policy
    }
}

/// Runs the static analyzer and turns its first error-severity diagnostic
/// into [`AnalysisError::RejectedByLint`].
fn pre_lint_gate(graph: &CsdfGraph) -> Result<(), AnalysisError> {
    let report = csdf_lint::analyze(graph);
    match report
        .diagnostics
        .iter()
        .find(|d| d.severity() == csdf_lint::Severity::Error)
    {
        Some(diagnostic) => Err(AnalysisError::RejectedByLint {
            code: diagnostic.code.as_str().to_string(),
            message: diagnostic.message.clone(),
        }),
        None => Ok(()),
    }
}

/// Maps a solver outcome on the (lcm-free) event graph to an evaluation
/// outcome: the maximum cycle ratio is the normalised period `Ω_G` directly.
fn classify(
    solved: CycleRatioOutcome,
    arena: &EventGraphArena,
) -> Result<EvaluationOutcome, AnalysisError> {
    Ok(match solved {
        CycleRatioOutcome::Acyclic | CycleRatioOutcome::NonPositive => {
            EvaluationOutcome::Unconstrained
        }
        CycleRatioOutcome::Infinite { cycle, others } => EvaluationOutcome::Infeasible {
            critical_tasks: arena.tasks_on_cycle(&cycle).into_iter().collect(),
            others: others
                .iter()
                .map(|cycle| arena.tasks_on_cycle(cycle).into_iter().collect())
                .collect(),
        },
        CycleRatioOutcome::Finite { ratio, cycle } => {
            let period = ratio;
            let lcm = Rational::from_integer(arena.lcm_k() as i128);
            EvaluationOutcome::Feasible {
                transformed_period: period.checked_mul(&lcm)?,
                period,
                throughput: Throughput::from_period(period)?,
                critical_tasks: arena.tasks_on_cycle(&cycle).into_iter().collect(),
            }
        }
    })
}

/// Evaluates the minimum period of a K-periodic schedule for a fixed `K`
/// through a fresh [`EvaluationPipeline`]. Pass
/// [`PeriodicityVector::unitary`] for the 1-periodic schedule of reference
/// \[4\], the approximate method the paper compares against.
///
/// # Errors
///
/// Propagates model errors (inconsistency, overflow, invalid `K`), solver
/// errors and event-graph size violations.
///
/// # Examples
///
/// ```
/// use csdf::CsdfGraphBuilder;
/// use kperiodic::{evaluate_k_periodic, AnalysisOptions, PeriodicityVector, EvaluationOutcome};
///
/// let mut builder = CsdfGraphBuilder::new();
/// let ping = builder.add_sdf_task("ping", 1);
/// let pong = builder.add_sdf_task("pong", 1);
/// builder.add_sdf_buffer(ping, pong, 1, 1, 0);
/// builder.add_sdf_buffer(pong, ping, 1, 1, 1);
/// let graph = builder.build()?;
///
/// let k = PeriodicityVector::unitary(&graph);
/// let evaluation = evaluate_k_periodic(&graph, &k, &AnalysisOptions::default())?;
/// match evaluation.outcome {
///     EvaluationOutcome::Feasible { period, .. } => {
///         assert_eq!(period, csdf::Rational::from_integer(2));
///     }
///     other => panic!("unexpected {other:?}"),
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn evaluate_k_periodic(
    graph: &CsdfGraph,
    periodicity: &PeriodicityVector,
    options: &AnalysisOptions,
) -> Result<KPeriodicEvaluation, AnalysisError> {
    let repetition = graph.repetition_vector()?;
    EvaluationPipeline::new(*options).evaluate(graph, &repetition, periodicity, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use csdf::CsdfGraphBuilder;

    fn ring_with_tokens(tokens: u64) -> CsdfGraph {
        let mut b = CsdfGraphBuilder::new();
        let x = b.add_sdf_task("x", 2);
        let y = b.add_sdf_task("y", 3);
        b.add_sdf_buffer(x, y, 1, 1, 0);
        b.add_sdf_buffer(y, x, 1, 1, tokens);
        b.build().unwrap()
    }

    fn evaluate_unitary(
        graph: &CsdfGraph,
        options: &AnalysisOptions,
    ) -> Result<KPeriodicEvaluation, AnalysisError> {
        evaluate_k_periodic(graph, &PeriodicityVector::unitary(graph), options)
    }

    #[test]
    fn pre_lint_gate_rejects_deadlocked_graphs_fast() {
        let options = AnalysisOptions {
            pre_lint: true,
            ..AnalysisOptions::default()
        };
        // Live ring: the gate passes and evaluation proceeds normally.
        let live = evaluate_unitary(&ring_with_tokens(1), &options).unwrap();
        assert_eq!(live.period(), Some(Rational::from_integer(5)));
        // Tokenless ring: rejected with the lint certificate, without
        // building an event graph.
        let err = evaluate_unitary(&ring_with_tokens(0), &options).unwrap_err();
        match err {
            AnalysisError::RejectedByLint { code, message } => {
                // The tokenless unit-rate ring is caught by the capacity
                // pass (the two buffers mirror each other and hold 0 tokens
                // combined) before the liveness simulation even runs.
                assert_eq!(code, "L003");
                assert!(message.contains("deadlock"));
            }
            other => panic!("expected RejectedByLint, got {other:?}"),
        }
        // Default options still solve the deadlocked graph exactly.
        let solved = evaluate_unitary(&ring_with_tokens(0), &AnalysisOptions::default()).unwrap();
        assert_eq!(solved.throughput(), Throughput::Deadlocked);
    }

    #[test]
    fn hsdf_ring_periods() {
        // One token: executions strictly alternate, period 5.
        let one = evaluate_unitary(&ring_with_tokens(1), &AnalysisOptions::default()).unwrap();
        assert_eq!(one.period(), Some(Rational::from_integer(5)));
        // Two tokens: period 5/2 per iteration... the cycle ratio is (2+3)/2.
        let two = evaluate_unitary(&ring_with_tokens(2), &AnalysisOptions::default()).unwrap();
        assert_eq!(two.period(), Some(Rational::new(5, 2).unwrap()));
        assert!(two.throughput() > one.throughput());
        assert_eq!(one.event_graph_size.0, 2);
    }

    #[test]
    fn deadlocked_ring_is_infeasible() {
        // Zero tokens on a cycle: no schedule whatsoever.
        let evaluation =
            evaluate_unitary(&ring_with_tokens(0), &AnalysisOptions::default()).unwrap();
        match evaluation.outcome {
            EvaluationOutcome::Infeasible {
                ref critical_tasks, ..
            } => {
                assert_eq!(critical_tasks.len(), 2);
            }
            ref other => panic!("unexpected {other:?}"),
        }
        assert_eq!(evaluation.throughput(), Throughput::Deadlocked);
        assert_eq!(evaluation.period(), None);
    }

    #[test]
    fn acyclic_graph_is_unconstrained() {
        let mut b = CsdfGraphBuilder::new();
        let x = b.add_sdf_task("x", 1);
        let y = b.add_sdf_task("y", 1);
        b.add_sdf_buffer(x, y, 1, 1, 0);
        let g = b.build().unwrap();
        let evaluation = evaluate_unitary(&g, &AnalysisOptions::default()).unwrap();
        assert_eq!(evaluation.outcome, EvaluationOutcome::Unconstrained);
        assert_eq!(evaluation.throughput(), Throughput::Unbounded);
    }

    #[test]
    fn larger_k_never_hurts() {
        // For a multirate ring, K-periodic schedules are at least as good as
        // periodic ones.
        let mut b = CsdfGraphBuilder::new();
        let x = b.add_sdf_task("x", 1);
        let y = b.add_sdf_task("y", 1);
        b.add_sdf_buffer(x, y, 2, 1, 0);
        b.add_sdf_buffer(y, x, 1, 2, 4);
        let g = b.build().unwrap();
        let options = AnalysisOptions::default();
        let unitary = evaluate_unitary(&g, &options).unwrap();
        let q = g.repetition_vector().unwrap();
        let full = evaluate_k_periodic(&g, &PeriodicityVector::full(&q), &options).unwrap();
        assert!(full.throughput() >= unitary.throughput());
    }

    #[test]
    fn transformed_period_is_the_scaled_normalised_period() {
        let g = ring_with_tokens(1);
        let k = PeriodicityVector::from_entries(&g, vec![1, 2]).unwrap();
        let evaluation = evaluate_k_periodic(&g, &k, &AnalysisOptions::default()).unwrap();
        match evaluation.outcome {
            EvaluationOutcome::Feasible {
                transformed_period,
                period,
                ..
            } => {
                assert_eq!(
                    transformed_period,
                    period.checked_mul(&Rational::from_integer(2)).unwrap()
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn pipeline_matches_the_one_shot_evaluation() {
        // Three-task ring so some buffers are untouched by each update.
        let mut b = CsdfGraphBuilder::new();
        let x = b.add_sdf_task("x", 2);
        let y = b.add_sdf_task("y", 3);
        let z = b.add_sdf_task("z", 1);
        b.add_sdf_buffer(x, y, 1, 1, 0);
        b.add_sdf_buffer(y, z, 1, 1, 0);
        b.add_sdf_buffer(z, x, 1, 1, 2);
        let g = b.build().unwrap();
        let q = g.repetition_vector().unwrap();
        let options = AnalysisOptions::default();
        let mut pipeline = EvaluationPipeline::new(options);
        for entries in [vec![1, 1, 1], vec![2, 1, 1], vec![2, 3, 1]] {
            let k = PeriodicityVector::from_entries(&g, entries).unwrap();
            let piped = pipeline.evaluate(&g, &q, &k, None).unwrap();
            let fresh = evaluate_k_periodic(&g, &k, &options).unwrap();
            assert_eq!(piped.outcome, fresh.outcome);
            assert_eq!(piped.event_graph_size, fresh.event_graph_size);
        }
        let stats = pipeline.stats();
        assert_eq!(stats.evaluations, 3);
        assert_eq!(stats.full_builds, 1);
        assert_eq!(stats.patched, 2);
        assert!(stats.reused_buffers > 0);
    }

    #[test]
    fn pipeline_rebuilds_when_the_graph_shape_changes() {
        let small = ring_with_tokens(1);
        let mut b = CsdfGraphBuilder::new();
        let x = b.add_sdf_task("x", 1);
        let y = b.add_sdf_task("y", 1);
        let z = b.add_sdf_task("z", 1);
        b.add_sdf_buffer(x, y, 1, 1, 0);
        b.add_sdf_buffer(y, z, 1, 1, 0);
        b.add_sdf_buffer(z, x, 1, 1, 1);
        let large = b.build().unwrap();

        // `same_structure` has the small ring's structure but a different
        // marking: that is a *patchable* difference, not a graph switch —
        // the pipeline keeps the arena and re-derives one buffer's arcs.
        let same_structure = ring_with_tokens(2);

        let mut pipeline = EvaluationPipeline::new(AnalysisOptions::default());
        for graph in [&small, &large, &small, &same_structure] {
            let q = graph.repetition_vector().unwrap();
            let k = PeriodicityVector::unitary(graph);
            let piped = pipeline.evaluate(graph, &q, &k, None).unwrap();
            let fresh = evaluate_k_periodic(graph, &k, &AnalysisOptions::default()).unwrap();
            assert_eq!(piped.outcome, fresh.outcome);
        }
        // Structure switches discard the arena and rebuild from scratch; the
        // final marking-only switch patches in place.
        assert_eq!(pipeline.stats().full_builds, 3);
        assert_eq!(pipeline.stats().patched, 1);
        assert_eq!(pipeline.stats().rebuilt_buffers, 1);
    }

    #[test]
    fn pipeline_recovers_after_an_error() {
        let g = ring_with_tokens(1);
        let q = g.repetition_vector().unwrap();
        let options = AnalysisOptions {
            limits: EventGraphLimits {
                max_nodes: 4,
                max_arcs: 100,
            },
            ..AnalysisOptions::default()
        };
        let mut pipeline = EvaluationPipeline::new(options);
        let unitary = PeriodicityVector::unitary(&g);
        pipeline.evaluate(&g, &q, &unitary, None).unwrap();
        let too_big = PeriodicityVector::from_entries(&g, vec![8, 8]).unwrap();
        assert!(pipeline.evaluate(&g, &q, &too_big, None).is_err());
        assert!(pipeline.arena().is_none());
        // The next evaluation rebuilds from scratch and succeeds again.
        let evaluation = pipeline.evaluate(&g, &q, &unitary, None).unwrap();
        assert!(matches!(
            evaluation.outcome,
            EvaluationOutcome::Feasible { .. }
        ));
        assert_eq!(pipeline.stats().full_builds, 2);
    }

    #[test]
    fn cyclo_static_phases_spread_the_work() {
        // A CSDF producer that alternates between bursts of 2 and 0 tokens.
        // Without self-loops nothing orders the phases of `x`, so no circuit
        // bounds the period; once the tasks are serialised the evaluation
        // produces a finite period.
        let mut b = CsdfGraphBuilder::new();
        let x = b.add_task("x", vec![1, 1]);
        let y = b.add_sdf_task("y", 1);
        b.add_buffer(x, y, vec![2, 0], vec![1], 0);
        b.add_buffer(y, x, vec![1], vec![0, 2], 2);
        let unserialized = b.build().unwrap();
        let evaluation = evaluate_unitary(&unserialized, &AnalysisOptions::default()).unwrap();
        assert_eq!(evaluation.outcome, EvaluationOutcome::Unconstrained);

        let serialized = csdf::transform::serialize_tasks(&unserialized).unwrap();
        let evaluation = evaluate_unitary(&serialized, &AnalysisOptions::default()).unwrap();
        assert!(matches!(
            evaluation.outcome,
            EvaluationOutcome::Feasible { .. }
        ));
    }
}
