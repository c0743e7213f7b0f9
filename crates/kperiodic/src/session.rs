//! Long-lived analysis sessions: K-Iter over a graph that mutates in place.
//!
//! Design-space exploration — buffer sizing, marking sweeps, scenario
//! studies — evaluates the *same* graph structure over and over with
//! different token counts. A one-shot [`optimal_throughput`] rebuilds the
//! event-graph arena, the MCR solver scratch and the repetition vector for
//! every point, throwing the incremental machinery away between calls. An
//! [`AnalysisSession`] instead owns the graph and a single
//! [`EvaluationPipeline`] for its whole lifetime: capacity and marking
//! mutations are applied *in place* ([`AnalysisSession::set_capacity`] /
//! [`AnalysisSession::set_initial_tokens`]), and the next
//! [`AnalysisSession::evaluate`] re-derives only the mutated buffers'
//! Theorem-2 arcs (token counts enter the arc weights β, never the
//! event-graph structure) while reusing every block, arc cache, allocation
//! and solver scratch buffer.
//!
//! Each `evaluate` restarts the periodicity vector from unitary, as
//! Algorithm 1 does, so its result — throughput, K, iteration count,
//! critical tasks — is **bit-identical** to a cold [`optimal_throughput`]
//! on a copy of the mutated graph (property-tested in `tests/session.rs`);
//! only the work to get there shrinks.
//!
//! [`optimal_throughput`]: crate::optimal_throughput

use csdf::{BufferId, CsdfGraph, RepetitionVector};

use crate::analysis::{EvaluationPipeline, PipelineStats};
use crate::arena::graph_fingerprint;
use crate::error::AnalysisError;
use crate::kiter::{kiter_with_repetition, KIterOptions, KIterResult};

/// A long-lived throughput-analysis session over one mutable CSDF graph.
///
/// See the [module docs](self) for the contract. The session is the unit of
/// work the `explore` crate's sweep runners hand to each worker thread.
///
/// # Examples
///
/// ```
/// use csdf::CsdfGraphBuilder;
/// use kperiodic::{AnalysisSession, KIterOptions};
///
/// let mut builder = CsdfGraphBuilder::new();
/// let ping = builder.add_sdf_task("ping", 1);
/// let pong = builder.add_sdf_task("pong", 1);
/// builder.add_sdf_buffer(ping, pong, 1, 1, 0);
/// let feedback = builder.add_sdf_buffer(pong, ping, 1, 1, 1);
/// let graph = builder.build()?;
///
/// let mut session = AnalysisSession::new(graph, KIterOptions::default())?;
/// let one_token = session.evaluate()?.throughput;
/// session.set_initial_tokens(feedback, 2)?;
/// let two_tokens = session.evaluate()?.throughput;
/// assert!(two_tokens > one_token);
/// assert_eq!(session.stats().full_builds, 1); // the second run patched
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct AnalysisSession {
    graph: CsdfGraph,
    /// Structure fingerprint of `graph`, computed once: the session only
    /// mutates markings, which the fingerprint excludes.
    fingerprint: u64,
    repetition: RepetitionVector,
    options: KIterOptions,
    pipeline: EvaluationPipeline,
    solves: usize,
}

impl AnalysisSession {
    /// Creates a session owning `graph`. The repetition vector is computed
    /// once here — marking mutations can never change it, since it depends
    /// only on the rates.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::Model`] when the graph is inconsistent or its
    /// repetition vector overflows.
    pub fn new(graph: CsdfGraph, options: KIterOptions) -> Result<Self, AnalysisError> {
        let fingerprint = graph_fingerprint(&graph);
        Self::with_fingerprint(graph, fingerprint, options)
    }

    /// [`AnalysisSession::new`] with the structure fingerprint of `graph`
    /// already computed ([`graph_fingerprint`]).
    pub(crate) fn with_fingerprint(
        graph: CsdfGraph,
        fingerprint: u64,
        options: KIterOptions,
    ) -> Result<Self, AnalysisError> {
        let repetition = graph.repetition_vector()?;
        Ok(AnalysisSession {
            fingerprint,
            repetition,
            pipeline: EvaluationPipeline::new(options.analysis),
            graph,
            options,
            solves: 0,
        })
    }

    /// The graph in its current (possibly mutated) state.
    pub fn graph(&self) -> &CsdfGraph {
        &self.graph
    }

    /// The repetition vector (computed once at session creation).
    pub fn repetition(&self) -> &RepetitionVector {
        &self.repetition
    }

    /// The structure fingerprint of the session's graph (see
    /// [`structure_fingerprint`](crate::structure_fingerprint)). Marking
    /// mutations never change it, so it is stable for the whole session
    /// lifetime — the key a [`SessionPool`](crate::SessionPool) files this
    /// session under.
    pub fn structure_fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Re-targets the session at `graph`'s initial markings: every buffer
    /// whose marking differs is mutated in place, so the next evaluation
    /// re-derives exactly those buffers' constraint arcs and reuses
    /// everything else. Returns the number of buffers re-marked.
    ///
    /// `graph` must be *structurally* identical to the session's graph (same
    /// tasks, durations, buffer endpoints and rates — the
    /// [`AnalysisSession::structure_fingerprint`] contract); this is how a
    /// [`SessionPool`](crate::SessionPool) lands a client's graph on a warm
    /// arena.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::ArenaGraphMismatch`] when `graph` differs
    /// structurally from the session's graph (the session is unchanged).
    pub fn adopt_markings(&mut self, graph: &CsdfGraph) -> Result<usize, AnalysisError> {
        self.adopt_markings_keyed(graph, graph_fingerprint(graph))
    }

    /// [`AnalysisSession::adopt_markings`] with the structure fingerprint of
    /// `graph` already computed ([`graph_fingerprint`]).
    pub(crate) fn adopt_markings_keyed(
        &mut self,
        graph: &CsdfGraph,
        fingerprint: u64,
    ) -> Result<usize, AnalysisError> {
        if self.graph.task_count() != graph.task_count()
            || self.graph.buffer_count() != graph.buffer_count()
            || self.fingerprint != fingerprint
        {
            return Err(AnalysisError::ArenaGraphMismatch);
        }
        let mut adopted = 0usize;
        for (buffer, target) in graph.buffers() {
            if self.graph.buffer(buffer).initial_tokens() != target.initial_tokens() {
                self.set_initial_tokens(buffer, target.initial_tokens())?;
                adopted += 1;
            }
        }
        Ok(adopted)
    }

    /// The options every evaluation runs with.
    pub fn options(&self) -> &KIterOptions {
        &self.options
    }

    /// Cumulative pipeline statistics over all evaluations of this session —
    /// the construction/solve split sweeps report.
    pub fn stats(&self) -> &PipelineStats {
        self.pipeline.stats()
    }

    /// Number of completed [`AnalysisSession::evaluate`] calls.
    pub fn solves(&self) -> usize {
        self.solves
    }

    /// Installs a cancellation token on the session's pipeline (see
    /// [`EvaluationPipeline::set_cancel_token`]): subsequent evaluations bail
    /// out with
    /// [`AnalysisError::DeadlineExceeded`](crate::AnalysisError::DeadlineExceeded)
    /// once the token cancels or its deadline passes. The session stays
    /// usable afterwards; pass [`mcr::CancelToken::default`] to detach.
    pub fn set_cancel_token(&mut self, token: mcr::CancelToken) {
        self.pipeline.set_cancel_token(token);
    }

    /// Replaces the initial marking of one buffer in place, returning the
    /// previous value. The next evaluation re-derives only this buffer's
    /// constraint arcs.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::Model`] for an unknown buffer id.
    pub fn set_initial_tokens(
        &mut self,
        buffer: BufferId,
        tokens: u64,
    ) -> Result<u64, AnalysisError> {
        Ok(self.graph.set_initial_tokens(buffer, tokens)?)
    }

    /// Re-sizes a bounded buffer in place, returning the previous capacity.
    /// `reverse` must be the back-pressure buffer modelling `forward`'s
    /// capacity (the pairing recorded by
    /// [`csdf::transform::bound_buffers_tracked`]); the mutation reduces to
    /// a marking change on the reverse buffer, so the next evaluation
    /// re-derives only that buffer's constraint arcs.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::Model`] for unknown ids, a non-mirroring pair, or a
    /// capacity below the forward buffer's marking.
    pub fn set_capacity(
        &mut self,
        forward: BufferId,
        reverse: BufferId,
        capacity: u64,
    ) -> Result<u64, AnalysisError> {
        Ok(self.graph.set_capacity(forward, reverse, capacity)?)
    }

    /// Evaluates the maximum throughput of the graph in its current state.
    ///
    /// The result is bit-identical — same throughput, periodicity vector,
    /// iteration count and critical tasks — to
    /// [`optimal_throughput`](crate::optimal_throughput) on a copy of the
    /// current graph, while the event-graph arena and solver scratch carry
    /// over from previous evaluations.
    ///
    /// # Errors
    ///
    /// Same as [`optimal_throughput`](crate::optimal_throughput). After an
    /// error the session stays usable; the next evaluation rebuilds the
    /// arena from scratch.
    pub fn evaluate(&mut self) -> Result<KIterResult, AnalysisError> {
        let result = kiter_with_repetition(
            &self.graph,
            self.fingerprint,
            &self.repetition,
            &self.options,
            &mut self.pipeline,
        )?;
        self.solves += 1;
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::AnalysisOptions;
    use crate::kiter::kiter_with_options;
    use csdf::transform::bound_all_buffers_tracked;
    use csdf::{CsdfGraphBuilder, Throughput};

    /// A multirate ring, `q = [1, 2]`: its full expansion is small, so
    /// K-Iter starts it at `K = q`.
    fn multirate_ring(tokens: u64) -> (CsdfGraph, BufferId) {
        let mut b = CsdfGraphBuilder::new();
        let x = b.add_sdf_task("x", 2);
        let y = b.add_sdf_task("y", 1);
        b.add_sdf_buffer(x, y, 2, 1, 0);
        let feedback = b.add_sdf_buffer(y, x, 1, 2, tokens);
        b.add_serializing_self_loop(x);
        b.add_serializing_self_loop(y);
        (b.build().unwrap(), feedback)
    }

    #[test]
    fn session_matches_cold_evaluations_across_mutations() {
        let (graph, feedback) = multirate_ring(3);
        let mut session = AnalysisSession::new(graph.clone(), KIterOptions::default()).unwrap();
        // Both directions, including a deadlocking marking.
        for tokens in [4u64, 8, 1, 0, 3] {
            session.set_initial_tokens(feedback, tokens).unwrap();
            let from_session = session.evaluate().unwrap();
            let mut cold_graph = graph.clone();
            cold_graph.set_initial_tokens(feedback, tokens).unwrap();
            let cold = kiter_with_options(&cold_graph, &KIterOptions::default()).unwrap();
            assert_eq!(from_session, cold, "tokens = {tokens}");
        }
        assert_eq!(
            session.stats().full_builds,
            1,
            "only the first evaluation builds"
        );
        assert_eq!(session.solves(), 5);
    }

    #[test]
    fn capacity_mutations_drive_a_bounded_design() {
        let (graph, _) = multirate_ring(4);
        let bounded = bound_all_buffers_tracked(&graph, |_, b| {
            2 * (b.total_production() + b.total_consumption())
        })
        .unwrap();
        let pairs: Vec<_> = bounded.bounded_pairs().collect();
        assert!(!pairs.is_empty());
        let mut session =
            AnalysisSession::new(bounded.graph().clone(), KIterOptions::default()).unwrap();

        let mut previous = Throughput::Deadlocked;
        for slack in [1u64, 2, 4] {
            for &(forward, reverse) in &pairs {
                let buffer = session.graph().buffer(forward);
                let capacity = slack * (buffer.total_production() + buffer.total_consumption());
                session
                    .set_capacity(forward, reverse, capacity.max(buffer.initial_tokens()))
                    .unwrap();
            }
            let result = session.evaluate().unwrap();
            assert!(
                result.throughput >= previous,
                "throughput must be monotone in capacity"
            );
            previous = result.throughput;
        }
        // Everything after the first build was an in-place patch.
        assert_eq!(session.stats().full_builds, 1);
        assert_eq!(session.stats().patched + 1, session.stats().evaluations);
    }

    /// Two multirate rings sharing `y`, `q = [1, 8, 64]`: the full expansion
    /// (73 nodes) exceeds 4× the unitary graph's 3, so K-Iter starts at
    /// `K = 1` and needs three iterations. Returns the graph and the `z → y`
    /// feedback buffer.
    fn ring_chain() -> (CsdfGraph, BufferId) {
        let mut b = CsdfGraphBuilder::new();
        let x = b.add_sdf_task("x", 8);
        let y = b.add_sdf_task("y", 1);
        let z = b.add_sdf_task("z", 1);
        b.add_sdf_buffer(x, y, 8, 1, 0);
        b.add_sdf_buffer(y, x, 1, 8, 8);
        b.add_sdf_buffer(y, z, 8, 1, 0);
        let feedback = b.add_sdf_buffer(z, y, 1, 8, 8);
        for task in [x, y, z] {
            b.add_serializing_self_loop(task);
        }
        (b.build().unwrap(), feedback)
    }

    #[test]
    fn sessions_survive_evaluation_errors() {
        let (graph, feedback) = ring_chain();
        let options = KIterOptions {
            analysis: AnalysisOptions {
                max_iterations: 1,
                ..AnalysisOptions::default()
            },
            ..KIterOptions::default()
        };
        let unlimited = kiter_with_options(&graph, &KIterOptions::default()).unwrap();
        assert_eq!(unlimited.iterations, 3);
        let mut session = AnalysisSession::new(graph.clone(), options).unwrap();
        // One iteration is not enough for the ring chain.
        assert!(matches!(
            session.evaluate(),
            Err(AnalysisError::IterationLimitReached { iterations: 1 })
        ));
        // Relax the marking and the session keeps working.
        session.set_initial_tokens(feedback, 512).unwrap();
        let mut relaxed = graph.clone();
        relaxed.set_initial_tokens(feedback, 512).unwrap();
        match session.evaluate() {
            Ok(result) => {
                assert_eq!(
                    result,
                    kiter_with_options(&relaxed, session.options()).unwrap()
                );
            }
            Err(AnalysisError::IterationLimitReached { .. }) => {}
            Err(other) => panic!("unexpected {other:?}"),
        }
    }
}
