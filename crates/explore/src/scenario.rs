//! Scenario studies: many independent marking variants of one base graph.

use csdf::{BufferId, CsdfGraph};
use kperiodic::{AnalysisError, KIterResult};

use crate::runner::{machine_width, run_points};

/// One scenario: a named set of initial-marking overrides on the base graph
/// (buffers not listed keep the base marking).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scenario {
    /// Human-readable scenario name, carried into the outcome.
    pub name: String,
    /// `(buffer, initial tokens)` overrides applied before evaluation.
    pub markings: Vec<(BufferId, u64)>,
}

/// The evaluated outcome of one scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioOutcome {
    /// The scenario's name.
    pub name: String,
    /// The K-Iter result on the base graph with the scenario's overrides
    /// (bit-identical to a cold evaluation).
    pub result: KIterResult,
}

/// A set of marking scenarios over one base graph, evaluated on a scoped
/// worker pool — parallelism that pays off even when each event graph is
/// one big SCC, because the *scenarios* are independent.
///
/// Workers own one [`kperiodic::AnalysisSession`] each: between scenarios
/// only the buffers touched by the previous and the next scenario are
/// re-marked (and hence re-derived), everything else is reused.
///
/// # Examples
///
/// ```
/// use csdf::CsdfGraphBuilder;
/// use csdf_explore::ScenarioSet;
///
/// let mut builder = CsdfGraphBuilder::new();
/// let a = builder.add_sdf_task("a", 1);
/// let b = builder.add_sdf_task("b", 1);
/// builder.add_sdf_buffer(a, b, 1, 1, 0);
/// let feedback = builder.add_sdf_buffer(b, a, 1, 1, 1);
/// let graph = builder.build()?;
///
/// let mut scenarios = ScenarioSet::new(graph);
/// scenarios.add("tight", vec![(feedback, 1)]);
/// scenarios.add("relaxed", vec![(feedback, 4)]);
/// let outcomes = scenarios.run()?;
/// assert_eq!(outcomes.len(), 2);
/// assert!(outcomes[1].result.throughput > outcomes[0].result.throughput);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct ScenarioSet {
    base: CsdfGraph,
    base_markings: Vec<u64>,
    scenarios: Vec<Scenario>,
}

impl ScenarioSet {
    /// Creates an empty scenario set over `base`.
    pub fn new(base: CsdfGraph) -> Self {
        let base_markings = base.buffers().map(|(_, b)| b.initial_tokens()).collect();
        ScenarioSet {
            base,
            base_markings,
            scenarios: Vec::new(),
        }
    }

    /// The base graph scenarios override.
    pub fn base(&self) -> &CsdfGraph {
        &self.base
    }

    /// Adds a scenario.
    pub fn add(&mut self, name: impl Into<String>, markings: Vec<(BufferId, u64)>) -> &mut Self {
        self.scenarios.push(Scenario {
            name: name.into(),
            markings,
        });
        self
    }

    /// Number of scenarios.
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// Whether the set holds no scenarios.
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }

    /// The scenarios, in evaluation order.
    pub fn scenarios(&self) -> &[Scenario] {
        &self.scenarios
    }

    /// Evaluates every scenario on one worker per available core (at most
    /// one per scenario), returning outcomes in input order.
    ///
    /// # Errors
    ///
    /// The first evaluation error (unknown buffer id, solver failure,
    /// event-graph limits) aborts the run.
    pub fn run(&self) -> Result<Vec<ScenarioOutcome>, AnalysisError> {
        let (outcomes, _, _) = run_points(
            machine_width(),
            &self.base,
            self.scenarios.len(),
            |session, index| self.evaluate_scenario(session, index),
        )?;
        Ok(outcomes)
    }

    /// Evaluates every scenario on one caller-provided session — the
    /// single-worker path a service uses to drive a pooled
    /// [`kperiodic::AnalysisSession`] instead of building its own. Outcomes
    /// are bit-identical to [`ScenarioSet::run`].
    ///
    /// # Errors
    ///
    /// [`AnalysisError::ArenaGraphMismatch`] when `session` was built for a
    /// different structure than the base graph, otherwise the first
    /// evaluation error aborts the run.
    pub fn run_on_session(
        &self,
        session: &mut kperiodic::AnalysisSession,
    ) -> Result<Vec<ScenarioOutcome>, AnalysisError> {
        if session.structure_fingerprint() != kperiodic::structure_fingerprint(&self.base) {
            return Err(AnalysisError::ArenaGraphMismatch);
        }
        let mut outcomes = Vec::with_capacity(self.scenarios.len());
        for index in 0..self.scenarios.len() {
            outcomes.push(self.evaluate_scenario(session, index)?);
        }
        Ok(outcomes)
    }

    /// Evaluates scenario `index` on `session`: reset whatever the previous
    /// scenario on this session touched, then apply this scenario's
    /// overrides. The reset walks the session graph against the base
    /// markings, so it is exact whatever ran before.
    fn evaluate_scenario(
        &self,
        session: &mut kperiodic::AnalysisSession,
        index: usize,
    ) -> Result<ScenarioOutcome, AnalysisError> {
        let scenario = &self.scenarios[index];
        for (buffer_index, &base_tokens) in self.base_markings.iter().enumerate() {
            let buffer = BufferId::new(buffer_index);
            if session.graph().buffer(buffer).initial_tokens() != base_tokens {
                session.set_initial_tokens(buffer, base_tokens)?;
            }
        }
        for &(buffer, tokens) in &scenario.markings {
            session.set_initial_tokens(buffer, tokens)?;
        }
        let result = session.evaluate()?;
        Ok(ScenarioOutcome {
            name: scenario.name.clone(),
            result,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csdf::CsdfGraphBuilder;
    use kperiodic::KIterOptions;

    fn ring() -> (CsdfGraph, BufferId, BufferId) {
        let mut b = CsdfGraphBuilder::new();
        let x = b.add_sdf_task("x", 2);
        let y = b.add_sdf_task("y", 3);
        let forward = b.add_sdf_buffer(x, y, 1, 1, 0);
        let feedback = b.add_sdf_buffer(y, x, 1, 1, 1);
        (b.build().unwrap(), forward, feedback)
    }

    #[test]
    fn scenarios_match_cold_evaluations_in_input_order() {
        let (graph, forward, feedback) = ring();
        let mut set = ScenarioSet::new(graph.clone());
        set.add("base", vec![]);
        set.add("deadlock", vec![(feedback, 0)]);
        set.add("relaxed", vec![(forward, 2), (feedback, 3)]);
        set.add("base-again", vec![]);

        let outcomes = set.run().unwrap();
        assert_eq!(outcomes.len(), 4);
        assert_eq!(outcomes[0].name, "base");
        assert_eq!(outcomes[0].result, outcomes[3].result);
        for (index, scenario) in set.scenarios().iter().enumerate() {
            let mut cold = graph.clone();
            for &(buffer, tokens) in &scenario.markings {
                cold.set_initial_tokens(buffer, tokens).unwrap();
            }
            let reference = kperiodic::optimal_throughput(&cold).unwrap();
            assert_eq!(outcomes[index].result, reference, "scenario {index}");
        }
        // The serving path replays the same outcomes on one borrowed session.
        let mut session = kperiodic::AnalysisSession::new(graph, KIterOptions::default()).unwrap();
        assert_eq!(set.run_on_session(&mut session).unwrap(), outcomes);
    }

    #[test]
    fn unknown_buffers_abort() {
        let (graph, _, _) = ring();
        let mut set = ScenarioSet::new(graph);
        set.add("bogus", vec![(BufferId::new(99), 1)]);
        assert!(set.run().is_err());
    }
}
