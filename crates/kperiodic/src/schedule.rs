//! Extraction and validation of explicit K-periodic schedules.
//!
//! Once the minimum period `Ω*_{G̃}` is known, explicit starting times for the
//! first `K_t` executions of every task are obtained by a longest-path
//! computation over the event graph with arc weights `L(e) − Ω·H(e)` (all
//! circuits have non-positive weight at the optimum, so the longest walks are
//! finite). The remaining executions repeat with the per-task period
//! `µ_t = Ω_G · K_t / q_t`.

use csdf::{CsdfGraph, Rational, RepetitionVector, TaskId};

use crate::analysis::{AnalysisOptions, EvaluationOutcome, EvaluationPipeline};
use crate::arena::EventGraphArena;
use crate::error::AnalysisError;
use crate::periodicity::PeriodicityVector;

/// An explicit K-periodic schedule: starting times for the first `K_t`
/// executions of every phase of every task, plus the per-task periods.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KPeriodicSchedule {
    periodicity: PeriodicityVector,
    period: Rational,
    task_periods: Vec<Rational>,
    phase_counts: Vec<usize>,
    starts: Vec<Vec<Rational>>,
    durations: Vec<Vec<u64>>,
}

impl KPeriodicSchedule {
    /// Computes a minimum-period K-periodic schedule of `graph` for the given
    /// periodicity vector.
    ///
    /// Returns `None` when no K-periodic schedule exists for this vector
    /// (infeasible) or when nothing constrains the period (unbounded
    /// throughput; there is no well-defined minimum period to schedule at).
    ///
    /// # Errors
    ///
    /// Propagates the errors of the fixed-K evaluation.
    pub fn compute(
        graph: &CsdfGraph,
        periodicity: &PeriodicityVector,
        options: &AnalysisOptions,
    ) -> Result<Option<Self>, AnalysisError> {
        let repetition = graph.repetition_vector()?;
        let mut pipeline = EvaluationPipeline::new(*options);
        let evaluation = pipeline.evaluate(graph, &repetition, periodicity, None)?;
        let EvaluationOutcome::Feasible { period, .. } = evaluation.outcome else {
            return Ok(None);
        };

        let Some(event_graph) = pipeline.arena() else {
            unreachable!("a successful evaluation keeps its arena");
        };
        // The event graph stores lcm-free times, so the matching period for
        // the longest-path weights is the *normalised* one (Ω·H is invariant
        // under the common rescaling).
        let starts_flat = longest_path_starts(event_graph, period)?;

        let mut starts = Vec::with_capacity(graph.task_count());
        let mut durations = Vec::with_capacity(graph.task_count());
        let mut task_periods = Vec::with_capacity(graph.task_count());
        let mut phase_counts = Vec::with_capacity(graph.task_count());
        for (task_id, task) in graph.tasks() {
            let count = event_graph.phase_count_of(task_id);
            let mut task_starts = Vec::with_capacity(count);
            let mut task_durations = Vec::with_capacity(count);
            for phase in 0..count {
                let node = event_graph.node_of(task_id, phase);
                task_starts.push(starts_flat[node.index()]);
                task_durations.push(task.duration(phase % task.phase_count()));
            }
            // µ_t = Ω_G · K_t / q_t
            let mu = period
                .checked_mul(&Rational::from_integer(periodicity.get(task_id) as i128))?
                .checked_div(&Rational::from_integer(repetition.get(task_id) as i128))?;
            task_periods.push(mu);
            phase_counts.push(task.phase_count());
            starts.push(task_starts);
            durations.push(task_durations);
        }

        Ok(Some(KPeriodicSchedule {
            periodicity: periodicity.clone(),
            period,
            task_periods,
            phase_counts,
            starts,
            durations,
        }))
    }

    /// The normalised period `Ω_G` of the schedule.
    pub fn period(&self) -> Rational {
        self.period
    }

    /// The periodicity vector the schedule was built for.
    pub fn periodicity(&self) -> &PeriodicityVector {
        &self.periodicity
    }

    /// The per-task period `µ_t`.
    pub fn task_period(&self, task: TaskId) -> Rational {
        self.task_periods[task.index()]
    }

    /// Starting time of `⟨t_{phase+1}, n⟩`: execution number `n` (1-based) of
    /// the 0-based `phase` of `task`.
    ///
    /// # Panics
    ///
    /// Panics if `task`/`phase` is out of range or `n` is zero.
    pub fn start(&self, task: TaskId, phase: usize, n: u64) -> Rational {
        assert!(n >= 1, "executions are numbered from 1");
        assert!(
            phase < self.phase_counts[task.index()],
            "phase index out of range"
        );
        self.start_inner(task, phase, n)
    }

    /// Duration of the 0-based `phase` of `task`.
    pub fn duration(&self, task: TaskId, phase: usize) -> u64 {
        self.durations[task.index()][phase % self.phase_counts[task.index()]]
    }

    /// Verifies that the schedule keeps every buffer of `graph` non-negative
    /// over `iterations` graph iterations by replaying all read and write
    /// events in time order (completions before starts at equal instants, as
    /// in the paper's feasibility definition).
    pub fn validate(&self, graph: &CsdfGraph, iterations: u64) -> bool {
        let Ok(repetition) = graph.repetition_vector() else {
            return false;
        };
        validate_events(self, graph, &repetition, iterations)
    }

    /// Renders a small ASCII Gantt chart of the first `horizon` time units,
    /// mirroring the paper's Figures 3 and 4.
    pub fn ascii_gantt(&self, graph: &CsdfGraph, horizon: u64) -> String {
        let mut out = String::new();
        for (task_id, task) in graph.tasks() {
            let mut line = vec![b'.'; horizon as usize];
            let k = self.periodicity.get(task_id);
            let phases = task.phase_count();
            let mut n = 1u64;
            'outer: loop {
                for phase in 0..phases {
                    let start = self.start_inner(task_id, phase, n);
                    let duration =
                        self.durations[task_id.index()][((n - 1) % k) as usize * phases + phase];
                    let begin = start.to_f64().round() as i64;
                    if begin >= horizon as i64 {
                        if phase == 0 {
                            break 'outer;
                        }
                        continue;
                    }
                    let label = phase_label(phase);
                    for offset in 0..duration.max(1) {
                        let column = begin + offset as i64;
                        if (0..horizon as i64).contains(&column) {
                            line[column as usize] = label;
                        }
                    }
                }
                n += 1;
                if n > 10_000 {
                    break;
                }
            }
            out.push_str(&format!(
                "{:>8} |{}\n",
                task.name(),
                String::from_utf8_lossy(&line)
            ));
        }
        out
    }

    fn start_inner(&self, task: TaskId, phase: usize, n: u64) -> Rational {
        let phases = self.phase_counts[task.index()];
        let k = self.periodicity.get(task);
        let alpha = (n - 1) / k;
        let beta = (n - 1) % k;
        let base = self.starts[task.index()][beta as usize * phases + phase];
        let mu = self.task_periods[task.index()];
        let offset = mu
            .checked_mul(&Rational::from_integer(alpha as i128))
            .expect("schedule offsets stay within i128");
        base.checked_add(&offset)
            .expect("schedule offsets stay within i128")
    }
}

fn phase_label(phase: usize) -> u8 {
    const LABELS: &[u8] = b"123456789abcdefghijklmnopqrstuvwxyz";
    LABELS[phase % LABELS.len()]
}

/// Longest-path starting times over the event graph at period `omega`.
fn longest_path_starts(
    event_graph: &EventGraphArena,
    omega: Rational,
) -> Result<Vec<Rational>, AnalysisError> {
    let ratio = event_graph.ratio_graph();
    let n = ratio.node_count();
    let mut distance = vec![Rational::ZERO; n];
    // Weights w(e) = L(e) − Ω·H(e); at the minimum period no circuit has
    // positive weight, so n−1 relaxation rounds converge.
    let mut weights = Vec::with_capacity(ratio.arc_count());
    for (_, arc) in ratio.arcs() {
        let weight = arc.cost().checked_sub(&omega.checked_mul(&arc.time())?)?;
        weights.push((arc.from().index(), arc.to().index(), weight));
    }
    for _ in 0..n {
        let mut improved = false;
        for &(from, to, weight) in &weights {
            let candidate = distance[from].checked_add(&weight)?;
            if candidate > distance[to] {
                distance[to] = candidate;
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }
    Ok(distance)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum EventKind {
    // Completions (writes) are replayed before starts (reads) at equal times.
    Write,
    Read,
}

fn validate_events(
    schedule: &KPeriodicSchedule,
    graph: &CsdfGraph,
    repetition: &RepetitionVector,
    iterations: u64,
) -> bool {
    // (time, kind, buffer, amount)
    let mut events: Vec<(Rational, EventKind, usize, i128)> = Vec::new();
    for (task_id, task) in graph.tasks() {
        let executions = repetition.get(task_id) * iterations;
        for n in 1..=executions {
            for phase in 0..task.phase_count() {
                let start = schedule.start_inner(task_id, phase, n);
                let Ok(end) =
                    start.checked_add(&Rational::from_integer(task.duration(phase) as i128))
                else {
                    return false;
                };
                for &buffer_id in graph.incoming(task_id) {
                    let buffer = graph.buffer(buffer_id);
                    let amount = buffer.consumption_at(phase) as i128;
                    if amount > 0 {
                        events.push((start, EventKind::Read, buffer_id.index(), amount));
                    }
                }
                for &buffer_id in graph.outgoing(task_id) {
                    let buffer = graph.buffer(buffer_id);
                    let amount = buffer.production_at(phase) as i128;
                    if amount > 0 {
                        events.push((end, EventKind::Write, buffer_id.index(), amount));
                    }
                }
            }
        }
    }
    events.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut levels: Vec<i128> = graph
        .buffers()
        .map(|(_, b)| b.initial_tokens() as i128)
        .collect();
    for (_, kind, buffer, amount) in events {
        match kind {
            EventKind::Write => levels[buffer] += amount,
            EventKind::Read => {
                levels[buffer] -= amount;
                if levels[buffer] < 0 {
                    return false;
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kiter::optimal_throughput;
    use csdf::CsdfGraphBuilder;

    fn ring() -> CsdfGraph {
        let mut b = CsdfGraphBuilder::new();
        let x = b.add_sdf_task("x", 1);
        let y = b.add_sdf_task("y", 2);
        b.add_sdf_buffer(x, y, 1, 1, 0);
        b.add_sdf_buffer(y, x, 1, 1, 1);
        b.build().unwrap()
    }

    #[test]
    fn schedule_matches_the_evaluated_period() {
        let g = ring();
        let k = PeriodicityVector::unitary(&g);
        let schedule = KPeriodicSchedule::compute(&g, &k, &AnalysisOptions::default())
            .unwrap()
            .expect("feasible");
        assert_eq!(schedule.period(), Rational::from_integer(3));
        assert_eq!(
            schedule.task_period(TaskId::new(0)),
            Rational::from_integer(3)
        );
        assert!(schedule.periodicity().is_unitary());
    }

    #[test]
    fn starts_respect_precedence() {
        let g = ring();
        let k = PeriodicityVector::unitary(&g);
        let schedule = KPeriodicSchedule::compute(&g, &k, &AnalysisOptions::default())
            .unwrap()
            .unwrap();
        let x = TaskId::new(0);
        let y = TaskId::new(1);
        // y's n-th execution reads the token produced by x's n-th execution.
        for n in 1..=5 {
            let x_end = schedule
                .start_inner(x, 0, n)
                .checked_add(&Rational::from_integer(1))
                .unwrap();
            assert!(schedule.start_inner(y, 0, n) >= x_end);
        }
        assert_eq!(schedule.duration(y, 0), 2);
    }

    #[test]
    fn schedule_validates_against_buffer_levels() {
        let g = ring();
        let k = PeriodicityVector::unitary(&g);
        let schedule = KPeriodicSchedule::compute(&g, &k, &AnalysisOptions::default())
            .unwrap()
            .unwrap();
        assert!(schedule.validate(&g, 8));
    }

    #[test]
    fn optimal_periodicity_schedules_validate_too() {
        let mut b = CsdfGraphBuilder::new();
        let x = b.add_sdf_task("x", 2);
        let y = b.add_sdf_task("y", 1);
        b.add_sdf_buffer(x, y, 2, 1, 0);
        b.add_sdf_buffer(y, x, 1, 2, 4);
        b.add_serializing_self_loop(x);
        b.add_serializing_self_loop(y);
        let g = b.build().unwrap();
        let result = optimal_throughput(&g).unwrap();
        let schedule =
            KPeriodicSchedule::compute(&g, &result.periodicity, &AnalysisOptions::default())
                .unwrap()
                .unwrap();
        assert_eq!(Some(schedule.period()), result.period());
        assert!(schedule.validate(&g, 6));
    }

    #[test]
    fn infeasible_vectors_produce_no_schedule() {
        let mut b = CsdfGraphBuilder::new();
        let x = b.add_sdf_task("x", 1);
        let y = b.add_sdf_task("y", 1);
        b.add_sdf_buffer(x, y, 1, 1, 0);
        b.add_sdf_buffer(y, x, 1, 1, 0);
        let g = b.build().unwrap();
        let k = PeriodicityVector::unitary(&g);
        assert_eq!(
            KPeriodicSchedule::compute(&g, &k, &AnalysisOptions::default()).unwrap(),
            None
        );
    }

    #[test]
    fn gantt_contains_task_names() {
        let g = ring();
        let k = PeriodicityVector::unitary(&g);
        let schedule = KPeriodicSchedule::compute(&g, &k, &AnalysisOptions::default())
            .unwrap()
            .unwrap();
        let gantt = schedule.ascii_gantt(&g, 12);
        assert!(gantt.contains('x'));
        assert!(gantt.contains('y'));
        assert!(gantt.lines().count() >= 2);
    }
}
