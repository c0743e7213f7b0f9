//! Fallible construction of CSDF graphs.

use std::collections::HashSet;

use crate::buffer::{Buffer, BufferId};
use crate::error::CsdfError;
use crate::graph::CsdfGraph;
use crate::task::{Task, TaskId};

/// Builder for [`CsdfGraph`] values.
///
/// Tasks and buffers may be added in any order; all structural validation
/// (phase counts vs. rate vector lengths, duplicate names, dangling ids,
/// zero-rate buffers) happens in [`CsdfGraphBuilder::build`].
///
/// # Examples
///
/// ```
/// use csdf::CsdfGraphBuilder;
///
/// let mut builder = CsdfGraphBuilder::named("figure1");
/// let t = builder.add_task("t", vec![1, 1, 1]);
/// let t_prime = builder.add_task("t'", vec![1, 1]);
/// builder.add_buffer(t, t_prime, vec![2, 3, 1], vec![2, 5], 0);
/// let graph = builder.build()?;
/// assert_eq!(graph.buffer_count(), 1);
/// # Ok::<(), csdf::CsdfError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct CsdfGraphBuilder {
    name: String,
    tasks: Vec<Task>,
    /// Validated by `build`, then moved into the graph as they are.
    buffers: Vec<Buffer>,
}

impl CsdfGraphBuilder {
    /// Creates an empty builder with the default graph name `"csdf"`.
    pub fn new() -> Self {
        Self::named("csdf")
    }

    /// Creates an empty builder with an explicit graph name.
    pub fn named(name: impl Into<String>) -> Self {
        CsdfGraphBuilder {
            name: name.into(),
            tasks: Vec::new(),
            buffers: Vec::new(),
        }
    }

    /// Adds a cyclo-static task with one duration per phase and returns its id.
    pub fn add_task(&mut self, name: impl Into<String>, durations: Vec<u64>) -> TaskId {
        let id = TaskId(self.tasks.len());
        // An empty duration vector is diagnosed in `build`; store a marker
        // phase so `Task::new` does not panic here.
        let durations = if durations.is_empty() {
            vec![u64::MAX]
        } else {
            durations
        };
        self.tasks.push(Task::new(name, durations));
        id
    }

    /// Adds an SDF task (single phase) with the given duration.
    pub fn add_sdf_task(&mut self, name: impl Into<String>, duration: u64) -> TaskId {
        self.add_task(name, vec![duration])
    }

    /// Adds a buffer from `source` to `target` and returns its id.
    ///
    /// `production` must have one entry per phase of `source` and
    /// `consumption` one entry per phase of `target`; this is validated in
    /// [`CsdfGraphBuilder::build`].
    pub fn add_buffer(
        &mut self,
        source: TaskId,
        target: TaskId,
        production: Vec<u64>,
        consumption: Vec<u64>,
        initial_tokens: u64,
    ) -> BufferId {
        let id = BufferId(self.buffers.len());
        self.buffers.push(Buffer::unvalidated(
            source,
            target,
            production,
            consumption,
            initial_tokens,
        ));
        id
    }

    /// Renames the graph being built: the text parser learns the name a
    /// graph keeps only at its first task line.
    pub(crate) fn set_name(&mut self, name: &str) {
        name.clone_into(&mut self.name);
    }

    /// Points an added buffer at other tasks: the text parser adds a buffer
    /// that names a task not declared yet, and resolves it after the last
    /// line.
    pub(crate) fn set_buffer_endpoints(
        &mut self,
        buffer: BufferId,
        source: TaskId,
        target: TaskId,
    ) {
        self.buffers[buffer.index()].set_endpoints(source, target);
    }

    /// Adds an SDF buffer (scalar rates) from `source` to `target`.
    pub fn add_sdf_buffer(
        &mut self,
        source: TaskId,
        target: TaskId,
        production: u64,
        consumption: u64,
        initial_tokens: u64,
    ) -> BufferId {
        self.add_buffer(
            source,
            target,
            vec![production],
            vec![consumption],
            initial_tokens,
        )
    }

    /// Adds a self-loop buffer around `task` carrying one token, which
    /// serialises the executions of the task (disables auto-concurrency).
    ///
    /// The production and consumption vectors are all-ones over the phases of
    /// the task so that each phase must wait for the completion of the
    /// previous one across iterations.
    pub fn add_serializing_self_loop(&mut self, task: TaskId) -> BufferId {
        let phases = self
            .tasks
            .get(task.index())
            .map_or(1, super::task::Task::phase_count);
        self.add_buffer(task, task, vec![1; phases], vec![1; phases], 1)
    }

    /// Number of tasks added so far.
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Number of buffers added so far.
    pub fn buffer_count(&self) -> usize {
        self.buffers.len()
    }

    /// Validates the accumulated tasks and buffers and produces the graph.
    ///
    /// # Errors
    ///
    /// * [`CsdfError::EmptyGraph`] if no task was added.
    /// * [`CsdfError::DuplicateTaskName`] if two tasks share a name.
    /// * [`CsdfError::EmptyPhases`] if a task was declared without phases.
    /// * [`CsdfError::UnknownTask`] if a buffer references a missing task.
    /// * [`CsdfError::RateLengthMismatch`] if a rate vector length differs from
    ///   the task's phase count.
    /// * [`CsdfError::ZeroRateBuffer`] if a buffer never produces or never
    ///   consumes any token.
    /// * [`CsdfError::RateOverflow`] if a buffer's production or consumption
    ///   over a full iteration exceeds `u64`.
    pub fn build(self) -> Result<CsdfGraph, CsdfError> {
        self.check_tasks()?;
        for (index, buffer) in self.buffers.iter().enumerate() {
            let source = self
                .tasks
                .get(buffer.source().index())
                .ok_or(CsdfError::TaskIndexOutOfRange(buffer.source().index()))?;
            let target = self
                .tasks
                .get(buffer.target().index())
                .ok_or(CsdfError::TaskIndexOutOfRange(buffer.target().index()))?;
            if buffer.production().len() != source.phase_count() {
                return Err(CsdfError::RateLengthMismatch {
                    task: source.name().to_string(),
                    phases: source.phase_count(),
                    rate_len: buffer.production().len(),
                });
            }
            if buffer.consumption().len() != target.phase_count() {
                return Err(CsdfError::RateLengthMismatch {
                    task: target.name().to_string(),
                    phases: target.phase_count(),
                    rate_len: buffer.consumption().len(),
                });
            }
            let buffer_ref = || crate::BufferRef::new(index, source.name(), target.name());
            let (Some(produced), Some(consumed)) =
                (total(buffer.production()), total(buffer.consumption()))
            else {
                return Err(CsdfError::RateOverflow {
                    buffer: buffer_ref(),
                });
            };
            if produced == 0 || consumed == 0 {
                return Err(CsdfError::ZeroRateBuffer {
                    buffer: buffer_ref(),
                });
            }
        }
        let mut buffers = self.buffers;
        // Drops the growth slack, in place: the graph keeps its buffers.
        buffers.shrink_to_fit();
        Ok(CsdfGraph::from_parts(self.name, self.tasks, buffers))
    }

    /// The task half of [`CsdfGraphBuilder::build`]'s validation: the first
    /// empty-phase or duplicate-name error in declaration order. The text
    /// parser also calls it to rank task errors above unresolved buffer
    /// endpoints.
    pub(crate) fn check_tasks(&self) -> Result<(), CsdfError> {
        if self.tasks.is_empty() {
            return Err(CsdfError::EmptyGraph);
        }
        let mut names = HashSet::with_capacity(self.tasks.len());
        for task in &self.tasks {
            if task.durations() == [u64::MAX] {
                return Err(CsdfError::EmptyPhases(task.name().to_string()));
            }
            if !names.insert(task.name()) {
                return Err(CsdfError::DuplicateTaskName(task.name().to_string()));
            }
        }
        Ok(())
    }
}

/// The sum of a rate list, or `None` past `u64`: a built graph's
/// [`Buffer::total_production`] and [`Buffer::total_consumption`] never wrap.
fn total(rates: &[u64]) -> Option<u64> {
    rates
        .iter()
        .try_fold(0u64, |sum, &rate| sum.checked_add(rate))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_a_valid_graph() {
        let mut b = CsdfGraphBuilder::new();
        let x = b.add_sdf_task("x", 1);
        let y = b.add_task("y", vec![1, 2]);
        b.add_buffer(x, y, vec![3], vec![1, 2], 0);
        b.add_serializing_self_loop(y);
        let g = b.build().unwrap();
        assert_eq!(g.task_count(), 2);
        assert_eq!(g.buffer_count(), 2);
        assert!(g.buffer(crate::BufferId::new(1)).is_self_loop());
    }

    #[test]
    fn empty_graph_is_rejected() {
        assert_eq!(CsdfGraphBuilder::new().build(), Err(CsdfError::EmptyGraph));
    }

    #[test]
    fn duplicate_names_are_rejected() {
        let mut b = CsdfGraphBuilder::new();
        b.add_sdf_task("a", 1);
        b.add_sdf_task("a", 1);
        assert!(matches!(
            b.build(),
            Err(CsdfError::DuplicateTaskName(name)) if name == "a"
        ));
    }

    #[test]
    fn empty_phase_task_is_rejected() {
        let mut b = CsdfGraphBuilder::new();
        b.add_task("a", vec![]);
        assert!(matches!(b.build(), Err(CsdfError::EmptyPhases(_))));
    }

    #[test]
    fn rate_length_mismatch_is_rejected() {
        let mut b = CsdfGraphBuilder::new();
        let x = b.add_task("x", vec![1, 1]);
        let y = b.add_sdf_task("y", 1);
        b.add_buffer(x, y, vec![1], vec![1], 0);
        assert!(matches!(
            b.build(),
            Err(CsdfError::RateLengthMismatch { task, phases: 2, rate_len: 1 }) if task == "x"
        ));
    }

    #[test]
    fn zero_rate_buffer_is_rejected() {
        let mut b = CsdfGraphBuilder::new();
        let x = b.add_sdf_task("x", 1);
        let y = b.add_sdf_task("y", 1);
        b.add_sdf_buffer(x, y, 0, 1, 0);
        assert_eq!(
            b.build(),
            Err(CsdfError::ZeroRateBuffer {
                buffer: crate::BufferRef::new(0, "x", "y"),
            })
        );
    }

    #[test]
    fn rate_totals_past_u64_are_rejected() {
        let mut b = CsdfGraphBuilder::new();
        let x = b.add_task("x", vec![1, 1]);
        let y = b.add_sdf_task("y", 1);
        b.add_buffer(x, y, vec![u64::MAX, 2], vec![1], 0);
        assert_eq!(
            b.build(),
            Err(CsdfError::RateOverflow {
                buffer: crate::BufferRef::new(0, "x", "y"),
            })
        );
        // An overflow ranks above a zero total on the other side.
        let mut b = CsdfGraphBuilder::new();
        let x = b.add_sdf_task("x", 1);
        let y = b.add_task("y", vec![1, 1]);
        b.add_buffer(x, y, vec![0], vec![u64::MAX, 1], 0);
        assert!(matches!(b.build(), Err(CsdfError::RateOverflow { .. })));
        // The largest total that fits is accepted.
        let mut b = CsdfGraphBuilder::new();
        let x = b.add_task("x", vec![1, 1]);
        let y = b.add_sdf_task("y", 1);
        b.add_buffer(x, y, vec![u64::MAX - 1, 1], vec![1], 0);
        assert!(b.build().is_ok());
    }

    #[test]
    fn dangling_task_reference_is_rejected() {
        let mut b = CsdfGraphBuilder::new();
        let x = b.add_sdf_task("x", 1);
        b.add_sdf_buffer(x, TaskId::new(9), 1, 1, 0);
        assert!(matches!(b.build(), Err(CsdfError::TaskIndexOutOfRange(9))));
    }
}
