//! Fallible construction of CSDF graphs.

use std::collections::HashSet;

use crate::buffer::BufferId;
use crate::error::CsdfError;
use crate::graph::{CsdfGraph, Tables};
use crate::task::TaskId;

/// Builder for [`CsdfGraph`] values.
///
/// Tasks and buffers may be added in any order; all structural validation
/// (phase counts vs. rate vector lengths, duplicate names, dangling ids,
/// zero-rate buffers) happens in [`CsdfGraphBuilder::build`]. The builder
/// appends to the same flat arrays the graph keeps, so `build` moves them
/// into the graph instead of copying task by task.
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
    tables: Tables,
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
            tables: Tables::default(),
        }
    }

    /// A builder named `name` that starts with every task and buffer of
    /// `graph`, for transforms that add buffers to a copy of a graph.
    pub(crate) fn extending(graph: &CsdfGraph, name: String) -> Self {
        CsdfGraphBuilder {
            name,
            tables: graph.tables().clone(),
        }
    }

    /// Adds a cyclo-static task with one duration per phase and returns its id.
    // The owned vectors of `add_task` and `add_buffer` are their public
    // signatures; the values are copied into the graph's flat arrays.
    #[allow(clippy::needless_pass_by_value)]
    pub fn add_task(&mut self, name: impl Into<String>, durations: Vec<u64>) -> TaskId {
        // An empty duration vector is diagnosed in `build`, which finds this
        // marker phase in its place.
        let durations = if durations.is_empty() {
            &[u64::MAX][..]
        } else {
            &durations
        };
        self.tables.push_task(&name.into(), durations)
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
    #[allow(clippy::needless_pass_by_value)]
    pub fn add_buffer(
        &mut self,
        source: TaskId,
        target: TaskId,
        production: Vec<u64>,
        consumption: Vec<u64>,
        initial_tokens: u64,
    ) -> BufferId {
        self.tables
            .push_buffer(source, target, &production, &consumption, initial_tokens)
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
        let phases = if task.index() < self.tables.task_count() {
            self.tables.phase_count(task.index())
        } else {
            1
        };
        self.add_buffer(task, task, vec![1; phases], vec![1; phases], 1)
    }

    /// Number of tasks added so far.
    pub fn task_count(&self) -> usize {
        self.tables.task_count()
    }

    /// Number of buffers added so far.
    pub fn buffer_count(&self) -> usize {
        self.tables.buffer_count()
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
        self.tables.check_buffers()?;
        Ok(CsdfGraph::from_parts(self.name, self.tables))
    }

    /// The task half of [`CsdfGraphBuilder::build`]'s validation: the first
    /// empty-phase or duplicate-name error in declaration order.
    fn check_tasks(&self) -> Result<(), CsdfError> {
        let count = self.tables.task_count();
        if count == 0 {
            return Err(CsdfError::EmptyGraph);
        }
        let mut names = HashSet::with_capacity(count);
        for index in 0..count {
            let task = self.tables.task(index);
            let duplicate = !names.insert(task.name());
            if let Some(error) = task_error(task.name(), task.durations(), duplicate) {
                return Err(error);
            }
        }
        Ok(())
    }
}

/// The error [`CsdfGraphBuilder::build`] reports at a task with these name
/// and durations, if any: a task without phases (the builder's marker
/// duration `u64::MAX`) ranks above a `duplicate` name.
pub(crate) fn task_error(name: &str, durations: &[u64], duplicate: bool) -> Option<CsdfError> {
    if durations == [u64::MAX] {
        Some(CsdfError::EmptyPhases(name.to_string()))
    } else if duplicate {
        Some(CsdfError::DuplicateTaskName(name.to_string()))
    } else {
        None
    }
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
