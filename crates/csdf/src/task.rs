//! Tasks (actors) of a cyclo-static dataflow graph.

use std::fmt;

/// Index of a task within a [`crate::CsdfGraph`].
///
/// Task ids are dense indices assigned in insertion order by the
/// [`crate::CsdfGraphBuilder`]; they are only meaningful relative to the graph
/// that produced them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub(crate) usize);

impl TaskId {
    /// Creates a task id from a raw index.
    ///
    /// Mostly useful in tests and generators; analyses obtain ids from the
    /// graph itself.
    pub fn new(index: usize) -> Self {
        TaskId(index)
    }

    /// The raw dense index of this task.
    pub fn index(&self) -> usize {
        self.0
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// A cyclo-static task: a name and one execution duration per phase.
///
/// A task with `p` phases executes its phases `1..=p` in order; one *iteration*
/// of the task is one pass over all phases. A Synchronous Dataflow (SDF) actor
/// is the special case `p == 1`.
///
/// A `Task` is a `Copy` view into its [`crate::CsdfGraph`], which keeps every
/// task name in one string and every duration in one array; the `'g` slices
/// the accessors return borrow the graph, not the view.
///
/// # Examples
///
/// ```
/// use csdf::CsdfGraphBuilder;
///
/// let mut builder = CsdfGraphBuilder::new();
/// let id = builder.add_task("filter", vec![2, 1, 1]);
/// let graph = builder.build()?;
/// let t = graph.task(id);
/// assert_eq!(t.name(), "filter");
/// assert_eq!(t.phase_count(), 3);
/// assert_eq!(t.duration(2), 1);
/// assert_eq!(t.total_duration(), 4);
/// # Ok::<(), csdf::CsdfError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Task<'g> {
    name: &'g str,
    durations: &'g [u64],
}

impl<'g> Task<'g> {
    /// The view of a task stored as `name` and `durations`.
    pub(crate) fn new(name: &'g str, durations: &'g [u64]) -> Self {
        Task { name, durations }
    }

    /// The task name.
    pub fn name(self) -> &'g str {
        self.name
    }

    /// Number of phases `ϕ(t)`.
    pub fn phase_count(self) -> usize {
        self.durations.len()
    }

    /// Duration of the phase with 0-based index `phase`.
    ///
    /// # Panics
    ///
    /// Panics if `phase >= self.phase_count()`.
    pub fn duration(self, phase: usize) -> u64 {
        self.durations[phase]
    }

    /// All per-phase durations in phase order.
    pub fn durations(self) -> &'g [u64] {
        self.durations
    }

    /// Sum of the durations of all phases (the length of one iteration when
    /// executed back to back).
    pub fn total_duration(self) -> u64 {
        self.durations.iter().sum()
    }

    /// Returns `true` when the task has a single phase (an SDF actor).
    pub fn is_sdf(self) -> bool {
        self.durations.len() == 1
    }
}

impl fmt::Display for Task<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} d={:?}", self.name, self.durations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_exposes_phase_information() {
        let t = Task::new("a", &[1, 2, 3]);
        assert_eq!(t.name(), "a");
        assert_eq!(t.phase_count(), 3);
        assert_eq!(t.durations(), &[1, 2, 3]);
        assert_eq!(t.duration(0), 1);
        assert_eq!(t.total_duration(), 6);
        assert!(!t.is_sdf());
        assert_eq!(t.to_string(), "a d=[1, 2, 3]");
    }

    #[test]
    fn single_phase_task_is_sdf() {
        let t = Task::new("a", &[5]);
        assert!(t.is_sdf());
        assert_eq!(t.total_duration(), 5);
    }

    #[test]
    fn task_id_roundtrip() {
        let id = TaskId::new(4);
        assert_eq!(id.index(), 4);
        assert_eq!(id.to_string(), "t4");
    }
}
