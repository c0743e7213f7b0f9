//! The Cyclo-Static Dataflow Graph container type.

use std::fmt;

use crate::buffer::{Buffer, BufferId};
use crate::error::CsdfError;
use crate::repetition::RepetitionVector;
use crate::task::{Task, TaskId};

/// A Cyclo-Static Dataflow Graph `G = (T, B)`.
///
/// Tasks and buffers are stored densely and addressed by [`TaskId`] /
/// [`BufferId`]. The buffers incident to each task are one compressed
/// (CSR) adjacency: per task, its outgoing buffers then its incoming ones,
/// each list in buffer index order. [`RepetitionVector::compute`] and the
/// lint consistency walk visit [`CsdfGraph::incident`] in that order, and
/// the buffer an inconsistent graph is reported at depends on it. Graphs
/// are immutable once built; use
/// [`CsdfGraphBuilder`](crate::CsdfGraphBuilder) to construct one and the
/// transformation functions in [`crate::transform`] to derive new graphs.
///
/// # Examples
///
/// ```
/// use csdf::CsdfGraphBuilder;
///
/// let mut builder = CsdfGraphBuilder::new();
/// let producer = builder.add_task("producer", vec![1]);
/// let consumer = builder.add_task("consumer", vec![1]);
/// builder.add_buffer(producer, consumer, vec![2], vec![1], 0);
/// let graph = builder.build()?;
/// assert_eq!(graph.task_count(), 2);
/// assert_eq!(graph.repetition_vector()?.get(producer), 1);
/// assert_eq!(graph.repetition_vector()?.get(consumer), 2);
/// # Ok::<(), csdf::CsdfError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsdfGraph {
    name: String,
    tasks: Vec<Task>,
    buffers: Vec<Buffer>,
    /// Incident buffers, task after task: outgoing, then incoming.
    adjacency: Vec<BufferId>,
    /// Task `t`'s outgoing buffers are `adjacency[start[2t]..start[2t + 1]]`
    /// and its incoming ones `adjacency[start[2t + 1]..start[2t + 2]]`.
    adjacency_start: Vec<usize>,
}

impl CsdfGraph {
    pub(crate) fn from_parts(name: String, tasks: Vec<Task>, buffers: Vec<Buffer>) -> Self {
        // A counting sort: buffers are placed in index order, so every list
        // keeps it.
        let mut adjacency_start = vec![0usize; 2 * tasks.len() + 1];
        for buffer in &buffers {
            adjacency_start[2 * buffer.source().index() + 1] += 1;
            adjacency_start[2 * buffer.target().index() + 2] += 1;
        }
        for row in 1..adjacency_start.len() {
            adjacency_start[row] += adjacency_start[row - 1];
        }
        let mut adjacency = vec![BufferId(0); 2 * buffers.len()];
        let mut next = adjacency_start.clone();
        for (index, buffer) in buffers.iter().enumerate() {
            for row in [2 * buffer.source().index(), 2 * buffer.target().index() + 1] {
                adjacency[next[row]] = BufferId(index);
                next[row] += 1;
            }
        }
        CsdfGraph {
            name,
            tasks,
            buffers,
            adjacency,
            adjacency_start,
        }
    }

    /// Human-readable graph name (defaults to `"csdf"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of tasks `|T|`.
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Number of buffers `|B|`.
    pub fn buffer_count(&self) -> usize {
        self.buffers.len()
    }

    /// The task addressed by `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    pub fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id.index()]
    }

    /// The buffer addressed by `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    pub fn buffer(&self, id: BufferId) -> &Buffer {
        &self.buffers[id.index()]
    }

    /// Fallible task lookup.
    pub fn try_task(&self, id: TaskId) -> Result<&Task, CsdfError> {
        self.tasks
            .get(id.index())
            .ok_or(CsdfError::TaskIndexOutOfRange(id.index()))
    }

    /// Fallible buffer lookup.
    pub fn try_buffer(&self, id: BufferId) -> Result<&Buffer, CsdfError> {
        self.buffers
            .get(id.index())
            .ok_or(CsdfError::BufferIndexOutOfRange(id.index()))
    }

    /// Iterator over all task ids in index order.
    pub fn task_ids(&self) -> impl Iterator<Item = TaskId> + '_ {
        (0..self.tasks.len()).map(TaskId)
    }

    /// Iterator over all buffer ids in index order.
    pub fn buffer_ids(&self) -> impl Iterator<Item = BufferId> + '_ {
        (0..self.buffers.len()).map(BufferId)
    }

    /// Iterator over `(TaskId, &Task)` pairs.
    pub fn tasks(&self) -> impl Iterator<Item = (TaskId, &Task)> + '_ {
        self.tasks.iter().enumerate().map(|(i, t)| (TaskId(i), t))
    }

    /// Iterator over `(BufferId, &Buffer)` pairs.
    pub fn buffers(&self) -> impl Iterator<Item = (BufferId, &Buffer)> + '_ {
        self.buffers
            .iter()
            .enumerate()
            .map(|(i, b)| (BufferId(i), b))
    }

    /// Buffers produced by `task`, in index order.
    pub fn outgoing(&self, task: TaskId) -> &[BufferId] {
        self.adjacency_rows(2 * task.index(), 1)
    }

    /// Buffers consumed by `task`, in index order.
    pub fn incoming(&self, task: TaskId) -> &[BufferId] {
        self.adjacency_rows(2 * task.index() + 1, 1)
    }

    /// Buffers incident to `task`: [`CsdfGraph::outgoing`] followed by
    /// [`CsdfGraph::incoming`] (a self-loop appears in both).
    pub fn incident(&self, task: TaskId) -> &[BufferId] {
        self.adjacency_rows(2 * task.index(), 2)
    }

    fn adjacency_rows(&self, first: usize, rows: usize) -> &[BufferId] {
        &self.adjacency[self.adjacency_start[first]..self.adjacency_start[first + rows]]
    }

    /// Finds a task by name.
    pub fn find_task(&self, name: &str) -> Option<TaskId> {
        self.tasks.iter().position(|t| t.name() == name).map(TaskId)
    }

    /// A [`BufferRef`](crate::BufferRef) — index plus endpoint task names —
    /// for error messages and diagnostics about `buffer`.
    ///
    /// # Panics
    ///
    /// Panics if `buffer` does not belong to this graph.
    pub fn buffer_ref(&self, buffer: BufferId) -> crate::BufferRef {
        let b = self.buffer(buffer);
        crate::BufferRef::new(
            buffer.index(),
            self.task(b.source()).name(),
            self.task(b.target()).name(),
        )
    }

    /// Returns `true` when every task has a single phase (the graph is an
    /// ordinary Synchronous Dataflow Graph).
    pub fn is_sdf(&self) -> bool {
        self.tasks.iter().all(Task::is_sdf)
    }

    /// Returns `true` when the graph is a Homogeneous SDF graph: every task has
    /// a single phase and every rate equals one.
    pub fn is_hsdf(&self) -> bool {
        self.is_sdf()
            && self
                .buffers
                .iter()
                .all(|b| b.total_production() == 1 && b.total_consumption() == 1)
    }

    /// Replaces the initial marking `M0(b)` of one buffer in place, returning
    /// the previous value.
    ///
    /// This is the mutation primitive of design-space exploration: a marking
    /// change never alters the graph's *structure* (tasks, phases, rates,
    /// endpoints), so consumers that cache structure-derived data — the
    /// repetition vector, or the `kperiodic` event-graph arena — only have to
    /// re-derive what actually depends on the mutated buffer's token count.
    ///
    /// # Errors
    ///
    /// Returns [`CsdfError::BufferIndexOutOfRange`] when `buffer` does not
    /// belong to this graph.
    pub fn set_initial_tokens(&mut self, buffer: BufferId, tokens: u64) -> Result<u64, CsdfError> {
        let buffer = self
            .buffers
            .get_mut(buffer.index())
            .ok_or(CsdfError::BufferIndexOutOfRange(buffer.index()))?;
        let previous = buffer.initial_tokens();
        buffer.set_initial_tokens(tokens);
        Ok(previous)
    }

    /// Sets the capacity of a bounded buffer in place, returning the previous
    /// capacity.
    ///
    /// `reverse` must be the back-pressure buffer modelling `forward`'s
    /// capacity (endpoints swapped, rates mirrored — the shape produced by
    /// [`crate::transform::bound_buffers`]). The capacity `C` is realised as
    /// `C − M0(forward)` initial tokens of free space on the reverse buffer,
    /// so this reduces to a marking mutation and inherits its
    /// cheap-invalidation property.
    ///
    /// The validation is *structural*: the graph itself does not remember
    /// which reverse buffer was created for which forward buffer, so if two
    /// identical parallel channels are both bounded, either reverse buffer
    /// mirrors either forward buffer and a crossed pair cannot be detected
    /// here. The authoritative pairing is the one recorded by
    /// [`crate::transform::bound_buffers_tracked`]
    /// ([`BoundedGraph::reverse_of`](crate::transform::BoundedGraph::reverse_of));
    /// always take `reverse` from it.
    ///
    /// # Errors
    ///
    /// * [`CsdfError::BufferIndexOutOfRange`] for an unknown buffer id;
    /// * [`CsdfError::NotAReverseBuffer`] when `reverse` does not mirror
    ///   `forward` (mutating it would silently corrupt the model);
    /// * [`CsdfError::CapacityBelowMarking`] when `capacity` cannot hold the
    ///   forward buffer's initial tokens.
    pub fn set_capacity(
        &mut self,
        forward: BufferId,
        reverse: BufferId,
        capacity: u64,
    ) -> Result<u64, CsdfError> {
        let forward_buffer = self.try_buffer(forward)?;
        let reverse_buffer = self.try_buffer(reverse)?;
        if forward == reverse || !reverse_buffer.is_reverse_of(forward_buffer) {
            return Err(CsdfError::NotAReverseBuffer {
                forward: self.buffer_ref(forward),
                reverse: self.buffer_ref(reverse),
            });
        }
        let marking = forward_buffer.initial_tokens();
        if capacity < marking {
            return Err(CsdfError::CapacityBelowMarking {
                buffer: self.buffer_ref(forward),
                capacity,
                marking,
            });
        }
        let previous_slack = self.set_initial_tokens(reverse, capacity - marking)?;
        Ok(marking + previous_slack)
    }

    /// Computes the (smallest, component-wise) repetition vector of the graph.
    ///
    /// # Errors
    ///
    /// Returns [`CsdfError::Inconsistent`] when the balance equations have no
    /// solution and [`CsdfError::Overflow`] when the entries do not fit in
    /// `u64`.
    pub fn repetition_vector(&self) -> Result<RepetitionVector, CsdfError> {
        RepetitionVector::compute(self)
    }

    /// Returns `true` when the graph is consistent (a repetition vector
    /// exists).
    pub fn is_consistent(&self) -> bool {
        self.repetition_vector().is_ok()
    }

    /// Sum of all phase counts, i.e. the number of nodes of the 1-periodic
    /// event graph.
    pub fn total_phase_count(&self) -> usize {
        self.tasks.iter().map(Task::phase_count).sum()
    }

    /// Total number of initial tokens stored in the graph.
    pub fn total_initial_tokens(&self) -> u64 {
        self.buffers.iter().map(Buffer::initial_tokens).sum()
    }
}

impl fmt::Display for CsdfGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} ({} tasks, {} buffers)",
            self.name,
            self.task_count(),
            self.buffer_count()
        )?;
        for (id, task) in self.tasks() {
            writeln!(f, "  {id}: {task}")?;
        }
        for (id, buffer) in self.buffers() {
            writeln!(f, "  {id}: {buffer}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::CsdfGraphBuilder;

    #[test]
    fn adjacency_lists_are_built() {
        let mut b = CsdfGraphBuilder::named("pipe");
        let a = b.add_task("a", vec![1]);
        let c = b.add_task("c", vec![1, 1]);
        let d = b.add_task("d", vec![1]);
        b.add_buffer(a, c, vec![2], vec![1, 1], 0);
        b.add_buffer(c, d, vec![1, 1], vec![2], 0);
        b.add_buffer(d, a, vec![1], vec![1], 2);
        let g = b.build().unwrap();

        assert_eq!(g.name(), "pipe");
        assert_eq!(g.outgoing(a).len(), 1);
        assert_eq!(g.incoming(a).len(), 1);
        assert_eq!(g.outgoing(c).len(), 1);
        assert_eq!(g.incoming(c).len(), 1);
        assert_eq!(g.find_task("d"), Some(d));
        assert_eq!(g.find_task("zzz"), None);
        assert_eq!(g.total_phase_count(), 4);
        assert_eq!(g.total_initial_tokens(), 2);
        assert!(!g.is_sdf());
        assert!(!g.is_hsdf());
        assert!(g.is_consistent());
    }

    #[test]
    fn hsdf_detection() {
        let mut b = CsdfGraphBuilder::new();
        let a = b.add_task("a", vec![1]);
        let c = b.add_task("c", vec![1]);
        b.add_buffer(a, c, vec![1], vec![1], 0);
        b.add_buffer(c, a, vec![1], vec![1], 1);
        let g = b.build().unwrap();
        assert!(g.is_sdf());
        assert!(g.is_hsdf());
    }

    #[test]
    fn out_of_range_lookups_are_errors() {
        let mut b = CsdfGraphBuilder::new();
        b.add_task("a", vec![1]);
        let g = b.build().unwrap();
        assert!(g.try_task(crate::TaskId::new(5)).is_err());
        assert!(g.try_buffer(crate::BufferId::new(0)).is_err());
        assert!(g.try_task(crate::TaskId::new(0)).is_ok());
    }

    #[test]
    fn marking_mutation_is_in_place_and_structure_preserving() {
        let mut b = CsdfGraphBuilder::new();
        let a = b.add_task("a", vec![1, 2]);
        let c = b.add_sdf_task("c", 1);
        let chan = b.add_buffer(a, c, vec![1, 2], vec![3], 4);
        let mut g = b.build().unwrap();
        let q_before = g.repetition_vector().unwrap();

        assert_eq!(g.set_initial_tokens(chan, 9).unwrap(), 4);
        assert_eq!(g.buffer(chan).initial_tokens(), 9);
        assert_eq!(g.total_initial_tokens(), 9);
        // Marking mutations never change the repetition vector.
        assert_eq!(
            g.repetition_vector().unwrap().as_slice(),
            q_before.as_slice()
        );
        assert!(matches!(
            g.set_initial_tokens(crate::BufferId::new(7), 1),
            Err(crate::CsdfError::BufferIndexOutOfRange(7))
        ));
    }

    #[test]
    fn display_contains_all_elements() {
        let mut b = CsdfGraphBuilder::named("demo");
        let a = b.add_task("alpha", vec![1]);
        let c = b.add_task("beta", vec![1]);
        b.add_buffer(a, c, vec![1], vec![1], 3);
        let g = b.build().unwrap();
        let text = g.to_string();
        assert!(text.contains("demo"));
        assert!(text.contains("alpha"));
        assert!(text.contains("beta"));
    }
}
