//! The Cyclo-Static Dataflow Graph container type.

use std::fmt;

use crate::buffer::{Buffer, BufferId};
use crate::error::CsdfError;
use crate::repetition::RepetitionVector;
use crate::task::{Task, TaskId};

/// A Cyclo-Static Dataflow Graph `G = (T, B)`.
///
/// Tasks and buffers are stored densely and addressed by [`TaskId`] /
/// [`BufferId`], in flat arrays rather than one heap block per task or
/// buffer: every task name lives in one string and every phase duration in
/// one array, task after task; every buffer's production then consumption
/// rates live in one array, buffer after buffer, and each buffer keeps one
/// fixed-size record of endpoints, rate offsets and marking. [`Task`] and
/// [`Buffer`] are `Copy` views into that storage, and the names and rate
/// slices they hand out borrow the graph for its lifetime `'g`, not the
/// view. Cloning or dropping a graph is a handful of allocations or frees,
/// whatever its size.
///
/// The buffers incident to each task are one compressed (CSR) adjacency:
/// per task, its outgoing buffers then its incoming ones, each list in
/// buffer index order. [`RepetitionVector::compute`] and the lint
/// consistency walk visit [`CsdfGraph::incident`] in that order, and the
/// buffer an inconsistent graph is reported at depends on it. Graphs are
/// immutable once built, but for their markings
/// ([`CsdfGraph::set_initial_tokens`]); use
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
#[derive(Clone, PartialEq, Eq)]
pub struct CsdfGraph {
    name: String,
    tables: Tables,
    /// Incident buffers, task after task: outgoing, then incoming.
    adjacency: Vec<BufferId>,
    /// Task `t`'s outgoing buffers are `adjacency[start[2t]..start[2t + 1]]`
    /// and its incoming ones `adjacency[start[2t + 1]..start[2t + 2]]`.
    adjacency_start: Vec<usize>,
}

/// The flat task and buffer storage of a [`CsdfGraph`], which the builder
/// and the text parser fill before any validation. Only its own methods
/// touch the layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Tables {
    /// Every task name, task after task.
    names: String,
    /// Task `t`'s name is `names[name_start[t]..name_start[t + 1]]`.
    name_start: Vec<usize>,
    /// Every task's per-phase durations, task after task.
    durations: Vec<u64>,
    /// Task `t`'s durations are `durations[phase_start[t]..phase_start[t + 1]]`.
    phase_start: Vec<usize>,
    /// Every buffer's production then consumption rates, buffer after buffer.
    rates: Vec<u64>,
    buffers: Vec<BufferRecord>,
}

/// One buffer: its production rates are `rates[production..consumption]`
/// and its consumption rates `rates[consumption..end]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BufferRecord {
    source: TaskId,
    target: TaskId,
    production: usize,
    consumption: usize,
    end: usize,
    initial_tokens: u64,
}

impl Default for Tables {
    fn default() -> Self {
        Tables::with_capacity(0, 0)
    }
}

impl Tables {
    /// Empty tables with room for `tasks` tasks and `buffers` buffers, and
    /// for one phase per task and one rate per buffer side.
    pub(crate) fn with_capacity(tasks: usize, buffers: usize) -> Self {
        let mut name_start = Vec::with_capacity(tasks + 1);
        name_start.push(0);
        let mut phase_start = Vec::with_capacity(tasks + 1);
        phase_start.push(0);
        Tables {
            names: String::new(),
            name_start,
            durations: Vec::with_capacity(tasks),
            phase_start,
            rates: Vec::with_capacity(2 * buffers),
            buffers: Vec::with_capacity(buffers),
        }
    }

    pub(crate) fn task_count(&self) -> usize {
        self.name_start.len() - 1
    }

    pub(crate) fn buffer_count(&self) -> usize {
        self.buffers.len()
    }

    /// The phase count of task `index`, which must exist.
    pub(crate) fn phase_count(&self, index: usize) -> usize {
        self.phase_start[index + 1] - self.phase_start[index]
    }

    /// Task `index`, which must exist.
    pub(crate) fn task(&self, index: usize) -> Task<'_> {
        Task::new(
            &self.names[self.name_start[index]..self.name_start[index + 1]],
            &self.durations[self.phase_start[index]..self.phase_start[index + 1]],
        )
    }

    fn buffer(&self, record: &BufferRecord) -> Buffer<'_> {
        Buffer::new(
            record.source,
            record.target,
            &self.rates[record.production..record.consumption],
            &self.rates[record.consumption..record.end],
            record.initial_tokens,
        )
    }

    /// Adds a task.
    pub(crate) fn push_task(&mut self, name: &str, durations: &[u64]) -> TaskId {
        let id = TaskId(self.task_count());
        self.names.push_str(name);
        self.name_start.push(self.names.len());
        self.durations.extend_from_slice(durations);
        self.phase_start.push(self.durations.len());
        id
    }

    /// Adds a buffer.
    pub(crate) fn push_buffer(
        &mut self,
        source: TaskId,
        target: TaskId,
        production: &[u64],
        consumption: &[u64],
        initial_tokens: u64,
    ) -> BufferId {
        let id = BufferId(self.buffers.len());
        let start = self.rates.len();
        self.rates.extend_from_slice(production);
        self.rates.extend_from_slice(consumption);
        self.buffers.push(BufferRecord {
            source,
            target,
            production: start,
            consumption: start + production.len(),
            end: self.rates.len(),
            initial_tokens,
        });
        id
    }

    /// Replaces the endpoints of `buffer`, which must exist.
    pub(crate) fn set_endpoints(&mut self, buffer: BufferId, source: TaskId, target: TaskId) {
        let record = &mut self.buffers[buffer.index()];
        (record.source, record.target) = (source, target);
    }

    /// The buffer half of [`CsdfGraphBuilder::build`](crate::CsdfGraphBuilder::build)'s
    /// validation: the first buffer, in index order, with a dangling
    /// endpoint, a rate list whose length differs from its task's phase
    /// count, or a rate total past `u64` or at zero.
    pub(crate) fn check_buffers(&self) -> Result<(), CsdfError> {
        let task_count = self.task_count();
        for (index, record) in self.buffers.iter().enumerate() {
            for endpoint in [record.source, record.target] {
                if endpoint.index() >= task_count {
                    return Err(CsdfError::TaskIndexOutOfRange(endpoint.index()));
                }
            }
            let buffer = self.buffer(record);
            let sides = [
                (record.source.0, buffer.production()),
                (record.target.0, buffer.consumption()),
            ];
            for (task, rates) in sides {
                let phases = self.phase_count(task);
                if rates.len() != phases {
                    return Err(CsdfError::RateLengthMismatch {
                        task: self.task(task).name().to_string(),
                        phases,
                        rate_len: rates.len(),
                    });
                }
            }
            let buffer_ref = || {
                let name = |task: TaskId| self.task(task.0).name();
                crate::BufferRef::new(index, name(record.source), name(record.target))
            };
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

impl CsdfGraph {
    /// The graph of validated `tables`. Their growth slack stays: trimming
    /// it reallocates, and on a daemon parsing on several threads those
    /// reallocations left enough holes in the allocator's per-thread heaps
    /// to raise its peak memory by a tenth.
    pub(crate) fn from_parts(name: String, tables: Tables) -> Self {
        // A counting sort: buffers are placed in index order, so every list
        // keeps it.
        let mut adjacency_start = vec![0usize; 2 * tables.task_count() + 1];
        for buffer in &tables.buffers {
            adjacency_start[2 * buffer.source.index() + 1] += 1;
            adjacency_start[2 * buffer.target.index() + 2] += 1;
        }
        for row in 1..adjacency_start.len() {
            adjacency_start[row] += adjacency_start[row - 1];
        }
        let mut adjacency = vec![BufferId(0); 2 * tables.buffers.len()];
        let mut next = adjacency_start.clone();
        for (index, buffer) in tables.buffers.iter().enumerate() {
            for row in [2 * buffer.source.index(), 2 * buffer.target.index() + 1] {
                adjacency[next[row]] = BufferId(index);
                next[row] += 1;
            }
        }
        CsdfGraph {
            name,
            tables,
            adjacency,
            adjacency_start,
        }
    }

    /// The flat storage, for a builder that extends a copy of this graph.
    pub(crate) fn tables(&self) -> &Tables {
        &self.tables
    }

    /// Human-readable graph name (defaults to `"csdf"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of tasks `|T|`.
    pub fn task_count(&self) -> usize {
        self.tables.task_count()
    }

    /// Number of buffers `|B|`.
    pub fn buffer_count(&self) -> usize {
        self.tables.buffer_count()
    }

    /// The task addressed by `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    pub fn task(&self, id: TaskId) -> Task<'_> {
        self.tables.task(id.index())
    }

    /// The buffer addressed by `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    pub fn buffer(&self, id: BufferId) -> Buffer<'_> {
        self.tables.buffer(&self.tables.buffers[id.index()])
    }

    /// Fallible task lookup.
    pub fn try_task(&self, id: TaskId) -> Result<Task<'_>, CsdfError> {
        if id.index() < self.task_count() {
            Ok(self.tables.task(id.index()))
        } else {
            Err(CsdfError::TaskIndexOutOfRange(id.index()))
        }
    }

    /// Fallible buffer lookup.
    pub fn try_buffer(&self, id: BufferId) -> Result<Buffer<'_>, CsdfError> {
        self.tables
            .buffers
            .get(id.index())
            .map(|record| self.tables.buffer(record))
            .ok_or(CsdfError::BufferIndexOutOfRange(id.index()))
    }

    /// Iterator over all task ids in index order.
    pub fn task_ids(&self) -> impl Iterator<Item = TaskId> + '_ {
        (0..self.task_count()).map(TaskId)
    }

    /// Iterator over all buffer ids in index order.
    pub fn buffer_ids(&self) -> impl Iterator<Item = BufferId> + '_ {
        (0..self.buffer_count()).map(BufferId)
    }

    /// Iterator over `(TaskId, Task)` pairs in index order.
    pub fn tasks(&self) -> impl Iterator<Item = (TaskId, Task<'_>)> + '_ {
        (0..self.task_count()).map(|index| (TaskId(index), self.tables.task(index)))
    }

    /// Iterator over `(BufferId, Buffer)` pairs in index order.
    pub fn buffers(&self) -> impl Iterator<Item = (BufferId, Buffer<'_>)> + '_ {
        self.tables
            .buffers
            .iter()
            .enumerate()
            .map(|(index, record)| (BufferId(index), self.tables.buffer(record)))
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
        self.tasks()
            .find(|(_, task)| task.name() == name)
            .map(|(id, _)| id)
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
        // Every task has at least one phase.
        self.total_phase_count() == self.task_count()
    }

    /// Returns `true` when the graph is a Homogeneous SDF graph: every task has
    /// a single phase and every rate equals one.
    pub fn is_hsdf(&self) -> bool {
        // With one phase per task, each buffer has one rate per side.
        self.is_sdf() && self.tables.rates.iter().all(|&rate| rate == 1)
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
        let record = self
            .tables
            .buffers
            .get_mut(buffer.index())
            .ok_or(CsdfError::BufferIndexOutOfRange(buffer.index()))?;
        Ok(std::mem::replace(&mut record.initial_tokens, tokens))
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
        self.tables.durations.len()
    }

    /// Total number of initial tokens stored in the graph, which may exceed
    /// `u64` when several markings are near its limit.
    pub fn total_initial_tokens(&self) -> u128 {
        self.tables
            .buffers
            .iter()
            .map(|record| u128::from(record.initial_tokens))
            .sum()
    }
}

impl fmt::Debug for CsdfGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Tasks and buffers print as their views, not as the flat arrays: the
        // same output as when the graph held one value per task and buffer.
        let tasks: Vec<Task<'_>> = self.tasks().map(|(_, task)| task).collect();
        let buffers: Vec<Buffer<'_>> = self.buffers().map(|(_, buffer)| buffer).collect();
        f.debug_struct("CsdfGraph")
            .field("name", &self.name)
            .field("tasks", &tasks)
            .field("buffers", &buffers)
            .field("adjacency", &self.adjacency)
            .field("adjacency_start", &self.adjacency_start)
            .finish()
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
    fn total_initial_tokens_sums_past_u64() {
        // Two markings of 2^63 sum to 2^64, one past `u64::MAX`.
        let text = "task a durations=1\n\
                    buffer a -> a prod=1 cons=1 tokens=9223372036854775808\n\
                    buffer a -> a prod=1 cons=1 tokens=9223372036854775808\n";
        let g = crate::text::parse(text).unwrap();
        assert_eq!(g.total_initial_tokens(), 1u128 << 64);
        let mut b = CsdfGraphBuilder::new();
        let a = b.add_task("a", vec![1]);
        for _ in 0..3 {
            b.add_buffer(a, a, vec![1], vec![1], u64::MAX);
        }
        let g = b.build().unwrap();
        assert_eq!(g.total_initial_tokens(), 3 * u128::from(u64::MAX));
    }

    #[test]
    fn debug_lists_tasks_and_buffers_as_views() {
        let mut b = CsdfGraphBuilder::named("pipe");
        let a = b.add_task("a", vec![1, 2]);
        let c = b.add_sdf_task("c", 3);
        b.add_buffer(a, c, vec![1, 1], vec![2], 4);
        let g = b.build().unwrap();
        assert_eq!(
            format!("{g:?}"),
            "CsdfGraph { name: \"pipe\", \
             tasks: [Task { name: \"a\", durations: [1, 2] }, Task { name: \"c\", durations: [3] }], \
             buffers: [Buffer { source: TaskId(0), target: TaskId(1), production: [1, 1], \
             consumption: [2], initial_tokens: 4 }], \
             adjacency: [BufferId(0), BufferId(0)], adjacency_start: [0, 1, 1, 1, 2] }"
        );
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
