//! Modelling of bounded buffer capacities.
//!
//! A buffer of capacity `C` is modelled, as usual in dataflow analysis, by a
//! reverse buffer from the consumer back to the producer: the producer must
//! acquire `in_b(p)` units of free space before writing and the consumer
//! releases `out_b(p')` units after reading. The reverse buffer initially
//! holds `C − M0(b)` tokens of free space. Throughput evaluation of the
//! bounded graph is then throughput evaluation of the enlarged unbounded
//! graph, which is exactly how the paper's Table 2 "fixed buffer size" rows
//! double the buffer count of every application.

use crate::buffer::BufferId;
use crate::builder::CsdfGraphBuilder;
use crate::error::CsdfError;
use crate::graph::CsdfGraph;

/// A capacity assignment for one buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BufferCapacity {
    /// The buffer being bounded.
    pub buffer: BufferId,
    /// Maximum number of tokens the buffer may hold at any time.
    pub capacity: u64,
}

/// A bounded graph together with the forward → reverse buffer pairing the
/// bounding introduced, as produced by [`bound_buffers_tracked`].
///
/// The pairing is what makes capacities *mutable in place*: a capacity `C`
/// for forward buffer `b` is realised as `C − M0(b)` initial tokens on its
/// reverse buffer, so re-sizing a buffer is a marking mutation
/// ([`CsdfGraph::set_capacity`]) instead of a graph rebuild — the entry point
/// of the `kperiodic` analysis-session / `explore` design-space machinery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundedGraph {
    graph: CsdfGraph,
    /// Reverse buffer id per original buffer id (`None` for self-loops and
    /// buffers left unbounded).
    reverse_of: Vec<Option<BufferId>>,
}

impl BoundedGraph {
    /// The bounded graph (original buffers first, reverse buffers appended in
    /// the order the capacities were listed).
    pub fn graph(&self) -> &CsdfGraph {
        &self.graph
    }

    /// Mutable access to the bounded graph, e.g. to re-size capacities via
    /// [`CsdfGraph::set_capacity`] with the pairing from
    /// [`BoundedGraph::reverse_of`].
    pub fn graph_mut(&mut self) -> &mut CsdfGraph {
        &mut self.graph
    }

    /// Consumes the wrapper and returns the bounded graph.
    pub fn into_graph(self) -> CsdfGraph {
        self.graph
    }

    /// The reverse (back-pressure) buffer modelling `buffer`'s capacity, when
    /// the buffer was bounded.
    pub fn reverse_of(&self, buffer: BufferId) -> Option<BufferId> {
        self.reverse_of.get(buffer.index()).copied().flatten()
    }

    /// Iterator over all `(forward, reverse)` buffer pairs, in forward-buffer
    /// order.
    pub fn bounded_pairs(&self) -> impl Iterator<Item = (BufferId, BufferId)> + '_ {
        self.reverse_of
            .iter()
            .enumerate()
            .filter_map(|(index, reverse)| reverse.map(|reverse| (BufferId::new(index), reverse)))
    }

    /// The current capacity of a bounded buffer: its initial tokens plus the
    /// free space on its reverse buffer. `None` for unbounded buffers.
    pub fn capacity_of(&self, buffer: BufferId) -> Option<u64> {
        let reverse = self.reverse_of(buffer)?;
        Some(
            self.graph.buffer(buffer).initial_tokens()
                + self.graph.buffer(reverse).initial_tokens(),
        )
    }

    /// Sum of the capacities of all bounded buffers — the storage axis of a
    /// throughput/storage trade-off.
    pub fn total_storage(&self) -> u64 {
        self.bounded_pairs()
            .map(|(forward, reverse)| {
                self.graph.buffer(forward).initial_tokens()
                    + self.graph.buffer(reverse).initial_tokens()
            })
            .sum()
    }
}

/// Returns a graph in which the listed buffers are bounded to the given
/// capacities; unlisted buffers stay unbounded.
///
/// Self-loop buffers are never bounded (a reverse self-loop would be
/// meaningless) and requesting a capacity for one is ignored.
///
/// Listing the same buffer twice is rejected: each entry adds one reverse
/// buffer, so duplicates would silently over-constrain the graph (two
/// back-pressure channels for one buffer) and change its throughput.
///
/// # Errors
///
/// * [`CsdfError::BufferIndexOutOfRange`] if a capacity references a missing
///   buffer.
/// * [`CsdfError::CapacityBelowMarking`] if a capacity is smaller than the
///   buffer's initial marking.
/// * [`CsdfError::DuplicateBufferCapacity`] if the same buffer appears in
///   more than one [`BufferCapacity`] entry.
///
/// # Examples
///
/// ```
/// use csdf::{CsdfGraphBuilder, transform::{bound_buffers, BufferCapacity}};
///
/// let mut builder = CsdfGraphBuilder::new();
/// let a = builder.add_sdf_task("a", 1);
/// let b = builder.add_sdf_task("b", 1);
/// let channel = builder.add_sdf_buffer(a, b, 1, 1, 0);
/// let graph = builder.build()?;
/// let bounded = bound_buffers(&graph, &[BufferCapacity { buffer: channel, capacity: 2 }])?;
/// assert_eq!(bounded.buffer_count(), 2);
/// # Ok::<(), csdf::CsdfError>(())
/// ```
pub fn bound_buffers(
    graph: &CsdfGraph,
    capacities: &[BufferCapacity],
) -> Result<CsdfGraph, CsdfError> {
    bound_buffers_tracked(graph, capacities).map(BoundedGraph::into_graph)
}

/// Same as [`bound_buffers`], but also records which reverse buffer models
/// each capacity so capacities can later be re-sized in place with
/// [`CsdfGraph::set_capacity`].
///
/// # Errors
///
/// Same as [`bound_buffers`].
///
/// # Examples
///
/// ```
/// use csdf::{CsdfGraphBuilder, transform::{bound_buffers_tracked, BufferCapacity}};
///
/// let mut builder = CsdfGraphBuilder::new();
/// let a = builder.add_sdf_task("a", 1);
/// let b = builder.add_sdf_task("b", 1);
/// let channel = builder.add_sdf_buffer(a, b, 1, 1, 0);
/// let graph = builder.build()?;
/// let mut bounded =
///     bound_buffers_tracked(&graph, &[BufferCapacity { buffer: channel, capacity: 2 }])?;
/// let reverse = bounded.reverse_of(channel).expect("tracked");
/// bounded.graph_mut().set_capacity(channel, reverse, 5)?;
/// assert_eq!(bounded.capacity_of(channel), Some(5));
/// # Ok::<(), csdf::CsdfError>(())
/// ```
pub fn bound_buffers_tracked(
    graph: &CsdfGraph,
    capacities: &[BufferCapacity],
) -> Result<BoundedGraph, CsdfError> {
    let mut builder = CsdfGraphBuilder::extending(graph, format!("{}_bounded", graph.name()));
    let mut reverse_of: Vec<Option<BufferId>> = vec![None; graph.buffer_count()];
    let mut bounded = vec![false; graph.buffer_count()];
    for assignment in capacities {
        let buffer = graph.try_buffer(assignment.buffer)?;
        if bounded[assignment.buffer.index()] {
            return Err(CsdfError::DuplicateBufferCapacity {
                buffer: graph.buffer_ref(assignment.buffer),
            });
        }
        bounded[assignment.buffer.index()] = true;
        if buffer.is_self_loop() {
            continue;
        }
        if assignment.capacity < buffer.initial_tokens() {
            return Err(CsdfError::CapacityBelowMarking {
                buffer: graph.buffer_ref(assignment.buffer),
                capacity: assignment.capacity,
                marking: buffer.initial_tokens(),
            });
        }
        reverse_of[assignment.buffer.index()] = Some(builder.add_buffer(
            buffer.target(),
            buffer.source(),
            buffer.consumption().to_vec(),
            buffer.production().to_vec(),
            assignment.capacity - buffer.initial_tokens(),
        ));
    }
    Ok(BoundedGraph {
        graph: builder.build()?,
        reverse_of,
    })
}

/// The capacity the uniform-slack convention assigns to a buffer: `slack`
/// (at least 1) times the tokens one producer plus one consumer iteration
/// moves, `slack · (i_b + o_b)`, never below the initial marking. This is
/// the sizing rule of the paper's Table 2 "fixed buffer size" rows; pass it
/// to [`bound_all_buffers`] as `|_, buffer| uniform_slack_capacity(buffer,
/// slack)`.
pub fn uniform_slack_capacity(buffer: crate::Buffer<'_>, slack: u64) -> u64 {
    slack
        .max(1)
        .saturating_mul(buffer.total_production() + buffer.total_consumption())
        .max(buffer.initial_tokens())
}

/// Bounds every non-self-loop buffer of the graph to the capacity returned by
/// `capacity_of`, which receives the buffer id and the buffer itself.
///
/// A convenient default for experiments is a small multiple of
/// `i_b + o_b + M0(b)`, which is always live for consistent graphs when the
/// multiple is large enough.
///
/// # Errors
///
/// Same as [`bound_buffers`].
pub fn bound_all_buffers<F>(graph: &CsdfGraph, capacity_of: F) -> Result<CsdfGraph, CsdfError>
where
    F: FnMut(BufferId, crate::Buffer<'_>) -> u64,
{
    bound_all_buffers_tracked(graph, capacity_of).map(BoundedGraph::into_graph)
}

/// Same as [`bound_all_buffers`] but returns the [`BoundedGraph`] with the
/// forward → reverse pairing, for in-place capacity re-sizing.
///
/// # Errors
///
/// Same as [`bound_buffers`].
pub fn bound_all_buffers_tracked<F>(
    graph: &CsdfGraph,
    mut capacity_of: F,
) -> Result<BoundedGraph, CsdfError>
where
    F: FnMut(BufferId, crate::Buffer<'_>) -> u64,
{
    let capacities: Vec<BufferCapacity> = graph
        .buffers()
        .filter(|(_, b)| !b.is_self_loop())
        .map(|(id, b)| BufferCapacity {
            buffer: id,
            capacity: capacity_of(id, b).max(b.initial_tokens()),
        })
        .collect();
    bound_buffers_tracked(graph, &capacities)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CsdfGraphBuilder;

    fn two_task_graph(marking: u64) -> (CsdfGraph, BufferId) {
        let mut b = CsdfGraphBuilder::new();
        let x = b.add_task("x", vec![1, 1]);
        let y = b.add_sdf_task("y", 2);
        let chan = b.add_buffer(x, y, vec![1, 2], vec![3], marking);
        (b.build().unwrap(), chan)
    }

    #[test]
    fn reverse_buffer_mirrors_rates() {
        let (g, chan) = two_task_graph(1);
        let bounded = bound_buffers(
            &g,
            &[BufferCapacity {
                buffer: chan,
                capacity: 5,
            }],
        )
        .unwrap();
        assert_eq!(bounded.buffer_count(), 2);
        let reverse = bounded.buffer(BufferId::new(1));
        assert_eq!(reverse.source(), g.buffer(chan).target());
        assert_eq!(reverse.target(), g.buffer(chan).source());
        assert_eq!(reverse.production(), &[3]);
        assert_eq!(reverse.consumption(), &[1, 2]);
        assert_eq!(reverse.initial_tokens(), 4);
        assert!(bounded.is_consistent());
    }

    #[test]
    fn capacity_below_marking_is_rejected() {
        let (g, chan) = two_task_graph(6);
        let err = bound_buffers(
            &g,
            &[BufferCapacity {
                buffer: chan,
                capacity: 5,
            }],
        )
        .unwrap_err();
        assert!(matches!(err, CsdfError::CapacityBelowMarking { .. }));
    }

    #[test]
    fn unknown_buffer_is_rejected() {
        let (g, _) = two_task_graph(0);
        let err = bound_buffers(
            &g,
            &[BufferCapacity {
                buffer: BufferId::new(7),
                capacity: 5,
            }],
        )
        .unwrap_err();
        assert!(matches!(err, CsdfError::BufferIndexOutOfRange(7)));
    }

    #[test]
    fn duplicate_capacity_entries_are_rejected() {
        // Before the check, each duplicate entry silently added another
        // reverse buffer, doubling the back-pressure and changing the
        // throughput of the bounded graph.
        let (g, chan) = two_task_graph(1);
        let err = bound_buffers(
            &g,
            &[
                BufferCapacity {
                    buffer: chan,
                    capacity: 6,
                },
                BufferCapacity {
                    buffer: chan,
                    capacity: 9,
                },
            ],
        )
        .unwrap_err();
        assert!(matches!(
            err,
            CsdfError::DuplicateBufferCapacity { buffer } if buffer.index == 0
        ));
        // A single entry still works.
        let bounded = bound_buffers(
            &g,
            &[BufferCapacity {
                buffer: chan,
                capacity: 6,
            }],
        )
        .unwrap();
        assert_eq!(bounded.buffer_count(), 2);
    }

    #[test]
    fn bound_all_buffers_skips_self_loops() {
        let mut b = CsdfGraphBuilder::new();
        let x = b.add_sdf_task("x", 1);
        let y = b.add_sdf_task("y", 1);
        b.add_sdf_buffer(x, y, 2, 3, 0);
        b.add_serializing_self_loop(x);
        let g = b.build().unwrap();
        let bounded =
            bound_all_buffers(&g, |_, b| b.total_production() + b.total_consumption()).unwrap();
        // one forward channel + self loop + one reverse channel
        assert_eq!(bounded.buffer_count(), 3);
    }

    #[test]
    fn tracked_bounding_records_the_pairing() {
        let (g, chan) = two_task_graph(1);
        let mut bounded = bound_all_buffers_tracked(&g, |_, _| 5).unwrap();
        let reverse = bounded
            .reverse_of(chan)
            .expect("bounded buffer has a reverse");
        assert_eq!(bounded.capacity_of(chan), Some(5));
        assert_eq!(bounded.total_storage(), 5);
        assert_eq!(
            bounded.bounded_pairs().collect::<Vec<_>>(),
            vec![(chan, reverse)]
        );
        assert!(bounded
            .graph()
            .buffer(reverse)
            .is_reverse_of(bounded.graph().buffer(chan)));

        // In-place re-sizing through the pairing equals re-bounding from
        // scratch at the new capacity.
        bounded.graph_mut().set_capacity(chan, reverse, 9).unwrap();
        assert_eq!(bounded.capacity_of(chan), Some(9));
        let rebuilt = bound_all_buffers(&g, |_, _| 9).unwrap();
        assert_eq!(bounded.graph(), &rebuilt);
    }

    #[test]
    fn set_capacity_validates_the_pair() {
        let mut b = CsdfGraphBuilder::new();
        let x = b.add_sdf_task("x", 1);
        let y = b.add_sdf_task("y", 1);
        let forward = b.add_sdf_buffer(x, y, 2, 3, 1);
        let unrelated = b.add_sdf_buffer(x, y, 1, 1, 0);
        let mut g = b.build().unwrap();
        // Not a mirror of `forward`.
        assert!(matches!(
            g.set_capacity(forward, unrelated, 9),
            Err(CsdfError::NotAReverseBuffer { forward, reverse })
                if forward.index == 0 && reverse.index == 1 && forward.source == "x"
        ));
        // A buffer is never its own reverse.
        assert!(matches!(
            g.set_capacity(forward, forward, 9),
            Err(CsdfError::NotAReverseBuffer { .. })
        ));

        let bounded = bound_buffers_tracked(
            &g,
            &[BufferCapacity {
                buffer: forward,
                capacity: 6,
            }],
        )
        .unwrap();
        let reverse = bounded.reverse_of(forward).unwrap();
        let mut graph = bounded.into_graph();
        // Capacity must cover the forward marking.
        assert!(matches!(
            graph.set_capacity(forward, reverse, 0),
            Err(CsdfError::CapacityBelowMarking {
                buffer,
                capacity: 0,
                marking: 1
            }) if buffer.index == 0
        ));
        // The previous capacity is reported.
        assert_eq!(graph.set_capacity(forward, reverse, 8).unwrap(), 6);
        assert_eq!(graph.buffer(reverse).initial_tokens(), 7);
        assert!(matches!(
            graph.set_capacity(BufferId::new(9), reverse, 8),
            Err(CsdfError::BufferIndexOutOfRange(9))
        ));
    }

    #[test]
    fn doubles_buffer_count_like_table2() {
        // The paper's Table 2 reports exactly 2x the buffer count when buffer
        // sizes are fixed; bounding all non-self-loop buffers reproduces that.
        let (g, chan) = two_task_graph(0);
        let bounded = bound_buffers(
            &g,
            &[BufferCapacity {
                buffer: chan,
                capacity: 6,
            }],
        )
        .unwrap();
        assert_eq!(bounded.buffer_count(), 2 * g.buffer_count());
    }
}
