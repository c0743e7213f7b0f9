//! The event-graph arena: one long-lived bi-valued event graph that is
//! patched in place as the periodicity vector grows across K-Iter iterations.
//!
//! A K-Iter run evaluates a sequence of periodicity vectors that differ only
//! on the tasks of the latest critical circuit (Algorithm 1 raises `K_t` for
//! those tasks alone). Rebuilding the whole event graph per iteration
//! re-derives every Theorem-2 constraint — the dominant cost on large graphs
//! now that the MCR solve itself is fast. The arena instead keeps:
//!
//! * one [`TaskBlock`] per task — its periodicity, length and first node,
//!   nothing else: expanded phase `p` of task `t` lasts `d_t[p mod ϕ(t)]`,
//!   read from the base durations;
//! * the assembled [`RatioGraph`], which is also the only arc store: every
//!   buffer's constraint arcs sit in it buffer after buffer, in the segment
//!   `arc_seg_start[b] .. arc_seg_start[b + 1]`. A buffer's arcs are
//!   re-derived only when its producer or consumer changed periodicity or
//!   its marking changed; the re-derived arcs of one update pass through a
//!   reused scratch and nothing else holds a second copy of the graph.
//!
//! # Node layout and the two update paths
//!
//! Task blocks are laid out densely: block `t` occupies node ids
//! `[offset_t, offset_t + K_t·ϕ(t))`, the offsets being the prefix sums of
//! the block lengths, and every node is a live event. The layout is a pure
//! function of the *current* block lengths, so a patched arena and a
//! from-scratch build at the same periodicity vector produce bit-identical
//! [`RatioGraph`]s (same numbering, same arc order, same values) — the
//! `PartialEq` contract below. An update takes one of two paths
//! ([`AssembleMode`]):
//!
//! * **patched** — no block length changed and every re-derived buffer kept
//!   its arc count: the dirty buffers' arcs are overwritten in place
//!   ([`RatioGraph::patch_arc_weights`] / [`RatioGraph::patch_arc`]).
//!   Marking-only re-evaluations — the in-place capacity mutations an
//!   analysis session applies between solves — take this path, and when
//!   no endpoint moves the CSR adjacency stays current without a rebuild;
//! * **laid out again** — otherwise (every `K` change moves the offsets of
//!   the blocks after the first changed one): one pass over the ratio
//!   graph's arcs shifts each kept arc's endpoints by its blocks' offset
//!   change and emits the re-derived buffers' arcs between them
//!   ([`RatioGraph::relayout`]).
//!
//! # Time scaling
//!
//! The paper bi-values arcs with `H(e) = −β̃ / (ĩ_a · q̃_t)` where
//! `ĩ_a · q̃_t = i_b · q_t · lcm(K)`. The `lcm(K)` factor is common to every
//! arc, so it scales all circuit ratios uniformly by `1/lcm(K)` — and it
//! changes whenever *any* task's periodicity changes, which would invalidate
//! every cached arc. The arena therefore stores the **lcm-free** time
//! `H(e) = −β̃ / (i_b · q_t)`: the denominator is K-invariant (consistency
//! gives `i_b · q_t = o_b · q_{t'}`), cached arcs of untouched buffers stay
//! bit-identical across updates, and the maximum cycle ratio of the stored
//! graph is directly the *normalised* period `Ω_G` of Theorem 3 (the
//! transformed period is recovered as `Ω*_{G̃} = Ω_G · lcm(K)`). Circuit-time
//! signs, and hence the feasible/infeasible/unconstrained classification, are
//! unchanged by the positive scaling. All arithmetic stays exact.

use std::collections::BTreeSet;

use csdf::{CsdfGraph, RepetitionVector, TaskId};
use mcr::{ArcId, CancelToken, CriticalCycle, NodeId, RatioGraph};

use crate::constraints::{emit_buffer_arcs_tiled, BufferArc, EmitScratch};
use crate::error::AnalysisError;
use crate::event_graph::{EventGraphLimits, EventNode};
use crate::periodicity::PeriodicityVector;

/// How [`EventGraphArena::apply_update`] refreshed the ratio graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AssembleMode {
    /// The graph was laid out again: a block length or a re-derived
    /// buffer's arc count changed, so the block offsets were recomputed,
    /// every kept arc was shifted onto them and the re-derived arcs were
    /// emitted between the kept ones. A build is laid out this way too.
    #[default]
    LaidOut,
    /// Block lengths and arc counts both kept: only the dirty buffers' arcs
    /// were patched in place — and when no endpoint moved, the CSR adjacency
    /// stayed current without a rebuild.
    Patched,
}

/// Statistics of one [`EventGraphArena::apply_update`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ArenaUpdate {
    /// Tasks whose periodicity changed and whose node blocks were re-derived.
    pub dirty_tasks: usize,
    /// Buffers whose constraint arcs were re-derived.
    pub rebuilt_buffers: usize,
    /// Buffers whose cached arcs were kept.
    pub reused_buffers: usize,
    /// Buffers re-derived (solely or additionally) because their initial
    /// marking changed since the previous update — the in-place capacity
    /// mutations an analysis session applies between evaluations.
    pub marking_dirty_buffers: usize,
    /// Which update path refreshed the ratio graph.
    pub assemble: AssembleMode,
    /// Arcs patched in place (non-zero only on the
    /// [`AssembleMode::Patched`] path).
    pub patched_arcs: usize,
}

/// A bi-valued event graph that lives across periodicity updates.
///
/// Built once with [`EventGraphArena::build`], then patched with
/// [`EventGraphArena::apply_update`] whenever the periodicity vector changes;
/// the patched graph is bit-identical (node numbering, arc order, `L`/`H`
/// values) to a from-scratch build at the same vector.
///
/// An arena is bound to the graph it was built from; driving it with a
/// different [`CsdfGraph`] is a contract violation (task/buffer-count
/// mismatches are detected, other mismatches are not).
///
/// If `build` or `apply_update` returns an error, the arena may be left
/// partially updated and must be discarded (it stays memory-safe, but its
/// accessors no longer describe a consistent event graph).
#[derive(Debug, Clone)]
pub struct EventGraphArena {
    limits: EventGraphLimits,
    /// *Structural* fingerprint of the graph this arena was built from
    /// (tasks, durations, buffer endpoints and rates — everything except the
    /// initial markings), so a caller switching graphs (even to one with the
    /// same task/buffer counts) is detected instead of silently reusing
    /// stale caches. Markings are tracked separately in `initial_tokens`:
    /// they are a *patchable* input (Theorem-2 arc weights β), not part of
    /// the structure.
    fingerprint: u64,
    lcm_k: u64,
    blocks: Vec<TaskBlock>,
    /// Base durations of every task, task after task: expanded phase `p` of
    /// task `t` lasts `durations[duration_start[t] + p mod ϕ(t)]`.
    durations: Vec<u64>,
    /// Start of each task's base durations (one extra trailing entry).
    duration_start: Vec<usize>,
    /// The event of every node, block after block.
    nodes: Vec<EventNode>,
    /// The event graph and the only arc store: every buffer's arcs, buffer
    /// after buffer.
    ratio: RatioGraph,
    /// Start of each buffer's segment in the ratio graph's arcs (one extra
    /// trailing entry holds the total).
    arc_seg_start: Vec<usize>,
    /// K-invariant time denominators `i_b · q_t`, indexed by buffer id.
    buffer_denominator: Vec<i128>,
    /// The initial markings the cached arcs were derived at, indexed by
    /// buffer id; `apply_update` diffs the graph against this to find the
    /// buffers dirtied by in-place token/capacity mutations.
    initial_tokens: Vec<u64>,
    // Scratch reused across updates: the tiled emission's, the re-derived
    // arcs of one build buffer or of one update's dirty buffers (buffer
    // after buffer), and the sorted dirty buffers, each with the end of its
    // arcs in `buffer_scratch`.
    emit_scratch: EmitScratch,
    buffer_scratch: Vec<BufferArc>,
    dirty_buffers: Vec<(usize, usize)>,
}

/// The node block of one task: its periodicity, its length `K_t · ϕ(t)` and
/// the index of its first event node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TaskBlock {
    k: u64,
    len: usize,
    offset: usize,
}

impl EventGraphArena {
    /// Builds the event graph of `graph` for the periodicity vector `k`,
    /// from scratch.
    ///
    /// # Errors
    ///
    /// * [`AnalysisError::Model`] for inconsistent graphs, invalid `K`, or
    ///   arithmetic overflow;
    /// * [`AnalysisError::EventGraphTooLarge`] or
    ///   [`AnalysisError::EventGraphTooManyArcs`] when the limits are
    ///   exceeded.
    pub fn build(
        graph: &CsdfGraph,
        repetition: &RepetitionVector,
        k: &PeriodicityVector,
        limits: &EventGraphLimits,
    ) -> Result<Self, AnalysisError> {
        Self::build_with_cancel(graph, repetition, k, limits, &CancelToken::default())
    }

    /// [`EventGraphArena::build`] with a cancellation token polled once per
    /// buffer rebuild; a cancelled build returns
    /// [`AnalysisError::DeadlineExceeded`].
    ///
    /// # Errors
    ///
    /// Same as [`EventGraphArena::build`], plus
    /// [`AnalysisError::DeadlineExceeded`] on cancellation.
    pub fn build_with_cancel(
        graph: &CsdfGraph,
        repetition: &RepetitionVector,
        k: &PeriodicityVector,
        limits: &EventGraphLimits,
        cancel: &CancelToken,
    ) -> Result<Self, AnalysisError> {
        let fingerprint = graph_fingerprint(graph);
        Self::build_keyed(graph, fingerprint, repetition, k, limits, cancel)
    }

    /// [`EventGraphArena::build_with_cancel`] with the structure fingerprint
    /// of `graph` already computed ([`graph_fingerprint`]).
    pub(crate) fn build_keyed(
        graph: &CsdfGraph,
        fingerprint: u64,
        repetition: &RepetitionVector,
        k: &PeriodicityVector,
        limits: &EventGraphLimits,
        cancel: &CancelToken,
    ) -> Result<Self, AnalysisError> {
        validate_periodicity(graph, k)?;
        let lcm_k = k.lcm()?;

        // Enforce the cumulative node limit *while* laying out the blocks, so
        // a graph over the limit errors out before anything is emitted.
        let mut blocks = Vec::with_capacity(graph.task_count());
        let mut durations = Vec::new();
        let mut duration_start = Vec::with_capacity(graph.task_count() + 1);
        let mut total_nodes = 0usize;
        for (task_id, task) in graph.tasks() {
            let offset = total_nodes;
            total_nodes = check_node_total(offset, task.phase_count(), k.get(task_id), limits)?;
            blocks.push(TaskBlock {
                k: k.get(task_id),
                len: total_nodes - offset,
                offset,
            });
            duration_start.push(durations.len());
            durations.extend_from_slice(task.durations());
        }
        duration_start.push(durations.len());

        let mut buffer_denominator = Vec::with_capacity(graph.buffer_count());
        for (_, buffer) in graph.buffers() {
            // i_b · q_t (= o_b · q_{t'} by consistency): the K-invariant part
            // of the paper's denominator; see the module docs for the scaling.
            let denominator = (buffer.total_production() as i128)
                .checked_mul(repetition.get(buffer.source()) as i128)
                .ok_or(AnalysisError::Model(csdf::CsdfError::Overflow))?;
            buffer_denominator.push(denominator);
        }

        let mut arena = EventGraphArena {
            limits: *limits,
            fingerprint,
            lcm_k,
            blocks,
            durations,
            duration_start,
            nodes: Vec::with_capacity(total_nodes),
            ratio: RatioGraph::new(total_nodes),
            arc_seg_start: Vec::with_capacity(graph.buffer_count() + 1),
            buffer_denominator,
            initial_tokens: graph.buffers().map(|(_, b)| b.initial_tokens()).collect(),
            emit_scratch: EmitScratch::default(),
            buffer_scratch: Vec::new(),
            dirty_buffers: Vec::new(),
        };
        arena.fill_nodes();
        let mut scratch = Vec::new();
        for (buffer_id, buffer) in graph.buffers() {
            if cancel.is_cancelled() {
                return Err(AnalysisError::DeadlineExceeded);
            }
            arena.arc_seg_start.push(arena.ratio.arc_count());
            scratch.clear();
            arena.emit_buffer(graph, buffer_id.index(), k, &mut scratch)?;
            check_arc_total(arena.ratio.arc_count() + scratch.len(), limits)?;
            arena.push_arcs(buffer, &scratch);
        }
        arena.arc_seg_start.push(arena.ratio.arc_count());
        arena.buffer_scratch = scratch;
        // One counting-sort pass builds the CSR adjacency, so the MCR solver
        // can borrow it instead of building its own.
        arena.ratio.rebuild_adjacency();
        Ok(arena)
    }

    /// Patches the arena for a new periodicity vector and/or mutated initial
    /// markings: only the node blocks of tasks whose `K_t` changed and the
    /// constraint arcs of their incident buffers — plus the arcs of buffers
    /// whose marking was mutated in place ([`CsdfGraph::set_initial_tokens`]
    /// / [`CsdfGraph::set_capacity`]) — are re-derived; every other block
    /// and arc is kept, and the ratio graph is patched or laid out again in
    /// place (see [`AssembleMode`]). Marking changes can never dirty a node
    /// block: tokens only enter the Theorem-2 arc weights `β`, never the
    /// event-graph node structure.
    ///
    /// The dirty sets are always detected by comparing the new vector
    /// against the blocks' current periodicities and the graph's markings
    /// against the cached ones — O(tasks + buffers) scans that cannot be
    /// fooled. `dirty_hint` (the tasks the K-Iter update rule reports as
    /// raised) is advisory: it is cross-checked against the detected set in
    /// debug builds and never trusted for correctness.
    ///
    /// # Errors
    ///
    /// Same as [`EventGraphArena::build`], plus
    /// [`AnalysisError::ArenaGraphMismatch`] when `graph` is not
    /// structurally the graph this arena was built from. After an error the
    /// arena must be discarded.
    pub fn apply_update(
        &mut self,
        graph: &CsdfGraph,
        k: &PeriodicityVector,
        dirty_hint: Option<&[TaskId]>,
    ) -> Result<ArenaUpdate, AnalysisError> {
        self.apply_update_with_cancel(graph, k, dirty_hint, &CancelToken::default())
    }

    /// [`EventGraphArena::apply_update`] with a cancellation token polled
    /// once per dirty-buffer rebuild; a cancelled patch returns
    /// [`AnalysisError::DeadlineExceeded`] (and, like any other patch error,
    /// leaves the arena to be discarded by the caller).
    ///
    /// # Errors
    ///
    /// Same as [`EventGraphArena::apply_update`], plus
    /// [`AnalysisError::DeadlineExceeded`] on cancellation.
    pub fn apply_update_with_cancel(
        &mut self,
        graph: &CsdfGraph,
        k: &PeriodicityVector,
        dirty_hint: Option<&[TaskId]>,
        cancel: &CancelToken,
    ) -> Result<ArenaUpdate, AnalysisError> {
        let fingerprint = graph_fingerprint(graph);
        self.apply_update_keyed(graph, fingerprint, k, dirty_hint, cancel)
    }

    /// [`EventGraphArena::apply_update_with_cancel`] with the structure
    /// fingerprint of `graph` already computed ([`graph_fingerprint`]).
    pub(crate) fn apply_update_keyed(
        &mut self,
        graph: &CsdfGraph,
        fingerprint: u64,
        k: &PeriodicityVector,
        dirty_hint: Option<&[TaskId]>,
        cancel: &CancelToken,
    ) -> Result<ArenaUpdate, AnalysisError> {
        validate_periodicity(graph, k)?;
        if !self.matches_key(graph, fingerprint) {
            return Err(AnalysisError::ArenaGraphMismatch);
        }
        self.lcm_k = k.lcm()?;

        // Collect the dirty tasks by comparison (sorted and unique by
        // construction).
        let mut dirty_tasks: Vec<TaskId> = Vec::new();
        for task in graph.task_ids() {
            if self.blocks[task.index()].k != k.get(task) {
                dirty_tasks.push(task);
            }
        }
        if let Some(hint) = dirty_hint {
            debug_assert!(
                dirty_tasks.iter().all(|task| hint.contains(task)),
                "dirty hint misses a task whose periodicity changed"
            );
        }

        // Enforce the cumulative node limit on the *prospective* sizes before
        // any block is resized.
        let kept: usize = self.nodes.len()
            - dirty_tasks
                .iter()
                .map(|task| self.blocks[task.index()].len)
                .sum::<usize>();
        let mut total_nodes = kept;
        for &task in &dirty_tasks {
            total_nodes = check_node_total(
                total_nodes,
                graph.task(task).phase_count(),
                k.get(task),
                &self.limits,
            )?;
        }

        let mut dirty = std::mem::take(&mut self.dirty_buffers);
        dirty.clear();
        for &task in &dirty_tasks {
            let block = &mut self.blocks[task.index()];
            block.k = k.get(task);
            block.len = graph.task(task).phase_count() * block.k as usize;
            dirty.extend(
                graph
                    .incident(task)
                    .iter()
                    .map(|buffer| (buffer.index(), 0)),
            );
        }
        // Buffers whose marking was mutated in place since the cached arcs
        // were derived: only their β values (arc weights) change, so they
        // join the rebuild set without dirtying any node block.
        let mut marking_dirty_buffers = 0usize;
        for (buffer_id, buffer) in graph.buffers() {
            if self.initial_tokens[buffer_id.index()] != buffer.initial_tokens() {
                marking_dirty_buffers += 1;
                dirty.push((buffer_id.index(), 0));
            }
        }
        dirty.sort_unstable();
        dirty.dedup();

        // Re-derive the dirty buffers' arcs into the scratch, buffer after
        // buffer, noting whether every one kept its arc count.
        let mut scratch = std::mem::take(&mut self.buffer_scratch);
        scratch.clear();
        let mut counts_kept = true;
        let mut total_arcs = self.ratio.arc_count();
        for (buffer, end) in &mut dirty {
            if cancel.is_cancelled() {
                return Err(AnalysisError::DeadlineExceeded);
            }
            let start = scratch.len();
            self.emit_buffer(graph, *buffer, k, &mut scratch)?;
            *end = scratch.len();
            let old_count = self.arc_seg_start[*buffer + 1] - self.arc_seg_start[*buffer];
            counts_kept &= *end - start == old_count;
            total_arcs = total_arcs - old_count + (*end - start);
        }
        check_arc_total(total_arcs, &self.limits)?;

        let (assemble, patched_arcs) = if dirty_tasks.is_empty() && counts_kept {
            (AssembleMode::Patched, self.patch(graph, &dirty, &scratch))
        } else {
            self.lay_out(graph, &dirty, &scratch, total_arcs);
            (AssembleMode::LaidOut, 0)
        };
        let rebuilt_buffers = dirty.len();
        self.buffer_scratch = scratch;
        self.dirty_buffers = dirty;

        Ok(ArenaUpdate {
            dirty_tasks: dirty_tasks.len(),
            rebuilt_buffers,
            reused_buffers: self.buffer_count() - rebuilt_buffers,
            marking_dirty_buffers,
            assemble,
            patched_arcs,
        })
    }

    /// Derives the constraint arcs of one buffer at the current periodicity
    /// (Theorem-2 constraints over the K-tiled rate vectors, bi-values) and
    /// appends them to `out`, through the output-sensitive tiled emission —
    /// the expanded vectors are never materialised and only the useful phase
    /// pairs are visited.
    fn emit_buffer(
        &mut self,
        graph: &CsdfGraph,
        buffer_index: usize,
        k: &PeriodicityVector,
        out: &mut Vec<BufferArc>,
    ) -> Result<(), AnalysisError> {
        let buffer = graph.buffer(csdf::BufferId::new(buffer_index));
        self.initial_tokens[buffer_index] = buffer.initial_tokens();
        emit_buffer_arcs_tiled(
            buffer.production(),
            k.get(buffer.source()),
            buffer.consumption(),
            k.get(buffer.target()),
            buffer.initial_tokens(),
            graph.task(buffer.source()).durations(),
            self.buffer_denominator[buffer_index],
            &mut self.emit_scratch,
            out,
        )
        .map_err(AnalysisError::Model)
    }

    /// Appends one buffer's re-derived `arcs` to the ratio graph, re-based
    /// on its endpoints' current block offsets.
    fn push_arcs(&mut self, buffer: &csdf::Buffer, arcs: &[BufferArc]) {
        let from_base = self.blocks[buffer.source().index()].offset;
        let to_base = self.blocks[buffer.target().index()].offset;
        for arc in arcs {
            self.ratio.add_arc(
                NodeId::new(from_base + arc.producer_phase as usize),
                NodeId::new(to_base + arc.consumer_phase as usize),
                arc.cost,
                arc.time,
            );
        }
    }

    /// The patched path: overwrites the `dirty` buffers' segments with their
    /// re-derived arcs (`scratch`, buffer after buffer), which have the same
    /// counts, and returns how many arcs changed.
    fn patch(
        &mut self,
        graph: &CsdfGraph,
        dirty: &[(usize, usize)],
        scratch: &[BufferArc],
    ) -> usize {
        let mut patched = 0usize;
        let mut scratch_start = 0;
        for &(buffer_index, scratch_end) in dirty {
            let buffer = graph.buffer(csdf::BufferId::new(buffer_index));
            let from_base = self.blocks[buffer.source().index()].offset;
            let to_base = self.blocks[buffer.target().index()].offset;
            let arcs = &scratch[scratch_start..scratch_end];
            scratch_start = scratch_end;
            for (index, arc) in (self.arc_seg_start[buffer_index]..).zip(arcs) {
                let id = ArcId::new(index);
                let from = NodeId::new(from_base + arc.producer_phase as usize);
                let to = NodeId::new(to_base + arc.consumer_phase as usize);
                let current = self.ratio.arc(id);
                if current.from == from && current.to == to {
                    if current.cost != arc.cost || current.time != arc.time {
                        self.ratio.patch_arc_weights(id, arc.cost, arc.time);
                        patched += 1;
                    }
                } else {
                    self.ratio.patch_arc(id, from, to, arc.cost, arc.time);
                    patched += 1;
                }
            }
        }
        // Weights-only patches keep a current CSR current (no-op rebuild);
        // an endpoint move costs exactly one counting sort.
        self.ratio.rebuild_adjacency();
        patched
    }

    /// The laid-out-again path: recomputes the block offsets and the node
    /// list from the current block lengths, then makes one pass over the
    /// buffers in order — a kept buffer's arcs are shifted by its blocks'
    /// offset change, a `dirty` buffer's arcs are taken from `scratch` —
    /// into a ratio graph of `total_arcs` arcs. The result is exactly the
    /// graph a from-scratch build emits.
    fn lay_out(
        &mut self,
        graph: &CsdfGraph,
        dirty: &[(usize, usize)],
        scratch: &[BufferArc],
        total_arcs: usize,
    ) {
        let mut old_offsets = Vec::with_capacity(self.blocks.len());
        let mut total_nodes = 0usize;
        for block in &mut self.blocks {
            old_offsets.push(block.offset);
            block.offset = total_nodes;
            total_nodes += block.len;
        }
        self.fill_nodes();
        let old_arcs = self.ratio.relayout(total_nodes, total_arcs);

        let mut dirty = dirty.iter().peekable();
        let mut scratch_start = 0;
        for (buffer_id, buffer) in graph.buffers() {
            let index = buffer_id.index();
            let start = self.ratio.arc_count();
            if let Some(&(_, scratch_end)) = dirty.next_if(|&&(dirty, _)| dirty == index) {
                self.push_arcs(buffer, &scratch[scratch_start..scratch_end]);
                scratch_start = scratch_end;
            } else {
                let (source, target) = (buffer.source().index(), buffer.target().index());
                let (from_old, from_new) = (old_offsets[source], self.blocks[source].offset);
                let (to_old, to_new) = (old_offsets[target], self.blocks[target].offset);
                for arc in &old_arcs[self.arc_seg_start[index]..self.arc_seg_start[index + 1]] {
                    self.ratio.add_arc(
                        NodeId::new(arc.from.index() - from_old + from_new),
                        NodeId::new(arc.to.index() - to_old + to_new),
                        arc.cost,
                        arc.time,
                    );
                }
            }
            self.arc_seg_start[index] = start;
        }
        let buffers = self.buffer_count();
        self.arc_seg_start[buffers] = self.ratio.arc_count();
        self.ratio.rebuild_adjacency();
    }

    /// Recomputes the node list from the current block lengths.
    fn fill_nodes(&mut self) {
        self.nodes.clear();
        for (index, block) in self.blocks.iter().enumerate() {
            let task = TaskId::new(index);
            self.nodes
                .extend((0..block.len).map(|phase| EventNode { task, phase }));
        }
    }

    /// The underlying bi-valued ratio graph (lcm-free time scaling: its
    /// maximum cycle ratio is the normalised period `Ω_G`).
    pub fn ratio_graph(&self) -> &RatioGraph {
        &self.ratio
    }

    /// Number of execution nodes (equal to `ratio_graph().node_count()`).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of tasks of the CSDF graph this arena was built from.
    pub fn task_count(&self) -> usize {
        self.blocks.len()
    }

    /// Number of buffers of the CSDF graph this arena was built from.
    pub fn buffer_count(&self) -> usize {
        self.arc_seg_start.len() - 1
    }

    /// Whether `graph` is *structurally* the graph this arena was built
    /// from: same tasks, durations, buffer endpoints and rates — initial
    /// markings excluded. This is what [`EventGraphArena::apply_update`]
    /// requires: marking differences are a patchable input (the arena
    /// re-derives exactly the mutated buffers' arcs), so the
    /// [`EvaluationPipeline`](crate::EvaluationPipeline) keeps reusing an
    /// arena across the in-place token/capacity mutations of an analysis
    /// session and only falls back to a from-scratch build when the
    /// structure itself changes.
    pub fn matches_structure(&self, graph: &CsdfGraph) -> bool {
        self.matches_key(graph, graph_fingerprint(graph))
    }

    /// [`EventGraphArena::matches_structure`] with the structure fingerprint
    /// of `graph` already computed.
    pub(crate) fn matches_key(&self, graph: &CsdfGraph, fingerprint: u64) -> bool {
        self.blocks.len() == graph.task_count()
            && self.buffer_count() == graph.buffer_count()
            && self.fingerprint == fingerprint
    }

    /// Whether `graph` is identical to the graph the cached arcs were last
    /// derived from: [`EventGraphArena::matches_structure`] *and* the same
    /// initial markings (a patch would be a no-op for the buffers).
    pub fn matches_graph(&self, graph: &CsdfGraph) -> bool {
        self.matches_structure(graph)
            && graph
                .buffers()
                .zip(&self.initial_tokens)
                .all(|((_, buffer), &cached)| buffer.initial_tokens() == cached)
    }

    /// Number of constraint arcs.
    pub fn arc_count(&self) -> usize {
        self.ratio.arc_count()
    }

    /// `lcm(K)` of the periodicity vector of the current event graph.
    pub fn lcm_k(&self) -> u64 {
        self.lcm_k
    }

    /// The execution represented by an event-graph node.
    ///
    /// # Panics
    ///
    /// Panics if `node` does not belong to this event graph.
    pub fn event(&self, node: NodeId) -> EventNode {
        self.nodes[node.index()]
    }

    /// Event-graph node of the `phase`-th transformed execution of `task`.
    ///
    /// # Panics
    ///
    /// Panics if `task` or `phase` is out of range.
    pub fn node_of(&self, task: TaskId, phase: usize) -> NodeId {
        let block = &self.blocks[task.index()];
        assert!(phase < block.len);
        NodeId::new(block.offset + phase)
    }

    /// Duration of the `phase`-th transformed execution of `task`.
    ///
    /// # Panics
    ///
    /// Panics if `task` or `phase` is out of range.
    pub fn duration_of(&self, task: TaskId, phase: usize) -> u64 {
        assert!(phase < self.blocks[task.index()].len);
        let base = &self.durations
            [self.duration_start[task.index()]..self.duration_start[task.index() + 1]];
        base[phase % base.len()]
    }

    /// Number of transformed phases (`K_t · ϕ(t)`) of `task`.
    pub fn phase_count_of(&self, task: TaskId) -> usize {
        self.blocks[task.index()].len
    }

    /// The periodicity `K_t` the current event graph uses for `task`.
    pub fn periodicity_of(&self, task: TaskId) -> u64 {
        self.blocks[task.index()].k
    }

    /// The set of tasks whose executions appear on a critical circuit.
    pub fn tasks_on_cycle(&self, cycle: &CriticalCycle) -> BTreeSet<TaskId> {
        cycle
            .nodes
            .iter()
            .map(|&node| self.event(node).task)
            .collect()
    }
}

/// FNV-1a hash over the *structure* the arena caches depend on: task
/// durations and, per buffer, endpoints and rates. Initial markings are
/// deliberately excluded — they are diffed exactly against the arena's
/// `initial_tokens` cache so in-place token mutations patch instead of
/// invalidating. Collisions are astronomically unlikely and the check is
/// advisory hardening (passing a *different but colliding* graph is outside
/// the API contract anyway). Public as
/// [`structure_fingerprint`](crate::structure_fingerprint): the session
/// pool routes graphs to warm arenas by this value.
pub(crate) fn graph_fingerprint(graph: &CsdfGraph) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    let mix = |hash: &mut u64, value: u64| {
        *hash ^= value;
        *hash = hash.wrapping_mul(PRIME);
    };
    mix(&mut hash, graph.task_count() as u64);
    for (_, task) in graph.tasks() {
        mix(&mut hash, task.phase_count() as u64);
        for &duration in task.durations() {
            mix(&mut hash, duration);
        }
    }
    mix(&mut hash, graph.buffer_count() as u64);
    for (_, buffer) in graph.buffers() {
        mix(&mut hash, buffer.source().index() as u64);
        mix(&mut hash, buffer.target().index() as u64);
        for &rate in buffer.production() {
            mix(&mut hash, rate);
        }
        for &rate in buffer.consumption() {
            mix(&mut hash, rate);
        }
    }
    hash
}

fn validate_periodicity(graph: &CsdfGraph, k: &PeriodicityVector) -> Result<(), AnalysisError> {
    if k.len() != graph.task_count() {
        return Err(AnalysisError::Model(
            csdf::CsdfError::InvalidPeriodicityVector {
                expected: graph.task_count(),
                actual: k.len(),
            },
        ));
    }
    Ok(())
}

/// Adds one task's prospective block size (`K_t · ϕ(t)`) to a running node
/// total, rejecting it against the limit *before* any arc is emitted.
/// Returns the new total.
fn check_node_total(
    total_nodes: usize,
    phase_count: usize,
    k: u64,
    limits: &EventGraphLimits,
) -> Result<usize, AnalysisError> {
    let total = (total_nodes as u128) + (phase_count as u128) * (k as u128);
    if total > limits.max_nodes as u128 {
        return Err(AnalysisError::EventGraphTooLarge {
            nodes: total.min(usize::MAX as u128) as usize,
            limit: limits.max_nodes,
        });
    }
    Ok(total as usize)
}

fn check_arc_total(total_arcs: usize, limits: &EventGraphLimits) -> Result<(), AnalysisError> {
    if total_arcs > limits.max_arcs {
        return Err(AnalysisError::EventGraphTooManyArcs {
            arcs: total_arcs,
            limit: limits.max_arcs,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use csdf::CsdfGraphBuilder;

    fn multirate() -> CsdfGraph {
        let mut b = CsdfGraphBuilder::new();
        let x = b.add_task("x", vec![1, 2]);
        let y = b.add_sdf_task("y", 1);
        b.add_buffer(x, y, vec![2, 1], vec![1], 0);
        b.add_buffer(y, x, vec![1], vec![2, 1], 6);
        b.add_serializing_self_loop(x);
        b.add_serializing_self_loop(y);
        b.build().unwrap()
    }

    #[test]
    fn patched_arena_is_bit_identical_to_a_fresh_build() {
        let g = multirate();
        let q = g.repetition_vector().unwrap();
        let limits = EventGraphLimits::default();
        let mut k = PeriodicityVector::unitary(&g);
        let mut arena = EventGraphArena::build(&g, &q, &k, &limits).unwrap();

        // Raise K for one task, patch, and compare against a scratch build.
        k.set(TaskId::new(1), 3).unwrap();
        let update = arena.apply_update(&g, &k, Some(&[TaskId::new(1)])).unwrap();
        assert_eq!(update.dirty_tasks, 1);
        assert!(update.rebuilt_buffers >= 1);
        assert!(update.reused_buffers >= 1);

        let fresh = EventGraphArena::build(&g, &q, &k, &limits).unwrap();
        assert_eq!(arena.ratio_graph(), fresh.ratio_graph());
        assert_eq!(arena.node_count(), fresh.node_count());
        assert_eq!(arena.lcm_k(), fresh.lcm_k());
    }

    #[test]
    fn update_without_hint_detects_changes_by_comparison() {
        let g = multirate();
        let q = g.repetition_vector().unwrap();
        let limits = EventGraphLimits::default();
        let mut arena =
            EventGraphArena::build(&g, &q, &PeriodicityVector::unitary(&g), &limits).unwrap();
        let k = PeriodicityVector::from_entries(&g, vec![2, 2]).unwrap();
        let update = arena.apply_update(&g, &k, None).unwrap();
        assert_eq!(update.dirty_tasks, 2);
        assert_eq!(update.reused_buffers, 0);
        let fresh = EventGraphArena::build(&g, &q, &k, &limits).unwrap();
        assert_eq!(arena.ratio_graph(), fresh.ratio_graph());
    }

    #[test]
    fn noop_update_reuses_everything() {
        let g = multirate();
        let q = g.repetition_vector().unwrap();
        let k = PeriodicityVector::unitary(&g);
        let mut arena = EventGraphArena::build(&g, &q, &k, &EventGraphLimits::default()).unwrap();
        let before = arena.ratio_graph().clone();
        let update = arena.apply_update(&g, &k, None).unwrap();
        assert_eq!(update.dirty_tasks, 0);
        assert_eq!(update.rebuilt_buffers, 0);
        assert_eq!(arena.ratio_graph(), &before);
    }

    #[test]
    fn update_against_a_different_graph_is_refused() {
        let g = multirate();
        let q = g.repetition_vector().unwrap();
        let k = PeriodicityVector::unitary(&g);
        let mut arena = EventGraphArena::build(&g, &q, &k, &EventGraphLimits::default()).unwrap();

        // Same shape, different *duration*: caught by the structural
        // fingerprint.
        let mut b = CsdfGraphBuilder::new();
        let x = b.add_task("x", vec![1, 3]);
        let y = b.add_sdf_task("y", 1);
        b.add_buffer(x, y, vec![2, 1], vec![1], 0);
        b.add_buffer(y, x, vec![1], vec![2, 1], 6);
        b.add_serializing_self_loop(x);
        b.add_serializing_self_loop(y);
        let other = b.build().unwrap();
        assert!(arena.matches_graph(&g));
        assert!(arena.matches_structure(&g));
        assert!(!arena.matches_structure(&other));
        let k_other = PeriodicityVector::unitary(&other);
        assert!(matches!(
            arena.apply_update(&other, &k_other, None),
            Err(AnalysisError::ArenaGraphMismatch)
        ));
    }

    #[test]
    fn marking_mutation_patches_only_the_mutated_buffer() {
        let g = multirate();
        let q = g.repetition_vector().unwrap();
        let limits = EventGraphLimits::default();
        let k = PeriodicityVector::unitary(&g);
        let mut arena = EventGraphArena::build(&g, &q, &k, &limits).unwrap();

        // Mutate the feedback buffer's marking in place: same structure,
        // different marking — a patchable input, not a graph switch.
        let mut mutated = g.clone();
        mutated
            .set_initial_tokens(csdf::BufferId::new(1), 9)
            .unwrap();
        assert!(arena.matches_structure(&mutated));
        assert!(!arena.matches_graph(&mutated));

        let update = arena.apply_update(&mutated, &k, None).unwrap();
        assert_eq!(update.dirty_tasks, 0);
        assert_eq!(update.marking_dirty_buffers, 1);
        assert_eq!(update.rebuilt_buffers, 1);
        assert_eq!(update.reused_buffers, 3);

        let fresh = EventGraphArena::build(&mutated, &q, &k, &limits).unwrap();
        assert_eq!(arena.ratio_graph(), fresh.ratio_graph());
        assert!(arena.matches_graph(&mutated));

        // A combined K + marking update re-derives the union of both dirty
        // sets and stays bit-identical too.
        let mut k2 = k.clone();
        k2.set(TaskId::new(1), 2).unwrap();
        mutated
            .set_initial_tokens(csdf::BufferId::new(0), 5)
            .unwrap();
        let update = arena.apply_update(&mutated, &k2, None).unwrap();
        assert_eq!(update.dirty_tasks, 1);
        assert_eq!(update.marking_dirty_buffers, 1);
        let fresh = EventGraphArena::build(&mutated, &q, &k2, &limits).unwrap();
        assert_eq!(arena.ratio_graph(), fresh.ratio_graph());
    }

    #[test]
    fn marking_only_update_patches_arcs_in_place() {
        let g = multirate();
        let q = g.repetition_vector().unwrap();
        let limits = EventGraphLimits::default();
        let k = PeriodicityVector::unitary(&g);
        let mut arena = EventGraphArena::build(&g, &q, &k, &limits).unwrap();

        // A pure marking mutation keeps the layout and (here) every arc
        // count, so the assembly must take the in-place patch path — no
        // renumbering, no full arc re-emission — and still match a fresh
        // build bit for bit.
        let mut mutated = g.clone();
        mutated
            .set_initial_tokens(csdf::BufferId::new(1), 7)
            .unwrap();
        let update = arena.apply_update(&mutated, &k, None).unwrap();
        assert_eq!(update.assemble, AssembleMode::Patched);
        assert!(update.patched_arcs > 0);
        assert!(arena.ratio_graph().adjacency_current());

        let fresh = EventGraphArena::build(&mutated, &q, &k, &limits).unwrap();
        assert_eq!(arena.ratio_graph(), fresh.ratio_graph());
    }

    #[test]
    fn dense_layout_numbers_every_event_once() {
        let g = multirate();
        let q = g.repetition_vector().unwrap();
        let limits = EventGraphLimits::default();
        let mut k = PeriodicityVector::unitary(&g);
        k.set(TaskId::new(1), 3).unwrap();
        let mut arena = EventGraphArena::build(&g, &q, &k, &limits).unwrap();

        // Task 0: 2 phases at K=1; task 1: 1 phase at K=3. Then raise task 0
        // to K=2, which moves task 1's block.
        let check = |arena: &EventGraphArena, expected: usize| {
            assert_eq!(arena.node_count(), expected);
            assert_eq!(arena.ratio_graph().node_count(), arena.node_count());
            let mut next = 0;
            for task in [TaskId::new(0), TaskId::new(1)] {
                for phase in 0..arena.phase_count_of(task) {
                    let node = arena.node_of(task, phase);
                    assert_eq!(node.index(), next, "blocks are dense and in task order");
                    assert_eq!(arena.event(node), EventNode { task, phase });
                    next += 1;
                }
            }
        };
        check(&arena, 5);
        k.set(TaskId::new(0), 2).unwrap();
        let update = arena.apply_update(&g, &k, None).unwrap();
        assert_eq!(update.assemble, AssembleMode::LaidOut);
        check(&arena, 7);
        let fresh = EventGraphArena::build(&g, &q, &k, &limits).unwrap();
        assert_eq!(arena.ratio_graph(), fresh.ratio_graph());
    }

    #[test]
    fn marking_only_update_that_changes_an_arc_count_is_laid_out_again() {
        // Two two-phase tasks whose buffer keeps a phase pair useful or not
        // depending on its marking: the graph has 4 arcs at 0 or 2 tokens
        // and 3 at 1.
        let mut b = CsdfGraphBuilder::new();
        let x = b.add_task("x", vec![1, 2]);
        let y = b.add_task("y", vec![1, 1]);
        b.add_buffer(x, y, vec![1, 2], vec![1, 2], 0);
        b.add_buffer(y, x, vec![1, 2], vec![1, 2], 20);
        let mut g = b.build().unwrap();
        let q = g.repetition_vector().unwrap();
        let limits = EventGraphLimits::default();
        let k = PeriodicityVector::unitary(&g);
        let mut arena = EventGraphArena::build(&g, &q, &k, &limits).unwrap();

        for (tokens, arcs, mode) in [
            (1, 3, AssembleMode::LaidOut),
            (2, 4, AssembleMode::LaidOut),
            (3, 4, AssembleMode::Patched),
        ] {
            g.set_initial_tokens(csdf::BufferId::new(0), tokens)
                .unwrap();
            let update = arena.apply_update(&g, &k, None).unwrap();
            assert_eq!(update.dirty_tasks, 0);
            assert_eq!(update.rebuilt_buffers, 1);
            assert_eq!(update.assemble, mode, "{tokens} tokens");
            assert_eq!(arena.arc_count(), arcs, "{tokens} tokens");
            let fresh = EventGraphArena::build(&g, &q, &k, &limits).unwrap();
            assert_eq!(arena.ratio_graph(), fresh.ratio_graph());
            assert_eq!(arena.ratio_graph().node_count(), arena.node_count());
            assert!(arena.ratio_graph().adjacency_current());
        }
    }

    #[test]
    fn random_update_sequences_stay_bit_identical_to_fresh_builds() {
        // Drive one arena through a random mix of periodicity raises and
        // marking mutations; after every patch the ratio graph must equal a
        // from-scratch build at the same state, whatever assembly path ran.
        let mut state = 0x4bcd_17a3_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let base = multirate();
        let q = base.repetition_vector().unwrap();
        let limits = EventGraphLimits::default();
        let mut graph = base.clone();
        let mut k = PeriodicityVector::unitary(&graph);
        let mut arena = EventGraphArena::build(&graph, &q, &k, &limits).unwrap();
        let mut saw = [false; 2];
        for _ in 0..60 {
            if next() % 2 == 0 {
                let task = TaskId::new((next() % 2) as usize);
                let raised = k.get(task) + 1 + next() % 2;
                k.set(task, raised).unwrap();
            } else {
                let buffer = csdf::BufferId::new((next() % 2) as usize);
                graph.set_initial_tokens(buffer, next() % 12).unwrap();
            }
            let update = arena.apply_update(&graph, &k, None).unwrap();
            saw[match update.assemble {
                AssembleMode::LaidOut => 0,
                AssembleMode::Patched => 1,
            }] = true;
            let fresh = EventGraphArena::build(&graph, &q, &k, &limits).unwrap();
            assert_eq!(arena.ratio_graph(), fresh.ratio_graph());
            assert_eq!(arena.node_count(), fresh.node_count());
            assert_eq!(arena.ratio_graph().node_count(), arena.node_count());
            assert_eq!(arena.lcm_k(), fresh.lcm_k());
            assert!(arena.ratio_graph().adjacency_current());
        }
        assert_eq!(saw, [true; 2], "both update paths ran");
    }

    #[test]
    fn update_enforces_the_node_limit() {
        let g = multirate();
        let q = g.repetition_vector().unwrap();
        let limits = EventGraphLimits {
            max_nodes: 4,
            max_arcs: 1000,
        };
        let mut arena =
            EventGraphArena::build(&g, &q, &PeriodicityVector::unitary(&g), &limits).unwrap();
        let k = PeriodicityVector::from_entries(&g, vec![4, 4]).unwrap();
        assert!(matches!(
            arena.apply_update(&g, &k, None),
            Err(AnalysisError::EventGraphTooLarge { .. })
        ));
    }
}
