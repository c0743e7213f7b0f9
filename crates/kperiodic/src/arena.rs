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
//! * one flat arc store holding every buffer's constraint arcs (block-local
//!   endpoints plus exact `L`/`H` values) in buffer order, indexed by
//!   `arc_seg_start`. A buffer's arcs are re-derived only when its producer
//!   or consumer changed periodicity or its marking changed. When every such
//!   buffer keeps its arc count, the new arcs overwrite their segments in
//!   place; otherwise the store is laid out again in one pass that copies
//!   the kept segments and emits the re-derived ones between them. No
//!   second full-size store outlives an update;
//! * the assembled [`RatioGraph`], re-emitted from the store through the
//!   [`RatioGraph::reset`] grow/patch API so no per-node allocation happens.
//!   Its arc ids are the store's indices.
//!
//! # Node layout: per-block slack
//!
//! Task blocks are laid out with power-of-two slack: block `t` occupies node
//! ids `[offset_t, offset_t + next_pow2(len_t))`, with only the first `len_t`
//! slots live. The layout is a pure function of the *current* block lengths,
//! so a patched arena and a from-scratch build at the same periodicity vector
//! produce bit-identical [`RatioGraph`]s (same numbering, same arc order,
//! same values) — the `PartialEq` contract below. The padding buys stability:
//! as long as no block crosses its power-of-two capacity, every offset is
//! unchanged and [`EventGraphArena::assemble`] can skip the `O(nodes)`
//! renumbering and, when the dirty buffers' arc counts are unchanged too,
//! patch the dirty arcs in place ([`RatioGraph::patch_arc_weights`] /
//! [`RatioGraph::patch_arc`]) instead of re-emitting all `O(arcs)` of them.
//! Marking-only re-evaluations — the in-place capacity mutations an analysis
//! session applies between solves — hit the cheapest path: weights-only
//! patches that keep the CSR adjacency current without a rebuild. Padding
//! slots are isolated nodes (no arcs), so they form acyclic singleton SCCs
//! the MCR solver skips; [`EventGraphArena::node_count`] keeps reporting the
//! *live* node count.
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

/// How [`EventGraphArena::assemble`] refreshed the ratio graph during one
/// update (cheapest applicable path wins).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AssembleMode {
    /// The node layout changed (a block crossed its power-of-two capacity):
    /// offsets, the node list and every arc were re-derived.
    #[default]
    Renumbered,
    /// The node layout was kept but a dirty buffer's arc count changed: all
    /// arcs were re-emitted into the existing slots (no node work).
    Reemitted,
    /// Node layout and arc slots both kept: only the dirty buffers' arcs
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
    /// Which assembly path refreshed the ratio graph.
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
    nodes: Vec<EventNode>,
    ratio: RatioGraph,
    /// Per-task padded block sizes (`next_pow2(len)`) of the current node
    /// layout; empty until the first assembly. The layout is current while
    /// every block still satisfies `capacity == next_pow2(len)`.
    capacities: Vec<usize>,
    /// Live (non-padding) node count of the current layout.
    live_nodes: usize,
    /// Every buffer's constraint arcs, buffer after buffer.
    arcs: Vec<BufferArc>,
    /// Start of each buffer's segment in `arcs` and in the ratio graph's
    /// arcs (one extra trailing entry holds the total).
    arc_seg_start: Vec<usize>,
    /// K-invariant time denominators `i_b · q_t`, indexed by buffer id.
    buffer_denominator: Vec<i128>,
    /// The initial markings the cached arcs were derived at, indexed by
    /// buffer id; `apply_update` diffs the graph against this to find the
    /// buffers dirtied by in-place token/capacity mutations.
    initial_tokens: Vec<u64>,
    // Scratch reused across updates: the tiled emission's, one buffer's
    // re-derived arcs, and the sorted dirty-buffer set.
    emit_scratch: EmitScratch,
    buffer_scratch: Vec<BufferArc>,
    dirty_buffers: Vec<usize>,
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

        // Enforce the cumulative node limit *while* sizing the blocks, so a
        // graph over the limit errors out before anything is emitted.
        let mut blocks = Vec::with_capacity(graph.task_count());
        let mut durations = Vec::new();
        let mut duration_start = Vec::with_capacity(graph.task_count() + 1);
        let mut total_nodes = 0usize;
        for (task_id, task) in graph.tasks() {
            let len = check_node_total(total_nodes, task.phase_count(), k.get(task_id), limits)?
                - total_nodes;
            total_nodes += len;
            blocks.push(TaskBlock {
                k: k.get(task_id),
                len,
                offset: 0,
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
            nodes: Vec::new(),
            ratio: RatioGraph::default(),
            capacities: Vec::new(),
            live_nodes: 0,
            arcs: Vec::new(),
            arc_seg_start: Vec::with_capacity(graph.buffer_count() + 1),
            buffer_denominator,
            initial_tokens: graph.buffers().map(|(_, b)| b.initial_tokens()).collect(),
            emit_scratch: EmitScratch::default(),
            buffer_scratch: Vec::new(),
            dirty_buffers: Vec::new(),
        };
        let mut arcs = Vec::new();
        for (buffer_id, _) in graph.buffers() {
            if cancel.is_cancelled() {
                return Err(AnalysisError::DeadlineExceeded);
            }
            arena.arc_seg_start.push(arcs.len());
            arena.emit_buffer(graph, buffer_id.index(), k, &mut arcs)?;
            check_arc_total(arcs.len(), limits)?;
        }
        arena.arc_seg_start.push(arcs.len());
        arena.arcs = arcs;
        arena.assemble(graph, false)?;
        Ok(arena)
    }

    /// Patches the arena for a new periodicity vector and/or mutated initial
    /// markings: only the node blocks of tasks whose `K_t` changed and the
    /// constraint arcs of their incident buffers — plus the arcs of buffers
    /// whose marking was mutated in place ([`CsdfGraph::set_initial_tokens`]
    /// / [`CsdfGraph::set_capacity`]) — are re-derived; every other block
    /// and arc is kept, and the ratio graph is re-assembled in place from
    /// the arc store. Marking changes can never dirty a node
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
        let kept: usize = self.live_nodes
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

        let mut dirty_buffers = std::mem::take(&mut self.dirty_buffers);
        dirty_buffers.clear();
        for &task in &dirty_tasks {
            let block = &mut self.blocks[task.index()];
            block.k = k.get(task);
            block.len = graph.task(task).phase_count() * block.k as usize;
            dirty_buffers.extend(graph.incident(task).iter().map(csdf::BufferId::index));
        }
        // Buffers whose marking was mutated in place since the cached arcs
        // were derived: only their β values (arc weights) change, so they
        // join the rebuild set without dirtying any node block.
        let mut marking_dirty_buffers = 0usize;
        for (buffer_id, buffer) in graph.buffers() {
            if self.initial_tokens[buffer_id.index()] != buffer.initial_tokens() {
                marking_dirty_buffers += 1;
                dirty_buffers.push(buffer_id.index());
            }
        }
        dirty_buffers.sort_unstable();
        dirty_buffers.dedup();

        let relaid = self.rederive(graph, k, &dirty_buffers, cancel)?;
        let rebuilt_buffers = dirty_buffers.len();
        self.dirty_buffers = dirty_buffers;
        check_arc_total(self.arcs.len(), &self.limits)?;
        let (assemble, patched_arcs) = self.assemble(graph, !relaid)?;

        Ok(ArenaUpdate {
            dirty_tasks: dirty_tasks.len(),
            rebuilt_buffers,
            reused_buffers: self.buffer_count() - rebuilt_buffers,
            marking_dirty_buffers,
            assemble,
            patched_arcs,
        })
    }

    /// Re-derives the arcs of the sorted `dirty` buffers into the store. While
    /// every re-derived buffer keeps its arc count its segment is overwritten
    /// in place; from the first one that does not, the store is laid out
    /// again in one pass (kept segments copied, re-derived ones emitted in
    /// between) and the old store is dropped. Returns whether the store was
    /// laid out again.
    fn rederive(
        &mut self,
        graph: &CsdfGraph,
        k: &PeriodicityVector,
        dirty: &[usize],
        cancel: &CancelToken,
    ) -> Result<bool, AnalysisError> {
        let mut scratch = std::mem::take(&mut self.buffer_scratch);
        // The re-laid store and the first buffer not yet copied into it.
        let mut relaid: Option<(Vec<BufferArc>, usize)> = None;
        for &buffer in dirty {
            if cancel.is_cancelled() {
                return Err(AnalysisError::DeadlineExceeded);
            }
            let (start, end) = (self.arc_seg_start[buffer], self.arc_seg_start[buffer + 1]);
            if let Some((store, copied)) = &mut relaid {
                self.copy_segments(store, *copied, buffer);
                self.arc_seg_start[buffer] = store.len();
                self.emit_buffer(graph, buffer, k, store)?;
                *copied = buffer + 1;
                continue;
            }
            scratch.clear();
            self.emit_buffer(graph, buffer, k, &mut scratch)?;
            if scratch.len() == end - start {
                self.arcs[start..end].copy_from_slice(&scratch);
            } else {
                let mut store = Vec::with_capacity(self.arcs.len() + scratch.len());
                store.extend_from_slice(&self.arcs[..start]);
                store.extend_from_slice(&scratch);
                relaid = Some((store, buffer + 1));
            }
        }
        self.buffer_scratch = scratch;
        let Some((mut store, copied)) = relaid else {
            return Ok(false);
        };
        let buffers = self.buffer_count();
        self.copy_segments(&mut store, copied, buffers);
        self.arc_seg_start[buffers] = store.len();
        self.arcs = store;
        Ok(true)
    }

    /// Appends the kept segments of buffers `from..to` of the current store
    /// to a re-laid `store`, moving their segment starts along.
    fn copy_segments(&mut self, store: &mut Vec<BufferArc>, from: usize, to: usize) {
        let (start, end) = (self.arc_seg_start[from], self.arc_seg_start[to]);
        let base = store.len();
        for seg_start in &mut self.arc_seg_start[from..to] {
            *seg_start = *seg_start - start + base;
        }
        store.extend_from_slice(&self.arcs[start..end]);
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

    /// Recomputes the ratio graph from the blocks and the arc store, taking
    /// the cheapest applicable path (see [`AssembleMode`]): a full renumber
    /// when a block crossed its power-of-two capacity, a layout-preserving
    /// arc re-emission when the store was laid out again, and an in-place
    /// patch of just the dirty buffers' arcs (`self.dirty_buffers`) when
    /// `in_place` says every re-derived segment kept its place. Every path
    /// produces the same graph bit for bit — the layout is a pure function
    /// of the current block lengths.
    fn assemble(
        &mut self,
        graph: &CsdfGraph,
        in_place: bool,
    ) -> Result<(AssembleMode, usize), AnalysisError> {
        // The node limit applies to *live* nodes, matching the incremental
        // checks of `build`/`apply_update`; padding slots are free.
        let mut live_nodes = 0usize;
        for block in &self.blocks {
            live_nodes += block.len;
            if live_nodes > self.limits.max_nodes {
                return Err(AnalysisError::EventGraphTooLarge {
                    nodes: live_nodes,
                    limit: self.limits.max_nodes,
                });
            }
        }
        self.live_nodes = live_nodes;

        let layout_current = self.capacities.len() == self.blocks.len()
            && self
                .blocks
                .iter()
                .zip(&self.capacities)
                .all(|(block, &capacity)| block.len.next_power_of_two() == capacity);
        if !layout_current {
            self.renumber();
            self.emit_arcs(graph);
            return Ok((AssembleMode::Renumbered, 0));
        }
        if !in_place {
            self.emit_arcs(graph);
            return Ok((AssembleMode::Reemitted, 0));
        }

        let mut patched = 0usize;
        for &buffer_index in &self.dirty_buffers {
            let buffer = graph.buffer(csdf::BufferId::new(buffer_index));
            let from_base = self.blocks[buffer.source().index()].offset;
            let to_base = self.blocks[buffer.target().index()].offset;
            let segment = self.arc_seg_start[buffer_index]..self.arc_seg_start[buffer_index + 1];
            for (index, arc) in segment.clone().zip(&self.arcs[segment]) {
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
        Ok((AssembleMode::Patched, patched))
    }

    /// Recomputes the padded node layout — per-block capacities
    /// (`next_pow2(len)`), offsets and the node list — from the current
    /// block lengths. Padding slots carry their in-block slot index as a
    /// phase; they never gain arcs.
    fn renumber(&mut self) {
        self.capacities.clear();
        self.capacities.extend(
            self.blocks
                .iter()
                .map(|block| block.len.next_power_of_two()),
        );
        let mut total = 0usize;
        for (block, &capacity) in self.blocks.iter_mut().zip(&self.capacities) {
            block.offset = total;
            total += capacity;
        }
        self.nodes.clear();
        self.nodes.reserve(total);
        for (index, &capacity) in self.capacities.iter().enumerate() {
            let task = TaskId::new(index);
            for phase in 0..capacity {
                self.nodes.push(EventNode { task, phase });
            }
        }
    }

    /// Re-emits the whole arc store into the ratio graph (reset in place,
    /// allocations kept) in buffer order — exactly the order of a
    /// from-scratch build.
    fn emit_arcs(&mut self, graph: &CsdfGraph) {
        let total_nodes: usize = self.capacities.iter().sum();
        self.ratio.reset(total_nodes);
        self.ratio.reserve_arcs(self.arcs.len());
        for (buffer_id, buffer) in graph.buffers() {
            let from_base = self.blocks[buffer.source().index()].offset;
            let to_base = self.blocks[buffer.target().index()].offset;
            let segment =
                self.arc_seg_start[buffer_id.index()]..self.arc_seg_start[buffer_id.index() + 1];
            for arc in &self.arcs[segment] {
                self.ratio.add_arc(
                    NodeId::new(from_base + arc.producer_phase as usize),
                    NodeId::new(to_base + arc.consumer_phase as usize),
                    arc.cost,
                    arc.time,
                );
            }
        }
        // One counting-sort pass refreshes the CSR adjacency in place (both
        // index arrays keep their allocation across resets), so the MCR
        // solver can borrow it instead of building its own.
        self.ratio.rebuild_adjacency();
    }

    /// The underlying bi-valued ratio graph (lcm-free time scaling: its
    /// maximum cycle ratio is the normalised period `Ω_G`).
    pub fn ratio_graph(&self) -> &RatioGraph {
        &self.ratio
    }

    /// Number of live execution nodes. The backing ratio graph is larger —
    /// `ratio_graph().node_count()` includes the isolated padding slots of
    /// the power-of-two block layout (see the module docs).
    pub fn node_count(&self) -> usize {
        self.live_nodes
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
    fn padded_layout_keeps_live_counts_and_lookups() {
        let g = multirate();
        let q = g.repetition_vector().unwrap();
        let limits = EventGraphLimits::default();
        let mut k = PeriodicityVector::unitary(&g);
        k.set(TaskId::new(1), 3).unwrap();
        let arena = EventGraphArena::build(&g, &q, &k, &limits).unwrap();

        // Task 0: 2 phases at K=1 → block of 2, capacity 2. Task 1: 1 phase
        // at K=3 → block of 3, capacity 4. Live = 5, padded = 6.
        assert_eq!(arena.node_count(), 5);
        assert_eq!(arena.ratio_graph().node_count(), 6);
        for task in [TaskId::new(0), TaskId::new(1)] {
            for phase in 0..arena.phase_count_of(task) {
                let node = arena.node_of(task, phase);
                assert_eq!(arena.event(node), EventNode { task, phase });
            }
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
        let mut saw = [false; 3];
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
                AssembleMode::Renumbered => 0,
                AssembleMode::Reemitted => 1,
                AssembleMode::Patched => 2,
            }] = true;
            let fresh = EventGraphArena::build(&graph, &q, &k, &limits).unwrap();
            assert_eq!(arena.ratio_graph(), fresh.ratio_graph());
            assert_eq!(arena.node_count(), fresh.node_count());
            assert_eq!(arena.lcm_k(), fresh.lcm_k());
            assert!(arena.ratio_graph().adjacency_current());
        }
        assert_eq!(saw, [true; 3], "every assembly path ran");
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
