//! Bi-valued directed graphs for cost-to-time ratio problems.

use std::fmt;

use csdf::Rational;

/// Index of a node in a [`RatioGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// Creates a node id from a raw index.
    pub fn new(index: usize) -> Self {
        NodeId(index)
    }

    /// The raw dense index.
    pub fn index(&self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Index of an arc in a [`RatioGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ArcId(pub(crate) usize);

impl ArcId {
    /// Creates an arc id from a raw index.
    pub fn new(index: usize) -> Self {
        ArcId(index)
    }

    /// The raw dense index.
    pub fn index(&self) -> usize {
        self.0
    }
}

/// An arc bi-valued by a cost `L(e)` and a time `H(e)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arc {
    /// Source node.
    pub from: NodeId,
    /// Target node.
    pub to: NodeId,
    /// Cost `L(e)` (numerator contribution of the cycle ratio).
    pub cost: Rational,
    /// Time `H(e)` (denominator contribution of the cycle ratio). Individual
    /// arcs may carry zero or negative time; only cycle sums matter.
    pub time: Rational,
}

/// A directed graph whose arcs carry a cost and a time, on which the
/// *maximum cost-to-time ratio* `λ = max_c ΣL(c) / ΣH(c)` is computed.
///
/// This is the "bi-valued graph" of Section 3.3 of the paper; the solver
/// lives in [`crate::maximum_cycle_ratio`].
///
/// # Adjacency layout
///
/// Arcs are stored in one flat insertion-ordered vector; the per-node
/// adjacency is a CSR (compressed sparse row) index over it — flat arrays of
/// row offsets and arc ids instead of the pointer-chasing `Vec<Vec<ArcId>>`
/// of earlier revisions, plus each slot's arc target, so traversals read
/// contiguous `u32`s instead of whole arc records. The CSR is rebuilt by a
/// stable counting sort in [`RatioGraph::rebuild_adjacency`]; mutations
/// ([`RatioGraph::add_arc`], [`RatioGraph::reset`]) mark it stale, and
/// [`RatioGraph::outgoing`] panics on a stale index (call
/// `rebuild_adjacency` after the last mutation). The MCR [`crate::Solver`]
/// does not require a rebuilt adjacency — it keeps its own CSR scratch for
/// graphs handed to it mid-construction.
///
/// # Growing and patching
///
/// Besides one-shot construction ([`RatioGraph::new`] + [`RatioGraph::add_arc`]),
/// the graph supports in-place reuse for callers that repeatedly rebuild
/// almost-identical graphs (the K-Iter event-graph arena): [`RatioGraph::add_node`]
/// appends node blocks, [`RatioGraph::reserve_arcs`] pre-sizes the arc storage,
/// and [`RatioGraph::reset`] clears the arc set while keeping every allocation
/// (the arc vector and both CSR arrays keep their capacity), so re-emitting
/// the arcs of an updated graph performs no per-node reallocation.
///
/// Two graphs compare equal ([`PartialEq`]) when they have the same node
/// count and the same arcs, in the same insertion order, with bit-identical
/// cost and time values (the CSR index is derived state and not compared).
///
/// # Examples
///
/// ```
/// use mcr::{RatioGraph, maximum_cycle_ratio, CycleRatioOutcome};
/// use csdf::Rational;
///
/// let mut graph = RatioGraph::new(2);
/// let a = graph.node(0);
/// let b = graph.node(1);
/// graph.add_arc(a, b, Rational::from_integer(3), Rational::from_integer(1));
/// graph.add_arc(b, a, Rational::from_integer(1), Rational::from_integer(1));
/// let outcome = maximum_cycle_ratio(&graph)?;
/// match outcome {
///     CycleRatioOutcome::Finite { ratio, .. } => assert_eq!(ratio, Rational::from_integer(2)),
///     other => panic!("unexpected outcome {other:?}"),
/// }
/// # Ok::<(), mcr::McrError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct RatioGraph {
    node_count: usize,
    arcs: Vec<Arc>,
    /// CSR adjacency, valid only while `adjacency_version == version` (any
    /// mutation since the last rebuild makes it stale).
    csr: Csr,
    /// Mutation counter; `adjacency_version` snapshots it at rebuild time.
    version: u64,
    adjacency_version: u64,
}

impl PartialEq for RatioGraph {
    fn eq(&self, other: &Self) -> bool {
        // The CSR index and version counters are derived state.
        self.node_count == other.node_count && self.arcs == other.arcs
    }
}

impl Eq for RatioGraph {}

impl RatioGraph {
    /// Creates a graph with `node_count` nodes and no arcs.
    pub fn new(node_count: usize) -> Self {
        RatioGraph {
            node_count,
            arcs: Vec::new(),
            csr: Csr::default(),
            version: 1,
            adjacency_version: 0,
        }
    }

    /// Returns the node id for a raw index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.node_count()`.
    pub fn node(&self, index: usize) -> NodeId {
        assert!(index < self.node_count, "node index out of range");
        NodeId(index)
    }

    /// Adds one more node and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId(self.node_count);
        self.node_count += 1;
        self.version += 1;
        id
    }

    /// Clears the graph down to `node_count` isolated nodes while keeping
    /// every allocation: the arc storage and the CSR adjacency arrays
    /// retain their capacity, so arcs can be re-emitted without reallocating.
    pub fn reset(&mut self, node_count: usize) {
        self.arcs.clear();
        self.node_count = node_count;
        self.version += 1;
    }

    /// Reserves capacity for at least `additional` more arcs.
    pub fn reserve_arcs(&mut self, additional: usize) {
        self.arcs.reserve(additional);
    }

    /// Adds an arc and returns its id. O(1): the arc is appended to the flat
    /// arc vector; the CSR adjacency goes stale and is rebuilt in one pass by
    /// [`RatioGraph::rebuild_adjacency`].
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range.
    pub fn add_arc(&mut self, from: NodeId, to: NodeId, cost: Rational, time: Rational) -> ArcId {
        assert!(from.0 < self.node_count && to.0 < self.node_count);
        let id = ArcId(self.arcs.len());
        self.arcs.push(Arc {
            from,
            to,
            cost,
            time,
        });
        self.version += 1;
        id
    }

    /// Overwrites the cost and time of an existing arc in place, keeping its
    /// endpoints. Because the CSR adjacency holds endpoints only, a
    /// weights-only patch keeps a current index current — this is what lets
    /// the event-graph arena re-evaluate marking-only updates without paying
    /// the `O(nodes + arcs)` re-emission and counting sort.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn patch_arc_weights(&mut self, id: ArcId, cost: Rational, time: Rational) {
        let adjacency_was_current = self.adjacency_current();
        let arc = &mut self.arcs[id.0];
        arc.cost = cost;
        arc.time = time;
        self.version += 1;
        if adjacency_was_current {
            self.adjacency_version = self.version;
        }
    }

    /// Replaces an existing arc in place — endpoints and weights. The CSR
    /// adjacency goes stale (the arc may move to another source node's row);
    /// call [`RatioGraph::rebuild_adjacency`] after the last patch.
    ///
    /// # Panics
    ///
    /// Panics if the id or either endpoint is out of range.
    pub fn patch_arc(
        &mut self,
        id: ArcId,
        from: NodeId,
        to: NodeId,
        cost: Rational,
        time: Rational,
    ) {
        assert!(from.0 < self.node_count && to.0 < self.node_count);
        self.arcs[id.0] = Arc {
            from,
            to,
            cost,
            time,
        };
        self.version += 1;
    }

    /// Rebuilds the CSR adjacency index with a stable counting sort over the
    /// flat arc vector: arcs leaving the same node keep their insertion
    /// order, matching the `Vec<Vec<ArcId>>` adjacency of earlier revisions
    /// bit for bit. The index arrays keep their allocation across
    /// [`RatioGraph::reset`], so the event-graph arena's grow/patch cycle
    /// performs no adjacency allocation after warm-up.
    ///
    /// No-op when the index is already current.
    pub fn rebuild_adjacency(&mut self) {
        if self.adjacency_current() {
            return;
        }
        self.csr.build(self.node_count, &self.arcs);
        self.adjacency_version = self.version;
    }

    /// Whether the CSR adjacency reflects the current arc set.
    pub fn adjacency_current(&self) -> bool {
        self.adjacency_version == self.version
    }

    /// The CSR adjacency as flat `(arc_offsets, arc_index)` slices, when
    /// current (see [`RatioGraph::rebuild_adjacency`]).
    pub fn adjacency(&self) -> Option<(&[u32], &[ArcId])> {
        self.csr()
            .map(|csr| (csr.offsets.as_slice(), csr.arcs.as_slice()))
    }

    /// The whole CSR index, arc targets included, when current.
    pub(crate) fn csr(&self) -> Option<&Csr> {
        self.adjacency_current().then_some(&self.csr)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of arcs.
    pub fn arc_count(&self) -> usize {
        self.arcs.len()
    }

    /// The arc addressed by `id`.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn arc(&self, id: ArcId) -> &Arc {
        &self.arcs[id.0]
    }

    /// Iterator over `(ArcId, &Arc)` pairs.
    pub fn arcs(&self) -> impl Iterator<Item = (ArcId, &Arc)> + '_ {
        self.arcs.iter().enumerate().map(|(i, a)| (ArcId(i), a))
    }

    /// The flat arc storage, indexed by [`ArcId`].
    pub(crate) fn raw_arcs(&self) -> &[Arc] {
        &self.arcs
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count).map(NodeId)
    }

    /// Arcs leaving `node`, in insertion order.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range or if the CSR adjacency is stale —
    /// call [`RatioGraph::rebuild_adjacency`] after the last mutation.
    pub fn outgoing(&self, node: NodeId) -> &[ArcId] {
        assert!(node.0 < self.node_count, "node index out of range");
        if self.arcs.is_empty() {
            return &[];
        }
        assert!(
            self.adjacency_current(),
            "CSR adjacency is stale; call rebuild_adjacency() after mutating the graph"
        );
        &self.csr.arcs[self.csr.row(node.0)]
    }

    /// Sum of the costs and times along a sequence of arcs, accumulated
    /// unreduced ([`csdf::RationalSum`]: no GCD per step, one reduction per
    /// sum at the end) — this is the path every critical-circuit
    /// materialization takes.
    ///
    /// # Errors
    ///
    /// Returns [`csdf::RationalError`] on overflow.
    pub fn path_weight(&self, arcs: &[ArcId]) -> Result<(Rational, Rational), csdf::RationalError> {
        let mut cost = csdf::RationalSum::new();
        let mut time = csdf::RationalSum::new();
        for &arc_id in arcs {
            let arc = self.arc(arc_id);
            cost.add(&arc.cost)?;
            time.add(&arc.time)?;
        }
        Ok((cost.finish(), time.finish()))
    }
}

/// A CSR adjacency index over a flat arc vector:
/// `arcs[offsets[v] .. offsets[v + 1]]` are the arcs leaving node `v`, in
/// insertion order, and `targets[slot]` is the target node of `arcs[slot]`.
/// Shared by [`RatioGraph`] and the solver's scratch index (which serves
/// graphs whose own index is stale).
#[derive(Debug, Clone, Default)]
pub(crate) struct Csr {
    pub(crate) offsets: Vec<u32>,
    pub(crate) arcs: Vec<ArcId>,
    pub(crate) targets: Vec<u32>,
}

impl Csr {
    /// Rebuilds the index over `arcs` in place (stable counting sort),
    /// keeping every allocation.
    pub(crate) fn build(&mut self, node_count: usize, arcs: &[Arc]) {
        assert!(
            arcs.len() <= u32::MAX as usize && node_count <= u32::MAX as usize,
            "arc or node count exceeds u32 range"
        );
        let offsets = &mut self.offsets;
        offsets.clear();
        offsets.resize(node_count + 1, 0);
        for arc in arcs {
            offsets[arc.from.0 + 1] += 1;
        }
        for node in 0..node_count {
            offsets[node + 1] += offsets[node];
        }
        self.arcs.clear();
        self.arcs.resize(arcs.len(), ArcId(0));
        self.targets.clear();
        self.targets.resize(arcs.len(), 0);
        // Place each arc at its node's running cursor, using `offsets[from]`
        // itself as the cursor; a reverse shift afterwards restores the starts.
        for (position, arc) in arcs.iter().enumerate() {
            let slot = offsets[arc.from.0] as usize;
            self.arcs[slot] = ArcId(position);
            self.targets[slot] = arc.to.0 as u32;
            offsets[arc.from.0] += 1;
        }
        // `offsets[v]` now holds the *end* of v's range; shift right to
        // restore the starts.
        for node in (1..=node_count).rev() {
            offsets[node] = offsets[node - 1];
        }
        offsets[0] = 0;
    }

    /// The slots of the arcs leaving `node`.
    pub(crate) fn row(&self, node: usize) -> std::ops::Range<usize> {
        self.offsets[node] as usize..self.offsets[node + 1] as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_adjacency() {
        let mut g = RatioGraph::new(2);
        let extra = g.add_node();
        assert_eq!(g.node_count(), 3);
        let a = g.node(0);
        let b = g.node(1);
        let e1 = g.add_arc(a, b, Rational::ONE, Rational::ONE);
        let e2 = g.add_arc(b, extra, Rational::from_integer(2), Rational::ZERO);
        assert_eq!(g.arc_count(), 2);
        assert!(!g.adjacency_current());
        g.rebuild_adjacency();
        assert!(g.adjacency_current());
        assert_eq!(g.outgoing(a), &[e1]);
        assert_eq!(g.outgoing(b), &[e2]);
        assert!(g.outgoing(extra).is_empty());
        assert_eq!(g.arc(e2).cost, Rational::from_integer(2));
        assert_eq!(g.nodes().count(), 3);
    }

    #[test]
    fn path_weight_sums_costs_and_times() {
        let mut g = RatioGraph::new(3);
        let e1 = g.add_arc(
            g.node(0),
            g.node(1),
            Rational::from_integer(1),
            Rational::new(1, 2).unwrap(),
        );
        let e2 = g.add_arc(
            g.node(1),
            g.node(2),
            Rational::from_integer(2),
            Rational::new(1, 3).unwrap(),
        );
        let (cost, time) = g.path_weight(&[e1, e2]).unwrap();
        assert_eq!(cost, Rational::from_integer(3));
        assert_eq!(time, Rational::new(5, 6).unwrap());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_node_panics() {
        let g = RatioGraph::new(1);
        let _ = g.node(5);
    }

    #[test]
    fn reset_keeps_capacity_and_restores_equality() {
        let mut g = RatioGraph::new(2);
        g.add_arc(g.node(0), g.node(1), Rational::ONE, Rational::ONE);
        g.add_arc(g.node(1), g.node(0), Rational::ONE, Rational::ONE);
        let reference = g.clone();

        g.reset(3);
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.arc_count(), 0);
        assert!(g.outgoing(g.node(0)).is_empty());

        g.reset(2);
        g.reserve_arcs(2);
        g.add_arc(g.node(0), g.node(1), Rational::ONE, Rational::ONE);
        g.add_arc(g.node(1), g.node(0), Rational::ONE, Rational::ONE);
        assert_eq!(g, reference);
    }

    #[test]
    fn weight_patch_keeps_a_current_adjacency() {
        let mut g = RatioGraph::new(2);
        let e1 = g.add_arc(g.node(0), g.node(1), Rational::ONE, Rational::ONE);
        let e2 = g.add_arc(g.node(1), g.node(0), Rational::ONE, Rational::ONE);
        g.rebuild_adjacency();

        g.patch_arc_weights(e1, Rational::from_integer(7), Rational::ZERO);
        assert!(g.adjacency_current());
        assert_eq!(g.outgoing(g.node(0)), &[e1]);
        assert_eq!(g.arc(e1).cost, Rational::from_integer(7));
        assert_eq!(g.arc(e1).time, Rational::ZERO);

        // A weights patch on a *stale* index must not resurrect it.
        g.add_arc(g.node(0), g.node(0), Rational::ONE, Rational::ONE);
        assert!(!g.adjacency_current());
        g.patch_arc_weights(e2, Rational::from_integer(3), Rational::ONE);
        assert!(!g.adjacency_current());
    }

    #[test]
    fn endpoint_patch_goes_stale_and_matches_a_fresh_build() {
        let mut g = RatioGraph::new(3);
        g.add_arc(g.node(0), g.node(1), Rational::ONE, Rational::ONE);
        let e2 = g.add_arc(g.node(1), g.node(2), Rational::ONE, Rational::ONE);
        g.rebuild_adjacency();

        g.patch_arc(
            e2,
            g.node(2),
            g.node(0),
            Rational::from_integer(5),
            Rational::from_integer(2),
        );
        assert!(!g.adjacency_current());
        g.rebuild_adjacency();
        assert_eq!(g.outgoing(g.node(2)), &[e2]);
        assert!(g.outgoing(g.node(1)).is_empty());

        let mut fresh = RatioGraph::new(3);
        fresh.add_arc(fresh.node(0), fresh.node(1), Rational::ONE, Rational::ONE);
        fresh.add_arc(
            fresh.node(2),
            fresh.node(0),
            Rational::from_integer(5),
            Rational::from_integer(2),
        );
        assert_eq!(g, fresh);
    }

    #[test]
    fn csr_targets_follow_every_rebuild() {
        let mut g = RatioGraph::new(3);
        g.add_arc(g.node(2), g.node(0), Rational::ONE, Rational::ONE);
        let moved = g.add_arc(g.node(0), g.node(1), Rational::ONE, Rational::ONE);
        g.add_arc(g.node(0), g.node(2), Rational::ONE, Rational::ONE);
        let check = |g: &RatioGraph| {
            let csr = g.csr().expect("current");
            for (&arc, &target) in csr.arcs.iter().zip(&csr.targets) {
                assert_eq!(target as usize, g.arc(arc).to.index());
            }
        };
        g.rebuild_adjacency();
        check(&g);
        g.patch_arc(moved, g.node(1), g.node(1), Rational::ONE, Rational::ONE);
        assert!(g.csr().is_none());
        g.rebuild_adjacency();
        check(&g);
        assert_eq!(g.outgoing(g.node(1)), &[moved]);
    }

    #[test]
    fn adjacency_tracks_resets_even_at_equal_arc_counts() {
        // A reset followed by re-adding the same number of arcs must not be
        // mistaken for a current index (regression guard for the version
        // counter: plain arc-count comparison would be fooled here).
        let mut g = RatioGraph::new(2);
        g.add_arc(g.node(0), g.node(1), Rational::ONE, Rational::ONE);
        g.rebuild_adjacency();
        g.reset(2);
        g.add_arc(g.node(1), g.node(0), Rational::ONE, Rational::ONE);
        assert!(!g.adjacency_current());
        g.rebuild_adjacency();
        assert_eq!(g.outgoing(g.node(1)).len(), 1);
        assert!(g.outgoing(g.node(0)).is_empty());
    }
}
