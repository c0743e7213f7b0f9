//! Bi-valued directed graphs for cost-to-time ratio problems.

use std::collections::HashMap;
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

/// Index of an arc in a [`RatioGraph`] (a `u32`: a graph holds fewer than
/// 2^32 arcs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ArcId(pub(crate) u32);

impl ArcId {
    /// Creates an arc id from a raw index.
    ///
    /// # Panics
    ///
    /// Panics if `index` exceeds the `u32` range.
    pub fn new(index: usize) -> Self {
        ArcId(u32::try_from(index).expect("arc index exceeds u32 range"))
    }

    /// The raw dense index.
    pub fn index(&self) -> usize {
        self.0 as usize
    }
}

/// One arc of a [`RatioGraph`], bi-valued by a cost `L(e)` and a time
/// `H(e)`: a `Copy` view into the graph's arc columns. Two views compare
/// equal when their endpoints and their resolved cost and time values are
/// equal, whatever denominator class numbers the graphs use.
#[derive(Clone, Copy)]
pub struct Arc<'g> {
    arcs: &'g ArcColumns,
    classes: &'g [Denominators],
    index: usize,
}

impl Arc<'_> {
    /// Source node.
    pub fn from(&self) -> NodeId {
        NodeId(self.arcs.links[self.index].from as usize)
    }

    /// Target node.
    pub fn to(&self) -> NodeId {
        NodeId(self.arcs.links[self.index].to as usize)
    }

    /// Cost `L(e)` (numerator contribution of the cycle ratio).
    pub fn cost(&self) -> Rational {
        Rational::from_reduced_parts(self.numerators().cost, self.denominators().cost)
    }

    /// Time `H(e)` (denominator contribution of the cycle ratio). Individual
    /// arcs may carry zero or negative time; only cycle sums matter.
    pub fn time(&self) -> Rational {
        Rational::from_reduced_parts(self.numerators().time, self.denominators().time)
    }

    /// Whether this arc's cost and time are `cost` and `time`, compared on
    /// the stored words (numerators and the class's denominators) without
    /// building a [`Rational`].
    pub fn has_weights(&self, cost: &Rational, time: &Rational) -> bool {
        self.numerators() == Numerators::of(cost, time)
            && self.denominators() == Denominators::of(cost, time)
    }

    fn numerators(&self) -> Numerators {
        self.arcs.numerators[self.index]
    }

    fn denominators(&self) -> Denominators {
        self.classes[self.arcs.links[self.index].class as usize]
    }
}

impl PartialEq for Arc<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.from() == other.from()
            && self.to() == other.to()
            && self.numerators() == other.numerators()
            && self.denominators() == other.denominators()
    }
}

impl Eq for Arc<'_> {}

impl fmt::Debug for Arc<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Arc")
            .field("from", &self.from())
            .field("to", &self.to())
            .field("cost", &self.cost())
            .field("time", &self.time())
            .finish()
    }
}

/// The numerators of an arc's reduced cost and time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Numerators {
    pub(crate) cost: i128,
    pub(crate) time: i128,
}

impl Numerators {
    fn of(cost: &Rational, time: &Rational) -> Self {
        Numerators {
            cost: cost.numer(),
            time: time.numer(),
        }
    }
}

/// An arc's endpoints and the index of its [`Denominators`] in the graph's
/// class table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Link {
    pub(crate) from: u32,
    pub(crate) to: u32,
    pub(crate) class: u32,
}

/// The reduced denominators of an arc's cost and time: one denominator
/// class of a [`RatioGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct Denominators {
    pub(crate) cost: i128,
    pub(crate) time: i128,
}

impl Denominators {
    fn of(cost: &Rational, time: &Rational) -> Self {
        Denominators {
            cost: cost.denom(),
            time: time.denom(),
        }
    }
}

/// The arcs of a [`RatioGraph`] in two columns: the [`Link`]s (`u32`
/// endpoints and denominator class, 12 bytes) and the [`Numerators`] (two
/// `i128`s, 32 bytes) — 44 bytes per arc. Traversals read the links only,
/// the integer kernel both numerators of an arc at once.
#[derive(Debug, Clone, Default)]
pub(crate) struct ArcColumns {
    pub(crate) links: Vec<Link>,
    pub(crate) numerators: Vec<Numerators>,
}

impl ArcColumns {
    fn with_capacity(capacity: usize) -> Self {
        ArcColumns {
            links: Vec::with_capacity(capacity),
            numerators: Vec::with_capacity(capacity),
        }
    }

    fn len(&self) -> usize {
        self.links.len()
    }
}

/// The distinct [`Denominators`] of a graph's arcs, numbered in order of
/// first use. Every cost of an event graph is an integer duration and every
/// time `−β / (i_b·q_t)` has a divisor of its buffer's `i_b·q_t` for
/// denominator, so an event graph whose times are all integers has one
/// class. A one-entry memo catches the runs of equal classes that arcs
/// emitted buffer by buffer arrive in; the map behind it is built when a
/// second class appears, so a graph of one class allocates none.
#[derive(Debug, Clone, Default)]
struct ClassTable {
    classes: Vec<Denominators>,
    index: HashMap<Denominators, u32>,
    last: u32,
}

impl ClassTable {
    fn class_of(&mut self, denominators: Denominators) -> u32 {
        if self.classes.get(self.last as usize) == Some(&denominators) {
            return self.last;
        }
        if self.classes.is_empty() {
            self.classes.push(denominators);
            return 0;
        }
        if self.index.is_empty() {
            self.index
                .extend((0..).zip(&self.classes).map(|(i, &d)| (d, i)));
        }
        let next = u32::try_from(self.classes.len()).expect("class count exceeds u32 range");
        let class = *self.index.entry(denominators).or_insert(next);
        if class == next {
            self.classes.push(denominators);
        }
        self.last = class;
        class
    }
}

/// A directed graph whose arcs carry a cost and a time, on which the
/// *maximum cost-to-time ratio* `λ = max_c ΣL(c) / ΣH(c)` is computed.
///
/// This is the "bi-valued graph" of Section 3.3 of the paper; the solver
/// lives in [`crate::maximum_cycle_ratio`].
///
/// # Storage layout
///
/// Arcs are stored in insertion order in two columns: one of `u32`
/// endpoints with a `u32` index into a per-graph table of the distinct
/// (cost denominator, time denominator) pairs, one of the `i128`
/// numerators of the reduced cost and time — 44 bytes per arc. Two
/// columns, not five, because every reader takes an arc's endpoints
/// together and its numerators together, and every column grows by its own
/// reallocations.
/// [`RatioGraph::add_arc`] is the
/// only way in; [`RatioGraph::arc`] hands back a `Copy` [`Arc`] view whose
/// [`Arc::cost`] and [`Arc::time`] are the values added. Keeping integer
/// words is what the MCR kernel runs on: it scales a component with one lcm
/// per denominator class and one multiply per arc.
///
/// The per-node adjacency is a CSR (compressed sparse row) index over the
/// arcs — flat arrays of row offsets, `u32` arc ids and arc targets, so
/// traversals read contiguous `u32`s (8 bytes per arc, 4 per node). It is
/// rebuilt by a stable counting sort in [`RatioGraph::rebuild_adjacency`];
/// mutations ([`RatioGraph::add_arc`], [`RatioGraph::relayout`]) mark it
/// stale until the next rebuild. The MCR [`crate::Solver`] does not require
/// a rebuilt adjacency — it keeps its own CSR scratch for graphs handed to
/// it mid-construction.
///
/// # Patching and laying out again
///
/// Besides one-shot construction ([`RatioGraph::new`] + [`RatioGraph::add_arc`]),
/// the graph supports in-place updates for callers that repeatedly rebuild
/// almost-identical graphs (the K-Iter event-graph arena):
/// [`RatioGraph::patch_arc_weights`] and [`RatioGraph::patch_arc`] overwrite
/// single arcs, and [`RatioGraph::relayout`] hands the old arcs back while
/// the new ones are added, keeping the CSR arrays' allocations. The class
/// table only grows, so a patched graph may number its classes differently
/// from a fresh build of the same arcs.
///
/// Two graphs compare equal ([`PartialEq`]) when they have the same node
/// count and the same arcs, in the same insertion order, with equal cost and
/// time values — resolved values, not class numbers (the class table, the
/// CSR index and the version counters are not compared).
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
    arcs: ArcColumns,
    classes: ClassTable,
    /// CSR adjacency, valid only while `adjacency_version == version` (any
    /// mutation since the last rebuild makes it stale).
    csr: Csr,
    /// Mutation counter; `adjacency_version` snapshots it at rebuild time.
    version: u64,
    adjacency_version: u64,
}

impl PartialEq for RatioGraph {
    fn eq(&self, other: &Self) -> bool {
        // The class table, the CSR index and the version counters are
        // derived state: arcs compare as views, by resolved values.
        self.node_count == other.node_count
            && self.arc_count() == other.arc_count()
            && self.arcs().zip(other.arcs()).all(|((_, a), (_, b))| a == b)
    }
}

impl Eq for RatioGraph {}

impl RatioGraph {
    /// Creates a graph with `node_count` nodes and no arcs.
    ///
    /// # Panics
    ///
    /// Panics if `node_count` exceeds the `u32` range.
    pub fn new(node_count: usize) -> Self {
        assert_node_count(node_count);
        RatioGraph {
            node_count,
            version: 1,
            ..RatioGraph::default()
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

    /// Starts laying the graph out again over `node_count` nodes: returns
    /// the current arcs as a graph over the old nodes, for the caller to
    /// read while it adds the new ones with [`RatioGraph::add_arc`], and
    /// leaves this graph arc-less with room for `arc_capacity` arcs. The
    /// CSR adjacency arrays and the class table are kept.
    ///
    /// # Panics
    ///
    /// Panics if `node_count` exceeds the `u32` range.
    pub fn relayout(&mut self, node_count: usize, arc_capacity: usize) -> RatioGraph {
        assert_node_count(node_count);
        let old = RatioGraph {
            node_count: self.node_count,
            arcs: std::mem::replace(&mut self.arcs, ArcColumns::with_capacity(arc_capacity)),
            classes: ClassTable {
                classes: self.classes.classes.clone(),
                ..ClassTable::default()
            },
            ..RatioGraph::new(0)
        };
        self.node_count = node_count;
        self.version += 1;
        old
    }

    /// Adds an arc and returns its id. O(1): the arc is appended to the arc
    /// columns; the CSR adjacency goes stale and is rebuilt in one pass by
    /// [`RatioGraph::rebuild_adjacency`].
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range or the arc count would
    /// exceed the `u32` range.
    pub fn add_arc(&mut self, from: NodeId, to: NodeId, cost: Rational, time: Rational) -> ArcId {
        assert!(from.0 < self.node_count && to.0 < self.node_count);
        let id = ArcId::new(self.arcs.len());
        let class = self.classes.class_of(Denominators::of(&cost, &time));
        self.arcs.links.push(Link {
            from: from.0 as u32,
            to: to.0 as u32,
            class,
        });
        self.arcs.numerators.push(Numerators::of(&cost, &time));
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
        let class = self.classes.class_of(Denominators::of(&cost, &time));
        self.arcs.links[id.index()].class = class;
        self.arcs.numerators[id.index()] = Numerators::of(&cost, &time);
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
        let class = self.classes.class_of(Denominators::of(&cost, &time));
        self.arcs.links[id.index()] = Link {
            from: from.0 as u32,
            to: to.0 as u32,
            class,
        };
        self.arcs.numerators[id.index()] = Numerators::of(&cost, &time);
        self.version += 1;
    }

    /// Rebuilds the CSR adjacency index with a stable counting sort over the
    /// arc columns: arcs leaving the same node keep their insertion order,
    /// matching the `Vec<Vec<ArcId>>` adjacency of earlier revisions bit for
    /// bit. The index arrays keep their allocation across
    /// [`RatioGraph::relayout`], so the event-graph arena's patch and layout
    /// cycle allocates adjacency only when the graph grows.
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
    pub fn arc(&self, id: ArcId) -> Arc<'_> {
        assert!(id.index() < self.arcs.len(), "arc id out of range");
        Arc {
            arcs: &self.arcs,
            classes: &self.classes.classes,
            index: id.index(),
        }
    }

    /// Iterator over `(ArcId, Arc)` pairs.
    pub fn arcs(&self) -> impl Iterator<Item = (ArcId, Arc<'_>)> + '_ {
        (0..self.arcs.len()).map(|index| {
            let id = ArcId::new(index);
            (id, self.arc(id))
        })
    }

    /// Heap bytes the graph holds: arc columns, class table and CSR index,
    /// by capacity.
    pub fn heap_bytes(&self) -> usize {
        fn bytes<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        let (arcs, csr) = (&self.arcs, &self.csr);
        bytes(&arcs.links)
            + bytes(&arcs.numerators)
            + bytes(&self.classes.classes)
            + self.classes.index.capacity() * (std::mem::size_of::<(Denominators, u32)>() + 1)
            + bytes(&csr.offsets)
            + bytes(&csr.arcs)
            + bytes(&csr.targets)
    }

    /// The arc columns, indexed by [`ArcId`].
    pub(crate) fn columns(&self) -> &ArcColumns {
        &self.arcs
    }

    /// The denominator class table, indexed by [`Link::class`].
    pub(crate) fn classes(&self) -> &[Denominators] {
        &self.classes.classes
    }

    /// Sum of the costs and times along a sequence of arcs — this is the
    /// path every critical-circuit materialization takes.
    ///
    /// # Errors
    ///
    /// Returns [`csdf::RationalError`] on overflow.
    pub fn path_weight(&self, arcs: &[ArcId]) -> Result<(Rational, Rational), csdf::RationalError> {
        let mut cost = csdf::RationalSum::new();
        let mut time = csdf::RationalSum::new();
        for &id in arcs {
            let arc = self.arc(id);
            cost.add(&arc.cost())?;
            time.add(&arc.time())?;
        }
        Ok((cost.finish(), time.finish()))
    }
}

fn assert_node_count(node_count: usize) {
    assert!(
        node_count <= u32::MAX as usize,
        "node count exceeds u32 range"
    );
}

/// A CSR adjacency index over arc columns:
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
    pub(crate) fn build(&mut self, node_count: usize, arcs: &ArcColumns) {
        assert!(
            arcs.len() <= u32::MAX as usize && node_count <= u32::MAX as usize,
            "arc or node count exceeds u32 range"
        );
        let offsets = &mut self.offsets;
        offsets.clear();
        offsets.resize(node_count + 1, 0);
        for link in &arcs.links {
            offsets[link.from as usize + 1] += 1;
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
        for (position, link) in (0u32..).zip(&arcs.links) {
            let slot = offsets[link.from as usize] as usize;
            self.arcs[slot] = ArcId(position);
            self.targets[slot] = link.to;
            offsets[link.from as usize] += 1;
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

    /// The arcs leaving `node`, read from the current CSR index.
    fn outgoing(g: &RatioGraph, node: NodeId) -> &[ArcId] {
        let csr = g.csr().expect("current adjacency");
        &csr.arcs[csr.row(node.index())]
    }

    #[test]
    fn construction_and_adjacency() {
        let mut g = RatioGraph::new(3);
        let extra = g.node(2);
        assert_eq!(g.node_count(), 3);
        let a = g.node(0);
        let b = g.node(1);
        let e1 = g.add_arc(a, b, Rational::ONE, Rational::ONE);
        let e2 = g.add_arc(b, extra, Rational::from_integer(2), Rational::ZERO);
        assert_eq!(g.arc_count(), 2);
        assert!(!g.adjacency_current());
        g.rebuild_adjacency();
        assert!(g.adjacency_current());
        assert_eq!(outgoing(&g, a), &[e1]);
        assert_eq!(outgoing(&g, b), &[e2]);
        assert!(outgoing(&g, extra).is_empty());
        assert_eq!(g.arc(e2).cost(), Rational::from_integer(2));
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
    fn relayout_returns_the_old_arcs_and_restores_equality() {
        let mut g = RatioGraph::new(2);
        g.add_arc(g.node(0), g.node(1), Rational::ONE, Rational::ONE);
        g.add_arc(g.node(1), g.node(0), Rational::ONE, Rational::ONE);
        g.rebuild_adjacency();
        let reference = g.clone();

        let old = g.relayout(3, 2);
        assert_eq!(old.arc_count(), 2);
        assert_eq!(old.node_count(), 2);
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.arc_count(), 0);
        assert!(!g.adjacency_current());

        let old = g.relayout(2, 2);
        assert_eq!(old.arc_count(), 0);
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
        assert_eq!(outgoing(&g, g.node(0)), &[e1]);
        assert_eq!(g.arc(e1).cost(), Rational::from_integer(7));
        assert_eq!(g.arc(e1).time(), Rational::ZERO);

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
        assert_eq!(outgoing(&g, g.node(2)), &[e2]);
        assert!(outgoing(&g, g.node(1)).is_empty());

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
                assert_eq!(target as usize, g.arc(arc).to().index());
            }
        };
        g.rebuild_adjacency();
        check(&g);
        g.patch_arc(moved, g.node(1), g.node(1), Rational::ONE, Rational::ONE);
        assert!(g.csr().is_none());
        g.rebuild_adjacency();
        check(&g);
        assert_eq!(outgoing(&g, g.node(1)), &[moved]);
    }

    fn xorshift(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    /// A weight that is zero, an integer or fraction of either sign over one
    /// of a hundred denominators, or an integer or fraction within a few
    /// units of `±i128::MAX`.
    fn random_weight(next: &mut impl FnMut() -> u64) -> Rational {
        let small = (next() % 1000) as i128 - 500;
        let den = 1 + (next() % 100) as i128;
        let huge = i128::MAX - (next() % 8) as i128;
        match next() % 6 {
            0 => Rational::ZERO,
            1 => Rational::from_integer(small),
            2 => Rational::from_integer(if next() % 2 == 0 { huge } else { -huge }),
            3 => Rational::new(huge, den).unwrap(),
            _ => Rational::new(small, den).unwrap(),
        }
    }

    fn random_arc(next: &mut impl FnMut() -> u64, n: usize) -> (usize, usize, Rational, Rational) {
        let from = (next() % n as u64) as usize;
        let to = (next() % n as u64) as usize;
        (from, to, random_weight(next), random_weight(next))
    }

    /// The arcs a graph should hold: `(from, to, cost, time)` per arc.
    type Model = Vec<(usize, usize, Rational, Rational)>;

    fn build(node_count: usize, model: &Model) -> RatioGraph {
        let mut g = RatioGraph::new(node_count);
        for &(from, to, cost, time) in model {
            g.add_arc(g.node(from), g.node(to), cost, time);
        }
        g
    }

    fn assert_holds(g: &RatioGraph, model: &Model, label: &str) {
        assert_eq!(g.arc_count(), model.len(), "{label}");
        for ((id, arc), &(from, to, cost, time)) in g.arcs().zip(model) {
            assert_eq!(
                (arc.from().index(), arc.to().index()),
                (from, to),
                "{label} {id:?}"
            );
            assert_eq!((arc.cost(), arc.time()), (cost, time), "{label} {id:?}");
            assert!(arc.has_weights(&cost, &time), "{label} {id:?}");
        }
    }

    #[test]
    fn arcs_return_the_values_added_and_paths_sum_them_exactly() {
        for seed in 0..200u64 {
            let mut next = xorshift(seed);
            let n = 1 + (next() % 12) as usize;
            let model: Model = (0..1 + next() % 40)
                .map(|_| random_arc(&mut next, n))
                .collect();
            let g = build(n, &model);
            assert_holds(&g, &model, &format!("seed {seed}"));
            for _ in 0..8 {
                let path: Vec<ArcId> = (0..1 + next() % 6)
                    .map(|_| ArcId::new((next() % model.len() as u64) as usize))
                    .collect();
                let mut cost = csdf::RationalSum::new();
                let mut time = csdf::RationalSum::new();
                let expected = path.iter().try_for_each(|&id| {
                    cost.add(&model[id.index()].2)?;
                    time.add(&model[id.index()].3)
                });
                let expected = expected.map(|()| (cost.finish(), time.finish()));
                assert_eq!(g.path_weight(&path), expected, "seed {seed}");
            }
        }
    }

    #[test]
    fn patched_and_laid_out_graphs_equal_fresh_builds() {
        let mut renumbered = false;
        for seed in 0..100u64 {
            let mut next = xorshift(seed);
            let mut n = 1 + (next() % 8) as usize;
            let mut model: Model = (0..1 + next() % 20)
                .map(|_| random_arc(&mut next, n))
                .collect();
            let mut g = build(n, &model);
            g.rebuild_adjacency();
            for step in 0..30 {
                let label = format!("seed {seed} step {step}");
                match next() % 3 {
                    0 if !model.is_empty() => {
                        let id = (next() % model.len() as u64) as usize;
                        let (_, _, cost, time) = random_arc(&mut next, n);
                        model[id].2 = cost;
                        model[id].3 = time;
                        g.patch_arc_weights(ArcId::new(id), cost, time);
                    }
                    1 if !model.is_empty() => {
                        let id = (next() % model.len() as u64) as usize;
                        model[id] = random_arc(&mut next, n);
                        let (from, to, cost, time) = model[id];
                        g.patch_arc(ArcId::new(id), g.node(from), g.node(to), cost, time);
                    }
                    _ => {
                        // Lay out again over a new node count, keeping the
                        // arcs whose endpoints survive and adding new ones.
                        n = 1 + (next() % 8) as usize;
                        let old = g.relayout(n, model.len());
                        assert_holds(&old, &model, &label);
                        let mut kept = Model::new();
                        for (id, arc) in old.arcs() {
                            let (from, to) = (arc.from().index(), arc.to().index());
                            if from < n && to < n && next() % 4 != 0 {
                                kept.push(model[id.index()]);
                                g.add_arc(g.node(from), g.node(to), arc.cost(), arc.time());
                            }
                        }
                        for _ in 0..next() % 4 {
                            let added = random_arc(&mut next, n);
                            g.add_arc(g.node(added.0), g.node(added.1), added.2, added.3);
                            kept.push(added);
                        }
                        model = kept;
                    }
                }
                let fresh = build(n, &model);
                assert_holds(&g, &model, &label);
                assert_eq!(g, fresh, "{label}");
                renumbered |= g.classes() != fresh.classes();
                g.rebuild_adjacency();
            }
        }
        assert!(renumbered, "no graph numbered its classes differently");
    }

    #[test]
    fn class_lookups_find_known_classes_and_one_class_builds_no_map() {
        let mut g = RatioGraph::new(1);
        for _ in 0..3 {
            g.add_arc(
                g.node(0),
                g.node(0),
                Rational::ONE,
                Rational::new(1, 2).unwrap(),
            );
        }
        assert_eq!(g.classes().len(), 1);
        assert_eq!(g.classes.index.capacity(), 0);
        for den in 1..=40i128 {
            g.add_arc(
                g.node(0),
                g.node(0),
                Rational::ONE,
                Rational::new(1, den).unwrap(),
            );
        }
        // Re-adding a known class finds it instead of appending it.
        g.add_arc(
            g.node(0),
            g.node(0),
            Rational::ONE,
            Rational::new(3, 7).unwrap(),
        );
        g.add_arc(
            g.node(0),
            g.node(0),
            Rational::ONE,
            Rational::new(3, 2).unwrap(),
        );
        assert_eq!(g.classes().len(), 40);
        assert_eq!(g.arc(ArcId::new(43)).time(), Rational::new(3, 7).unwrap());
        assert_eq!(g.arc(ArcId::new(44)).time(), Rational::new(3, 2).unwrap());
    }

    #[test]
    fn adjacency_tracks_relayouts_even_at_equal_arc_counts() {
        // A relayout followed by re-adding the same number of arcs must not
        // be mistaken for a current index (regression guard for the version
        // counter: plain arc-count comparison would be fooled here).
        let mut g = RatioGraph::new(2);
        g.add_arc(g.node(0), g.node(1), Rational::ONE, Rational::ONE);
        g.rebuild_adjacency();
        g.relayout(2, 1);
        g.add_arc(g.node(1), g.node(0), Rational::ONE, Rational::ONE);
        assert!(!g.adjacency_current());
        g.rebuild_adjacency();
        assert_eq!(outgoing(&g, g.node(1)).len(), 1);
        assert!(outgoing(&g, g.node(0)).is_empty());
    }
}
