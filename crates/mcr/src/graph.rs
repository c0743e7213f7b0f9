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
/// The graph is a plain arc store: it keeps no adjacency index. Its
/// readers — the MCR [`crate::Solver`] and [`crate::SccDecomposition`] —
/// index the arcs by source node themselves, each into arrays of its own.
///
/// # Patching and laying out again
///
/// Besides one-shot construction ([`RatioGraph::new`] + [`RatioGraph::add_arc`]),
/// the graph supports in-place updates for callers that repeatedly rebuild
/// almost-identical graphs (the K-Iter event-graph arena):
/// [`RatioGraph::patch_arc`] overwrites a single arc, and
/// [`RatioGraph::relayout`] hands the old arcs back while the new ones are
/// added. The class table only grows, so a patched graph may number its
/// classes differently from a fresh build of the same arcs.
///
/// Two graphs compare equal ([`PartialEq`]) when they have the same node
/// count and the same arcs, in the same insertion order, with equal cost and
/// time values — resolved values, not class numbers (the class table is not
/// compared).
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
}

impl PartialEq for RatioGraph {
    fn eq(&self, other: &Self) -> bool {
        // The class table is derived state: arcs compare as views, by
        // resolved values.
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
    /// class table is kept.
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
        };
        self.node_count = node_count;
        old
    }

    /// Adds an arc and returns its id. O(1): the arc is appended to the arc
    /// columns.
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
        id
    }

    /// Replaces an existing arc in place — endpoints and weights.
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

    /// Heap bytes the graph holds: arc columns and class table, by
    /// capacity.
    pub fn heap_bytes(&self) -> usize {
        fn bytes<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        bytes(&self.arcs.links)
            + bytes(&self.arcs.numerators)
            + bytes(&self.classes.classes)
            + self.classes.index.capacity() * (std::mem::size_of::<(Denominators, u32)>() + 1)
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

/// A CSR (compressed sparse row) adjacency index over a graph's arc
/// columns: `arcs[offsets[v] .. offsets[v + 1]]` are the arcs leaving node
/// `v`, in insertion order, and `targets[slot]` is the target node of
/// `arcs[slot]` — flat `u32` arrays, 4 bytes per node and 8 per arc, so
/// traversals read contiguous words. The [`crate::Solver`] keeps one warm
/// across solves; [`crate::SccDecomposition::compute`] builds its own.
#[derive(Debug, Clone, Default)]
pub(crate) struct Csr {
    pub(crate) offsets: Vec<u32>,
    pub(crate) arcs: Vec<ArcId>,
    pub(crate) targets: Vec<u32>,
}

impl Csr {
    /// Rebuilds the index over `arcs` in place with a stable counting sort
    /// (arcs leaving the same node keep their insertion order, which every
    /// solver tie-break depends on), keeping every allocation.
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

    /// A CSR index over `g`'s arcs.
    fn index(g: &RatioGraph) -> Csr {
        let mut csr = Csr::default();
        csr.build(g.node_count(), g.columns());
        csr
    }

    /// The arcs leaving `node`, read from a CSR index over `g`.
    fn outgoing(g: &RatioGraph, node: NodeId) -> Vec<ArcId> {
        let csr = index(g);
        csr.arcs[csr.row(node.index())].to_vec()
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
        assert_eq!(outgoing(&g, a), [e1]);
        assert_eq!(outgoing(&g, b), [e2]);
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
        let reference = g.clone();

        let old = g.relayout(3, 2);
        assert_eq!(old.arc_count(), 2);
        assert_eq!(old.node_count(), 2);
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.arc_count(), 0);

        let old = g.relayout(2, 2);
        assert_eq!(old.arc_count(), 0);
        g.add_arc(g.node(0), g.node(1), Rational::ONE, Rational::ONE);
        g.add_arc(g.node(1), g.node(0), Rational::ONE, Rational::ONE);
        assert_eq!(g, reference);
    }

    #[test]
    fn patch_moves_an_arc_and_matches_a_fresh_build() {
        let mut g = RatioGraph::new(3);
        let e1 = g.add_arc(g.node(0), g.node(1), Rational::ONE, Rational::ONE);
        let e2 = g.add_arc(g.node(1), g.node(2), Rational::ONE, Rational::ONE);

        // Weights only: the arc stays in its source node's row.
        g.patch_arc(
            e1,
            g.node(0),
            g.node(1),
            Rational::from_integer(7),
            Rational::ZERO,
        );
        assert_eq!(outgoing(&g, g.node(0)), [e1]);
        assert_eq!(g.arc(e1).cost(), Rational::from_integer(7));
        assert_eq!(g.arc(e1).time(), Rational::ZERO);

        // Endpoints too: the arc moves to another row.
        g.patch_arc(
            e2,
            g.node(2),
            g.node(0),
            Rational::from_integer(5),
            Rational::from_integer(2),
        );
        assert_eq!(outgoing(&g, g.node(2)), [e2]);
        assert!(outgoing(&g, g.node(1)).is_empty());

        let mut fresh = RatioGraph::new(3);
        fresh.add_arc(
            fresh.node(0),
            fresh.node(1),
            Rational::from_integer(7),
            Rational::ZERO,
        );
        fresh.add_arc(
            fresh.node(2),
            fresh.node(0),
            Rational::from_integer(5),
            Rational::from_integer(2),
        );
        assert_eq!(g, fresh);
    }

    #[test]
    fn csr_targets_follow_every_build() {
        let mut g = RatioGraph::new(3);
        g.add_arc(g.node(2), g.node(0), Rational::ONE, Rational::ONE);
        let moved = g.add_arc(g.node(0), g.node(1), Rational::ONE, Rational::ONE);
        g.add_arc(g.node(0), g.node(2), Rational::ONE, Rational::ONE);
        // One index rebuilt in place after every change, as the solver does.
        let mut csr = Csr::default();
        let mut check = |g: &RatioGraph| {
            csr.build(g.node_count(), g.columns());
            for (&arc, &target) in csr.arcs.iter().zip(&csr.targets) {
                assert_eq!(target as usize, g.arc(arc).to().index());
            }
            assert_eq!(csr.arcs, index(g).arcs);
            assert_eq!(csr.offsets, index(g).offsets);
        };
        check(&g);
        g.patch_arc(moved, g.node(1), g.node(1), Rational::ONE, Rational::ONE);
        check(&g);
        assert_eq!(outgoing(&g, g.node(1)), [moved]);
        g.relayout(2, 1);
        g.add_arc(g.node(1), g.node(0), Rational::ONE, Rational::ONE);
        check(&g);
        assert_eq!(outgoing(&g, g.node(1)).len(), 1);
        assert!(outgoing(&g, g.node(0)).is_empty());
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
            for step in 0..30 {
                let label = format!("seed {seed} step {step}");
                match next() % 3 {
                    0 if !model.is_empty() => {
                        let id = (next() % model.len() as u64) as usize;
                        let (_, _, cost, time) = random_arc(&mut next, n);
                        model[id].2 = cost;
                        model[id].3 = time;
                        let (from, to) = (g.node(model[id].0), g.node(model[id].1));
                        g.patch_arc(ArcId::new(id), from, to, cost, time);
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
}
