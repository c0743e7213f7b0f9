//! Maximum cost-to-time ratio solvers and the solver-selection layer.
//!
//! Solves the Maximum Cost-to-time Ratio Problem (MCRP) of Dasdan, Irani and
//! Gupta (reference [5] of the paper): given a directed graph whose arcs carry
//! a cost `L(e)` and a time `H(e)`, compute
//! `λ = max_{c ∈ C(G)} ΣL(c) / ΣH(c)` together with a critical circuit.
//!
//! Two exact algorithms are provided, selectable through [`SolverChoice`]:
//!
//! * the **parametric** method: starting from `λ = 0` it repeatedly searches,
//!   with a Bellman–Ford longest-walk pass over lexicographic weights
//!   `(L(e) − λ·H(e), −H(e))`, for a circuit whose reduced weight is positive.
//!   Every circuit found strictly increases `λ` (or proves the instance
//!   infeasible when its total time is not positive), so the iteration
//!   terminates on the exact maximum ratio over the finite set of simple
//!   circuits.
//! * **Howard's policy iteration** ([`crate::howard`]): the practical fast
//!   solver for large event graphs. It converges in a handful of policy
//!   improvements and hands its estimate to the parametric certifier whenever
//!   its cheap optimality certificate does not apply, so its results are
//!   always identical to the parametric method's.
//!
//! All arithmetic is exact rational arithmetic; `f64` is never consulted.

use std::fmt;

use csdf::{Rational, RationalError};

use crate::cancel::CancelToken;
use crate::graph::{ArcId, Csr, NodeId, RatioGraph};
use crate::howard::{self, HowardOutcome};
use crate::kernel::{self, IntWords};
use crate::scc::SccBuffers;

/// Errors raised by the MCRP solver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum McrError {
    /// Exact rational arithmetic overflowed.
    Rational(RationalError),
    /// Internal invariant violation (a found circuit failed to strictly
    /// increase `λ`). This cannot happen for well-formed inputs; the variant
    /// is kept so that the defensive check fails loudly instead of looping.
    IterationLimit,
    /// The solve observed a cancelled [`CancelToken`] (explicit cancellation
    /// or an elapsed deadline) and bailed out cooperatively.
    Cancelled,
}

impl fmt::Display for McrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            McrError::Rational(err) => write!(f, "{err}"),
            McrError::IterationLimit => write!(f, "cycle ratio solver failed to make progress"),
            McrError::Cancelled => {
                write!(f, "cycle ratio solve was cancelled before completion")
            }
        }
    }
}

impl std::error::Error for McrError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            McrError::Rational(err) => Some(err),
            McrError::IterationLimit | McrError::Cancelled => None,
        }
    }
}

impl From<RationalError> for McrError {
    fn from(err: RationalError) -> Self {
        McrError::Rational(err)
    }
}

/// A circuit of the ratio graph together with its accumulated cost and time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CriticalCycle {
    /// Arcs of the circuit, in traversal order.
    pub arcs: Vec<ArcId>,
    /// Nodes of the circuit, in traversal order (`nodes[i]` is the source of
    /// `arcs[i]`).
    pub nodes: Vec<NodeId>,
    /// Total cost `ΣL(c)`.
    pub cost: Rational,
    /// Total time `ΣH(c)`.
    pub time: Rational,
}

impl CriticalCycle {
    /// The cost-to-time ratio of the circuit.
    ///
    /// # Errors
    ///
    /// Returns an error when the total time is zero.
    pub fn ratio(&self) -> Result<Rational, RationalError> {
        self.cost.checked_div(&self.time)
    }

    /// Number of arcs in the circuit.
    pub fn len(&self) -> usize {
        self.arcs.len()
    }

    /// Returns `true` for an empty circuit (never produced by the solver).
    pub fn is_empty(&self) -> bool {
        self.arcs.is_empty()
    }
}

/// Outcome of [`maximum_cycle_ratio`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CycleRatioOutcome {
    /// The graph has no circuit at all.
    Acyclic,
    /// Circuits exist but none has a positive ratio: the ratio problem does
    /// not constrain the period (all circuit costs are zero).
    NonPositive,
    /// The maximum ratio is finite and positive; `cycle` is a critical
    /// circuit attaining it.
    Finite {
        /// The maximum cost-to-time ratio `λ`.
        ratio: Rational,
        /// A circuit attaining the maximum.
        cycle: CriticalCycle,
    },
    /// A circuit with positive cost and non-positive time exists: the ratio is
    /// unbounded (for throughput evaluation this means no periodic schedule
    /// exists for the given periodicity vector).
    Infinite {
        /// The offending circuit.
        cycle: CriticalCycle,
        /// Further offending circuits: the other infeasible circuits of the
        /// Howard policy that met `cycle`, in discovery order. Empty when the
        /// parametric method decided the component.
        others: Vec<CriticalCycle>,
    },
}

impl CycleRatioOutcome {
    /// The finite maximum ratio, if any.
    pub fn ratio(&self) -> Option<Rational> {
        match self {
            CycleRatioOutcome::Finite { ratio, .. } => Some(*ratio),
            _ => None,
        }
    }

    /// The critical circuit, if the outcome carries one.
    pub fn cycle(&self) -> Option<&CriticalCycle> {
        match self {
            CycleRatioOutcome::Finite { cycle, .. } | CycleRatioOutcome::Infinite { cycle, .. } => {
                Some(cycle)
            }
            _ => None,
        }
    }
}

/// Which algorithm a [`Solver`] runs on each strongly connected component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SolverChoice {
    /// Pick per component: Howard's policy iteration for components with at
    /// least [`AUTO_HOWARD_MIN_NODES`] nodes, the parametric method below.
    /// This is the recommended default and what K-Iter uses.
    #[default]
    Auto,
    /// The parametric Bellman–Ford method, unconditionally.
    Parametric,
    /// Howard's policy iteration, unconditionally (falls back to the
    /// parametric certifier in situations its optimality certificate does not
    /// cover; results are always identical to [`SolverChoice::Parametric`]).
    Howard,
}

/// Component size at which [`SolverChoice::Auto`] switches from the
/// parametric method to Howard's policy iteration.
///
/// Head-to-head benchmarks (`benches/mcr_solvers`) show Howard ahead from a
/// handful of nodes already — each λ-round of the parametric method costs
/// `Θ(n)` Bellman–Ford relaxation sweeps while Howard converges in a few
/// policy improvements — so only trivial components stay parametric.
pub const AUTO_HOWARD_MIN_NODES: usize = 4;

/// Whether `choice` runs Howard's policy iteration on a component of `n`
/// nodes (otherwise the parametric method).
fn uses_howard(choice: SolverChoice, n: usize) -> bool {
    match choice {
        SolverChoice::Auto => n >= AUTO_HOWARD_MIN_NODES,
        SolverChoice::Howard => true,
        SolverChoice::Parametric => false,
    }
}

/// A Howard kernel: runs policy iteration on the component loaded in the
/// scratch. The solver always uses [`integer_howard`]; the kernel tests swap
/// in the scalar kernel through [`Solver::solve_using`].
pub(crate) type HowardKernel = fn(&RatioGraph, &mut Scratch, usize) -> HowardOutcome;

/// The integer kernel ([`crate::kernel`]), falling back to the scalar
/// [`crate::howard`] kernel when no integer lane admits the component.
/// Outcomes are bit-identical either way.
pub(crate) fn integer_howard(graph: &RatioGraph, scratch: &mut Scratch, n: usize) -> HowardOutcome {
    kernel::howard_component_int(graph, scratch, n).unwrap_or_else(|| {
        scratch.lanes.scalar += 1;
        scratch.ensure_component_rationals(graph);
        howard::howard_component(scratch, n)
    })
}

/// How many strongly connected components a [`Solver`] sent down each
/// path, cumulative over every solve ([`Solver::lane_counts`]). Each cyclic
/// component counts once: under the lane that solved it, whatever Howard's
/// outcome (a component Howard hands to the parametric certifier still
/// counts under its Howard lane), or under `parametric` when the
/// [`SolverChoice`] never runs Howard on it. The integer lanes are described
/// in the `kernel` module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LaneCounts {
    /// Components Howard solved on `i64` words.
    pub int64: u64,
    /// Components Howard solved on `i128` words.
    pub int128: u64,
    /// Components the scalar `Rational` kernel solved because no integer
    /// lane admitted them: a common denominator or a scaled weight past
    /// `i128`, `n·B` (nodes times the largest scaled weight) past `2^62`,
    /// or a ratio past `i128`.
    pub scalar: u64,
    /// Components sent straight to the parametric method.
    pub parametric: u64,
}

impl LaneCounts {
    /// Adds the counts of `other` to these.
    pub fn merge(&mut self, other: &LaneCounts) {
        self.int64 += other.int64;
        self.int128 += other.int128;
        self.scalar += other.scalar;
        self.parametric += other.parametric;
    }
}

/// A start policy for Howard's policy iteration, and the policy a solve
/// ends with: at most one chosen successor per node of a [`RatioGraph`].
///
/// [`Solver::solve_from`] seeds each node with its arc to the recorded
/// successor (the first such arc; the node's first outgoing arc when the
/// successor is absent or no arc reaches it) and leaves the final policy of
/// every Howard-solved component behind. The start changes how many rounds
/// the iteration takes and which of several tied or infeasible circuits it
/// reports, never the outcome variant or the ratio.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Policy {
    /// Successor node per node; [`NO_SUCCESSOR`] when absent.
    successor: Vec<u32>,
}

/// The absent successor in [`Policy`] and `Scratch::start`.
pub(crate) const NO_SUCCESSOR: u32 = u32::MAX;

impl Policy {
    /// An empty policy: every node starts from its first outgoing arc.
    pub fn new() -> Self {
        Policy::default()
    }

    /// The recorded successor of `node`, if any.
    pub fn successor(&self, node: NodeId) -> Option<NodeId> {
        match self.successor.get(node.index()) {
            Some(&next) if next != NO_SUCCESSOR => Some(NodeId::new(next as usize)),
            _ => None,
        }
    }

    /// Records `successor` as the preferred successor of `node`.
    pub fn set_successor(&mut self, node: NodeId, successor: NodeId) {
        if self.successor.len() <= node.index() {
            self.successor.resize(node.index() + 1, NO_SUCCESSOR);
        }
        self.successor[node.index()] = u32::try_from(successor.index()).unwrap_or(NO_SUCCESSOR);
    }
}

/// A reusable maximum cycle ratio solver.
///
/// The solver owns scratch buffers (CSR adjacency, SCC decomposition,
/// component views, Bellman–Ford state, policy-iteration state) that are
/// reused across [`Solver::solve`] calls, so repeated solves — the K-Iter hot
/// path performs one per iteration — do not reallocate. Components are
/// solved one after another on the calling thread.
///
/// # Examples
///
/// ```
/// use mcr::{RatioGraph, Solver, SolverChoice, CycleRatioOutcome};
/// use csdf::Rational;
///
/// let mut graph = RatioGraph::new(2);
/// let (a, b) = (graph.node(0), graph.node(1));
/// graph.add_arc(a, b, Rational::from_integer(3), Rational::from_integer(1));
/// graph.add_arc(b, a, Rational::from_integer(1), Rational::from_integer(1));
///
/// let mut solver = Solver::new(SolverChoice::Howard);
/// let outcome = solver.solve(&graph)?;
/// assert_eq!(outcome.ratio(), Some(Rational::from_integer(2)));
/// # Ok::<(), mcr::McrError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Solver {
    choice: SolverChoice,
    scratch: Scratch,
    /// Reusable SCC state and the CSR adjacency index of the graph being
    /// solved, rebuilt by every solve into arrays kept warm across solves.
    scc: SccBuffers,
    csr: Csr,
}

impl Solver {
    /// Creates a solver running the given algorithm.
    pub fn new(choice: SolverChoice) -> Self {
        Solver {
            choice,
            ..Solver::default()
        }
    }

    /// The configured algorithm choice.
    pub fn choice(&self) -> SolverChoice {
        self.choice
    }

    /// Installs a cancellation token polled once per policy-iteration /
    /// Bellman–Ford round of subsequent solves. A cancelled solve returns
    /// [`McrError::Cancelled`]; the solver and all its scratch buffers stay
    /// reusable afterwards. Pass [`CancelToken::default`] to detach.
    pub fn set_cancel_token(&mut self, token: CancelToken) {
        self.scratch.cancel = token;
    }

    /// Number of Howard policy-evaluation rounds run by this solver so far
    /// (cumulative over every solve, both kernels).
    pub fn howard_rounds(&self) -> u64 {
        self.scratch.howard_rounds
    }

    /// Components solved per path so far (cumulative over every solve).
    pub fn lane_counts(&self) -> LaneCounts {
        self.scratch.lanes
    }

    /// Computes the maximum cost-to-time ratio of `graph` and a critical
    /// circuit, with Howard starting cold (the first outgoing arc of every
    /// node). Every [`SolverChoice`] gives the same outcome variant and
    /// ratio; the reported circuits may differ where several qualify.
    ///
    /// # Errors
    ///
    /// Returns [`McrError::Rational`] if the exact arithmetic overflows
    /// `i128`, and [`McrError::Cancelled`] if the installed token fires.
    pub fn solve(&mut self, graph: &RatioGraph) -> Result<CycleRatioOutcome, McrError> {
        self.solve_using(graph, integer_howard, None)
    }

    /// [`Solver::solve`] with Howard seeded from `policy` (see [`Policy`]),
    /// which is then overwritten with the final policy of every
    /// Howard-solved component (other nodes have no successor). Outcome
    /// variant and ratio equal those of [`Solver::solve`].
    ///
    /// # Errors
    ///
    /// Same as [`Solver::solve`]; `policy` is then left partially written.
    pub fn solve_from(
        &mut self,
        graph: &RatioGraph,
        policy: &mut Policy,
    ) -> Result<CycleRatioOutcome, McrError> {
        self.solve_using(graph, integer_howard, Some(policy))
    }

    /// [`Solver::solve_from`] with an explicit Howard kernel; `None` is the
    /// cold start with no policy written back.
    pub(crate) fn solve_using(
        &mut self,
        graph: &RatioGraph,
        howard: HowardKernel,
        mut policy: Option<&mut Policy>,
    ) -> Result<CycleRatioOutcome, McrError> {
        let Solver {
            choice,
            scratch,
            scc,
            csr,
        } = self;
        if scratch.cancel.is_cancelled() {
            return Err(McrError::Cancelled);
        }
        csr.build(graph.node_count(), graph.columns());
        scc.compute(graph.node_count(), csr);
        scratch.prepare(graph.node_count());
        // The start is read per component; the final policy is written into
        // a fresh all-absent table.
        let start = policy.as_deref_mut().map_or_else(Vec::new, |policy| {
            std::mem::replace(
                &mut policy.successor,
                vec![NO_SUCCESSOR; graph.node_count()],
            )
        });
        let mut cyclic = false;
        let mut best: Option<(Rational, CriticalCycle)> = None;
        for component in 0..scc.component_count() {
            if !scc.is_cyclic_component(component, csr) {
                continue;
            }
            cyclic = true;
            let members = scc.component(component);
            scratch.begin_component(members, csr);
            scratch.load_start(members, &start);
            let outcome = solve_component(graph, scratch, *choice, howard, members.len());
            if let (Some(policy), true) =
                (policy.as_deref_mut(), uses_howard(*choice, members.len()))
            {
                scratch.store_policy(members, &mut policy.successor);
            }
            scratch.end_component(members);
            match outcome? {
                ComponentOutcome::NonPositive => {}
                ComponentOutcome::Finite { ratio, cycle } => {
                    if best.as_ref().map_or(true, |(r, _)| ratio > *r) {
                        best = Some((ratio, cycle));
                    }
                }
                ComponentOutcome::Infinite { mut cycles } => {
                    let cycle = cycles.remove(0);
                    return Ok(CycleRatioOutcome::Infinite {
                        cycle,
                        others: cycles,
                    });
                }
            }
        }
        Ok(match best {
            Some((ratio, cycle)) => CycleRatioOutcome::Finite { ratio, cycle },
            None if cyclic => CycleRatioOutcome::NonPositive,
            None => CycleRatioOutcome::Acyclic,
        })
    }
}

/// Dispatches one strongly connected component (loaded in `scratch`) to the
/// selected algorithm.
fn solve_component(
    graph: &RatioGraph,
    scratch: &mut Scratch,
    choice: SolverChoice,
    howard: HowardKernel,
    n: usize,
) -> Result<ComponentOutcome, McrError> {
    if !uses_howard(choice, n) {
        scratch.lanes.parametric += 1;
        return parametric_component(graph, scratch, n, Rational::ZERO, None);
    }
    match howard(graph, scratch, n) {
        HowardOutcome::Infinite { circuits } => {
            let cycles = circuits
                .iter()
                .map(|positions| materialize_cycle(graph, scratch, positions))
                .collect::<Result<_, _>>()?;
            Ok(ComponentOutcome::Infinite { cycles })
        }
        HowardOutcome::Certified { lambda, positions } => {
            let cycle = materialize_cycle(graph, scratch, &positions)?;
            Ok(ComponentOutcome::Finite {
                ratio: lambda,
                cycle,
            })
        }
        HowardOutcome::Estimate { lambda, positions } => {
            parametric_component(graph, scratch, n, lambda, Some(positions))
        }
        HowardOutcome::Bail => parametric_component(graph, scratch, n, Rational::ZERO, None),
    }
}

/// Computes the maximum cost-to-time ratio of `graph` and a critical circuit
/// with the parametric method (see [`Solver`] / [`SolverChoice`] for the
/// algorithm selection layer and Howard's policy iteration).
///
/// # Errors
///
/// Returns [`McrError::Rational`] if the exact arithmetic overflows `i128`.
///
/// # Examples
///
/// ```
/// use mcr::{RatioGraph, maximum_cycle_ratio, CycleRatioOutcome};
/// use csdf::Rational;
///
/// // Two circuits: ratio 3/1 and ratio 5/4; the maximum is 3.
/// let mut graph = RatioGraph::new(3);
/// let (a, b, c) = (graph.node(0), graph.node(1), graph.node(2));
/// graph.add_arc(a, a, Rational::from_integer(3), Rational::from_integer(1));
/// graph.add_arc(b, c, Rational::from_integer(2), Rational::from_integer(3));
/// graph.add_arc(c, b, Rational::from_integer(3), Rational::from_integer(1));
/// match maximum_cycle_ratio(&graph)? {
///     CycleRatioOutcome::Finite { ratio, .. } => assert_eq!(ratio, Rational::from_integer(3)),
///     other => panic!("unexpected {other:?}"),
/// }
/// # Ok::<(), mcr::McrError>(())
/// ```
pub fn maximum_cycle_ratio(graph: &RatioGraph) -> Result<CycleRatioOutcome, McrError> {
    Solver::new(SolverChoice::Parametric).solve(graph)
}

enum ComponentOutcome {
    NonPositive,
    Finite {
        ratio: Rational,
        cycle: CriticalCycle,
    },
    /// Never empty; the first circuit is the one reported as `cycle`.
    Infinite {
        cycles: Vec<CriticalCycle>,
    },
}

/// Reusable per-solve state shared by the parametric method and Howard's
/// policy iteration. One strongly connected component at a time is loaded
/// into the dense "component view" (`arc_*`, `first`); stamp-based marker
/// arrays avoid `O(n)` clears between uses. Node and arc indices are `u32`
/// (the CSR index already bounds both counts by `u32::MAX`).
#[derive(Debug, Clone, Default)]
pub(crate) struct Scratch {
    // Component view: arcs grouped by (local) source node, CSR layout.
    /// Local id per graph node of the current component, [`NO_LOCAL`]
    /// elsewhere.
    local_of: Vec<u32>,
    arc_from: Vec<u32>,
    pub(crate) arc_to: Vec<u32>,
    pub(crate) arc_cost: Vec<Rational>,
    pub(crate) arc_time: Vec<Rational>,
    pub(crate) arc_id: Vec<ArcId>,
    pub(crate) first: Vec<u32>,
    /// Whether `arc_cost`/`arc_time` hold the current component's weights
    /// (loads are lean; see [`Scratch::ensure_component_rationals`]).
    rationals_loaded: bool,
    // Parametric Bellman–Ford state.
    reduced: Vec<(Rational, Rational)>,
    distance: Vec<(Rational, Rational)>,
    predecessor: Vec<usize>,
    active: Vec<usize>,
    next_active: Vec<usize>,
    in_next: Vec<bool>,
    // Howard policy-iteration state: the chosen arc position per node.
    pub(crate) policy: Vec<u32>,
    /// Start policy of the current component: preferred successor per local
    /// node (local ids, [`NO_SUCCESSOR`] for none); empty for a cold start.
    pub(crate) start: Vec<u32>,
    /// Cumulative count of Howard policy-evaluation rounds.
    pub(crate) howard_rounds: u64,
    /// Cumulative components per path.
    pub(crate) lanes: LaneCounts,
    pub(crate) gain: Vec<Rational>,
    pub(crate) value: Vec<Rational>,
    // Integer Howard kernel state, one set of words per width (see
    // `crate::kernel`).
    pub(crate) words64: IntWords<i64>,
    pub(crate) words128: IntWords<i128>,
    /// Per denominator class of the graph: the integer kernel's scale
    /// factors for the current component, `(0, 0)` for a class it does not
    /// use ...
    pub(crate) class_factor: Vec<(i128, i128)>,
    /// ... and the classes it uses, in order of first use.
    pub(crate) class_used: Vec<u32>,
    // Stamped marker arrays shared by cycle walks/scans (valid when the entry
    // equals the current `epoch`; see [`Scratch::advance_epoch`]).
    pub(crate) mark: Vec<u32>,
    pub(crate) mark_pos: Vec<u32>,
    pub(crate) resolved: Vec<u32>,
    pub(crate) walk: Vec<u32>,
    epoch: u32,
    /// Cancellation token polled once per solver round (see
    /// [`Solver::set_cancel_token`]); the default token never cancels.
    pub(crate) cancel: CancelToken,
}

/// The absent local id in `Scratch::local_of`.
const NO_LOCAL: u32 = u32::MAX;

impl Scratch {
    /// Prepares the graph-sized renumbering table for a new solve.
    fn prepare(&mut self, node_count: usize) {
        if self.local_of.len() < node_count {
            self.local_of.resize(node_count, NO_LOCAL);
        }
    }

    /// Moves the stamp epoch `step` ahead and returns it: stamps equal to
    /// the new epoch, or to the `step - 1` values below it, are fresh, every
    /// older one is stale. When the counter would wrap, every stamp is
    /// cleared first.
    pub(crate) fn advance_epoch(&mut self, step: u32) -> u32 {
        if self.epoch > u32::MAX - step {
            self.mark.fill(0);
            self.resolved.fill(0);
            self.epoch = 0;
        }
        self.epoch += step;
        self.epoch
    }

    /// Loads one component into the dense view, reading adjacency (arc ids
    /// and targets) from the CSR index. Arcs are grouped by source node
    /// simply by scanning members in order. The load is lean: the per-arc
    /// `Rational` weight copies are skipped (the integer kernel reads weights
    /// straight from the graph through `arc_id`); any path that needs them
    /// calls [`Scratch::ensure_component_rationals`] first.
    fn begin_component(&mut self, members: &[u32], csr: &Csr) {
        let n = members.len();
        for (local, &node) in (0u32..).zip(members) {
            self.local_of[node as usize] = local;
        }
        self.arc_from.clear();
        self.arc_to.clear();
        self.arc_id.clear();
        self.first.clear();
        self.first.reserve(n + 1);
        for (local, &node) in (0u32..).zip(members) {
            self.first.push(self.arc_to.len() as u32);
            let row = csr.row(node as usize);
            for (&target, &arc_id) in csr.targets[row.clone()].iter().zip(&csr.arcs[row]) {
                let to = self.local_of[target as usize];
                if to == NO_LOCAL {
                    continue;
                }
                self.arc_from.push(local);
                self.arc_to.push(to);
                self.arc_id.push(arc_id);
            }
        }
        self.first.push(self.arc_to.len() as u32);
        self.rationals_loaded = false;
        // Node-sized state used by both algorithms.
        grow_stamped(&mut self.mark, n);
        grow_stamped(&mut self.resolved, n);
        if self.mark_pos.len() < n {
            self.mark_pos.resize(n, 0);
        }
    }

    /// Fills `arc_cost`/`arc_time` for the current component (in `arc_id`
    /// order) unless they are already loaded.
    pub(crate) fn ensure_component_rationals(&mut self, graph: &RatioGraph) {
        if self.rationals_loaded {
            return;
        }
        self.arc_cost.clear();
        self.arc_time.clear();
        self.arc_cost.reserve(self.arc_id.len());
        self.arc_time.reserve(self.arc_id.len());
        for &arc_id in &self.arc_id {
            let arc = graph.arc(arc_id);
            self.arc_cost.push(arc.cost());
            self.arc_time.push(arc.time());
        }
        self.rationals_loaded = true;
    }

    /// Translates the solve's start policy (`successors` in graph node ids,
    /// possibly empty) onto the current component's local ids; successors
    /// outside the component count as absent.
    fn load_start(&mut self, members: &[u32], successors: &[u32]) {
        self.start.clear();
        if successors.is_empty() {
            return;
        }
        self.start.extend(
            members
                .iter()
                .map(|&node| match successors.get(node as usize) {
                    Some(&next) if next != NO_SUCCESSOR => self.local_of[next as usize],
                    _ => NO_SUCCESSOR,
                }),
        );
    }

    /// Writes the current component's Howard policy back as graph-level
    /// successors. Both kernels set every node's policy (`start_policy`)
    /// before anything else on a cyclic component, so it is never stale.
    fn store_policy(&self, members: &[u32], successors: &mut [u32]) {
        for (local, &node) in members.iter().enumerate() {
            successors[node as usize] = members[self.arc_to[self.policy[local] as usize] as usize];
        }
    }

    /// Restores the renumbering table after a component is done.
    fn end_component(&mut self, members: &[u32]) {
        for &node in members {
            self.local_of[node as usize] = NO_LOCAL;
        }
    }

    /// Number of arcs in the current component view.
    pub(crate) fn arc_len(&self) -> usize {
        self.arc_to.len()
    }
}

fn grow_stamped(buffer: &mut Vec<u32>, n: usize) {
    if buffer.len() < n {
        buffer.resize(n, 0);
    }
}

/// Builds a [`CriticalCycle`] from arc positions of the current component
/// view, recomputing the exact cost and time sums.
pub(crate) fn materialize_cycle(
    graph: &RatioGraph,
    scratch: &Scratch,
    positions: &[usize],
) -> Result<CriticalCycle, McrError> {
    let arcs: Vec<ArcId> = positions.iter().map(|&p| scratch.arc_id[p]).collect();
    let nodes: Vec<NodeId> = arcs.iter().map(|&arc| graph.arc(arc).from()).collect();
    let (cost, time) = graph.path_weight(&arcs)?;
    Ok(CriticalCycle {
        arcs,
        nodes,
        cost,
        time,
    })
}

/// Parametric iteration restricted to one strongly connected component,
/// seeded with a lower bound `λ` and (optionally) a circuit attaining it.
///
/// The iteration needs no a-priori bound: every violating circuit found has
/// strictly larger ratio than the current `λ` (or non-positive time, which
/// settles the component as `Infinite`), and `λ` ranges over the finite set
/// of simple-circuit ratios, so the loop terminates on the exact maximum.
/// The strict-increase invariant is checked defensively on every round.
fn parametric_component(
    graph: &RatioGraph,
    scratch: &mut Scratch,
    n: usize,
    start: Rational,
    start_cycle: Option<Vec<usize>>,
) -> Result<ComponentOutcome, McrError> {
    scratch.ensure_component_rationals(graph);
    let mut lambda = start;
    let mut best = start_cycle;
    loop {
        let Some(positions) = find_violating_cycle(scratch, n, lambda)? else {
            return Ok(match best {
                Some(positions) => ComponentOutcome::Finite {
                    ratio: lambda,
                    cycle: materialize_cycle(graph, scratch, &positions)?,
                },
                None => ComponentOutcome::NonPositive,
            });
        };
        let cycle = materialize_cycle(graph, scratch, &positions)?;
        if !cycle.time.is_positive() {
            return Ok(ComponentOutcome::Infinite {
                cycles: vec![cycle],
            });
        }
        let ratio = cycle.cost.checked_div(&cycle.time)?;
        if ratio <= lambda {
            // A violating circuit with positive time always has ratio > λ;
            // failing this invariant would mean a bug in the cycle search,
            // so fail loudly rather than looping forever.
            return Err(McrError::IterationLimit);
        }
        lambda = ratio;
        best = Some(positions);
    }
}

/// Searches the component for a circuit whose reduced weight
/// `(ΣL − λΣH, −ΣH)` is lexicographically positive, as arc positions of the
/// component view. Returns `None` when no such circuit exists (λ is an upper
/// bound of all finite circuit ratios); the Bellman–Ford distances are left
/// converged in `scratch.distance` in that case.
fn find_violating_cycle(
    scratch: &mut Scratch,
    n: usize,
    lambda: Rational,
) -> Result<Option<Vec<usize>>, McrError> {
    let m = scratch.arc_len();
    scratch.reduced.clear();
    scratch.reduced.reserve(m);
    for position in 0..m {
        let reduced = scratch.arc_cost[position]
            .checked_sub(&lambda.checked_mul(&scratch.arc_time[position])?)?;
        let negative_time = scratch.arc_time[position].checked_neg()?;
        scratch.reduced.push((reduced, negative_time));
    }

    scratch.distance.clear();
    scratch.distance.resize(n, (Rational::ZERO, Rational::ZERO));
    scratch.predecessor.clear();
    scratch.predecessor.resize(n, usize::MAX);
    if scratch.in_next.len() < n {
        scratch.in_next.resize(n, false);
    }
    scratch.active.clear();
    scratch.active.extend(0..n);
    scratch.next_active.clear();

    // Level-synchronous Bellman–Ford with an active set: after round `k` the
    // distances are the maximum reduced weights over walks of at most `k`
    // arcs. If no circuit has positive reduced weight, walks longer than `n`
    // arcs cannot improve on shorter ones and the active set empties by round
    // `n + 1`. If improvements continue past round `n`, a positive circuit
    // exists and the predecessor graph acquires a circuit (distances are
    // bounded by the maximum simple-walk weight while it is acyclic), which
    // the full predecessor scan then extracts.
    let mut round = 0usize;
    loop {
        if scratch.cancel.is_cancelled() {
            return Err(McrError::Cancelled);
        }
        for active_index in 0..scratch.active.len() {
            let node = scratch.active[active_index];
            for position in scratch.first[node] as usize..scratch.first[node + 1] as usize {
                let to = scratch.arc_to[position] as usize;
                let candidate = (
                    scratch.distance[node]
                        .0
                        .checked_add(&scratch.reduced[position].0)?,
                    scratch.distance[node]
                        .1
                        .checked_add(&scratch.reduced[position].1)?,
                );
                if lex_greater(&candidate, &scratch.distance[to]) {
                    scratch.distance[to] = candidate;
                    scratch.predecessor[to] = position;
                    if !scratch.in_next[to] {
                        scratch.in_next[to] = true;
                        scratch.next_active.push(to);
                    }
                }
            }
        }
        for &node in &scratch.next_active {
            scratch.in_next[node] = false;
        }
        if scratch.next_active.is_empty() {
            return Ok(None);
        }
        round += 1;
        if round >= n {
            if let Some(positions) = scan_predecessor_cycle(scratch, n) {
                scratch.next_active.clear();
                return Ok(Some(positions));
            }
        }
        std::mem::swap(&mut scratch.active, &mut scratch.next_active);
        scratch.next_active.clear();
    }
}

fn lex_greater(a: &(Rational, Rational), b: &(Rational, Rational)) -> bool {
    match a.0.cmp(&b.0) {
        std::cmp::Ordering::Greater => true,
        std::cmp::Ordering::Less => false,
        std::cmp::Ordering::Equal => a.1 > b.1,
    }
}

/// Scans the whole predecessor graph for a circuit, in `O(n)` via stamped
/// three-state marking. Returns the circuit's arc positions in traversal
/// order, or `None` while the predecessor graph is still a forest.
fn scan_predecessor_cycle(scratch: &mut Scratch, n: usize) -> Option<Vec<usize>> {
    let done = scratch.advance_epoch(2);
    let on_chain = done - 1;
    for start in 0..n {
        if scratch.mark[start] == done || scratch.mark[start] == on_chain {
            continue;
        }
        scratch.walk.clear();
        let mut current = start;
        let found = loop {
            if scratch.mark[current] == on_chain {
                break true; // the chain bit its own tail
            }
            if scratch.mark[current] == done || scratch.predecessor[current] == usize::MAX {
                break false;
            }
            scratch.mark[current] = on_chain;
            scratch.mark_pos[current] = scratch.walk.len() as u32;
            scratch.walk.push(current as u32);
            current = predecessor_source(scratch, current);
        };
        if found {
            // The chain was collected walking *backwards*: the circuit is the
            // suffix from `current`'s first visit, reversed into traversal
            // order.
            let first = scratch.mark_pos[current] as usize;
            let mut positions: Vec<usize> = scratch.walk[first..]
                .iter()
                .map(|&node| scratch.predecessor[node as usize])
                .collect();
            positions.reverse();
            for &node in &scratch.walk {
                scratch.mark[node as usize] = done;
            }
            return Some(positions);
        }
        for &node in &scratch.walk {
            scratch.mark[node as usize] = done;
        }
    }
    None
}

/// Local source node of the predecessor arc of `node`.
fn predecessor_source(scratch: &Scratch, node: usize) -> usize {
    scratch.arc_from[scratch.predecessor[node]] as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int(v: i128) -> Rational {
        Rational::from_integer(v)
    }

    fn all_choices() -> [SolverChoice; 3] {
        [
            SolverChoice::Auto,
            SolverChoice::Parametric,
            SolverChoice::Howard,
        ]
    }

    #[test]
    fn default_solver_is_the_default_choice_solver() {
        assert_eq!(
            format!("{:?}", Solver::default()),
            format!("{:?}", Solver::new(SolverChoice::default()))
        );
    }

    #[test]
    fn single_self_loop() {
        let mut g = RatioGraph::new(1);
        g.add_arc(g.node(0), g.node(0), int(7), int(2));
        for choice in all_choices() {
            match Solver::new(choice).solve(&g).unwrap() {
                CycleRatioOutcome::Finite { ratio, cycle } => {
                    assert_eq!(ratio, Rational::new(7, 2).unwrap(), "{choice:?}");
                    assert_eq!(cycle.len(), 1);
                    assert_eq!(cycle.ratio().unwrap(), ratio);
                    assert!(!cycle.is_empty());
                }
                other => panic!("unexpected {other:?} for {choice:?}"),
            }
        }
    }

    #[test]
    fn picks_the_larger_of_two_cycles() {
        let mut g = RatioGraph::new(4);
        // Cycle 1: 0 -> 1 -> 0 with ratio (2+2)/(1+1) = 2.
        g.add_arc(g.node(0), g.node(1), int(2), int(1));
        g.add_arc(g.node(1), g.node(0), int(2), int(1));
        // Cycle 2: 2 -> 3 -> 2 with ratio (9+1)/(1+1) = 5.
        g.add_arc(g.node(2), g.node(3), int(9), int(1));
        g.add_arc(g.node(3), g.node(2), int(1), int(1));
        for choice in all_choices() {
            match Solver::new(choice).solve(&g).unwrap() {
                CycleRatioOutcome::Finite { ratio, cycle } => {
                    assert_eq!(ratio, int(5), "{choice:?}");
                    assert_eq!(cycle.len(), 2);
                }
                other => panic!("unexpected {other:?} for {choice:?}"),
            }
        }
    }

    #[test]
    fn acyclic_graph() {
        let mut g = RatioGraph::new(3);
        g.add_arc(g.node(0), g.node(1), int(1), int(1));
        g.add_arc(g.node(1), g.node(2), int(1), int(1));
        for choice in all_choices() {
            assert_eq!(
                Solver::new(choice).solve(&g).unwrap(),
                CycleRatioOutcome::Acyclic
            );
        }
    }

    #[test]
    fn zero_cost_cycles_are_non_positive() {
        let mut g = RatioGraph::new(2);
        g.add_arc(g.node(0), g.node(1), int(0), int(1));
        g.add_arc(g.node(1), g.node(0), int(0), int(1));
        for choice in all_choices() {
            assert_eq!(
                Solver::new(choice).solve(&g).unwrap(),
                CycleRatioOutcome::NonPositive
            );
        }
    }

    #[test]
    fn negative_time_cycle_is_infinite() {
        let mut g = RatioGraph::new(2);
        g.add_arc(g.node(0), g.node(1), int(1), int(1));
        g.add_arc(g.node(1), g.node(0), int(1), int(-2));
        for choice in all_choices() {
            match Solver::new(choice).solve(&g).unwrap() {
                CycleRatioOutcome::Infinite { cycle, .. } => {
                    assert!(cycle.time <= Rational::ZERO);
                    assert!(cycle.cost.is_positive());
                }
                other => panic!("unexpected {other:?} for {choice:?}"),
            }
        }
    }

    #[test]
    fn zero_time_positive_cost_cycle_is_infinite() {
        let mut g = RatioGraph::new(2);
        g.add_arc(g.node(0), g.node(1), int(1), int(3));
        g.add_arc(g.node(1), g.node(0), int(1), int(-3));
        for choice in all_choices() {
            match Solver::new(choice).solve(&g).unwrap() {
                CycleRatioOutcome::Infinite { cycle, .. } => assert!(cycle.time.is_zero()),
                other => panic!("unexpected {other:?} for {choice:?}"),
            }
        }
    }

    #[test]
    fn negative_time_arcs_are_fine_when_cycles_stay_positive() {
        // Arc with negative time inside a cycle whose total time is positive.
        let mut g = RatioGraph::new(3);
        g.add_arc(g.node(0), g.node(1), int(1), int(-1));
        g.add_arc(g.node(1), g.node(2), int(1), int(3));
        g.add_arc(g.node(2), g.node(0), int(1), int(2));
        for choice in all_choices() {
            match Solver::new(choice).solve(&g).unwrap() {
                CycleRatioOutcome::Finite { ratio, cycle } => {
                    assert_eq!(ratio, Rational::new(3, 4).unwrap(), "{choice:?}");
                    assert_eq!(cycle.len(), 3);
                }
                other => panic!("unexpected {other:?} for {choice:?}"),
            }
        }
    }

    #[test]
    fn nested_cycles_share_nodes() {
        // Two circuits through node 0: 0->1->0 (ratio 2) and 0->2->0 (ratio 4).
        let mut g = RatioGraph::new(3);
        g.add_arc(g.node(0), g.node(1), int(1), int(1));
        g.add_arc(g.node(1), g.node(0), int(3), int(1));
        g.add_arc(g.node(0), g.node(2), int(5), int(1));
        g.add_arc(g.node(2), g.node(0), int(3), int(1));
        for choice in all_choices() {
            match Solver::new(choice).solve(&g).unwrap() {
                CycleRatioOutcome::Finite { ratio, cycle } => {
                    assert_eq!(ratio, int(4), "{choice:?}");
                    // The critical circuit must be 0 -> 2 -> 0.
                    assert!(cycle.nodes.contains(&g.node(2)));
                    assert!(!cycle.nodes.contains(&g.node(1)));
                }
                other => panic!("unexpected {other:?} for {choice:?}"),
            }
        }
    }

    #[test]
    fn fractional_ratios_are_exact() {
        let mut g = RatioGraph::new(2);
        g.add_arc(
            g.node(0),
            g.node(1),
            Rational::new(1, 3).unwrap(),
            Rational::new(1, 7).unwrap(),
        );
        g.add_arc(
            g.node(1),
            g.node(0),
            Rational::new(1, 5).unwrap(),
            Rational::new(1, 11).unwrap(),
        );
        let expected = (Rational::new(1, 3).unwrap() + Rational::new(1, 5).unwrap())
            .unwrap()
            .checked_div(&(Rational::new(1, 7).unwrap() + Rational::new(1, 11).unwrap()).unwrap())
            .unwrap();
        for choice in all_choices() {
            match Solver::new(choice).solve(&g).unwrap() {
                CycleRatioOutcome::Finite { ratio, .. } => {
                    assert_eq!(ratio, expected, "{choice:?}");
                }
                other => panic!("unexpected {other:?} for {choice:?}"),
            }
        }
    }

    #[test]
    fn stamps_survive_the_epoch_wrapping() {
        // A ring with chords takes several Howard rounds, so the stamp epoch
        // wraps in the middle of a solve.
        let mut g = RatioGraph::new(8);
        for i in 0..8 {
            g.add_arc(g.node(i), g.node((i + 1) % 8), int(i as i128), int(1));
            g.add_arc(g.node(i), g.node((i + 3) % 8), int(1), int(2));
        }
        let expected = Solver::new(SolverChoice::Howard).solve(&g);
        let mut solver = Solver::new(SolverChoice::Howard);
        solver.scratch.epoch = u32::MAX - 3;
        assert_eq!(solver.solve(&g), expected);
        assert!(solver.scratch.epoch < 64);
        assert_eq!(solver.solve(&g), expected);
    }

    #[test]
    fn solver_is_reusable_across_graphs() {
        let mut solver = Solver::new(SolverChoice::Auto);
        assert_eq!(solver.choice(), SolverChoice::Auto);
        for size in [2usize, 5, 3] {
            let mut g = RatioGraph::new(size);
            for i in 0..size {
                g.add_arc(g.node(i), g.node((i + 1) % size), int(2), int(1));
            }
            match solver.solve(&g).unwrap() {
                CycleRatioOutcome::Finite { ratio, cycle } => {
                    assert_eq!(ratio, int(2));
                    assert_eq!(cycle.len(), size);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    /// A ratio-rich dense multigraph that drives the parametric iteration
    /// through many strictly increasing λ values (the empirical worst case
    /// of a 20k-seed random search). The old implementation capped the
    /// iteration count with the heuristic `16·max(n,4) + m` and returned a
    /// spurious `IterationLimit` error if a graph visited more distinct
    /// simple-circuit ratios than that guess; the loop now relies on the
    /// sound bound instead — λ strictly increases over the finite set of
    /// simple-circuit ratios — and cannot fail on a valid graph.
    #[test]
    fn ratio_rich_multigraphs_terminate_and_agree() {
        // Deterministic xorshift so the graph is reproducible.
        let mut state: u64 = 11653u64.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let n = 2 + (next() % 4) as usize;
        let m = 60 + (next() % 240) as usize;
        let mut g = RatioGraph::new(n);
        for _ in 0..m {
            let a = (next() % n as u64) as usize;
            let b = (next() % n as u64) as usize;
            let cost_num = -40 + (next() % 441) as i128;
            let cost_den = 1 + (next() % 6) as i128;
            let time_num = 1 + (next() % 48) as i128;
            let time_den = 1 + (next() % 8) as i128;
            g.add_arc(
                g.node(a),
                g.node(b),
                Rational::new(cost_num, cost_den).unwrap(),
                Rational::new(time_num, time_den).unwrap(),
            );
        }
        let parametric = maximum_cycle_ratio(&g).unwrap();
        let ratio = parametric.ratio().expect("dense multigraph has a cycle");
        assert!(ratio.is_positive());
        for choice in [SolverChoice::Howard, SolverChoice::Auto] {
            assert_eq!(
                Solver::new(choice).solve(&g).unwrap().ratio(),
                Some(ratio),
                "{choice:?}"
            );
        }
    }
}
