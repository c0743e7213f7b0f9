//! Strongly connected components (iterative Tarjan).
//!
//! Two entry points share one implementation:
//!
//! * [`SccDecomposition`] — the public, self-contained API (builds its own
//!   CSR index and allocates its result vectors);
//! * [`SccBuffers`] — the solver-internal reusable state: flat member /
//!   offset arrays plus the Tarjan work stacks, all of which keep their
//!   allocation across [`SccBuffers::compute`] calls, so the K-Iter hot loop
//!   (one solve per iteration) performs no SCC allocation after warm-up.

use crate::graph::{Csr, NodeId, RatioGraph};

/// Reusable strongly-connected-component state (see module docs). Components
/// are numbered in reverse topological order (Tarjan's output order) and the
/// member order matches the historical `Vec<Vec<NodeId>>` layout bit for bit,
/// which keeps every solver tie-break — and therefore every reported critical
/// circuit — identical to the pre-CSR implementation.
#[derive(Debug, Clone, Default)]
pub(crate) struct SccBuffers {
    /// Component id per node.
    pub component_of: Vec<u32>,
    /// Flat member storage: `members[offsets[c] .. offsets[c + 1]]` are the
    /// nodes of component `c`.
    pub members: Vec<u32>,
    /// Component boundaries into `members` (`component_count + 1` entries).
    pub offsets: Vec<u32>,
    // Tarjan work state.
    index: Vec<u32>,
    low: Vec<u32>,
    on_stack: Vec<bool>,
    stack: Vec<u32>,
    call_stack: Vec<(u32, u32)>,
}

impl SccBuffers {
    /// Number of components found by the last [`SccBuffers::compute`].
    pub fn component_count(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Members of component `component` (global node indices).
    pub fn component(&self, component: usize) -> &[u32] {
        let lo = self.offsets[component] as usize;
        let hi = self.offsets[component + 1] as usize;
        &self.members[lo..hi]
    }

    /// Returns `true` when component `component` can hold a cycle: more than
    /// one node, or a single node with a self-arc (checked on the CSR view).
    pub fn is_cyclic_component(&self, component: usize, csr: &Csr) -> bool {
        let members = self.component(component);
        members.len() > 1 || has_self_arc(csr, members[0] as usize)
    }

    /// Computes the strongly connected components of the graph described by
    /// the CSR adjacency, reusing every buffer. Only the row offsets and arc
    /// targets are read.
    pub fn compute(&mut self, node_count: usize, csr: &Csr) {
        let Csr {
            offsets: csr_offsets,
            targets,
            ..
        } = csr;
        const UNVISITED: u32 = u32::MAX;
        self.index.clear();
        self.index.resize(node_count, UNVISITED);
        self.low.clear();
        self.low.resize(node_count, 0);
        self.on_stack.clear();
        self.on_stack.resize(node_count, false);
        self.stack.clear();
        self.call_stack.clear();
        self.component_of.clear();
        self.component_of.resize(node_count, UNVISITED);
        self.members.clear();
        self.offsets.clear();
        self.offsets.push(0);

        let mut next_index = 0u32;
        for start in 0..node_count {
            if self.index[start] != UNVISITED {
                continue;
            }
            self.call_stack.push((start as u32, csr_offsets[start]));
            self.index[start] = next_index;
            self.low[start] = next_index;
            next_index += 1;
            self.stack.push(start as u32);
            self.on_stack[start] = true;

            while let Some(&mut (node, ref mut arc_cursor)) = self.call_stack.last_mut() {
                let node = node as usize;
                if *arc_cursor < csr_offsets[node + 1] {
                    let successor = targets[*arc_cursor as usize] as usize;
                    *arc_cursor += 1;
                    if self.index[successor] == UNVISITED {
                        self.index[successor] = next_index;
                        self.low[successor] = next_index;
                        next_index += 1;
                        self.stack.push(successor as u32);
                        self.on_stack[successor] = true;
                        self.call_stack
                            .push((successor as u32, csr_offsets[successor]));
                    } else if self.on_stack[successor] {
                        self.low[node] = self.low[node].min(self.index[successor]);
                    }
                } else {
                    self.call_stack.pop();
                    if let Some(&mut (parent, _)) = self.call_stack.last_mut() {
                        let parent = parent as usize;
                        self.low[parent] = self.low[parent].min(self.low[node]);
                    }
                    if self.low[node] == self.index[node] {
                        let component_id = self.component_count() as u32;
                        loop {
                            let member = self.stack.pop().expect("tarjan stack underflow");
                            self.on_stack[member as usize] = false;
                            self.component_of[member as usize] = component_id;
                            self.members.push(member);
                            if member as usize == node {
                                break;
                            }
                        }
                        self.offsets.push(self.members.len() as u32);
                    }
                }
            }
        }
    }
}

/// The strongly connected components of a [`RatioGraph`].
///
/// Components are numbered in reverse topological order (Tarjan's output
/// order); every node belongs to exactly one component. This is the public
/// convenience API; the solver uses the reusable `SccBuffers` internally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SccDecomposition {
    component_of: Vec<usize>,
    components: Vec<Vec<NodeId>>,
    /// Per component: whether it can hold a cycle, read from the CSR index
    /// the decomposition was computed on.
    cyclic: Vec<bool>,
}

impl SccDecomposition {
    /// Computes the strongly connected components of `graph` on a CSR index
    /// built for this call, and records which components can hold a cycle.
    pub fn compute(graph: &RatioGraph) -> Self {
        let mut buffers = SccBuffers::default();
        let mut csr = Csr::default();
        csr.build(graph.node_count(), graph.columns());
        buffers.compute(graph.node_count(), &csr);
        let cyclic = (0..buffers.component_count())
            .map(|component| buffers.is_cyclic_component(component, &csr))
            .collect();
        let components = (0..buffers.component_count())
            .map(|component| {
                buffers
                    .component(component)
                    .iter()
                    .map(|&node| NodeId::new(node as usize))
                    .collect()
            })
            .collect();
        SccDecomposition {
            component_of: buffers
                .component_of
                .iter()
                .map(|&component| component as usize)
                .collect(),
            components,
            cyclic,
        }
    }

    /// Component index of a node.
    pub fn component_of(&self, node: NodeId) -> usize {
        self.component_of[node.index()]
    }

    /// Number of components.
    pub fn component_count(&self) -> usize {
        self.components.len()
    }

    /// Members of component `index`.
    pub fn component(&self, index: usize) -> &[NodeId] {
        &self.components[index]
    }

    /// Iterator over all components.
    pub fn components(&self) -> impl Iterator<Item = &[NodeId]> + '_ {
        self.components.iter().map(Vec::as_slice)
    }

    /// Returns `true` when component `index` can hold a cycle: it has more
    /// than one node, or its single node has a self-arc. O(1): the answer
    /// was recorded by [`SccDecomposition::compute`] on `graph`, which must
    /// be the graph the decomposition was computed from.
    pub fn is_cyclic_component(&self, _graph: &RatioGraph, index: usize) -> bool {
        self.cyclic[index]
    }
}

/// Whether `node` has an arc to itself, read from the CSR targets.
fn has_self_arc(csr: &Csr, node: usize) -> bool {
    csr.targets[csr.row(node)]
        .iter()
        .any(|&target| target as usize == node)
}

#[cfg(test)]
mod tests {
    use super::*;
    use csdf::Rational;

    fn arc(g: &mut RatioGraph, from: usize, to: usize) {
        let (f, t) = (g.node(from), g.node(to));
        g.add_arc(f, t, Rational::ONE, Rational::ONE);
    }

    #[test]
    fn two_cycles_and_a_bridge() {
        let mut g = RatioGraph::new(5);
        arc(&mut g, 0, 1);
        arc(&mut g, 1, 0);
        arc(&mut g, 1, 2);
        arc(&mut g, 2, 3);
        arc(&mut g, 3, 4);
        arc(&mut g, 4, 2);
        let scc = SccDecomposition::compute(&g);
        assert_eq!(scc.component_count(), 2);
        assert_eq!(scc.component_of(g.node(0)), scc.component_of(g.node(1)));
        assert_eq!(scc.component_of(g.node(2)), scc.component_of(g.node(4)));
        assert_ne!(scc.component_of(g.node(0)), scc.component_of(g.node(2)));
        for index in 0..scc.component_count() {
            assert!(scc.is_cyclic_component(&g, index));
        }
    }

    #[test]
    fn acyclic_graph_has_singleton_components() {
        let mut g = RatioGraph::new(4);
        arc(&mut g, 0, 1);
        arc(&mut g, 1, 2);
        arc(&mut g, 2, 3);
        let scc = SccDecomposition::compute(&g);
        assert_eq!(scc.component_count(), 4);
        for index in 0..4 {
            assert!(!scc.is_cyclic_component(&g, index));
            assert_eq!(scc.component(index).len(), 1);
        }
    }

    #[test]
    fn self_loop_is_a_cyclic_component() {
        let mut g = RatioGraph::new(2);
        arc(&mut g, 0, 0);
        arc(&mut g, 0, 1);
        let scc = SccDecomposition::compute(&g);
        assert_eq!(scc.component_count(), 2);
        let self_loop_component = scc.component_of(g.node(0));
        assert!(scc.is_cyclic_component(&g, self_loop_component));
        assert!(!scc.is_cyclic_component(&g, scc.component_of(g.node(1))));
    }

    #[test]
    fn components_iterator_covers_all_nodes() {
        let mut g = RatioGraph::new(3);
        arc(&mut g, 0, 1);
        arc(&mut g, 1, 2);
        arc(&mut g, 2, 0);
        let scc = SccDecomposition::compute(&g);
        let total: usize = scc.components().map(<[NodeId]>::len).sum();
        assert_eq!(total, 3);
        assert_eq!(scc.component_count(), 1);
    }

    /// The reusable buffers and the public decomposition agree on component
    /// numbering, member order and cyclicity (the solver's tie-breaks depend
    /// on it).
    #[test]
    fn buffers_match_public_decomposition() {
        let mut state = 0xDEC0DEu64 | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..50 {
            let nodes = 1 + (next() % 12) as usize;
            let arcs_count = (next() % 30) as usize;
            let mut g = RatioGraph::new(nodes);
            for _ in 0..arcs_count {
                let from = (next() % nodes as u64) as usize;
                let to = (next() % nodes as u64) as usize;
                arc(&mut g, from, to);
            }
            let public = SccDecomposition::compute(&g);
            let mut csr = Csr::default();
            csr.build(g.node_count(), g.columns());
            let mut buffers = SccBuffers::default();
            buffers.compute(g.node_count(), &csr);
            assert_eq!(buffers.component_count(), public.component_count());
            for component in 0..public.component_count() {
                let expected: Vec<u32> = public
                    .component(component)
                    .iter()
                    .map(|node| node.index() as u32)
                    .collect();
                assert_eq!(buffers.component(component), expected.as_slice());
                let members = public.component(component);
                let self_arc = g
                    .arcs()
                    .any(|(_, arc)| arc.from() == members[0] && arc.to() == members[0]);
                assert_eq!(
                    public.is_cyclic_component(&g, component),
                    members.len() > 1 || self_arc
                );
                assert_eq!(
                    buffers.is_cyclic_component(component, &csr),
                    public.is_cyclic_component(&g, component)
                );
            }
        }
    }

    /// A patched arc is read where it now is: moving 2 -> 3 to 3 -> 2 and
    /// adding a new 2 -> 3 closes the circuit {2, 3}, and the decomposition
    /// equals the one of a fresh build of the same arcs.
    #[test]
    fn patched_graphs_decompose_like_fresh_builds() {
        let mut g = RatioGraph::new(4);
        arc(&mut g, 0, 1);
        arc(&mut g, 1, 0);
        let moved = g.add_arc(g.node(2), g.node(3), Rational::ONE, Rational::ONE);
        arc(&mut g, 3, 3);
        let before = SccDecomposition::compute(&g);
        assert_ne!(
            before.component_of(g.node(2)),
            before.component_of(g.node(3))
        );
        g.patch_arc(moved, g.node(3), g.node(2), Rational::ONE, Rational::ONE);
        arc(&mut g, 2, 3);
        let patched = SccDecomposition::compute(&g);
        let mut fresh = RatioGraph::new(4);
        for (from, to) in [(0, 1), (1, 0), (3, 2), (3, 3), (2, 3)] {
            arc(&mut fresh, from, to);
        }
        assert_eq!(patched, SccDecomposition::compute(&fresh));
        assert_eq!(
            patched.component_of(g.node(2)),
            patched.component_of(g.node(3))
        );
        assert!(patched.is_cyclic_component(&g, patched.component_of(g.node(2))));
    }
}
