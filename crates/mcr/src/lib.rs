//! # mcr — Maximum Cycle Ratio solvers
//!
//! The K-Iter algorithm (DAC 2016) evaluates the minimum period of a
//! (K-)periodic schedule by solving a *Maximum Cost-to-time Ratio Problem*
//! on a bi-valued event graph (Section 3.3 of the paper). This crate provides:
//!
//! * [`RatioGraph`] — a directed graph whose arcs carry a cost `L(e)` and a
//!   time `H(e)`: a plain arc store that keeps no adjacency index;
//! * [`Solver`] / [`SolverChoice`] — the solver-selection layer with
//!   reusable scratch buffers (the CSR adjacency index every solve builds
//!   from the arcs, SCC decomposition, component views — nothing is
//!   allocated per solve after warm-up): Howard's policy
//!   iteration (the fast solver on large event graphs) and the exact
//!   parametric method. `SolverChoice::Auto` picks per strongly connected
//!   component and is what K-Iter uses. Components are solved one after
//!   another on the calling thread. Howard always runs one kernel: an
//!   integer-numerator policy iteration over per-component common
//!   denominators (the `kernel` module) on `i64` or `i128` words, picked per
//!   component by a proven magnitude bound, so the iteration itself cannot
//!   overflow. A component that neither lane admits runs the scalar
//!   `Rational` kernel instead ([`Solver::lane_counts`] counts the
//!   components per path). It starts cold
//!   ([`Solver::solve`]) or from a given [`Policy`] ([`Solver::solve_from`]),
//!   which K-Iter uses to warm-start each iteration from the last;
//! * [`maximum_cycle_ratio`] — one-shot parametric solve returning the
//!   maximum ratio and a critical circuit ([`CycleRatioOutcome`]);
//! * [`SccDecomposition`] — Tarjan's strongly connected components, on a
//!   CSR index of its own.
//!
//! Every solver choice, and every Howard start policy ([`Policy`],
//! [`Solver::solve_from`]), returns the same outcome variant and ratio on
//! every input: Howard's iteration certifies its result or defers to the
//! parametric method, which is the reference semantics. The reported circuits
//! may differ where several qualify: ties for the maximum ratio, and
//! infeasible circuits, of which Howard reports every one its policy holds.
//! The integer and scalar Howard kernels are bit-identical from any start.
//!
//! # Examples
//!
//! ```
//! use mcr::{RatioGraph, maximum_cycle_ratio, CycleRatioOutcome};
//! use csdf::Rational;
//!
//! let mut graph = RatioGraph::new(2);
//! let (a, b) = (graph.node(0), graph.node(1));
//! graph.add_arc(a, b, Rational::from_integer(2), Rational::from_integer(1));
//! graph.add_arc(b, a, Rational::from_integer(4), Rational::from_integer(2));
//! let outcome = maximum_cycle_ratio(&graph)?;
//! assert_eq!(outcome.ratio(), Some(Rational::from_integer(2)));
//! # Ok::<(), mcr::McrError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cancel;
mod graph;
mod howard;
mod kernel;
mod scc;
mod solve;

pub use cancel::CancelToken;
pub use graph::{Arc, ArcId, NodeId, RatioGraph};
pub use scc::SccDecomposition;
pub use solve::{
    maximum_cycle_ratio, CriticalCycle, CycleRatioOutcome, LaneCounts, McrError, Policy, Solver,
    SolverChoice, AUTO_HOWARD_MIN_NODES,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<RatioGraph>();
        assert_send_sync::<CycleRatioOutcome>();
        assert_send_sync::<CriticalCycle>();
        assert_send_sync::<McrError>();
        assert_send_sync::<SccDecomposition>();
        assert_send_sync::<Solver>();
        assert_send_sync::<SolverChoice>();
        assert_send_sync::<CancelToken>();
    }
}
