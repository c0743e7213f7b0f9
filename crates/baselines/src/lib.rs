//! # csdf-baselines — reference throughput evaluators
//!
//! The DAC 2016 K-Iter paper compares its algorithm against three families of
//! methods; this crate implements all of them so that the workspace can
//! regenerate the paper's Tables 1 and 2 and cross-validate the core
//! `kperiodic` crate:
//!
//! * [`symbolic_execution_throughput`] — the exact state-space method of SDF3
//!   (references \[8\] and \[16\]): as-soon-as-possible self-timed execution with
//!   recurrence detection;
//! * [`expansion_throughput`] — the exact SDF → HSDF expansion + maximum
//!   cycle ratio method (references \[10\] and \[6\]);
//! * [`periodic_throughput`] — the approximate 1-periodic method
//!   (reference \[4\]), a thin wrapper over `kperiodic::evaluate_k_periodic`
//!   at unitary `K`.
//!
//! All evaluators return a [`MethodResult`] carrying the throughput, a
//! status ([`EvaluationStatus`]) and the work performed, under an explicit
//! [`Budget`] so that intractable instances surface as `BudgetExhausted`
//! instead of hanging — mirroring the "> 1 d" cells of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod budget;
mod expansion;
mod periodic;
mod symbolic;

use std::time::Duration;

use csdf::Throughput;

pub use budget::Budget;
pub use expansion::expansion_throughput;
pub use periodic::{periodic_throughput, periodic_throughput_with_options};
pub use symbolic::symbolic_execution_throughput;

/// How trustworthy the throughput reported by a baseline is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EvaluationStatus {
    /// The method proved the value exactly.
    Exact,
    /// The method produced a feasible schedule, i.e. a lower bound of the
    /// maximum throughput (the periodic baseline).
    LowerBound,
    /// The method proved that it has no solution of its own class (e.g. no
    /// periodic schedule exists) — the paper's "N/S" entries.
    NoSolution,
    /// The method ran out of its [`Budget`] — the paper's "> 1 d" entries.
    BudgetExhausted,
}

/// Outcome of one baseline evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MethodResult {
    /// Confidence of the reported value.
    pub status: EvaluationStatus,
    /// The throughput found, when any.
    pub throughput: Option<Throughput>,
    /// Number of simulation events / constraints processed.
    pub events: u64,
    /// Number of states stored / expansion nodes created / event-graph nodes.
    pub states: usize,
    /// Wall-clock time spent.
    pub wall_time: Duration,
}

impl MethodResult {
    /// The throughput found, when any.
    pub fn throughput(&self) -> Option<Throughput> {
        self.throughput
    }

    /// Returns `true` when the method finished within its budget (whether or
    /// not it found a solution).
    pub fn completed(&self) -> bool {
        self.status != EvaluationStatus::BudgetExhausted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csdf::{CsdfGraphBuilder, Rational};

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MethodResult>();
        assert_send_sync::<EvaluationStatus>();
        assert_send_sync::<Budget>();
    }

    #[test]
    fn all_three_methods_agree_on_a_simple_ring() {
        let mut b = CsdfGraphBuilder::new();
        let x = b.add_sdf_task("x", 3);
        let y = b.add_sdf_task("y", 4);
        b.add_sdf_buffer(x, y, 1, 1, 0);
        b.add_sdf_buffer(y, x, 1, 1, 2);
        b.add_serializing_self_loop(x);
        b.add_serializing_self_loop(y);
        let g = b.build().unwrap();
        // The ring cycle allows one iteration every 7/2 time units, but the
        // serialised slow task y caps the rate at one firing every 4.
        let expected = Some(Throughput::Finite(Rational::new(1, 4).unwrap()));
        assert_eq!(
            symbolic_execution_throughput(&g, &Budget::default())
                .unwrap()
                .throughput(),
            expected
        );
        assert_eq!(
            expansion_throughput(&g, &Budget::default())
                .unwrap()
                .throughput(),
            expected
        );
        let kiter = kperiodic::optimal_throughput(&g).unwrap();
        assert_eq!(Some(kiter.throughput), expected);
    }
}
