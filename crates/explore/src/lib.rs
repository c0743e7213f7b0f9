//! # csdf-explore — design-space exploration over analysis sessions
//!
//! The paper's headline use case for fast throughput evaluation is repeated
//! evaluation inside a design loop: every buffer-sized row of its Table 2 is
//! a single point of a throughput/storage trade-off that designers sweep in
//! practice. This crate is that layer above single-shot evaluation. All
//! exploration drives [`kperiodic::AnalysisSession`]s — graphs mutate in
//! place between evaluations, so the event-graph arena, solver scratch and
//! repetition vector survive the whole sweep — and independent points are
//! distributed over `std::thread::scope` workers, one per available core
//! (never more than there are points):
//!
//! * [`ParetoSweep`] — evaluates a list of capacity assignments over a
//!   bounded graph and reports the throughput vs. total-storage frontier;
//!   [`ParetoSweep::uniform_slack`] builds the classical uniform-slack sweep
//!   (each buffer sized to `slack · (i_b + o_b)`, the paper's Table 2
//!   convention);
//! * [`min_storage_for_throughput`] — monotone binary search for the
//!   smallest uniform slack reaching a target throughput, and
//!   [`tighten_capacities`] to then shrink each buffer individually;
//! * [`ScenarioSet`] — evaluates many independent marking variants of one
//!   base graph (scenario studies), again one session per worker.
//!
//! Every evaluation starts K-Iter from the unitary K, so each point's
//! result — throughput, K, iteration count — is **bit-identical** to an
//! independent cold [`kperiodic::optimal_throughput`] call on the same
//! design point, whatever the machine's core count; only the work to get
//! there shrinks. Every session evaluates with the default
//! [`kperiodic::KIterOptions`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod runner;
mod scenario;
mod storage;
mod sweep;

/// Re-exported from [`csdf::transform`], where the rule is defined once.
pub use csdf::transform::uniform_slack_capacity;
pub use scenario::{Scenario, ScenarioOutcome, ScenarioSet};
pub use storage::{
    min_storage_for_throughput, min_storage_for_throughput_on, tighten_capacities,
    MinStorageOutcome,
};
pub use sweep::{CapacityPoint, ParetoSweep, SweepOutcome, SweepPoint};

#[cfg(test)]
mod tests {
    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<crate::ParetoSweep>();
        assert_send_sync::<crate::SweepOutcome>();
        assert_send_sync::<crate::ScenarioSet>();
        assert_send_sync::<crate::MinStorageOutcome>();
    }
}
