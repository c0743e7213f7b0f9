//! # kperiodic — K-periodic scheduling and the K-Iter algorithm
//!
//! This crate is the core contribution of the workspace: a Rust
//! implementation of *Optimal and fast throughput evaluation of CSDF*
//! (Bodin, Munier-Kordon, Dupont de Dinechin — DAC 2016).
//!
//! * [`PeriodicityVector`] — the vector `K` of a K-periodic schedule
//!   (Section 2.4);
//! * [`EventGraphArena`] — the bi-valued graph whose maximum cost-to-time
//!   ratio is the minimum period (Section 3.3), built once and patched in
//!   place across iterations. Its arcs are the Theorem-2 constraints of the
//!   transformed graph `G̃` of Section 3.2 (every phase vector repeated
//!   `K_t` times, Theorem 3), derived from the base rates without building
//!   `G̃`;
//! * [`EvaluationPipeline`] — the one fixed-K evaluation path, reused by
//!   K-Iter across its iterations; [`evaluate_k_periodic`] runs a fresh one
//!   (at unitary `K` it gives the 1-periodic bound of reference \[4\]);
//! * [`AnalysisSession`] — a long-lived session whose graph mutates in
//!   place (buffer capacities / initial tokens) between evaluations, the
//!   unit of work of the `explore` design-space crate;
//! * [`optimal_throughput`] / [`kiter_with_options`] — the K-Iter algorithm
//!   with its Theorem-4 optimality test (Sections 3.4–3.5);
//! * [`KPeriodicSchedule`] — explicit starting times, validation and ASCII
//!   Gantt rendering;
//! * [`paper_example`] — the reconstructed running example of the paper.
//!
//! # The incremental evaluation pipeline
//!
//! K-Iter (Algorithm 1) evaluates a sequence of periodicity vectors that
//! differ only on the tasks of the latest critical circuit. The crate
//! therefore runs each iteration through a four-stage pipeline instead of
//! rebuilding the event graph from scratch:
//!
//! 1. **periodicity update** — the update rule raises `K_t` for the critical
//!    tasks ([`PeriodicityVector::raise`]) and reports which entries actually
//!    changed;
//! 2. **dirty set** — those tasks form the dirty set; everything else is
//!    untouched by construction;
//! 3. **arena patch** — [`EventGraphArena::apply_update`] re-derives only the
//!    dirty tasks' node blocks and the constraint arcs of their incident
//!    buffers, then re-assembles the ratio graph in place (allocations kept,
//!    arc order identical to a from-scratch build);
//! 4. **MCR solve** — the shared [`mcr::Solver`] resolves the patched graph,
//!    resizing (never recreating) its scratch buffers.
//!
//! The patched graph is bit-identical to a from-scratch
//! [`EventGraphArena::build`] at the same vector, so all outcomes are exact
//! and path-independent; the arena stores lcm-free arc times (see
//! [`EventGraphArena`]) so that cached arcs stay valid when `lcm(K)` changes.
//!
//! # Examples
//!
//! ```
//! use csdf::CsdfGraphBuilder;
//! use kperiodic::optimal_throughput;
//!
//! // A producer/consumer pair with a feedback buffer of 3 tokens.
//! let mut builder = CsdfGraphBuilder::new();
//! let producer = builder.add_task("producer", vec![1, 2]);
//! let consumer = builder.add_sdf_task("consumer", 1);
//! builder.add_buffer(producer, consumer, vec![1, 2], vec![1], 0);
//! builder.add_buffer(consumer, producer, vec![1], vec![1, 2], 3);
//! let graph = builder.build()?;
//!
//! let result = optimal_throughput(&graph)?;
//! println!("maximum throughput: {}", result.throughput);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod arena;
mod constraints;
mod error;
mod event_graph;
mod kiter;
mod paper_example;
mod periodicity;
mod pool;
mod schedule;
mod session;

pub use analysis::{
    evaluate_k_periodic, AnalysisOptions, EvaluationOutcome, EvaluationPipeline,
    KPeriodicEvaluation, PipelineStats,
};
pub use arena::{ArenaUpdate, AssembleMode, EventGraphArena};
pub use error::AnalysisError;
pub use event_graph::{EventGraphLimits, EventNode};
pub use kiter::{
    kiter_with_options, kiter_with_pipeline, optimal_throughput, KIterIteration, KIterOptions,
    KIterResult,
};
pub use mcr::CancelToken;
pub use paper_example::{paper_example, PaperExampleTasks};
pub use periodicity::PeriodicityVector;
pub use pool::{PoolStats, SessionPool};
pub use schedule::KPeriodicSchedule;
pub use session::AnalysisSession;

/// The structure fingerprint of a graph: an FNV-1a hash over its tasks,
/// durations, buffer endpoints and rates — everything the event-graph arena
/// caches depend on, with the initial markings deliberately excluded
/// (markings are a patchable input, re-derived buffer by buffer). Two graphs
/// with equal fingerprints can share a warm [`AnalysisSession`] via
/// [`AnalysisSession::adopt_markings`]; a [`SessionPool`] routes checkout
/// requests by this value. Collisions are astronomically unlikely and
/// treated as advisory hardening, exactly like the arena's own check before
/// [`EventGraphArena::apply_update`].
pub fn structure_fingerprint(graph: &csdf::CsdfGraph) -> u64 {
    arena::graph_fingerprint(graph)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PeriodicityVector>();
        assert_send_sync::<KIterResult>();
        assert_send_sync::<KPeriodicEvaluation>();
        assert_send_sync::<KPeriodicSchedule>();
        assert_send_sync::<AnalysisError>();
        assert_send_sync::<EventGraphArena>();
    }
}
