//! # kiter — optimal and fast throughput evaluation of CSDF
//!
//! A Rust reproduction of *Optimal and fast throughput evaluation of CSDF*
//! (Bodin, Munier-Kordon, Dupont de Dinechin — DAC 2016). The workspace is
//! organised in focused crates; this facade re-exports their public APIs so
//! that applications can depend on a single crate:
//!
//! * [`model`] (`csdf`) — the Cyclo-Static Dataflow Graph model, repetition
//!   vectors, transformations and serialisation;
//! * [`ratio`] (`mcr`) — maximum cycle ratio / cycle mean solvers;
//! * [`analysis`] (`kperiodic`) — K-periodic scheduling and the K-Iter
//!   algorithm (the paper's contribution), plus the long-lived
//!   [`AnalysisSession`];
//! * [`explore`] (`csdf-explore`) — design-space exploration over analysis
//!   sessions: Pareto sweeps, storage minimisation, scenario sets;
//! * [`lint`] (`csdf-lint`) — static graph analysis: structural diagnostics
//!   with stable codes and sound pre-solve throughput bounds (see the
//!   `csdf-lint` binary);
//! * [`baselines`] (`csdf-baselines`) — symbolic execution, HSDF expansion
//!   and 1-periodic baselines;
//! * [`generators`] (`csdf-generators`) — benchmark generators for the
//!   paper's Tables 1 and 2;
//! * [`service`] (`csdf-service`) — the throughput-analysis daemon:
//!   line-delimited JSON requests over stdin or a Unix socket, pooled
//!   analysis sessions and a result cache (see the `csdf_service` binary
//!   and `examples/service_client.rs`).
//!
//! The most common entry points are also re-exported at the crate root.
//!
//! # Examples
//!
//! ```
//! use kiter::{CsdfGraphBuilder, optimal_throughput};
//!
//! let mut builder = CsdfGraphBuilder::named("quickstart");
//! let producer = builder.add_task("producer", vec![1, 1]);
//! let consumer = builder.add_sdf_task("consumer", 2);
//! builder.add_buffer(producer, consumer, vec![2, 1], vec![1], 0);
//! builder.add_buffer(consumer, producer, vec![1], vec![2, 1], 6);
//! let graph = builder.build()?;
//!
//! let result = optimal_throughput(&graph)?;
//! println!("throughput = {}", result.throughput);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The CSDF graph model (re-export of the `csdf` crate).
pub use csdf as model;

/// Maximum cycle ratio solvers (re-export of the `mcr` crate).
pub use mcr as ratio;

/// K-periodic scheduling and K-Iter (re-export of the `kperiodic` crate).
pub use kperiodic as analysis;

/// Design-space exploration over analysis sessions (re-export of the
/// `csdf-explore` crate).
pub use csdf_explore as explore;

/// Baseline throughput evaluators (re-export of the `csdf-baselines` crate).
pub use csdf_baselines as baselines;

/// Benchmark generators (re-export of the `csdf-generators` crate).
pub use csdf_generators as generators;

/// Static graph analysis and pre-solve throughput bounds (re-export of the
/// `csdf-lint` crate).
pub use csdf_lint as lint;

/// The throughput-analysis daemon (re-export of the `csdf-service` crate).
pub use csdf_service as service;

pub use csdf::{
    Buffer, BufferId, CsdfError, CsdfGraph, CsdfGraphBuilder, Rational, RepetitionVector, Task,
    TaskId, Throughput,
};
pub use csdf_baselines::{
    expansion_throughput, periodic_throughput, symbolic_execution_throughput, Budget,
    EvaluationStatus, MethodResult,
};
pub use csdf_explore::{min_storage_for_throughput, ParetoSweep, ScenarioSet, SweepOutcome};
pub use kperiodic::{
    evaluate_k_periodic, kiter_with_options, kiter_with_pipeline, optimal_throughput,
    paper_example, AnalysisError, AnalysisOptions, AnalysisSession, EvaluationPipeline,
    EventGraphArena, KIterOptions, KIterResult, KPeriodicSchedule, PeriodicityVector,
    PipelineStats,
};

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_are_usable() {
        let (graph, tasks) = crate::paper_example();
        assert_eq!(graph.task_count(), 4);
        assert_eq!(tasks.a.index(), 0);
    }
}
