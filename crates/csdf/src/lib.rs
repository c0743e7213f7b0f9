//! # csdf — Cyclo-Static Dataflow Graph model
//!
//! This crate provides the dataflow substrate of the `kiter` workspace, a
//! reproduction of *Optimal and fast throughput evaluation of CSDF* (Bodin,
//! Munier-Kordon, Dupont de Dinechin — DAC 2016):
//!
//! * [`CsdfGraph`], [`Task`], [`Buffer`] — the model of Section 2.1 of the
//!   paper: tasks with phases and per-phase durations, buffers with
//!   cyclo-static production/consumption rates and an initial marking;
//! * [`RepetitionVector`] — consistency and the repetition vector `q`
//!   (Section 2.2);
//! * [`Throughput`] and [`Rational`] — exact result types (Section 2.3);
//! * [`transform`] — buffer-capacity modelling, auto-concurrency
//!   serialisation and the SDF → HSDF expansion used by baseline methods;
//! * [`dot`] / [`text`] — serialisation helpers;
//! * [`json`] — the workspace's JSON codec and the exact wire form of a
//!   throughput, shared by the service protocol, `csdf-lint --json` and the
//!   bench rows.
//!
//! # Examples
//!
//! The buffer of the paper's Figure 1, embedded in a two-task graph:
//!
//! ```
//! use csdf::CsdfGraphBuilder;
//!
//! let mut builder = CsdfGraphBuilder::named("figure1");
//! let t = builder.add_task("t", vec![1, 1, 1]);
//! let t_prime = builder.add_task("t'", vec![1, 1]);
//! builder.add_buffer(t, t_prime, vec![2, 3, 1], vec![2, 5], 0);
//! let graph = builder.build()?;
//!
//! let q = graph.repetition_vector()?;
//! assert_eq!(q.get(t), 7);       // q_t · 6 = q_t' · 7
//! assert_eq!(q.get(t_prime), 6);
//! # Ok::<(), csdf::CsdfError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod buffer;
mod builder;
mod error;
mod graph;
mod rational;
mod repetition;
mod sdf3;
mod source;
mod task;
mod throughput;

pub mod dot;
pub mod json;
pub mod text;
pub mod transform;

pub use buffer::{Buffer, BufferId};
pub use builder::CsdfGraphBuilder;
pub use error::{BufferRef, CsdfError};
pub use graph::CsdfGraph;
pub use rational::{gcd_i128, gcd_u128, gcd_u64, lcm_u64, Rational, RationalError, RationalSum};
pub use repetition::{BalanceConflict, BalanceError, RepetitionVector};
pub use source::SourceMap;
pub use task::{Task, TaskId};
pub use throughput::Throughput;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CsdfGraph>();
        assert_send_sync::<CsdfGraphBuilder>();
        assert_send_sync::<CsdfError>();
        assert_send_sync::<Rational>();
        assert_send_sync::<Throughput>();
        assert_send_sync::<RepetitionVector>();
    }
}
