//! Graph-to-graph transformations.
//!
//! These transformations produce new [`CsdfGraph`](crate::CsdfGraph) values
//! and never mutate their input:
//!
//! * [`bound_buffers`] / [`bound_all_buffers`] model finite buffer capacities
//!   by adding reverse "space" buffers (used by the fixed-buffer-size rows of
//!   the paper's Table 2); the `*_tracked` variants return a [`BoundedGraph`]
//!   that records the forward → reverse pairing so capacities can later be
//!   re-sized *in place* via [`CsdfGraph::set_capacity`](crate::CsdfGraph::set_capacity);
//! * [`serialize_tasks`] adds one-token self-loops so that the executions of
//!   each task cannot overlap (auto-concurrency disabled, the convention used
//!   by the SDF3 benchmark);
//! * [`expand_to_hsdf`] performs the classical SDF → HSDF expansion used by
//!   the expansion-based baseline methods.

mod buffer_capacity;
mod hsdf;
mod serialize;

pub use buffer_capacity::{
    bound_all_buffers, bound_all_buffers_tracked, bound_buffers, bound_buffers_tracked,
    uniform_slack_capacity, BoundedGraph, BufferCapacity,
};
pub use hsdf::{expand_to_hsdf, HsdfExpansion};
pub use serialize::serialize_tasks;
