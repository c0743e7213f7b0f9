//! # csdf-generators — benchmark and workload generators
//!
//! The paper's evaluation uses two benchmark suites that are not
//! redistributable (the SDF3 SDFG benchmark of Table 1 and the industrial
//! IB+AG5CSDF suite of Table 2). This crate synthesises stand-ins with the
//! published size statistics so the whole evaluation pipeline can be
//! regenerated:
//!
//! * [`random_graph`] / [`RandomGraphConfig`] — consistent, serialised
//!   random (C)SDF graphs, usually live (also used by the property-based
//!   tests);
//! * [`dsp`] — five hand-written DSP applications (the "`ActualDSP`" category);
//! * [`sdf3`] — the four Table-1 categories;
//! * [`apps`] — the Table-2 industrial applications and synthetic graphs;
//! * [`buffer_sized`] — the "fixed buffer size" variant of a graph used by
//!   the bottom half of Table 2.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apps;
pub mod dsp;
mod random;
pub mod sdf3;

pub use random::{random_graph, RandomGraphConfig};

use csdf::transform::{bound_all_buffers, uniform_slack_capacity};
use csdf::{CsdfError, CsdfGraph};

/// Returns the "fixed buffer size" variant of `graph`, in which every data
/// buffer is bounded to `slack` times the tokens moved by one producer and
/// one consumer iteration (`slack · (i_b + o_b)`, at least the initial
/// marking: [`csdf::transform::uniform_slack_capacity`]). This doubles the buffer count exactly as in the bottom half of
/// the paper's Table 2 and turns buffer capacity into additional feedback
/// cycles that the throughput analysis must take into account.
///
/// # Errors
///
/// Propagates [`CsdfError`] from the bounding transformation.
///
/// # Examples
///
/// ```
/// use csdf::CsdfGraphBuilder;
/// use csdf_generators::buffer_sized;
///
/// let mut builder = CsdfGraphBuilder::new();
/// let a = builder.add_sdf_task("a", 1);
/// let b = builder.add_sdf_task("b", 1);
/// builder.add_sdf_buffer(a, b, 2, 3, 0);
/// let graph = builder.build()?;
/// let bounded = buffer_sized(&graph, 2)?;
/// assert_eq!(bounded.buffer_count(), 2);
/// # Ok::<(), csdf::CsdfError>(())
/// ```
pub fn buffer_sized(graph: &CsdfGraph, slack: u64) -> Result<CsdfGraph, CsdfError> {
    bound_all_buffers(graph, |_, buffer| uniform_slack_capacity(buffer, slack))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffer_sizing_doubles_non_self_loop_buffers() {
        let g = random_graph(&RandomGraphConfig::default(), 9).unwrap();
        let data_buffers = g.buffers().filter(|(_, b)| !b.is_self_loop()).count();
        let bounded = buffer_sized(&g, 2).unwrap();
        assert_eq!(bounded.buffer_count(), g.buffer_count() + data_buffers);
        assert!(bounded.is_consistent());
    }

    #[test]
    fn generous_buffer_sizes_keep_small_graphs_live() {
        let g = random_graph(&RandomGraphConfig::small_csdf(), 3).unwrap();
        let bounded = buffer_sized(&g, 4).unwrap();
        let result = kperiodic::optimal_throughput(&bounded).unwrap();
        // With four iterations of slack per buffer the graph must not
        // deadlock.
        assert!(!result.throughput.is_deadlocked());
    }
}
