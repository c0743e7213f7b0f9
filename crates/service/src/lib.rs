//! A throughput-analysis service for CSDF graphs.
//!
//! The workspace's analyses — optimal throughput ([`kperiodic`]),
//! Pareto sweeps, minimal-storage searches and scenario studies
//! ([`csdf_explore`]) — are library calls that pay a per-graph setup cost
//! (arena construction, solver scratch). This crate packages them as a
//! long-running daemon so that cost is paid once per graph *structure*, not
//! once per request:
//!
//! - [`protocol`]: line-delimited JSON requests/responses (carried by the
//!   workspace codec [`csdf::json`], no dependencies), with SDF3 XML or the
//!   workspace text format as inline graph encodings and exact `"num/den"`
//!   throughput strings.
//! - [`Daemon`]: owns a [`kperiodic::SessionPool`] (warm
//!   [`kperiodic::AnalysisSession`]s routed by structure fingerprint) and a
//!   bounded LRU [`ResultCache`] of evaluate results, and fans batches over
//!   a scoped worker pool with deterministic response ordering.
//! - Transports: a stdin/stdout batch mode and a Unix-socket streaming mode
//!   (`csdf_service` binary), both answering through the same
//!   [`Daemon::handle_line`] so responses are bit-identical across
//!   transports and to direct library calls.
//! - Fault containment: handler panics are caught per request, poisoned
//!   locks recover, errored sessions are quarantined, deadlines cancel
//!   solves cooperatively and admission caps shed oversized work — see
//!   [`daemon`]'s module docs. The [`fault`] module injects faults
//!   deterministically for the chaos test-suite.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod daemon;
pub mod fault;
pub mod protocol;

pub use cache::{CacheKey, CacheStats, ResultCache};
pub use csdf::json::{parse_throughput, throughput_to_string, Json};
pub use daemon::{Daemon, ErrorKind, ServiceConfig, ServiceError, ServiceStats};
pub use fault::{FaultAction, FaultPlan, FaultSite};
pub use protocol::{parse_request, GraphSpec, Request, RequestBody, ScenarioSpec};
