//! Error type of the K-periodic analysis crate.

use std::fmt;

use csdf::{CsdfError, RationalError};
use mcr::McrError;

/// Errors raised by K-periodic throughput evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnalysisError {
    /// The underlying CSDF model reported an error (inconsistency, overflow,
    /// invalid periodicity vector, ...).
    Model(CsdfError),
    /// The cycle-ratio solver reported an error.
    Solver(McrError),
    /// The K-Iter loop exceeded its configured iteration budget before the
    /// optimality test succeeded.
    IterationLimitReached {
        /// Number of iterations performed.
        iterations: usize,
    },
    /// The event graph grew beyond the configured node budget.
    EventGraphTooLarge {
        /// Number of nodes the event graph would need.
        nodes: usize,
        /// The configured limit.
        limit: usize,
    },
    /// The event graph grew beyond the configured arc budget.
    EventGraphTooManyArcs {
        /// Number of arcs the event graph would need.
        arcs: usize,
        /// The configured limit.
        limit: usize,
    },
    /// An [`EventGraphArena`](crate::EventGraphArena) was asked to update
    /// against a graph it was not built from (its cached blocks and arcs
    /// would silently be wrong); build a fresh arena instead.
    ArenaGraphMismatch,
    /// The pre-solve lint gate ([`AnalysisOptions::pre_lint`]
    /// (`crate::AnalysisOptions::pre_lint`)) found a structural error, so no
    /// event graph was built. `code` is the stable `csdf-lint` code
    /// (`"L001"`, `"L002"`, ...) of the first error diagnostic.
    RejectedByLint {
        /// Stable lint code of the first error-severity diagnostic.
        code: String,
        /// The diagnostic's message.
        message: String,
    },
    /// The evaluation observed a cancelled [`CancelToken`](mcr::CancelToken)
    /// — an explicit cancellation or an elapsed deadline — and bailed out
    /// cooperatively. The session, pipeline and arena all stay reusable.
    DeadlineExceeded,
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::Model(err) => write!(f, "{err}"),
            AnalysisError::Solver(err) => write!(f, "{err}"),
            AnalysisError::IterationLimitReached { iterations } => {
                write!(f, "k-iter did not converge within {iterations} iterations")
            }
            AnalysisError::EventGraphTooLarge { nodes, limit } => {
                write!(f, "event graph needs {nodes} nodes, limit is {limit}")
            }
            AnalysisError::EventGraphTooManyArcs { arcs, limit } => {
                write!(f, "event graph needs {arcs} arcs, limit is {limit}")
            }
            AnalysisError::ArenaGraphMismatch => {
                write!(
                    f,
                    "event-graph arena updated against a graph it was not built from"
                )
            }
            AnalysisError::RejectedByLint { code, message } => {
                write!(f, "rejected by pre-solve lint [{code}]: {message}")
            }
            AnalysisError::DeadlineExceeded => {
                write!(f, "evaluation exceeded its deadline and was cancelled")
            }
        }
    }
}

impl std::error::Error for AnalysisError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AnalysisError::Model(err) => Some(err),
            AnalysisError::Solver(err) => Some(err),
            _ => None,
        }
    }
}

impl From<CsdfError> for AnalysisError {
    fn from(err: CsdfError) -> Self {
        AnalysisError::Model(err)
    }
}

impl From<McrError> for AnalysisError {
    fn from(err: McrError) -> Self {
        match err {
            // A cancelled solve is a deadline event of the whole evaluation,
            // not a solver failure.
            McrError::Cancelled => AnalysisError::DeadlineExceeded,
            other => AnalysisError::Solver(other),
        }
    }
}

impl From<RationalError> for AnalysisError {
    fn from(err: RationalError) -> Self {
        AnalysisError::Model(CsdfError::Rational(err))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let model: AnalysisError = CsdfError::EmptyGraph.into();
        assert!(model.to_string().contains("no tasks"));
        let solver: AnalysisError = McrError::IterationLimit.into();
        assert!(solver.to_string().contains("progress"));
        let rational: AnalysisError = RationalError::Overflow.into();
        assert!(matches!(rational, AnalysisError::Model(_)));
        let limit = AnalysisError::IterationLimitReached { iterations: 3 };
        assert!(limit.to_string().contains('3'));
        let size = AnalysisError::EventGraphTooLarge {
            nodes: 10,
            limit: 5,
        };
        assert!(size.to_string().contains("10"));
        assert!(std::error::Error::source(&model).is_some());
        assert!(std::error::Error::source(&limit).is_none());
    }

    #[test]
    fn cancelled_solves_become_deadline_exceeded() {
        let cancelled: AnalysisError = McrError::Cancelled.into();
        assert_eq!(cancelled, AnalysisError::DeadlineExceeded);
        assert!(cancelled.to_string().contains("deadline"));
        assert!(std::error::Error::source(&cancelled).is_none());
    }
}
