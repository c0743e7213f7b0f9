//! Error types shared by the CSDF model crate.

use std::fmt;

use crate::rational::RationalError;

/// Names locating a buffer in error messages and diagnostics: the buffer
/// index plus the *names* of its endpoint tasks, so a consumer never has to
/// map bare indices back to the model by hand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BufferRef {
    /// Index of the buffer in its graph.
    pub index: usize,
    /// Name of the producing task.
    pub source: String,
    /// Name of the consuming task.
    pub target: String,
}

impl BufferRef {
    /// Builds a reference from an index and the endpoint task names.
    pub fn new(index: usize, source: impl Into<String>, target: impl Into<String>) -> BufferRef {
        BufferRef {
            index,
            source: source.into(),
            target: target.into(),
        }
    }
}

impl fmt::Display for BufferRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "buffer {} (`{}` -> `{}`)",
            self.index, self.source, self.target
        )
    }
}

/// Errors raised while constructing or analysing a CSDF graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CsdfError {
    /// A task name was used twice in a builder.
    DuplicateTaskName(String),
    /// A task was referenced that does not exist in the graph.
    UnknownTask(String),
    /// A task was declared with zero phases.
    EmptyPhases(String),
    /// A buffer rate vector length does not match the task phase count.
    RateLengthMismatch {
        /// Name of the offending task.
        task: String,
        /// Number of phases declared for the task.
        phases: usize,
        /// Length of the rate vector attached to the buffer.
        rate_len: usize,
    },
    /// A buffer produces or consumes zero tokens over a full iteration.
    ZeroRateBuffer {
        /// The offending buffer.
        buffer: BufferRef,
    },
    /// A buffer's production or consumption over a full iteration exceeds
    /// `u64`.
    RateOverflow {
        /// The offending buffer.
        buffer: BufferRef,
    },
    /// The graph is not consistent: no repetition vector exists.
    Inconsistent {
        /// The buffer whose balance equation is violated.
        buffer: BufferRef,
    },
    /// The graph contains no tasks.
    EmptyGraph,
    /// An arithmetic overflow occurred (rates or repetition vector too large).
    Overflow,
    /// A task id was out of range for this graph.
    TaskIndexOutOfRange(usize),
    /// A buffer id was out of range for this graph.
    BufferIndexOutOfRange(usize),
    /// A buffer capacity is too small to hold its initial tokens.
    CapacityBelowMarking {
        /// The offending buffer.
        buffer: BufferRef,
        /// Requested capacity.
        capacity: u64,
        /// Initial tokens already stored.
        marking: u64,
    },
    /// The same buffer was given more than one capacity in a single
    /// `bound_buffers` call (each duplicate would add its own reverse buffer
    /// and silently over-constrain the graph).
    DuplicateBufferCapacity {
        /// The buffer that appeared more than once.
        buffer: BufferRef,
    },
    /// A capacity assignment over a bounded design did not line up with the
    /// design's forward/reverse pairing: the named buffer either has no
    /// reverse (back-pressure) buffer, or is bounded but was missing from
    /// the assignment.
    MissingBufferCapacity {
        /// The buffer without a usable capacity assignment.
        buffer: BufferRef,
    },
    /// A capacity mutation named a buffer pair that is not a
    /// forward/reverse pair (the reverse buffer must have the endpoints
    /// swapped and the rate vectors mirrored).
    NotAReverseBuffer {
        /// The buffer whose capacity was being set.
        forward: BufferRef,
        /// The buffer that was claimed to be its reverse.
        reverse: BufferRef,
    },
    /// The requested periodicity vector has the wrong length or a zero entry.
    InvalidPeriodicityVector {
        /// Number of tasks in the graph.
        expected: usize,
        /// Length of the provided vector.
        actual: usize,
    },
    /// A zero entry was found in a periodicity vector for the given task.
    ZeroPeriodicity {
        /// Index of the task with the zero entry.
        task: usize,
        /// Name of the task, when the failing call had the graph at hand.
        name: Option<String>,
    },
    /// Wrapper for rational arithmetic failures.
    Rational(RationalError),
    /// A textual graph description could not be parsed.
    Parse {
        /// 1-based line number of the offending line.
        line: usize,
        /// Human-readable description of the problem.
        message: String,
    },
}

impl fmt::Display for CsdfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsdfError::DuplicateTaskName(name) => write!(f, "duplicate task name `{name}`"),
            CsdfError::UnknownTask(name) => write!(f, "unknown task `{name}`"),
            CsdfError::EmptyPhases(name) => write!(f, "task `{name}` has zero phases"),
            CsdfError::RateLengthMismatch {
                task,
                phases,
                rate_len,
            } => write!(
                f,
                "rate vector of length {rate_len} attached to task `{task}` which has {phases} phases"
            ),
            CsdfError::ZeroRateBuffer { buffer } => {
                write!(f, "{buffer} produces or consumes zero tokens per iteration")
            }
            CsdfError::RateOverflow { buffer } => {
                write!(f, "{buffer} produces or consumes more than 2^64 - 1 tokens per iteration")
            }
            CsdfError::Inconsistent { buffer } => {
                write!(f, "graph is inconsistent: balance equation violated on {buffer}")
            }
            CsdfError::EmptyGraph => write!(f, "graph contains no tasks"),
            CsdfError::Overflow => write!(f, "arithmetic overflow in graph analysis"),
            CsdfError::TaskIndexOutOfRange(index) => write!(f, "task index {index} out of range"),
            CsdfError::BufferIndexOutOfRange(index) => {
                write!(f, "buffer index {index} out of range")
            }
            CsdfError::CapacityBelowMarking {
                buffer,
                capacity,
                marking,
            } => write!(
                f,
                "{buffer} capacity {capacity} is smaller than its initial marking {marking}"
            ),
            CsdfError::DuplicateBufferCapacity { buffer } => {
                write!(f, "{buffer} was assigned more than one capacity")
            }
            CsdfError::MissingBufferCapacity { buffer } => write!(
                f,
                "{buffer} has no usable capacity assignment (unbounded, or bounded but missing from the list)"
            ),
            CsdfError::NotAReverseBuffer { forward, reverse } => write!(
                f,
                "{reverse} is not the reverse of {forward} (endpoints swapped, rates mirrored)"
            ),
            CsdfError::InvalidPeriodicityVector { expected, actual } => write!(
                f,
                "periodicity vector has length {actual}, expected {expected}"
            ),
            CsdfError::ZeroPeriodicity { task, name } => match name {
                Some(name) => write!(
                    f,
                    "periodicity vector entry for task `{name}` (index {task}) is zero"
                ),
                None => write!(f, "periodicity vector entry for task {task} is zero"),
            },
            CsdfError::Rational(err) => write!(f, "{err}"),
            CsdfError::Parse { line, message } => write!(f, "parse error at line {line}: {message}"),
        }
    }
}

impl std::error::Error for CsdfError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CsdfError::Rational(err) => Some(err),
            _ => None,
        }
    }
}

impl From<RationalError> for CsdfError {
    fn from(err: RationalError) -> Self {
        CsdfError::Rational(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let err = CsdfError::RateLengthMismatch {
            task: "fft".to_string(),
            phases: 3,
            rate_len: 2,
        };
        let text = err.to_string();
        assert!(text.contains("fft"));
        assert!(text.contains('3'));
        assert!(text.contains('2'));
    }

    #[test]
    fn rational_errors_convert() {
        let err: CsdfError = RationalError::Overflow.into();
        assert!(matches!(err, CsdfError::Rational(RationalError::Overflow)));
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn buffer_errors_name_both_endpoints() {
        let err = CsdfError::Inconsistent {
            buffer: BufferRef::new(3, "src", "dst"),
        };
        let text = err.to_string();
        assert!(text.contains("buffer 3"));
        assert!(text.contains("`src`"));
        assert!(text.contains("`dst`"));
    }

    #[test]
    fn zero_periodicity_prefers_the_task_name() {
        let named = CsdfError::ZeroPeriodicity {
            task: 2,
            name: Some("fft".to_string()),
        };
        assert!(named.to_string().contains("`fft`"));
        let anonymous = CsdfError::ZeroPeriodicity {
            task: 2,
            name: None,
        };
        assert!(anonymous.to_string().contains("task 2"));
    }

    #[test]
    fn parse_error_reports_line() {
        let err = CsdfError::Parse {
            line: 7,
            message: "expected `->`".to_string(),
        };
        assert!(err.to_string().contains("line 7"));
    }
}
