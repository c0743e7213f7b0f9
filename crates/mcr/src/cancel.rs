//! Cooperative cancellation for long-running solves.
//!
//! A [`CancelToken`] is a cheap, cloneable handle that a caller hands to a
//! solver (and, higher up, to an evaluation pipeline) so the hot loops can
//! bail out of a solve that the caller no longer wants: an explicit
//! [`CancelToken::cancel`] call or an elapsed deadline. The checks are
//! *cooperative* — the solver polls [`CancelToken::is_cancelled`] once per
//! policy-iteration round and once per Bellman–Ford round. One round is a
//! single sweep over the component's arcs, so even on a 100k-task
//! single-SCC graph a deadline lands within one sweep.
//! Cancellation is never a partial write: every data structure stays
//! reusable after a cancelled solve.
//!
//! The default token ([`CancelToken::default`]) holds no shared state and
//! never cancels; polling it is a branch on a `None`, so code paths that do
//! not use cancellation pay essentially nothing.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug)]
struct Inner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

/// A cloneable cancellation handle polled by the solver hot loops.
///
/// # Examples
///
/// ```
/// use mcr::CancelToken;
///
/// let token = CancelToken::new();
/// assert!(!token.is_cancelled());
/// token.cancel();
/// assert!(token.is_cancelled());
///
/// // The default token never cancels.
/// assert!(!CancelToken::default().is_cancelled());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Option<Arc<Inner>>,
}

impl CancelToken {
    /// Creates a token that cancels only on an explicit [`CancelToken::cancel`].
    pub fn new() -> CancelToken {
        CancelToken {
            inner: Some(Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: None,
            })),
        }
    }

    /// Creates a token that auto-cancels once `budget` has elapsed (measured
    /// from this call); [`CancelToken::cancel`] still works earlier.
    pub fn with_deadline(budget: Duration) -> CancelToken {
        CancelToken {
            inner: Some(Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: Some(Instant::now() + budget),
            })),
        }
    }

    /// Whether this is the detached default token (no shared state, never
    /// cancels). Callers use this to substitute their own fallback budget
    /// when no real deadline was installed.
    pub fn is_detached(&self) -> bool {
        self.inner.is_none()
    }

    /// Requests cancellation; every clone of this token observes it. A no-op
    /// on the default token.
    pub fn cancel(&self) {
        if let Some(inner) = &self.inner {
            inner.cancelled.store(true, Ordering::Relaxed);
        }
    }

    /// Whether the token has been cancelled or its deadline has passed.
    /// Always `false` for the default token.
    pub fn is_cancelled(&self) -> bool {
        match &self.inner {
            None => false,
            Some(inner) => {
                if inner.cancelled.load(Ordering::Relaxed) {
                    return true;
                }
                match inner.deadline {
                    Some(deadline) if Instant::now() >= deadline => {
                        // Latch the flag so later polls skip the clock read.
                        inner.cancelled.store(true, Ordering::Relaxed);
                        true
                    }
                    _ => false,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_the_cancelled_flag() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!clone.is_cancelled());
        token.cancel();
        assert!(clone.is_cancelled());
    }

    #[test]
    fn zero_deadline_cancels_immediately() {
        let token = CancelToken::with_deadline(Duration::ZERO);
        assert!(token.is_cancelled());
    }

    #[test]
    fn generous_deadline_does_not_cancel() {
        let token = CancelToken::with_deadline(Duration::from_secs(3600));
        assert!(!token.is_cancelled());
    }

    #[test]
    fn default_token_ignores_cancel() {
        let token = CancelToken::default();
        token.cancel();
        assert!(!token.is_cancelled());
    }
}
