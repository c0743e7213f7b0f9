//! A pool of warm [`AnalysisSession`]s keyed by structure fingerprint.
//!
//! A throughput-analysis *service* sees long streams of closely-related
//! requests: the same application graph evaluated under many markings or
//! capacities, interleaved with requests for unrelated graphs. The expensive
//! state — the event-graph arena, the MCR solver scratch, the repetition
//! vector — depends only on the graph's *structure* (tasks, durations,
//! buffer endpoints and rates), not on its markings, so a session built for
//! one request can serve every later request whose graph shares the
//! structure: the pool re-targets its markings in place
//! ([`AnalysisSession::adopt_markings`]) and the next evaluation re-derives
//! only the re-marked buffers' constraint arcs.
//!
//! [`SessionPool`] is that routing layer: [`SessionPool::checkout`] hands
//! out a warm session when one with a matching [`structure_fingerprint`] is
//! idle (or builds a cold one), [`SessionPool::give_back`] files it again,
//! evicting the least-recently-used idle session beyond the pool's capacity.
//! The pool itself is not thread-safe — a server shares it behind a mutex
//! and keeps evaluations outside the lock, which is cheap because checkout
//! and return are O(idle sessions + buffers).
//!
//! Every session the pool creates uses the default [`KIterOptions`], and
//! every session evaluation starts K-Iter from the unitary K, so a checkout
//! result is **bit-identical** to a cold [`optimal_throughput`] on the
//! request's graph whatever was evaluated on the session before
//! (property-tested in `tests/session.rs` and the `csdf-service`
//! test-suite).
//!
//! [`optimal_throughput`]: crate::optimal_throughput
//! [`structure_fingerprint`]: crate::structure_fingerprint

use csdf::CsdfGraph;

use crate::error::AnalysisError;
use crate::kiter::KIterOptions;
use crate::session::AnalysisSession;

/// Counters describing how a [`SessionPool`] served its checkouts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Total number of successful [`SessionPool::checkout`] calls.
    pub checkouts: usize,
    /// Checkouts served by re-targeting an idle warm session.
    pub warm: usize,
    /// Checkouts that had to build a session from scratch.
    pub cold: usize,
    /// Idle sessions evicted because the pool was over capacity.
    pub evicted: usize,
    /// Sessions filed back by [`SessionPool::give_back`].
    pub returned: usize,
    /// Sessions dropped through [`SessionPool::quarantine`] because their
    /// last use errored or panicked mid-mutation. With `returned`, this
    /// accounts for every checkout a well-behaved server hands back:
    /// `checkouts == returned + quarantined` means no session leaked.
    pub quarantined: usize,
}

impl PoolStats {
    /// Fraction of checkouts served warm (`0.0` before the first checkout).
    pub fn warm_hit_rate(&self) -> f64 {
        if self.checkouts == 0 {
            0.0
        } else {
            self.warm as f64 / self.checkouts as f64
        }
    }
}

/// An idle session together with its routing key.
#[derive(Debug)]
struct IdleSession {
    fingerprint: u64,
    session: AnalysisSession,
    /// Monotonic return stamp; the smallest stamp is the least recently
    /// returned session and the first evicted over capacity.
    stamp: u64,
}

/// A bounded pool of idle [`AnalysisSession`]s routed by structure
/// fingerprint.
///
/// # Examples
///
/// ```
/// use csdf::CsdfGraphBuilder;
/// use kperiodic::SessionPool;
///
/// let mut builder = CsdfGraphBuilder::new();
/// let a = builder.add_sdf_task("a", 1);
/// let b = builder.add_sdf_task("b", 1);
/// builder.add_sdf_buffer(a, b, 1, 1, 0);
/// let feedback = builder.add_sdf_buffer(b, a, 1, 1, 1);
/// let graph = builder.build()?;
///
/// let mut pool = SessionPool::new(4);
/// let mut session = pool.checkout(&graph)?;
/// let one = session.evaluate()?.throughput;
/// pool.give_back(session);
///
/// // A mutated graph with the same structure lands on the warm session.
/// let mut relaxed = graph.clone();
/// relaxed.set_initial_tokens(feedback, 3)?;
/// let mut session = pool.checkout(&relaxed)?;
/// assert!(session.evaluate()?.throughput > one);
/// assert_eq!(session.stats().full_builds, 1); // warm: the arena carried over
/// pool.give_back(session);
/// assert_eq!(pool.stats().warm, 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct SessionPool {
    capacity: usize,
    idle: Vec<IdleSession>,
    next_stamp: u64,
    stats: PoolStats,
}

impl SessionPool {
    /// Creates a pool that keeps at most `capacity` idle sessions (`0` is
    /// treated as `1`).
    pub fn new(capacity: usize) -> Self {
        SessionPool {
            capacity: capacity.max(1),
            idle: Vec::new(),
            next_stamp: 0,
            stats: PoolStats::default(),
        }
    }

    /// Number of idle sessions currently held.
    pub fn idle_sessions(&self) -> usize {
        self.idle.len()
    }

    /// Checkout/return counters.
    pub fn stats(&self) -> &PoolStats {
        &self.stats
    }

    /// Checks out a session for `graph`: the most recently returned idle
    /// session with `graph`'s structure fingerprint is re-targeted at
    /// `graph`'s markings ([`AnalysisSession::adopt_markings`]), or a new
    /// session is built when none matches. Either way the session's next
    /// evaluation is bit-identical to a cold
    /// [`optimal_throughput`](crate::optimal_throughput) on `graph`.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::Model`] when `graph` is inconsistent or its
    /// repetition vector overflows (cold path), or propagated marking errors
    /// (warm path; the idle session is dropped, not returned to the pool).
    pub fn checkout(&mut self, graph: &CsdfGraph) -> Result<AnalysisSession, AnalysisError> {
        let fingerprint = crate::arena::graph_fingerprint(graph);
        let warm = self
            .idle
            .iter()
            .enumerate()
            .filter(|(_, idle)| {
                idle.fingerprint == fingerprint
                    && idle.session.graph().task_count() == graph.task_count()
                    && idle.session.graph().buffer_count() == graph.buffer_count()
            })
            .max_by_key(|(_, idle)| idle.stamp)
            .map(|(index, _)| index);
        if let Some(index) = warm {
            let mut session = self.idle.swap_remove(index).session;
            // A failed adoption (impossible for a genuine fingerprint match,
            // conceivable under a hash collision) discards the session
            // rather than handing out stale caches.
            session.adopt_markings_keyed(graph, fingerprint)?;
            self.stats.checkouts += 1;
            self.stats.warm += 1;
            return Ok(session);
        }
        let session =
            AnalysisSession::with_fingerprint(graph.clone(), fingerprint, KIterOptions::default())?;
        self.stats.checkouts += 1;
        self.stats.cold += 1;
        Ok(session)
    }

    /// Returns a session to the pool, evicting the least recently returned
    /// idle session when the pool is over capacity.
    ///
    /// Only sessions that finished their work normally belong here. A
    /// session whose evaluation errored or panicked mid-mutation may hold a
    /// half-applied marking batch or a stale arena; hand it to
    /// [`SessionPool::quarantine`] instead so the damage cannot reach the
    /// next request.
    ///
    /// # Panics
    ///
    /// Panics only if the eviction invariant breaks (an over-capacity pool
    /// with no idle session to evict).
    pub fn give_back(&mut self, session: AnalysisSession) {
        self.stats.returned += 1;
        let fingerprint = session.structure_fingerprint();
        self.idle.push(IdleSession {
            fingerprint,
            session,
            stamp: self.next_stamp,
        });
        self.next_stamp += 1;
        while self.idle.len() > self.capacity {
            let oldest = self
                .idle
                .iter()
                .enumerate()
                .min_by_key(|(_, idle)| idle.stamp)
                .map(|(index, _)| index)
                .expect("pool over capacity is non-empty");
            self.idle.swap_remove(oldest);
            self.stats.evicted += 1;
        }
    }

    /// Drops a checked-out session instead of refiling it, counting it in
    /// [`PoolStats::quarantined`]. Use this for sessions whose evaluation
    /// errored or panicked mid-mutation: the session is destroyed, never
    /// handed to another request, and the next checkout of its structure
    /// builds cold.
    pub fn quarantine(&mut self, session: AnalysisSession) {
        drop(session);
        self.stats.quarantined += 1;
    }

    /// Drops every idle session (e.g. after a memory-pressure signal).
    pub fn clear(&mut self) {
        self.idle.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kiter::optimal_throughput;
    use csdf::{BufferId, CsdfGraphBuilder};

    fn ring(duration: u64, tokens: u64) -> CsdfGraph {
        let mut b = CsdfGraphBuilder::new();
        let x = b.add_sdf_task("x", duration);
        let y = b.add_sdf_task("y", 1);
        b.add_sdf_buffer(x, y, 2, 1, 0);
        b.add_sdf_buffer(y, x, 1, 2, tokens);
        b.add_serializing_self_loop(x);
        b.add_serializing_self_loop(y);
        b.build().unwrap()
    }

    #[test]
    fn warm_checkouts_are_bit_identical_to_cold_evaluations() {
        let mut pool = SessionPool::new(2);
        for tokens in [3u64, 5, 2, 8, 3] {
            let graph = ring(2, tokens);
            let mut session = pool.checkout(&graph).unwrap();
            let pooled = session.evaluate().unwrap();
            pool.give_back(session);
            assert_eq!(
                pooled,
                optimal_throughput(&graph).unwrap(),
                "tokens {tokens}"
            );
        }
        let stats = pool.stats();
        assert_eq!(stats.checkouts, 5);
        assert_eq!(stats.cold, 1, "one structure, one cold build");
        assert_eq!(stats.warm, 4);
        assert!(stats.warm_hit_rate() > 0.75);
    }

    #[test]
    fn different_structures_never_share_a_session() {
        let mut pool = SessionPool::new(4);
        let slow = ring(2, 3);
        // Same shape, different duration: a different structure fingerprint.
        let fast = ring(1, 3);
        let mut a = pool.checkout(&slow).unwrap();
        let slow_result = a.evaluate().unwrap();
        pool.give_back(a);
        let mut b = pool.checkout(&fast).unwrap();
        let fast_result = b.evaluate().unwrap();
        pool.give_back(b);
        assert_eq!(pool.stats().cold, 2);
        assert_eq!(slow_result, optimal_throughput(&slow).unwrap());
        assert_eq!(fast_result, optimal_throughput(&fast).unwrap());
        assert_ne!(slow_result.throughput, fast_result.throughput);
    }

    #[test]
    fn capacity_bounds_the_idle_set() {
        let mut pool = SessionPool::new(2);
        for duration in 1..=4u64 {
            let session = pool.checkout(&ring(duration, 3)).unwrap();
            pool.give_back(session);
        }
        assert_eq!(pool.idle_sessions(), 2);
        assert_eq!(pool.stats().evicted, 2);
        // The two *most recently returned* structures are the ones kept.
        for duration in [3u64, 4] {
            let session = pool.checkout(&ring(duration, 3)).unwrap();
            pool.give_back(session);
        }
        assert_eq!(pool.stats().warm, 2);
    }

    #[test]
    fn quarantined_sessions_never_rejoin_the_pool() {
        let mut pool = SessionPool::new(4);
        let graph = ring(2, 3);
        let session = pool.checkout(&graph).unwrap();
        pool.quarantine(session);
        assert_eq!(pool.idle_sessions(), 0);
        assert_eq!(pool.stats().quarantined, 1);
        assert_eq!(pool.stats().returned, 0);
        // The next checkout of the same structure builds cold.
        let session = pool.checkout(&graph).unwrap();
        pool.give_back(session);
        let stats = *pool.stats();
        assert_eq!(stats.cold, 2);
        assert_eq!(stats.returned, 1);
        assert_eq!(stats.checkouts, stats.returned + stats.quarantined);
    }

    #[test]
    fn adoption_rejects_structure_mismatches() {
        let graph = ring(2, 3);
        let mut session = AnalysisSession::new(graph, KIterOptions::default()).unwrap();
        assert!(matches!(
            session.adopt_markings(&ring(1, 3)),
            Err(AnalysisError::ArenaGraphMismatch)
        ));
        // A marking-only difference adopts exactly the differing buffer.
        let mut relaxed = ring(2, 3);
        relaxed.set_initial_tokens(BufferId::new(1), 7).unwrap();
        assert_eq!(session.adopt_markings(&relaxed).unwrap(), 1);
        assert_eq!(session.graph().buffer(BufferId::new(1)).initial_tokens(), 7);
    }
}
