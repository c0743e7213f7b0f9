//! Buffers (channels) of a cyclo-static dataflow graph.

use std::fmt;

use crate::rational::gcd_u64;
use crate::task::TaskId;

/// Index of a buffer within a [`crate::CsdfGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BufferId(pub(crate) usize);

impl BufferId {
    /// Creates a buffer id from a raw index.
    pub fn new(index: usize) -> Self {
        BufferId(index)
    }

    /// The raw dense index of this buffer.
    pub fn index(&self) -> usize {
        self.0
    }
}

impl fmt::Display for BufferId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0)
    }
}

/// A FIFO buffer `b = (t, t')` carrying tokens from a producer task to a
/// consumer task.
///
/// `production[p]` tokens are written at the end of each execution of the
/// producer's phase `p`; `consumption[p']` tokens are read before each
/// execution of the consumer's phase `p'`. `initial_tokens` is the marking
/// `M0(b)`.
///
/// A `Buffer` is a `Copy` view into its [`crate::CsdfGraph`], which keeps
/// every buffer's rates in one array and its endpoints and marking in one
/// fixed-size record; the `'g` slices the accessors return borrow the graph,
/// not the view, so they outlive it:
///
/// ```
/// use csdf::CsdfGraphBuilder;
///
/// let mut builder = CsdfGraphBuilder::new();
/// let t = builder.add_task("t", vec![1, 1, 1]);
/// let u = builder.add_task("u", vec![1, 1]);
/// let id = builder.add_buffer(t, u, vec![2, 3, 1], vec![2, 5], 0);
/// let graph = builder.build()?;
/// // The view is a temporary; the slice lives as long as `graph`.
/// let production: &[u64] = graph.buffer(id).production();
/// assert_eq!(production, &[2, 3, 1]);
/// # Ok::<(), csdf::CsdfError>(())
/// ```
///
/// The paper's Figure 1 example — a buffer with production `[2,3,1]`,
/// consumption `[2,5]` and empty marking — is reproduced in the unit tests of
/// this module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Buffer<'g> {
    source: TaskId,
    target: TaskId,
    production: &'g [u64],
    consumption: &'g [u64],
    initial_tokens: u64,
}

impl<'g> Buffer<'g> {
    /// The view of a buffer stored as these endpoints, rates and marking.
    pub(crate) fn new(
        source: TaskId,
        target: TaskId,
        production: &'g [u64],
        consumption: &'g [u64],
        initial_tokens: u64,
    ) -> Self {
        Buffer {
            source,
            target,
            production,
            consumption,
            initial_tokens,
        }
    }

    /// The producing task `t`.
    pub fn source(self) -> TaskId {
        self.source
    }

    /// The consuming task `t'`.
    pub fn target(self) -> TaskId {
        self.target
    }

    /// Per-phase production rates `in_b`.
    pub fn production(self) -> &'g [u64] {
        self.production
    }

    /// Per-phase consumption rates `out_b`.
    pub fn consumption(self) -> &'g [u64] {
        self.consumption
    }

    /// Tokens produced by the producer phase with 0-based index `phase`.
    pub fn production_at(self, phase: usize) -> u64 {
        self.production[phase]
    }

    /// Tokens consumed by the consumer phase with 0-based index `phase`.
    pub fn consumption_at(self, phase: usize) -> u64 {
        self.consumption[phase]
    }

    /// Initial marking `M0(b)`.
    pub fn initial_tokens(self) -> u64 {
        self.initial_tokens
    }

    /// Returns `true` when `other` is the *reverse* of this buffer: the
    /// endpoints swapped and the rate vectors mirrored. This is the shape of
    /// the back-pressure buffer that models a bounded capacity (see
    /// [`crate::transform::bound_buffers`]); the initial markings are
    /// unconstrained, since the reverse marking encodes the capacity slack.
    pub fn is_reverse_of(self, other: Buffer<'_>) -> bool {
        self.source == other.target
            && self.target == other.source
            && self.production == other.consumption
            && self.consumption == other.production
    }

    /// Total tokens `i_b` written during one full iteration of the producer.
    pub fn total_production(self) -> u64 {
        self.production.iter().sum()
    }

    /// Total tokens `o_b` read during one full iteration of the consumer.
    pub fn total_consumption(self) -> u64 {
        self.consumption.iter().sum()
    }

    /// `gcd(i_b, o_b)`, written `gcd_a` in the paper; used by the Theorem-2
    /// constraint strengthening.
    pub fn rate_gcd(self) -> u64 {
        gcd_u64(self.total_production(), self.total_consumption())
    }

    /// Returns `true` when the buffer connects a task to itself.
    pub fn is_self_loop(self) -> bool {
        self.source == self.target
    }

    /// Cumulative tokens produced into this buffer at the completion of the
    /// producer phase with 0-based index `phase` of iteration `n` (1-based):
    /// `Ia⟨t_{phase+1}, n⟩` of the paper.
    pub fn cumulative_production(self, phase: usize, n: u64) -> u64 {
        let within: u64 = self.production[..=phase].iter().sum();
        within + (n - 1) * self.total_production()
    }

    /// Cumulative tokens consumed from this buffer at the completion of the
    /// consumer phase with 0-based index `phase` of iteration `n` (1-based):
    /// `Oa⟨t'_{phase+1}, n⟩` of the paper.
    pub fn cumulative_consumption(self, phase: usize, n: u64) -> u64 {
        let within: u64 = self.consumption[..=phase].iter().sum();
        within + (n - 1) * self.total_consumption()
    }
}

impl fmt::Display for Buffer<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} -{:?}/{:?}[{}]-> {}",
            self.source, self.production, self.consumption, self.initial_tokens, self.target
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure1_buffer() -> Buffer<'static> {
        // Paper Figure 1: in_b = [2,3,1], out_b = [2,5], M0 = 0.
        Buffer::new(TaskId::new(0), TaskId::new(1), &[2, 3, 1], &[2, 5], 0)
    }

    #[test]
    fn paper_figure1() {
        let b = figure1_buffer();
        assert_eq!(b.total_production(), 6);
        assert_eq!(b.total_consumption(), 7);
        assert_eq!(b.rate_gcd(), 1);
        assert_eq!(b.initial_tokens(), 0);
        assert!(!b.is_self_loop());
    }

    #[test]
    fn cumulative_counters_match_paper_example() {
        // The paper checks that ⟨t'_2, 1⟩ may complete at the completion of
        // ⟨t_1, 2⟩ because M0 + Ia⟨t_1,2⟩ − Oa⟨t'_2,1⟩ = 0 + 8 − 7 ≥ 0.
        let b = figure1_buffer();
        assert_eq!(b.cumulative_production(0, 2), 8);
        assert_eq!(b.cumulative_consumption(1, 1), 7);
        assert_eq!(b.cumulative_production(2, 1), 6);
        assert_eq!(b.cumulative_consumption(0, 3), 2 + 2 * 7);
    }

    #[test]
    fn accessors() {
        let b = figure1_buffer();
        assert_eq!(b.source().index(), 0);
        assert_eq!(b.target().index(), 1);
        assert_eq!(b.production(), &[2, 3, 1]);
        assert_eq!(b.consumption(), &[2, 5]);
        assert_eq!(b.production_at(1), 3);
        assert_eq!(b.consumption_at(1), 5);
    }

    #[test]
    fn self_loop_detection() {
        let b = Buffer::new(TaskId::new(3), TaskId::new(3), &[1], &[1], 1);
        assert!(b.is_self_loop());
    }

    #[test]
    fn reverse_detection_mirrors_endpoints_and_rates() {
        let b = figure1_buffer();
        let reverse = Buffer::new(TaskId::new(1), TaskId::new(0), &[2, 5], &[2, 3, 1], 9);
        assert!(reverse.is_reverse_of(b));
        assert!(b.is_reverse_of(reverse));
        assert!(!b.is_reverse_of(b));
        assert_eq!(b.to_string(), "t0 -[2, 3, 1]/[2, 5][0]-> t1");
    }

    #[test]
    fn buffer_id_roundtrip() {
        let id = BufferId::new(2);
        assert_eq!(id.index(), 2);
        assert_eq!(id.to_string(), "b2");
    }
}
