//! Repetition vectors and consistency of CSDF graphs.
//!
//! A CSDF graph is *consistent* when there is a vector `q` of positive
//! integers such that for every buffer `b = (t, t')`,
//! `q_t · i_b = q_{t'} · o_b`. The smallest such vector (component-wise, per
//! weakly-connected component) is the repetition vector; it gives the number
//! of iterations of every task inside one graph iteration.

use crate::buffer::BufferId;
use crate::error::CsdfError;
use crate::graph::CsdfGraph;
use crate::rational::{gcd_u128, gcd_u64, lcm_u64, RationalError};
use crate::task::TaskId;

/// The repetition vector `q` of a consistent CSDF graph.
///
/// # Examples
///
/// ```
/// use csdf::CsdfGraphBuilder;
///
/// let mut builder = CsdfGraphBuilder::new();
/// let a = builder.add_sdf_task("a", 1);
/// let b = builder.add_sdf_task("b", 1);
/// builder.add_sdf_buffer(a, b, 3, 2, 0);
/// let graph = builder.build()?;
/// let q = graph.repetition_vector()?;
/// assert_eq!(q.get(a), 2);
/// assert_eq!(q.get(b), 3);
/// assert_eq!(q.sum(), 5);
/// # Ok::<(), csdf::CsdfError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepetitionVector {
    entries: Vec<u64>,
}

impl RepetitionVector {
    /// Computes the repetition vector of `graph`.
    ///
    /// A breadth-first propagation per weakly-connected component assigns
    /// every task its fraction `q_t / q_start`, then each component is
    /// scaled to the smallest integers. Both steps are linear in the graph
    /// size.
    ///
    /// # Errors
    ///
    /// * [`CsdfError::Inconsistent`] when the balance equations admit no
    ///   positive solution, naming the first buffer (in propagation order)
    ///   that contradicts them.
    /// * [`CsdfError::Rational`] when a propagated fraction leaves the
    ///   [`Rational`](crate::Rational) range.
    /// * [`CsdfError::Overflow`] when an entry exceeds `u64`.
    pub fn compute(graph: &CsdfGraph) -> Result<Self, CsdfError> {
        Self::balance(graph).map_err(|error| match error {
            BalanceError::Inconsistent(conflict) => CsdfError::Inconsistent {
                buffer: graph.buffer_ref(conflict.buffer),
            },
            BalanceError::Overflow(error) => error,
        })
    }

    /// [`RepetitionVector::compute`], with the breadth-first forest of the
    /// propagation attached when the balance equations admit no positive
    /// solution, so a caller can certify the inconsistency without walking
    /// the graph again.
    ///
    /// # Errors
    ///
    /// * [`BalanceError::Inconsistent`] where `compute` fails with
    ///   [`CsdfError::Inconsistent`], on the same buffer;
    /// * [`BalanceError::Overflow`] with `compute`'s error otherwise.
    pub fn balance(graph: &CsdfGraph) -> Result<Self, BalanceError> {
        let n = graph.task_count();
        // Every buffer's endpoints and `i_b / o_b` in lowest terms, packed
        // so a visit reads one entry. The builder rejects buffers whose
        // totals are zero or past `u64`.
        let edges: Vec<(TaskId, TaskId, u64, u64)> = graph
            .buffers()
            .map(|(_, buffer)| {
                let (i, o) = (buffer.total_production(), buffer.total_consumption());
                let g = gcd_u64(i, o);
                (buffer.source(), buffer.target(), i / g, o / g)
            })
            .collect();
        // `q_t / q_start` in lowest terms; a zero denominator marks a task
        // not reached yet.
        let mut fractions: Vec<(u128, u128)> = vec![(0, 0); n];
        // The buffer each task was reached through, `None` for the first
        // task of each component.
        let mut parent: Vec<Option<BufferId>> = vec![None; n];
        // Tasks in visit order, which is also the breadth-first queue: each
        // component is one contiguous run, ending at `component_ends`.
        let mut order: Vec<usize> = Vec::with_capacity(n);
        let mut component_ends: Vec<usize> = Vec::new();
        let overflow = || BalanceError::Overflow(CsdfError::Overflow);

        for start in 0..n {
            if fractions[start].1 != 0 {
                continue;
            }
            fractions[start] = (1, 1);
            let mut head = order.len();
            order.push(start);
            while let Some(&index) = order.get(head) {
                head += 1;
                let task = TaskId::new(index);
                let fraction = fractions[index];
                for &buffer_id in graph.incident(task) {
                    let (source, target, i, o) = edges[buffer_id.index()];
                    // q_other = q_task · i_b / o_b downstream, · o_b / i_b upstream.
                    let (other, expected) = if source == task {
                        (target, multiply(fraction, i, o))
                    } else {
                        (source, multiply(fraction, o, i))
                    };
                    let expected = expected.ok_or(BalanceError::Overflow(CsdfError::Rational(
                        RationalError::Overflow,
                    )))?;
                    let slot = &mut fractions[other.index()];
                    if slot.1 == 0 {
                        *slot = expected;
                        parent[other.index()] = Some(buffer_id);
                        order.push(other.index());
                    } else if *slot != expected {
                        return Err(BalanceError::Inconsistent(BalanceConflict {
                            buffer: buffer_id,
                            from: task,
                            to: other,
                            parent,
                        }));
                    }
                }
            }
            component_ends.push(order.len());
        }

        // Scale each component to integers: q_t = num_t · (L / den_t) with L
        // the lcm of the component's denominators. These entries have gcd 1
        // already: a prime outside L misses the start task's entry, which is
        // L itself, and a prime in L misses q_t for a den_t holding all of
        // its power in L, as num_t and den_t are coprime.
        let mut entries = vec![0u64; n];
        let mut begin = 0;
        for end in component_ends {
            let members = &order[begin..end];
            begin = end;
            let mut lcm = 1u64;
            for &t in members {
                let den = u64::try_from(fractions[t].1).map_err(|_| overflow())?;
                lcm = lcm_u64(lcm, den).map_err(|_| overflow())?;
            }
            for &t in members {
                let (num, den) = fractions[t];
                entries[t] = u64::try_from(num)
                    .ok()
                    .and_then(|num| num.checked_mul(lcm / den as u64))
                    .ok_or_else(overflow)?;
            }
        }

        Ok(RepetitionVector { entries })
    }

    /// Repetition count `q_t` of a task.
    ///
    /// # Panics
    ///
    /// Panics if `task` does not belong to the graph this vector was computed
    /// from.
    pub fn get(&self, task: TaskId) -> u64 {
        self.entries[task.index()]
    }

    /// Number of entries (equals the task count of the graph).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All entries in task-id order.
    pub fn as_slice(&self) -> &[u64] {
        &self.entries
    }

    /// Sum of all entries `Σ_t q_t` — the figure the paper reports as a size
    /// indicator of every benchmark.
    pub fn sum(&self) -> u128 {
        self.entries.iter().map(|&q| q as u128).sum()
    }

    /// Verifies the balance equation `q_t · i_b = q_{t'} · o_b` on every
    /// buffer of `graph`.
    pub fn validates(&self, graph: &CsdfGraph) -> bool {
        graph.buffers().all(|(_, b)| {
            let lhs = self.get(b.source()) as u128 * b.total_production() as u128;
            let rhs = self.get(b.target()) as u128 * b.total_consumption() as u128;
            lhs == rhs
        })
    }
}

/// The first contradiction the balance propagation of
/// [`RepetitionVector::balance`] met, with the breadth-first forest that
/// led to it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BalanceConflict {
    /// The buffer whose balance equation contradicts the fractions already
    /// assigned to its endpoints.
    pub buffer: BufferId,
    /// The endpoint whose buffers were being visited.
    pub from: TaskId,
    /// The other endpoint, reached before.
    pub to: TaskId,
    /// Per task, the buffer through which the propagation first reached it;
    /// `None` for the first task of each component and for tasks not
    /// reached yet.
    pub parent: Vec<Option<BufferId>>,
}

/// Why [`RepetitionVector::balance`] found no repetition vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BalanceError {
    /// The balance equations admit no positive solution.
    Inconsistent(BalanceConflict),
    /// A propagated fraction or an entry left its range:
    /// [`CsdfError::Rational`] or [`CsdfError::Overflow`].
    Overflow(CsdfError),
}

/// `(num / den) · (a / b)` in lowest terms, for operands in lowest terms, or
/// `None` when a term exceeds `i128::MAX`, the range of
/// [`Rational`](crate::Rational) the propagation has always reported as
/// overflow. Cross-reducing first keeps the product in lowest terms.
fn multiply((num, den): (u128, u128), a: u64, b: u64) -> Option<(u128, u128)> {
    if a == b {
        // A balanced buffer, every self-loop among them: `a / b` is 1. On
        // a 100k-task random graph, with a serialising self-loop on every
        // task, this saves about a fifth of `compute` (2-core x86-64 host).
        return Some((num, den));
    }
    let (a, b) = (u128::from(a), u128::from(b));
    let (g1, g2) = (gcd_u128(num, b), gcd_u128(a, den));
    let num = (num / g1).checked_mul(a / g2)?;
    let den = (den / g2).checked_mul(b / g1)?;
    let limit = i128::MAX as u128;
    (num <= limit && den <= limit).then_some((num, den))
}

impl FromIterator<u64> for RepetitionVector {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        RepetitionVector {
            entries: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CsdfGraphBuilder;

    #[test]
    fn simple_sdf_chain() {
        let mut b = CsdfGraphBuilder::new();
        let x = b.add_sdf_task("x", 1);
        let y = b.add_sdf_task("y", 1);
        let z = b.add_sdf_task("z", 1);
        b.add_sdf_buffer(x, y, 2, 3, 0);
        b.add_sdf_buffer(y, z, 5, 2, 0);
        let g = b.build().unwrap();
        let q = g.repetition_vector().unwrap();
        // x:y = 3:2 ; y:z = 2:5  =>  q = [3, 2, 5]
        assert_eq!(q.as_slice(), &[3, 2, 5]);
        assert!(q.validates(&g));
        assert_eq!(q.sum(), 10);
    }

    #[test]
    fn cyclo_static_rates_use_totals() {
        let mut b = CsdfGraphBuilder::new();
        let t = b.add_task("t", vec![1, 1, 1]);
        let u = b.add_task("u", vec![1, 1]);
        // i_b = 6, o_b = 7  =>  q = [7, 6]
        b.add_buffer(t, u, vec![2, 3, 1], vec![2, 5], 0);
        let g = b.build().unwrap();
        let q = g.repetition_vector().unwrap();
        assert_eq!(q.get(t), 7);
        assert_eq!(q.get(u), 6);
    }

    #[test]
    fn inconsistent_cycle_is_detected() {
        let mut b = CsdfGraphBuilder::new();
        let x = b.add_sdf_task("x", 1);
        let y = b.add_sdf_task("y", 1);
        b.add_sdf_buffer(x, y, 2, 1, 0);
        b.add_sdf_buffer(y, x, 1, 1, 0); // would force q_x = 2 q_y and q_y = q_x
        let g = b.build().unwrap();
        assert!(matches!(
            g.repetition_vector(),
            Err(CsdfError::Inconsistent { .. })
        ));
        assert!(!g.is_consistent());
    }

    #[test]
    fn balance_hands_over_the_conflict_and_its_forest() {
        // x -> y -> z and x -> z with a rate mismatch on the direct edge.
        let mut b = CsdfGraphBuilder::new();
        let x = b.add_sdf_task("x", 1);
        let y = b.add_sdf_task("y", 1);
        let z = b.add_sdf_task("z", 1);
        b.add_sdf_buffer(x, y, 1, 1, 0);
        b.add_sdf_buffer(y, z, 1, 1, 0);
        b.add_sdf_buffer(x, z, 2, 1, 0);
        let g = b.build().unwrap();
        let Err(BalanceError::Inconsistent(conflict)) = RepetitionVector::balance(&g) else {
            panic!("inconsistent graph balanced");
        };
        let Err(CsdfError::Inconsistent { buffer }) = g.repetition_vector() else {
            panic!("inconsistent graph balanced");
        };
        assert_eq!(conflict.buffer.index(), buffer.index);
        // x is the root; y and z are reached from x directly.
        assert_eq!(
            conflict.parent,
            vec![None, Some(BufferId::new(0)), Some(BufferId::new(2))]
        );
        assert_eq!((conflict.from, conflict.to), (y, z));
    }

    #[test]
    fn disconnected_components_are_scaled_independently() {
        let mut b = CsdfGraphBuilder::new();
        let x = b.add_sdf_task("x", 1);
        let y = b.add_sdf_task("y", 1);
        let lone = b.add_sdf_task("lone", 1);
        b.add_sdf_buffer(x, y, 4, 6, 0);
        let g = b.build().unwrap();
        let q = g.repetition_vector().unwrap();
        assert_eq!(q.get(x), 3);
        assert_eq!(q.get(y), 2);
        assert_eq!(q.get(lone), 1);
    }

    #[test]
    fn self_loops_do_not_disturb_the_vector() {
        let mut b = CsdfGraphBuilder::new();
        let x = b.add_sdf_task("x", 1);
        let y = b.add_sdf_task("y", 1);
        b.add_sdf_buffer(x, y, 1, 2, 0);
        b.add_serializing_self_loop(x);
        b.add_serializing_self_loop(y);
        let g = b.build().unwrap();
        let q = g.repetition_vector().unwrap();
        assert_eq!(q.get(x), 2);
        assert_eq!(q.get(y), 1);
    }

    #[test]
    fn paperlike_multirate_cycle_is_consistent() {
        // A small cycle with non-trivial repetition vector.
        let mut b = CsdfGraphBuilder::new();
        let a = b.add_task("a", vec![1, 1]);
        let c = b.add_task("c", vec![1, 1, 1]);
        let d = b.add_sdf_task("d", 1);
        b.add_buffer(a, c, vec![1, 1], vec![1, 1, 2], 0);
        b.add_buffer(c, d, vec![1, 1, 1], vec![6], 0);
        b.add_buffer(d, a, vec![12], vec![1, 2], 6);
        let g = b.build().unwrap();
        let q = g.repetition_vector().unwrap();
        assert!(q.validates(&g));
        // Balance: 2·q_a = 4·q_c, 3·q_c = 6·q_d, 12·q_d = 3·q_a  =>  q = [4, 2, 1]
        assert_eq!(q.get(a), 4);
        assert_eq!(q.get(c), 2);
        assert_eq!(q.get(d), 1);
    }

    #[test]
    fn many_components_take_linear_time() {
        // 100k isolated tasks and 20k two-task components: scanning every
        // task once per component took minutes here.
        let mut b = CsdfGraphBuilder::new();
        for index in 0..100_000 {
            b.add_sdf_task(format!("lone{index}"), 1);
        }
        for index in 0..20_000 {
            let x = b.add_sdf_task(format!("x{index}"), 1);
            let y = b.add_sdf_task(format!("y{index}"), 1);
            b.add_sdf_buffer(x, y, 3, 2, 0);
        }
        let g = b.build().unwrap();
        let started = std::time::Instant::now();
        let q = g.repetition_vector().unwrap();
        let elapsed = started.elapsed();
        assert!(q.as_slice()[..100_000].iter().all(|&entry| entry == 1));
        assert!(q.as_slice()[100_000..].chunks(2).all(|pair| pair == [2, 3]));
        // About 0.1 s in a debug build; the bound only catches a return to
        // quadratic time.
        assert!(elapsed.as_secs() < 10, "took {elapsed:?}");
    }

    #[test]
    fn collecting_from_iterator() {
        let q: RepetitionVector = vec![1u64, 2, 3].into_iter().collect();
        assert_eq!(q.len(), 3);
        assert!(!q.is_empty());
        assert_eq!(q.get(TaskId::new(2)), 3);
    }
}
