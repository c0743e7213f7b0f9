//! Integer-numerator Howard kernel — the Howard path of every solve.
//!
//! The scalar policy iteration in [`crate::howard`] performs a GCD-reducing
//! exact [`Rational`] operation per arc per sweep — on K-Iter event graphs
//! that is the dominant cost of the whole throughput evaluation. This module
//! exploits the arena's time-scaling invariant (every `H(e)` of an event
//! graph is `−β/(i_b·q_t)` with a K-invariant denominator, and every `L(e)`
//! is an integer duration): after rescaling all arc costs and times of one
//! strongly connected component onto *common denominators* `Dc` / `Dt`, the
//! entire value/bias iteration runs on integer numerators —
//!
//! * a policy-circuit gain is the unreduced pair `(ΣL̂, ΣĤ)` of scaled sums,
//!   reduced **once per circuit** (a single GCD) to a canonical
//!   fraction, instead of one GCD per arithmetic operation;
//! * node values within a gain class share the class denominator, so bias
//!   comparisons are plain integer comparisons;
//! * gain comparisons across classes are one cross-multiplication.
//!
//! Rationals reappear only at the very end: the maximum ratio is
//! `λ = (g_n · Dt) / (g_d · Dc)`, built (and canonically reduced) once, and
//! the critical circuit is re-materialised through the exact rational
//! [`crate::solve::materialize_cycle`] path.
//!
//! The kernel reads arc weights straight from the [`RatioGraph`]'s integer
//! columns through the component's arc-id map — each arc's reduced cost and
//! time numerators and its denominator class — so the component view is
//! loaded *lean* (without per-arc `Rational` copies); only the fallback
//! paths fill those in.
//!
//! # Lanes
//!
//! One source runs on two word widths, `i64` and `i128` (the private
//! [`Word`] trait), with plain unchecked arithmetic. A component's common
//! denominators `Dc` and `Dt` are the lcm of the cost and of the time
//! denominators of the classes its arcs use; scaling writes
//! `L̂ = L·Dc/den(L)` and `Ĥ = H·Dt/den(H)` and records the largest scaled
//! magnitude `B = max |L̂|, |Ĥ|`, and `n·B` bounds every quantity the
//! iteration computes on a component of `n` nodes:
//!
//! * policy-circuit sums are at most `n·B`, so are the reduced gain
//!   numerators and denominators;
//! * a reduced weight `L̂·g_d − g_n·Ĥ` is at most `2n·B²`;
//! * a value telescopes at most `n` reduced weights: at most `2n²·B²`;
//! * gain cross-multiplications are at most `n²·B²`, and a bias candidate
//!   (reduced weight plus value) at most `4n²·B²`.
//!
//! So `4(n·B)²` bounds them all, and the component takes the first lane
//! whose bound fits:
//!
//! | lane | condition | largest value |
//! |---|---|---|
//! | `i64` | `n·B ≤ 2^30` | `4n²B² ≤ 2^62 < 2^63` |
//! | `i128` | `n·B ≤ 2^62` | `4n²B² ≤ 2^126 < 2^127` |
//!
//! Scaling takes one lcm per denominator class the component uses, then one
//! pass writing the words of the lane it expects, one multiply per arc by
//! its class's factor `Dc/den(L)` (or `Dt/den(H)`): `i64` first, and only a
//! component whose scaled weights do not fit `i64`, or whose `n·B` exceeds
//! `2^30`, is scaled again onto `i128` words. A graph of one class (an event
//! graph whose times are all integers, say) is neither scanned for classes
//! nor multiplied. The common denominators are the lcm of the component's
//! reduced denominators, whatever order its classes come in. The gain round
//! skips the row scan of every node already at the round-start maximum gain
//! (gain rounds only copy existing gains, so no strictly greater gain can
//! appear within the round).
//!
//! # Exactness and fallback
//!
//! Every decision the kernel takes (gain/bias comparisons, the circuit
//! classification, the convergence test, the certificate condition) is the
//! scalar decision multiplied through by positive common denominators, so the
//! policy trajectory — and therefore the returned circuit and ratio — is
//! **bit-identical** to the scalar path's, on both lanes. Since a lane only
//! admits components its bound proves, the iteration itself cannot overflow.
//! Only the kernel entry can fail: when a common denominator does not fit
//! `i128` (the lcm of the classes' denominators can overflow even where
//! every circuit's sum fits), a scaled weight does not fit `i128`, `n·B`
//! exceeds `2^62`, or λ does not fit a [`Rational`],
//! [`howard_component_int`] returns `None` and the caller runs the scalar
//! kernel instead, which has no such limits. The equivalence (both lanes, at
//! and beyond their bounds, and the fallback) is pinned by this module's
//! tests.

use std::cmp::Ordering;
use std::fmt::Debug;
use std::ops::{Add, Div, Mul, Sub};

use csdf::{gcd_i128, Rational};

use crate::graph::RatioGraph;
use crate::howard::{
    circuit_positions, policy_cycle_from, start_policy, Evaluation, HowardOutcome,
};
use crate::solve::Scratch;

/// Largest `n·B` the `i64` lane accepts (see the module docs).
const I64_BOUND: i128 = 1 << 30;
/// Largest `n·B` the `i128` lane accepts.
const I128_BOUND: i128 = 1 << 62;

/// An integer word the kernel runs on: `i64` or `i128`.
pub(crate) trait Word:
    Copy
    + Ord
    + Debug
    + Default
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
{
    const ZERO: Self;
    const ONE: Self;
    fn from_i128(value: i128) -> Option<Self>;
    fn to_i128(self) -> i128;
    /// This width's kernel state in `scratch`.
    fn words(scratch: &mut Scratch) -> &mut IntWords<Self>;

    /// Non-negative gcd (`gcd(0, 0) = 0`).
    fn gcd(a: Self, b: Self) -> Self {
        Self::from_i128(gcd_i128(a.to_i128(), b.to_i128())).expect("a gcd fits its operands' word")
    }
}

macro_rules! word {
    ($word:ty, $field:ident) => {
        impl Word for $word {
            const ZERO: Self = 0;
            const ONE: Self = 1;
            #[inline(always)]
            fn from_i128(value: i128) -> Option<Self> {
                Self::try_from(value).ok()
            }
            #[inline(always)]
            fn to_i128(self) -> i128 {
                i128::from(self)
            }
            fn words(scratch: &mut Scratch) -> &mut IntWords<Self> {
                &mut scratch.$field
            }
        }
    };
}

word!(i64, words64);
word!(i128, words128);

/// Integer kernel state of one word width: arc costs/times as integer
/// numerators over the component-wide common denominators, gains as
/// canonical reduced fractions, values as numerators over the gain
/// denominator.
#[derive(Debug, Clone, Default)]
pub(crate) struct IntWords<W> {
    cost: Vec<W>,
    time: Vec<W>,
    gain_num: Vec<W>,
    gain_den: Vec<W>,
    value: Vec<W>,
}

/// Runs Howard's policy iteration on the component currently loaded in
/// `scratch` (`n` nodes) using the integer kernel, on the narrowest lane the
/// component's scaled weights allow, and counts the lane. Returns `None`
/// when no lane admits the component or λ does not fit a [`Rational`] (the
/// caller falls back to the scalar kernel).
pub(crate) fn howard_component_int(
    graph: &RatioGraph,
    scratch: &mut Scratch,
    n: usize,
) -> Option<HowardOutcome> {
    if scratch.arc_len() == 0 {
        return Some(HowardOutcome::Bail);
    }
    let denominators = common_denominators(graph, scratch)?;
    if let Some(outcome) = run_lane::<i64>(graph, scratch, denominators, n, I64_BOUND) {
        scratch.lanes.int64 += u64::from(outcome.is_some());
        return outcome;
    }
    let outcome = run_lane::<i128>(graph, scratch, denominators, n, I128_BOUND)??;
    scratch.lanes.int128 += 1;
    Some(outcome)
}

/// Scales the component onto `W` words and iterates on them, if its scaled
/// weights fit `W` and its `n·B` is at most `bound`; `None` otherwise. The
/// inner `None` is [`iterate`]'s λ overflow.
fn run_lane<W: Word>(
    graph: &RatioGraph,
    scratch: &mut Scratch,
    denominators: (i128, i128),
    n: usize,
    bound: i128,
) -> Option<Option<HowardOutcome>> {
    with_words(scratch, |scratch, words: &mut IntWords<W>| {
        let scaled = scale_component(graph, scratch, denominators, words)
            .filter(|scaled| scaled.bound(n) <= bound)?;
        Some(iterate(scratch, words, n, &scaled))
    })
}

/// Runs `body` with the `W` words moved out of `scratch` (their allocation
/// is kept), so it can borrow both.
fn with_words<W: Word, R>(
    scratch: &mut Scratch,
    body: impl FnOnce(&mut Scratch, &mut IntWords<W>) -> R,
) -> R {
    let mut words = std::mem::take(W::words(scratch));
    let result = body(scratch, &mut words);
    *W::words(scratch) = words;
    result
}

/// The policy iteration proper, on a component scaled within its lane's
/// bound. `None` only when λ does not fit a [`Rational`].
fn iterate<W: Word>(
    scratch: &mut Scratch,
    words: &mut IntWords<W>,
    n: usize,
    scaled: &ScaledComponent,
) -> Option<HowardOutcome> {
    if words.gain_num.len() < n {
        words.gain_num.resize(n, W::ZERO);
        words.gain_den.resize(n, W::ONE);
        words.value.resize(n, W::ZERO);
    }
    if !start_policy(scratch, n) {
        return Some(HowardOutcome::Bail);
    }

    // Same round budget as the scalar kernel: a guard against pathological
    // same-gain oscillation, after which the parametric method takes over.
    let budget = 2 * n + 64;
    let mut converged = false;
    for _ in 0..budget {
        if scratch.cancel.is_cancelled() {
            // Bail hands over to the parametric method, whose first round
            // check turns the cancellation into `McrError::Cancelled`.
            return Some(HowardOutcome::Bail);
        }
        scratch.howard_rounds += 1;
        match evaluate(scratch, words, n) {
            Evaluation::Done => {}
            Evaluation::Infinite(circuits) => return Some(HowardOutcome::Infinite { circuits }),
            Evaluation::Bail => return Some(HowardOutcome::Bail),
        }
        if !improve(scratch, words, n) {
            converged = true;
            break;
        }
    }
    if !converged {
        return Some(HowardOutcome::Bail);
    }

    // Keep the *last* maximum, exactly like the scalar kernel's `max_by`
    // over reduced rationals (canonical pairs compare `Equal` iff the
    // rationals are equal).
    let mut best_node = 0usize;
    for node in 1..n {
        if cmp_gain(words, node, best_node) != Ordering::Less {
            best_node = node;
        }
    }
    if words.gain_num[best_node] <= W::ZERO {
        // Not a positive ratio: the parametric method decides between
        // NonPositive and the lexicographic Infinite edge cases from scratch.
        return Some(HowardOutcome::Bail);
    }
    // λ = (g_n / g_d) · (Dt / Dc), reduced once; identical to the scalar
    // circuit ratio because both are the same rational number in canonical
    // form. A λ past `i128` falls back to the scalar kernel.
    let gain = Rational::new(
        words.gain_num[best_node].to_i128(),
        words.gain_den[best_node].to_i128(),
    )
    .expect("gain denominator is positive");
    let scaling =
        Rational::new(scaled.den_time, scaled.den_cost).expect("common denominators are positive");
    let lambda = gain.checked_mul(&scaling).ok()?;
    let positions = policy_cycle_from(scratch, best_node);
    if scaled.costs_nonneg && words.gain_num[..n].iter().all(|&num| num > W::ZERO) {
        Some(HowardOutcome::Certified { lambda, positions })
    } else {
        Some(HowardOutcome::Estimate { lambda, positions })
    }
}
/// The common denominators of a scaled component, plus the facts the kernel
/// entry needs that would otherwise cost extra full passes over the arrays.
struct ScaledComponent {
    den_cost: i128,
    den_time: i128,
    /// Every scaled cost is non-negative (certification precondition).
    costs_nonneg: bool,
    /// Maximum absolute scaled magnitude `B`, for the lane bounds.
    max_abs: i128,
}

impl ScaledComponent {
    /// `n·B` for a component of `n` nodes (saturating: beyond every bound).
    fn bound(&self, n: usize) -> i128 {
        self.max_abs.saturating_mul(n as i128)
    }
}

/// The common denominators `Dc`/`Dt` of the component loaded in
/// `scratch`: the lcm of the cost and of the time denominators of the
/// classes its arcs use, one lcm per class, with each used class's scale
/// factors `(Dc / den(L), Dt / den(H))` left in `scratch.class_factor`.
/// `None` when a common denominator does not fit `i128`.
fn common_denominators(graph: &RatioGraph, scratch: &mut Scratch) -> Option<(i128, i128)> {
    let Scratch {
        arc_id,
        class_factor,
        class_used,
        ..
    } = scratch;
    // The previous component's classes go back to unused.
    for &class in class_used.iter() {
        if let Some(factor) = class_factor.get_mut(class as usize) {
            *factor = (0, 0);
        }
    }
    class_used.clear();
    let classes = graph.classes();
    class_factor.resize(classes.len(), (0, 0));
    if classes.len() == 1 {
        // A graph of one class needs no scan: the component uses it.
        class_factor[0] = (1, 1);
        class_used.push(0);
    } else {
        let links = &graph.columns().links;
        for &arc in arc_id.iter() {
            let class = links[arc.index()].class;
            let factor = &mut class_factor[class as usize];
            if factor.0 == 0 {
                *factor = (1, 1);
                class_used.push(class);
            }
        }
    }
    let (mut den_cost, mut den_time) = (1i128, 1i128);
    for &class in class_used.iter() {
        let denominators = classes[class as usize];
        den_cost = lcm_i128(den_cost, denominators.cost)?;
        den_time = lcm_i128(den_time, denominators.time)?;
    }
    for &class in class_used.iter() {
        let denominators = classes[class as usize];
        class_factor[class as usize] = (den_cost / denominators.cost, den_time / denominators.time);
    }
    Some((den_cost, den_time))
}

/// The scaled numerators (`L̂ = L·Dc/den(L)`, `Ĥ = H·Dt/den(H)`) of the
/// component's arcs, written as `W` words: one multiply per arc, by its
/// class's factor from [`common_denominators`]; `None` when a scaled
/// numerator does not fit `W`. [`mul_scale`] keeps the multiplies in native
/// `i64` where they fit.
fn scale_component<W: Word>(
    graph: &RatioGraph,
    scratch: &Scratch,
    (den_cost, den_time): (i128, i128),
    words: &mut IntWords<W>,
) -> Option<ScaledComponent> {
    let IntWords {
        cost: costs,
        time: times,
        ..
    } = words;
    costs.clear();
    times.clear();
    costs.reserve(scratch.arc_id.len());
    times.reserve(scratch.arc_id.len());
    let columns = graph.columns();
    // The factors of a component of one class, which need no per-arc
    // class read.
    let single = match scratch.class_used[..] {
        [class] => Some(scratch.class_factor[class as usize]),
        _ => None,
    };
    let mut costs_nonneg = true;
    let mut max_abs: i128 = 0;
    for &arc in &scratch.arc_id {
        let index = arc.index();
        let (cost_factor, time_factor) =
            single.unwrap_or_else(|| scratch.class_factor[columns.links[index].class as usize]);
        let numerators = columns.numerators[index];
        let cost = mul_scale(numerators.cost, cost_factor)?;
        costs_nonneg &= cost >= 0;
        max_abs = max_abs.max(abs_i128(cost));
        costs.push(W::from_i128(cost)?);
        let time = mul_scale(numerators.time, time_factor)?;
        max_abs = max_abs.max(abs_i128(time));
        times.push(W::from_i128(time)?);
    }
    Some(ScaledComponent {
        den_cost,
        den_time,
        costs_nonneg,
        max_abs,
    })
}

/// `value.unsigned_abs()` clamped back into `i128` (saturating on the
/// `i128::MIN` edge, which only makes the lane bounds more conservative).
#[inline]
fn abs_i128(value: i128) -> i128 {
    i128::try_from(value.unsigned_abs()).unwrap_or(i128::MAX)
}

/// `numer * scale` with overflow reported as `None`. Exactly
/// `numer.checked_mul(scale)`, but the common all-small case runs a native
/// `i64` multiply instead of the much slower `i128` overflow-checked one; an
/// `i64` overflow falls back to the `i128` check, so results are identical.
#[inline]
fn mul_scale(numer: i128, scale: i128) -> Option<i128> {
    if scale == 1 {
        return Some(numer);
    }
    if let (Ok(a), Ok(b)) = (i64::try_from(numer), i64::try_from(scale)) {
        if let Some(product) = a.checked_mul(b) {
            return Some(i128::from(product));
        }
    }
    numer.checked_mul(scale)
}

fn lcm_i128(a: i128, b: i128) -> Option<i128> {
    debug_assert!(a > 0 && b > 0);
    let g = gcd_i128(a, b);
    (a / g).checked_mul(b)
}

/// `L̂(e)·g_d − g_n·Ĥ(e)`: the reduced weight of an arc under gain
/// `g_n / g_d`, scaled by the (positive) class denominator `g_d`.
#[inline(always)]
fn reduced_weight<W: Word>(cost: W, time: W, num: W, den: W) -> W {
    cost * den - num * time
}

/// Compares the gains of two local nodes: canonical pairs with positive
/// denominators, so one cross-multiplication decides.
#[inline(always)]
fn cmp_gain<W: Word>(words: &IntWords<W>, a: usize, b: usize) -> Ordering {
    (words.gain_num[a] * words.gain_den[b]).cmp(&(words.gain_num[b] * words.gain_den[a]))
}

/// Integer policy evaluation: mirrors `howard::evaluate` decision for
/// decision, including the collection of every infeasible policy circuit
/// once the first one is met; the [`Evaluation`] values have the scalar
/// meanings.
fn evaluate<W: Word>(scratch: &mut Scratch, words: &mut IntWords<W>, n: usize) -> Evaluation {
    let resolved = scratch.advance_epoch(2);
    let on_walk = resolved - 1;
    let mut infinite: Vec<Vec<usize>> = Vec::new();
    for start in 0..n {
        if scratch.resolved[start] == resolved {
            continue;
        }
        let Scratch {
            arc_to,
            policy,
            mark,
            mark_pos,
            resolved: resolved_stamp,
            walk,
            ..
        } = scratch;
        walk.clear();
        let mut current = start;
        while resolved_stamp[current] != resolved && mark[current] != on_walk {
            mark[current] = on_walk;
            mark_pos[current] = walk.len() as u32;
            walk.push(current as u32);
            current = arc_to[policy[current] as usize] as usize;
        }
        let new_circuit = resolved_stamp[current] != resolved;
        // A new policy circuit is walk[p..], in traversal order.
        let p = mark_pos[current] as usize;
        if !infinite.is_empty() {
            if new_circuit {
                let (cost, time) = circuit_sums(scratch, words, p);
                if is_infeasible(cost, time) {
                    infinite.push(circuit_positions(scratch, p));
                }
            }
            for &node in &scratch.walk {
                scratch.resolved[node as usize] = resolved;
            }
            continue;
        }
        if !new_circuit {
            resolve_walk_tree(scratch, words, scratch.walk.len(), resolved);
            continue;
        }
        let (cost, time) = circuit_sums(scratch, words, p);
        if time <= W::ZERO {
            // Same classification as the scalar kernel (the positive scaling
            // preserves every sign).
            if !is_infeasible(cost, time) {
                return Evaluation::Bail;
            }
            infinite.push(circuit_positions(scratch, p));
            for &node in &scratch.walk {
                scratch.resolved[node as usize] = resolved;
            }
            continue;
        }
        resolve_walk(scratch, words, p, cost, time, resolved);
    }
    if infinite.is_empty() {
        Evaluation::Done
    } else {
        Evaluation::Infinite(infinite)
    }
}

/// Non-positive time and lexicographically positive weight: the scaled twin
/// of the scalar kernel's `is_infeasible`.
fn is_infeasible<W: Word>(cost: W, time: W) -> bool {
    time <= W::ZERO && (cost > W::ZERO || (cost == W::ZERO && time < W::ZERO))
}

/// Scaled cost and time sums of the policy circuit `walk[p..]` — plain
/// integer adds.
fn circuit_sums<W: Word>(scratch: &Scratch, words: &IntWords<W>, p: usize) -> (W, W) {
    let mut cost = W::ZERO;
    let mut time = W::ZERO;
    for &node in &scratch.walk[p..] {
        let position = scratch.policy[node as usize] as usize;
        cost = cost + words.cost[position];
        time = time + words.time[position];
    }
    (cost, time)
}

/// Assigns gain `cost / time` (positive time) and values to the new policy
/// circuit `walk[p..]`, then to the tree part `walk[..p]` of the walk.
fn resolve_walk<W: Word>(
    scratch: &mut Scratch,
    words: &mut IntWords<W>,
    p: usize,
    cost: W,
    time: W,
    resolved: u32,
) {
    let Scratch {
        policy,
        resolved: resolved_stamp,
        walk,
        ..
    } = scratch;
    let IntWords {
        cost: costs,
        time: times,
        gain_num,
        gain_den,
        value: values,
    } = words;
    // One GCD per circuit: the canonical gain pair.
    let g = W::gcd(cost, time);
    let (num, den) = if g > W::ONE {
        (cost / g, time / g)
    } else {
        (cost, time)
    };
    let anchor = walk[p] as usize;
    gain_num[anchor] = num;
    gain_den[anchor] = den;
    values[anchor] = W::ZERO;
    resolved_stamp[anchor] = resolved;
    let mut next_value = W::ZERO;
    for walk_index in (p + 1..walk.len()).rev() {
        let node = walk[walk_index] as usize;
        let position = policy[node] as usize;
        let value = reduced_weight(costs[position], times[position], num, den) + next_value;
        gain_num[node] = num;
        gain_den[node] = den;
        values[node] = value;
        resolved_stamp[node] = resolved;
        next_value = value;
    }
    resolve_walk_tree(scratch, words, p, resolved);
}

/// Tree part `walk[..tree_top]` of a walk: propagates gain class and value
/// backwards from the (already resolved) junction.
fn resolve_walk_tree<W: Word>(
    scratch: &mut Scratch,
    words: &mut IntWords<W>,
    tree_top: usize,
    resolved: u32,
) {
    let Scratch {
        arc_to,
        policy,
        resolved: resolved_stamp,
        walk,
        ..
    } = scratch;
    let IntWords {
        cost: costs,
        time: times,
        gain_num,
        gain_den,
        value: values,
    } = words;
    for walk_index in (0..tree_top).rev() {
        let node = walk[walk_index] as usize;
        let position = policy[node] as usize;
        let successor = arc_to[position] as usize;
        debug_assert_eq!(resolved_stamp[successor], resolved);
        let num = gain_num[successor];
        let den = gain_den[successor];
        gain_num[node] = num;
        gain_den[node] = den;
        values[node] =
            reduced_weight(costs[position], times[position], num, den) + values[successor];
        resolved_stamp[node] = resolved;
    }
}

/// Integer policy improvement, mirroring `howard::improve`: gain
/// improvements first (multichain rule, Gauss–Seidel: later nodes see
/// earlier commits), then bias improvements between equal-gain nodes — where
/// "equal gain" is equality of canonical pairs, so the bias comparison is a
/// plain integer comparison over the shared class denominator. Returns
/// whether the policy changed.
fn improve<W: Word>(scratch: &mut Scratch, words: &mut IntWords<W>, n: usize) -> bool {
    let Scratch {
        arc_to,
        first,
        policy,
        ..
    } = scratch;
    let IntWords {
        cost: costs,
        time: times,
        gain_num,
        gain_den,
        value: values,
    } = words;

    // The round-start maximum gain. A node already at it cannot strictly
    // improve, so its row scan is skipped. Canonical pairs make the
    // equality test two integer compares.
    let (mut max_num, mut max_den) = (gain_num[0], gain_den[0]);
    for node in 1..n {
        if gain_num[node] * max_den > max_num * gain_den[node] {
            max_num = gain_num[node];
            max_den = gain_den[node];
        }
    }

    let mut changed = false;
    for node in 0..n {
        if gain_num[node] == max_num && gain_den[node] == max_den {
            continue;
        }
        let mut best_position = policy[node];
        let mut best = node;
        let (lo, hi) = (first[node], first[node + 1]);
        for (position, &to) in (lo..hi).zip(&arc_to[lo as usize..hi as usize]) {
            let target = to as usize;
            if gain_num[target] * gain_den[best] > gain_num[best] * gain_den[target] {
                best = target;
                best_position = position;
            }
        }
        if gain_num[best] * gain_den[node] > gain_num[node] * gain_den[best] {
            policy[node] = best_position;
            gain_num[node] = gain_num[best];
            gain_den[node] = gain_den[best];
            changed = true;
        }
    }
    if changed {
        return true;
    }
    for node in 0..n {
        let num = gain_num[node];
        let den = gain_den[node];
        let mut best_position = u32::MAX;
        let mut best_value = values[node];
        for position in first[node]..first[node + 1] {
            let target = arc_to[position as usize] as usize;
            // Canonical pairs: different representation ⇔ different gain.
            if gain_num[target] != num || gain_den[target] != den {
                continue;
            }
            let position_index = position as usize;
            let candidate = reduced_weight(costs[position_index], times[position_index], num, den)
                + values[target];
            if candidate > best_value {
                best_value = candidate;
                best_position = position;
            }
        }
        if best_position != u32::MAX {
            policy[node] = best_position;
            changed = true;
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve::integer_howard;
    use crate::{ArcId, NodeId};
    use crate::{
        CancelToken, CycleRatioOutcome, LaneCounts, McrError, Policy, Solver, SolverChoice,
    };

    fn xorshift(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    fn arc_weights(next: &mut impl FnMut() -> u64, huge: bool) -> (Rational, Rational) {
        let cost = if huge {
            // Magnitudes from 2^64 to 2^120: the `i128` lane's bound
            // `B ≤ 2^62 / n` always fails, driving the scalar-kernel
            // fallback, and the larger ones overflow its rational
            // arithmetic.
            let shift = 64 + next() % 57;
            Rational::from_integer(((next() % 5) as i128 - 2) << shift)
        } else {
            Rational::new(-3 + (next() % 12) as i128, 1 + (next() % 4) as i128).unwrap()
        };
        // Times include negative and zero values, so Infinite classification
        // and the lexicographic edge cases stay on the menu.
        let time = Rational::new(-2 + (next() % 8) as i128, 1 + (next() % 3) as i128).unwrap();
        (cost, time)
    }

    /// One strongly connected ring with random chords: the single-SCC shape
    /// of K-Iter event graphs.
    fn ring_graph(seed: u64, huge: bool) -> RatioGraph {
        let mut next = xorshift(seed);
        let n = 3 + (next() % 40) as usize;
        let mut g = RatioGraph::new(n);
        for i in 0..n {
            let (cost, time) = arc_weights(&mut next, huge);
            g.add_arc(g.node(i), g.node((i + 1) % n), cost, time);
        }
        for _ in 0..(n as u64 / 2 + next() % 8) {
            let a = (next() % n as u64) as usize;
            let b = (next() % n as u64) as usize;
            let (cost, time) = arc_weights(&mut next, huge);
            g.add_arc(g.node(a), g.node(b), cost, time);
        }
        g
    }

    /// Small random multigraphs (several components, self-loops, negative
    /// and zero times).
    fn random_graph(seed: u64) -> RatioGraph {
        let mut next = xorshift(seed);
        let n = 1 + (next() % 8) as usize;
        let mut g = RatioGraph::new(n);
        for _ in 0..(2 + next() % 20) {
            let a = (next() % n as u64) as usize;
            let b = (next() % n as u64) as usize;
            g.add_arc(
                g.node(a),
                g.node(b),
                Rational::new(-3 + (next() % 12) as i128, 1 + (next() % 4) as i128).unwrap(),
                Rational::new(-2 + (next() % 8) as i128, 1 + (next() % 3) as i128).unwrap(),
            );
        }
        g
    }

    /// The scalar reference kernel.
    fn scalar(graph: &RatioGraph, scratch: &mut Scratch, n: usize) -> HowardOutcome {
        scratch.ensure_component_rationals(graph);
        crate::howard::howard_component(scratch, n)
    }

    /// A pseudo-random start policy for `g`: per node, no successor, an
    /// actual successor, or an arbitrary (possibly non-adjacent) node.
    fn random_policy(g: &RatioGraph, seed: u64) -> Policy {
        let mut next = xorshift(seed);
        let n = g.node_count();
        let mut policy = Policy::new();
        for node in 0..n {
            match next() % 3 {
                0 => {}
                1 => {
                    let outgoing: Vec<_> = g
                        .arcs()
                        .filter(|(_, arc)| arc.from().index() == node)
                        .collect();
                    if !outgoing.is_empty() {
                        let (_, arc) = outgoing[(next() % outgoing.len() as u64) as usize];
                        policy.set_successor(g.node(node), arc.to());
                    }
                }
                _ => policy.set_successor(g.node(node), g.node((next() % n as u64) as usize)),
            }
        }
        policy
    }

    /// The integer kernel and the scalar kernel agree exactly: same outcome
    /// variant, same λ, same circuits (arcs, nodes, cost, time) — or the same
    /// error — from the cold start and from random start policies, and leave
    /// the same final policy behind. From any start, the outcome variant and
    /// ratio are those of a cold [`Solver::solve`].
    fn assert_kernels_agree(g: &RatioGraph, label: &str) {
        for choice in [SolverChoice::Howard, SolverChoice::Auto] {
            let cold = Solver::new(choice).solve_using(g, scalar, None);
            assert_eq!(
                Solver::new(choice).solve_using(g, integer_howard, None),
                cold,
                "{label} {choice:?}"
            );
            for start in 0..3u64 {
                let seeded = random_policy(g, start ^ g.arc_count() as u64);
                let mut reference_policy = seeded.clone();
                let reference =
                    Solver::new(choice).solve_using(g, scalar, Some(&mut reference_policy));
                let mut policy = seeded.clone();
                let outcome = Solver::new(choice).solve_using(g, integer_howard, Some(&mut policy));
                assert_eq!(outcome, reference, "{label} {choice:?} start {start}");
                assert_eq!(policy, reference_policy, "{label} {choice:?} start {start}");
                // Overflow may strike on one trajectory only.
                if let (Ok(warm), Ok(cold)) = (&reference, &cold) {
                    assert_eq!(
                        (variant(warm), warm.ratio()),
                        (variant(cold), cold.ratio()),
                        "{label} {choice:?} start {start} vs cold"
                    );
                }
            }
        }
    }

    fn variant(outcome: &CycleRatioOutcome) -> u8 {
        match outcome {
            CycleRatioOutcome::Acyclic => 0,
            CycleRatioOutcome::NonPositive => 1,
            CycleRatioOutcome::Finite { .. } => 2,
            CycleRatioOutcome::Infinite { .. } => 3,
        }
    }

    #[test]
    fn integer_kernel_matches_scalar_kernel_on_rings() {
        for seed in 0..60u64 {
            assert_kernels_agree(&ring_graph(seed, false), &format!("ring seed {seed}"));
        }
    }

    #[test]
    fn integer_kernel_matches_scalar_kernel_on_random_multigraphs() {
        for seed in 0..200u64 {
            assert_kernels_agree(&random_graph(seed), &format!("random seed {seed}"));
        }
    }

    #[test]
    fn huge_weights_take_the_fallbacks_and_still_match() {
        let mut lanes = LaneCounts::default();
        let mut errors = 0;
        for seed in 0..40u64 {
            let g = ring_graph(seed, true);
            assert_kernels_agree(&g, &format!("huge ring seed {seed}"));
            let mut solver = Solver::new(SolverChoice::Howard);
            errors += usize::from(solver.solve(&g).is_err());
            lanes.merge(&solver.lane_counts());
        }
        // The huge rings must reach the scalar fallback and the rational
        // overflow error, or this test would not cover them.
        assert!(lanes.scalar > 0, "no scalar fallback exercised");
        assert!(errors > 0, "no overflow error exercised");

        // Small weights whose denominator classes have an lcm past `i128`:
        // no common denominator exists, yet every circuit sums fine.
        for seed in 0..8u64 {
            let g = flower(seed);
            assert_kernels_agree(&g, &format!("flower seed {seed}"));
            let mut solver = Solver::new(SolverChoice::Howard);
            let outcome = solver.solve(&g).expect("every circuit sum fits");
            assert_eq!(
                solver.lane_counts(),
                LaneCounts {
                    scalar: 1,
                    ..LaneCounts::default()
                },
                "flower seed {seed}"
            );
            let reference = Solver::new(SolverChoice::Parametric).solve(&g).unwrap();
            assert_eq!(
                (variant(&outcome), outcome.ratio()),
                (variant(&reference), reference.ratio()),
                "flower seed {seed}"
            );
            let (cycle, expected) = (outcome.cycle().unwrap(), reference.cycle().unwrap());
            assert_eq!((cycle.cost, cycle.time), (expected.cost, expected.time));
        }
    }

    /// Three two-arc circuits through node 0 (petals), petal `i`'s arcs
    /// timed `a_i/p_i` and `m − a_i/p_i` for pairwise coprime `p_i`: each
    /// circuit's time is the integer `m`, and no walk holds more than two
    /// open fractions, while the lcm of the component's time denominators,
    /// `2^43 · 3^27 · 5^19 > 2^129`, overflows `i128`.
    fn flower(seed: u64) -> RatioGraph {
        let mut next = xorshift(seed);
        let mut g = RatioGraph::new(4);
        for (petal, p) in [1i128 << 43, 3i128.pow(27), 5i128.pow(19)]
            .into_iter()
            .enumerate()
        {
            let m = 1 + (next() % 5) as i128;
            let out_time = Rational::new(p - 1, p).unwrap();
            let back_time = Rational::from_integer(m).checked_sub(&out_time).unwrap();
            let cost =
                |next: &mut dyn FnMut() -> u64| Rational::from_integer((next() % 50) as i128);
            g.add_arc(g.node(0), g.node(petal + 1), cost(&mut next), out_time);
            g.add_arc(g.node(petal + 1), g.node(0), cost(&mut next), back_time);
        }
        g
    }

    /// A ring of `n` nodes with random chords and small weights, whose first
    /// arc's cost is `big`: with `n·big` at or just past a lane bound, the
    /// component sits on the edge of that lane.
    fn boundary_ring(seed: u64, n: usize, big: i128) -> RatioGraph {
        let mut next = xorshift(seed);
        let mut g = RatioGraph::new(n);
        let small = |next: &mut dyn FnMut() -> u64| {
            (
                Rational::from_integer((next() % 7) as i128),
                Rational::from_integer(1 + (next() % 3) as i128),
            )
        };
        for i in 0..n {
            let (cost, time) = small(&mut next);
            let cost = if i == 0 {
                Rational::from_integer(big)
            } else {
                cost
            };
            g.add_arc(g.node(i), g.node((i + 1) % n), cost, time);
        }
        for _ in 0..n {
            let a = (next() % n as u64) as usize;
            let b = (next() % n as u64) as usize;
            let (cost, time) = small(&mut next);
            g.add_arc(g.node(a), g.node(b), cost, time);
        }
        g
    }

    #[test]
    fn each_lane_runs_at_its_bound_and_matches_the_scalar_kernel() {
        let int64 = LaneCounts {
            int64: 1,
            ..LaneCounts::default()
        };
        let int128 = LaneCounts {
            int128: 1,
            ..LaneCounts::default()
        };
        let scalar_lane = LaneCounts {
            scalar: 1,
            ..LaneCounts::default()
        };
        for n in [4usize, 16, 64] {
            let n_wide = n as i128;
            for (nb, expected) in [
                (I64_BOUND, int64),
                (I64_BOUND + n_wide, int128),
                (I128_BOUND, int128),
                (I128_BOUND + n_wide, scalar_lane),
            ] {
                for seed in 0..4u64 {
                    let g = boundary_ring(seed, n, nb / n_wide);
                    let label = format!("n {n}, n·B {nb:#x}, seed {seed}");
                    assert_kernels_agree(&g, &label);
                    let mut solver = Solver::new(SolverChoice::Howard);
                    solver.solve(&g).unwrap();
                    assert_eq!(solver.lane_counts(), expected, "{label}");
                }
            }
        }
    }

    /// `k` node-disjoint rings with positive cost and negative time, tied
    /// into one strongly connected component by feasible connector arcs.
    /// Ring arcs come first, so the cold policy is exactly the `k` rings.
    fn under_timed_rings(k: usize, size: usize) -> RatioGraph {
        let mut g = RatioGraph::new(k * size);
        for ring in 0..k {
            for i in 0..size {
                let from = g.node(ring * size + i);
                let to = g.node(ring * size + (i + 1) % size);
                g.add_arc(from, to, Rational::ONE, Rational::from_integer(-1));
            }
        }
        for ring in 0..k {
            let to = g.node(((ring + 1) % k) * size);
            g.add_arc(g.node(ring * size), to, Rational::ZERO, Rational::ONE);
        }
        g
    }

    /// The rings of [`under_timed_rings`] in the order a cold evaluation
    /// pass meets them — by their first node in the component's member
    /// order — each as the node sequence the walk from that node records.
    fn rings_in_walk_order(g: &RatioGraph, size: usize) -> Vec<Vec<NodeId>> {
        let scc = crate::SccDecomposition::compute(g);
        let members = scc.components().max_by_key(|c| c.len()).unwrap();
        let mut seen = vec![false; g.node_count() / size];
        let mut rings = Vec::new();
        for &node in members {
            let ring = node.index() / size;
            if !std::mem::replace(&mut seen[ring], true) {
                let offset = node.index() % size;
                rings.push(
                    (0..size)
                        .map(|i| g.node(ring * size + (offset + i) % size))
                        .collect(),
                );
            }
        }
        rings
    }

    #[test]
    fn infinite_outcome_carries_every_infeasible_policy_circuit() {
        for k in 1..5usize {
            let g = under_timed_rings(k, 3);
            assert_kernels_agree(&g, &format!("{k} rings"));
            let rings = rings_in_walk_order(&g, 3);
            match Solver::new(SolverChoice::Howard).solve(&g).unwrap() {
                CycleRatioOutcome::Infinite { cycle, others } => {
                    // The first circuit is the one the pass meets first —
                    // the one a single-circuit solve reported — and every
                    // other ring of the cold policy follows in walk order.
                    assert_eq!(cycle.nodes, rings[0], "{k} rings");
                    let found: Vec<_> = others.iter().map(|c| c.nodes.clone()).collect();
                    assert_eq!(found, rings[1..], "{k} rings");
                    for circuit in std::iter::once(&cycle).chain(&others) {
                        assert!(!circuit.time.is_positive() && circuit.cost.is_positive());
                    }
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn bail_class_circuit_before_an_infeasible_one_still_bails() {
        // The ring met first gets zero cost and zero time: policy iteration
        // cannot classify it and hands the component to the parametric
        // method, which reports exactly one circuit although two infeasible
        // rings follow in the same policy.
        let mut g = under_timed_rings(3, 2);
        let first = rings_in_walk_order(&g, 2)[0][0].index() / 2;
        for (index, time) in [
            (2 * first, Rational::ONE),
            (2 * first + 1, Rational::from_integer(-1)),
        ] {
            let id = ArcId::new(index);
            let (from, to) = (g.arc(id).from(), g.arc(id).to());
            g.patch_arc(id, from, to, Rational::ZERO, time);
        }
        assert_kernels_agree(&g, "bail first");
        match Solver::new(SolverChoice::Howard).solve(&g).unwrap() {
            CycleRatioOutcome::Infinite { others, .. } => assert!(others.is_empty()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn warm_starts_keep_the_outcome_and_count_rounds() {
        for seed in 0..40u64 {
            let g = ring_graph(seed, false);
            let mut solver = Solver::new(SolverChoice::Howard);
            let cold = solver.solve(&g).unwrap();
            // Re-seeding from the policy a cold solve ends with.
            let mut policy = Policy::new();
            solver.solve_from(&g, &mut policy).unwrap();
            let warm = solver.solve_from(&g, &mut policy).unwrap();
            assert_eq!(
                (variant(&warm), warm.ratio()),
                (variant(&cold), cold.ratio()),
                "seed {seed}"
            );
        }
        // Without parallel arcs the converged policy carries over exactly:
        // the warm solve re-evaluates it once and stops.
        let mut g = RatioGraph::new(6);
        for i in 0..6 {
            g.add_arc(
                g.node(i),
                g.node((i + 1) % 6),
                Rational::from_integer(i as i128),
                Rational::ONE,
            );
            g.add_arc(g.node(i), g.node((i + 2) % 6), Rational::ONE, Rational::ONE);
        }
        let mut solver = Solver::new(SolverChoice::Howard);
        let mut policy = Policy::new();
        let cold = solver.solve_from(&g, &mut policy).unwrap();
        let cold_rounds = solver.howard_rounds();
        assert!(cold_rounds > 1);
        assert_eq!(solver.solve_from(&g, &mut policy).unwrap(), cold);
        assert_eq!(solver.howard_rounds(), cold_rounds + 1);
    }

    #[test]
    fn solver_is_reusable_across_lean_and_fallback_components() {
        // One solver alternating plain rings (lean loads, integer kernel)
        // and huge rings (rational loads for the fallbacks): the per-component
        // view must reload correctly every time.
        let mut solver = Solver::new(SolverChoice::Auto);
        for seed in 0..24u64 {
            let g = ring_graph(seed / 2, seed % 2 == 1);
            let expected = Solver::new(SolverChoice::Auto).solve(&g);
            assert_eq!(solver.solve(&g), expected, "seed {seed}");
        }
    }

    #[test]
    fn pre_cancelled_solves_fail_and_leave_the_solver_reusable() {
        for seed in 0..8u64 {
            let g = ring_graph(seed, false);
            let token = CancelToken::new();
            token.cancel();
            let mut solver = Solver::new(SolverChoice::Auto);
            solver.set_cancel_token(token);
            assert_eq!(solver.solve(&g), Err(McrError::Cancelled), "seed {seed}");
            solver.set_cancel_token(CancelToken::default());
            assert_eq!(
                solver.solve(&g).unwrap(),
                Solver::new(SolverChoice::Auto).solve(&g).unwrap(),
                "seed {seed} post-cancel"
            );
        }
    }
}
