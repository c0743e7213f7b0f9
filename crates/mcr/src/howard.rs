//! Howard's policy iteration for the maximum cost-to-time ratio.
//!
//! Policy iteration is the practical fast MCRP solver on event graphs
//! (Dasdan–Irani–Gupta's experimental study and the `sdf3`/`kiter` lines of
//! tools both use it): instead of `Θ(n)` Bellman–Ford relaxation rounds per
//! candidate ratio, it maintains one outgoing *policy* arc per node and
//! alternates exact policy evaluation with greedy policy improvement. On real
//! event graphs it converges after a handful of rounds, each of which costs a
//! single sweep over the arcs.
//!
//! This scalar kernel is the fallback of the integer kernel in
//! [`crate::kernel`] (which runs whenever one of its two lanes admits the
//! component) and the reference its tests compare against; an
//! order-sensitive change here must be mirrored there.
//!
//! # Exactness
//!
//! The solver works on the same component view and exact [`Rational`]
//! arithmetic as the parametric method and returns **identical** results; the
//! contract is enforced structurally:
//!
//! * A policy circuit with non-positive total time and lexicographically
//!   positive weight is a real circuit of the graph that certifies the
//!   `Infinite` outcome for *any* candidate ratio. The evaluation pass that
//!   meets the first one finishes its sweep without computing further values,
//!   collecting every other such circuit of the same policy, and returns them
//!   all (the first one first).
//! * At convergence with all arc costs non-negative and all policy gains
//!   strictly positive, the policy values are a proof that no circuit —
//!   including circuits with non-positive time — beats the best policy
//!   circuit (see `certificate_applies`), so the outcome is emitted directly.
//! * In every other situation ([`HowardOutcome::Estimate`] /
//!   [`HowardOutcome::Bail`]) the caller re-enters the parametric iteration,
//!   seeded with Howard's ratio, which certifies or improves it with the
//!   lexicographic Bellman–Ford pass. Howard is therefore an accelerator:
//!   correctness never depends on it.

use csdf::Rational;

use crate::solve::{Scratch, NO_SUCCESSOR};

/// What the policy iteration concluded for one strongly connected component.
pub(crate) enum HowardOutcome {
    /// A real circuit with non-positive total time whose lexicographic weight
    /// is positive: the component is `Infinite` at every candidate ratio.
    Infinite {
        /// Arc positions (component view) of every such policy circuit, each
        /// in traversal order, the first one met first (never empty).
        circuits: Vec<Vec<usize>>,
    },
    /// Converged with a self-contained optimality certificate: `lambda` is
    /// the exact maximum ratio and `positions` a circuit attaining it.
    Certified {
        /// The exact maximum cost-to-time ratio.
        lambda: Rational,
        /// Arc positions of a critical circuit, in traversal order.
        positions: Vec<usize>,
    },
    /// Converged on a real circuit of ratio `lambda > 0`, but the cheap
    /// certificate does not apply (negative arc costs or a zero-gain policy
    /// class); the parametric iteration must be seeded with this estimate.
    Estimate {
        /// Ratio of the best policy circuit (a lower bound of the maximum).
        lambda: Rational,
        /// Arc positions of that circuit, in traversal order.
        positions: Vec<usize>,
    },
    /// Policy iteration is not applicable (exotic circuit weights, arithmetic
    /// overflow, or no convergence within the round budget); the caller runs
    /// the plain parametric method.
    Bail,
}

/// What one policy evaluation found (shared with the integer kernel).
pub(crate) enum Evaluation {
    /// Every node has a gain and a value.
    Done,
    /// Policy circuits certifying the `Infinite` outcome (arc positions of
    /// each, the first one met first).
    Infinite(Vec<Vec<usize>>),
    /// The circuit weights are outside what policy iteration handles.
    Bail,
}

/// Runs Howard's policy iteration on the component currently loaded in
/// `scratch` (`n` nodes).
pub(crate) fn howard_component(scratch: &mut Scratch, n: usize) -> HowardOutcome {
    if scratch.arc_len() == 0 {
        return HowardOutcome::Bail;
    }
    if scratch.gain.len() < n {
        scratch.gain.resize(n, Rational::ZERO);
        scratch.value.resize(n, Rational::ZERO);
    }
    if !start_policy(scratch, n) {
        return HowardOutcome::Bail;
    }
    let costs_nonneg = scratch.arc_cost.iter().all(|cost| !cost.is_negative());

    // Policy iteration converges after a few rounds in practice; the budget
    // is a guard against pathological same-gain oscillation, after which the
    // (always correct) parametric method takes over.
    let budget = 2 * n + 64;
    let mut converged = false;
    for _ in 0..budget {
        if scratch.cancel.is_cancelled() {
            // Bail hands over to the parametric method, whose first round
            // check turns the cancellation into `McrError::Cancelled`.
            return HowardOutcome::Bail;
        }
        scratch.howard_rounds += 1;
        match evaluate(scratch, n) {
            Evaluation::Done => {}
            Evaluation::Infinite(circuits) => return HowardOutcome::Infinite { circuits },
            Evaluation::Bail => return HowardOutcome::Bail,
        }
        match improve(scratch, n) {
            Some(true) => {}
            Some(false) => {
                converged = true;
                break;
            }
            None => return HowardOutcome::Bail,
        }
    }
    if !converged {
        return HowardOutcome::Bail;
    }

    let best_node = (0..n)
        .max_by(|&a, &b| scratch.gain[a].cmp(&scratch.gain[b]))
        .expect("component has at least one node");
    let lambda = scratch.gain[best_node];
    if !lambda.is_positive() {
        // The parametric method decides between NonPositive and the
        // lexicographic Infinite edge cases from scratch; nothing to seed.
        return HowardOutcome::Bail;
    }
    let positions = policy_cycle_from(scratch, best_node);
    if costs_nonneg && (0..n).all(|node| scratch.gain[node].is_positive()) {
        HowardOutcome::Certified { lambda, positions }
    } else {
        HowardOutcome::Estimate { lambda, positions }
    }
}

/// Exact policy evaluation: finds every circuit of the policy graph, assigns
/// each node the gain (circuit ratio) of the circuit its policy path reaches
/// and a relative value (bias) telescoping along the path.
///
/// Once a circuit certifies `Infinite`, the pass only walks on: it computes
/// no more values and collects every further infeasible policy circuit,
/// ignoring the ones it cannot classify (a Bail-class circuit met *before*
/// the first infeasible one still bails).
fn evaluate(scratch: &mut Scratch, n: usize) -> Evaluation {
    let resolved = scratch.advance_epoch(2);
    let on_walk = resolved - 1;
    let mut infinite: Vec<Vec<usize>> = Vec::new();
    for start in 0..n {
        if scratch.resolved[start] == resolved {
            continue;
        }
        // Follow the policy until hitting either an already resolved node or
        // the current walk itself (a new policy circuit).
        scratch.walk.clear();
        let mut current = start;
        while scratch.resolved[current] != resolved && scratch.mark[current] != on_walk {
            scratch.mark[current] = on_walk;
            scratch.mark_pos[current] = scratch.walk.len() as u32;
            scratch.walk.push(current as u32);
            current = scratch.arc_to[scratch.policy[current] as usize] as usize;
        }
        let new_circuit = scratch.resolved[current] != resolved;
        if !infinite.is_empty() {
            if new_circuit {
                let p = scratch.mark_pos[current] as usize;
                if let Some((cost, time)) = circuit_sums(scratch, p) {
                    if is_infeasible(&cost, &time) {
                        infinite.push(circuit_positions(scratch, p));
                    }
                }
            }
            for &node in &scratch.walk {
                scratch.resolved[node as usize] = resolved;
            }
            continue;
        }
        let tree_top = if !new_circuit {
            scratch.walk.len()
        } else {
            // New circuit: walk[p..] in traversal order.
            let p = scratch.mark_pos[current] as usize;
            let Some((cost, time)) = circuit_sums(scratch, p) else {
                return Evaluation::Bail;
            };
            if !time.is_positive() {
                // A real circuit with non-positive time. Lexicographically
                // positive weight makes the component Infinite at every
                // λ ≥ 0; otherwise policy iteration cannot evaluate it —
                // hand over to the parametric method.
                if !is_infeasible(&cost, &time) {
                    return Evaluation::Bail;
                }
                infinite.push(circuit_positions(scratch, p));
                for &node in &scratch.walk {
                    scratch.resolved[node as usize] = resolved;
                }
                continue;
            }
            let Ok(gain) = cost.checked_div(&time) else {
                return Evaluation::Bail;
            };
            // Values around the circuit: anchor at walk[p] with value zero,
            // then telescope backwards (the reduced weights sum to zero
            // around the circuit, so this is consistent).
            let anchor = scratch.walk[p] as usize;
            scratch.gain[anchor] = gain;
            scratch.value[anchor] = Rational::ZERO;
            scratch.resolved[anchor] = resolved;
            let mut next_value = Rational::ZERO;
            for index in (p + 1..scratch.walk.len()).rev() {
                let node = scratch.walk[index] as usize;
                let Some(weight) = reduced_weight(scratch, scratch.policy[node] as usize, gain)
                else {
                    return Evaluation::Bail;
                };
                let Ok(value) = weight.checked_add(&next_value) else {
                    return Evaluation::Bail;
                };
                scratch.gain[node] = gain;
                scratch.value[node] = value;
                scratch.resolved[node] = resolved;
                next_value = value;
            }
            p
        };
        // Tree part of the walk: propagate gain and value backwards from the
        // (now resolved) junction.
        for index in (0..tree_top).rev() {
            let node = scratch.walk[index] as usize;
            let position = scratch.policy[node] as usize;
            let successor = scratch.arc_to[position] as usize;
            debug_assert_eq!(scratch.resolved[successor], resolved);
            let gain = scratch.gain[successor];
            let Some(weight) = reduced_weight(scratch, position, gain) else {
                return Evaluation::Bail;
            };
            let Ok(value) = weight.checked_add(&scratch.value[successor]) else {
                return Evaluation::Bail;
            };
            scratch.gain[node] = gain;
            scratch.value[node] = value;
            scratch.resolved[node] = resolved;
        }
    }
    if infinite.is_empty() {
        Evaluation::Done
    } else {
        Evaluation::Infinite(infinite)
    }
}

/// Total cost and time of the policy circuit `walk[p..]`, accumulated
/// unreduced (no GCD per arc, one reduction per circuit); `None` on overflow.
fn circuit_sums(scratch: &Scratch, p: usize) -> Option<(Rational, Rational)> {
    let mut cost_sum = csdf::RationalSum::new();
    let mut time_sum = csdf::RationalSum::new();
    for &node in &scratch.walk[p..] {
        let position = scratch.policy[node as usize] as usize;
        cost_sum.add(&scratch.arc_cost[position]).ok()?;
        time_sum.add(&scratch.arc_time[position]).ok()?;
    }
    Some((cost_sum.finish(), time_sum.finish()))
}

/// Whether a circuit of total `(cost, time)` certifies `Infinite`: non-positive
/// time and lexicographically positive weight (cost > 0, or cost = 0 with
/// time < 0).
fn is_infeasible(cost: &Rational, time: &Rational) -> bool {
    !time.is_positive() && (cost.is_positive() || (cost.is_zero() && time.is_negative()))
}

/// Arc positions of the policy circuit `walk[p..]`, in traversal order
/// (shared with the integer kernel).
pub(crate) fn circuit_positions(scratch: &Scratch, p: usize) -> Vec<usize> {
    scratch.walk[p..]
        .iter()
        .map(|&node| scratch.policy[node as usize] as usize)
        .collect()
}

/// Sets the initial policy of both kernels: each node takes its arc to the
/// preferred successor the solve was seeded with (`Scratch::start`, local
/// ids), or its first outgoing arc when there is none or no arc reaches it.
/// Returns `false` if a node has no outgoing arc. Strong connectivity
/// guarantees one for components of more than one node; a single-node
/// component owes its membership to a self-arc.
pub(crate) fn start_policy(scratch: &mut Scratch, n: usize) -> bool {
    if scratch.policy.len() < n {
        scratch.policy.resize(n, 0);
    }
    for node in 0..n {
        let (lo, hi) = (scratch.first[node], scratch.first[node + 1]);
        if lo == hi {
            return false;
        }
        let preferred = scratch.start.get(node).copied().unwrap_or(NO_SUCCESSOR);
        scratch.policy[node] = if preferred == NO_SUCCESSOR {
            lo
        } else {
            (lo..hi)
                .find(|&position| scratch.arc_to[position as usize] == preferred)
                .unwrap_or(lo)
        };
    }
    true
}

/// `cost(e) − gain·time(e)`, or `None` on overflow.
fn reduced_weight(scratch: &Scratch, position: usize, gain: Rational) -> Option<Rational> {
    let scaled = gain.checked_mul(&scratch.arc_time[position]).ok()?;
    scratch.arc_cost[position].checked_sub(&scaled).ok()
}

/// One policy improvement round. Gain improvements take priority (multichain
/// rule); bias improvements only apply between equal-gain nodes. Returns
/// `Some(changed)`, or `None` on arithmetic overflow.
fn improve(scratch: &mut Scratch, n: usize) -> Option<bool> {
    let mut changed = false;
    for node in 0..n {
        let mut best_position = scratch.policy[node];
        let mut best_gain = scratch.gain[node];
        for position in scratch.first[node]..scratch.first[node + 1] {
            let target = scratch.arc_to[position as usize] as usize;
            if scratch.gain[target] > best_gain {
                best_gain = scratch.gain[target];
                best_position = position;
            }
        }
        if best_gain > scratch.gain[node] {
            scratch.policy[node] = best_position;
            scratch.gain[node] = best_gain;
            changed = true;
        }
    }
    if changed {
        return Some(true);
    }
    for node in 0..n {
        let gain = scratch.gain[node];
        let mut best_position = u32::MAX;
        let mut best_value = scratch.value[node];
        for position in scratch.first[node]..scratch.first[node + 1] {
            let target = scratch.arc_to[position as usize] as usize;
            if scratch.gain[target] != gain {
                continue;
            }
            let weight = reduced_weight(scratch, position as usize, gain)?;
            let candidate = weight.checked_add(&scratch.value[target]).ok()?;
            if candidate > best_value {
                best_value = candidate;
                best_position = position;
            }
        }
        if best_position != u32::MAX {
            scratch.policy[node] = best_position;
            changed = true;
        }
    }
    Some(changed)
}

/// Collects the policy circuit reached from `start`, as arc positions in
/// traversal order. Shared with the integer kernel ([`crate::kernel`]): it
/// only reads the policy and the arc targets, which both kernels maintain
/// identically.
pub(crate) fn policy_cycle_from(scratch: &mut Scratch, start: usize) -> Vec<usize> {
    let seen = scratch.advance_epoch(1);
    let mut current = start;
    while scratch.mark[current] != seen {
        scratch.mark[current] = seen;
        current = scratch.arc_to[scratch.policy[current] as usize] as usize;
    }
    let entry = current;
    let mut positions = Vec::new();
    loop {
        let position = scratch.policy[current] as usize;
        positions.push(position);
        current = scratch.arc_to[position] as usize;
        if current == entry {
            break;
        }
    }
    positions
}
