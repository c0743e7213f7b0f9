//! Theorem-2 constraint generation.
//!
//! For a buffer `b = (t, t')` and a pair of phases `(p, p')`, the paper's
//! Theorem 2 (recalled from the authors' `ESTIMedia`'13 work) states that a
//! periodic schedule is feasible if and only if, whenever
//! `α_a(p,p') ≤ β_a(p,p')`,
//!
//! ```text
//! S⟨t'_p', 1⟩ − S⟨t_p, 1⟩ ≥ d(t_p) + Ω · β_a(p,p') / (q_t · i_b)
//! ```
//!
//! with
//!
//! ```text
//! Q_a(p,p') = Oa⟨t'_p',1⟩ − Ia⟨t_p,1⟩ − M0(b) + in_b(p)
//! α_a(p,p') = ⌈Q_a(p,p') − min(in_b(p), out_b(p'))⌉^{gcd_a}
//! β_a(p,p') = ⌊Q_a(p,p') − 1⌋^{gcd_a}
//! ```
//!
//! where `⌈x⌉^γ` (resp. `⌊x⌋^γ`) rounds up (resp. down) to a multiple of `γ`.
//! This module computes these quantities on *expanded* rate vectors, so the
//! same code serves the 1-periodic case and the K-periodic case (where every
//! vector is duplicated `K_t` times, Section 3.2).
//!
//! Constraints are emitted **per buffer**: [`phase_constraints`] returns the
//! raw `(α, β)` pairs of one buffer, and [`emit_buffer_arcs`] turns them
//! directly into the bi-valued event-graph arcs of that buffer (block-local
//! endpoints plus `L`/`H` values); [`emit_buffer_arcs_tiled`] derives the
//! same arcs straight from the base rates. The event-graph arena keeps every
//! buffer's arcs in its ratio graph and only re-derives those of buffers
//! whose producer or consumer changed periodicity or whose marking changed.

use csdf::{CsdfError, Rational};

/// One useful (non-redundant) precedence constraint between a producer phase
/// and a consumer phase of a buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseConstraint {
    /// 0-based producer phase index (into the expanded production vector).
    pub producer_phase: usize,
    /// 0-based consumer phase index (into the expanded consumption vector).
    pub consumer_phase: usize,
    /// The `α_a(p,p')` bound (a multiple of `gcd_a`).
    pub alpha: i128,
    /// The `β_a(p,p')` bound (a multiple of `gcd_a`); this is the value that
    /// enters the schedule constraint and the event-graph arc weight.
    pub beta: i128,
}

/// Computes every useful phase-pair constraint of a buffer described by its
/// (possibly duplicated) production / consumption vectors and initial marking.
///
/// The returned constraints are exactly the pairs `(p, p')` of the paper's set
/// `Y(a)` for which `α ≤ β`, in row-major order (producer phase outermost).
///
/// # Panics
///
/// Panics if either rate vector is empty or sums to zero (the
/// [`csdf::CsdfGraphBuilder`] never produces such buffers).
pub fn phase_constraints(
    production: &[u64],
    consumption: &[u64],
    initial_tokens: u64,
) -> Vec<PhaseConstraint> {
    let mut constraints = Vec::new();
    let emitted: Result<(), CsdfError> =
        for_each_constraint(production, consumption, initial_tokens, |constraint| {
            constraints.push(constraint);
            Ok(())
        });
    emitted.expect("collecting constraints is infallible");
    constraints
}

/// Visits every useful phase-pair constraint of one buffer in row-major order
/// (producer phase outermost), without allocating the constraint list.
///
/// # Panics
///
/// Panics if either rate vector is empty or sums to zero (the
/// [`csdf::CsdfGraphBuilder`] never produces such buffers).
///
/// # Errors
///
/// Propagates the first error returned by `visit`.
pub(crate) fn for_each_constraint(
    production: &[u64],
    consumption: &[u64],
    initial_tokens: u64,
    mut visit: impl FnMut(PhaseConstraint) -> Result<(), CsdfError>,
) -> Result<(), CsdfError> {
    assert!(!production.is_empty() && !consumption.is_empty());
    let total_production: u64 = production.iter().sum();
    let total_consumption: u64 = consumption.iter().sum();
    assert!(total_production > 0 && total_consumption > 0);
    let gcd = csdf::gcd_u64(total_production, total_consumption) as i128;

    // 1-based cumulative consumption (the inner loop reuses it per producer
    // phase; the cumulative production is carried by the outer loop).
    let mut cumulative_consumption = Vec::with_capacity(consumption.len());
    let mut running = 0i128;
    for &rate in consumption {
        running += rate as i128;
        cumulative_consumption.push(running);
    }

    let marking = initial_tokens as i128;
    let mut produced_before = 0i128;
    for (p, &produced_here) in production.iter().enumerate() {
        produced_before += produced_here as i128;
        for (p_prime, &consumed_here) in consumption.iter().enumerate() {
            let consumed_before = cumulative_consumption[p_prime];
            let q_value = consumed_before - produced_before - marking + produced_here as i128;
            let alpha = ceil_to_multiple(q_value - (produced_here.min(consumed_here)) as i128, gcd);
            let beta = floor_to_multiple(q_value - 1, gcd);
            if alpha <= beta {
                visit(PhaseConstraint {
                    producer_phase: p,
                    consumer_phase: p_prime,
                    alpha,
                    beta,
                })?;
            }
        }
    }
    Ok(())
}

/// One re-derived bi-valued arc of a buffer's constraint set, as the
/// emission writes it into the arena's scratch. Endpoints are *block-local*
/// phase indices; the arena re-bases them on the producer's and consumer's
/// node-block offsets when it adds the arc to the ratio graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BufferArc {
    /// Producer phase in `0 .. K_t·ϕ(t)` of the source task.
    pub producer_phase: u32,
    /// Consumer phase in `0 .. K_{t'}·ϕ(t')` of the target task.
    pub consumer_phase: u32,
    /// `L(e)`: the duration of the producer phase.
    pub cost: Rational,
    /// `H(e)`: `−β_a(p, p') / (i_b · q_t)` — see the arena docs for why the
    /// `lcm(K)` factor of the paper's formula is deliberately left out.
    pub time: Rational,
}

/// Derives the bi-valued arcs of one buffer under the current periodicity:
/// Theorem-2 constraints over the expanded rate vectors, bi-valued with the
/// producer-phase duration as cost and `−β / denominator` as time.
///
/// `base_durations` is the producer's base duration slice (`ϕ(t)` entries;
/// expanded phase `p` lasts `base_durations[p mod ϕ(t)]`) and `denominator`
/// the K-invariant `i_b · q_t` of the buffer. The result is written into
/// `out` (cleared first).
///
/// # Errors
///
/// Returns [`CsdfError::Rational`] when a time value overflows `i128`.
// Outside tests the arena only drives the tiled fast path; the naive
// emission is retained as the executable reference semantics and the oracle
// of `tiled_emission_matches_the_naive_oracle`.
#[cfg_attr(not(test), allow(dead_code))]
pub(crate) fn emit_buffer_arcs(
    production: &[u64],
    consumption: &[u64],
    initial_tokens: u64,
    base_durations: &[u64],
    denominator: i128,
    out: &mut Vec<BufferArc>,
) -> Result<(), CsdfError> {
    out.clear();
    for_each_constraint(production, consumption, initial_tokens, |constraint| {
        let duration = base_durations[constraint.producer_phase % base_durations.len()];
        out.push(BufferArc {
            producer_phase: u32::try_from(constraint.producer_phase)
                .map_err(|_| CsdfError::Overflow)?,
            consumer_phase: u32::try_from(constraint.consumer_phase)
                .map_err(|_| CsdfError::Overflow)?,
            cost: Rational::from_integer(duration as i128),
            time: Rational::new(-constraint.beta, denominator).map_err(CsdfError::Rational)?,
        });
        Ok(())
    })
}

/// Reusable scratch of [`emit_buffer_arcs_tiled`], so that a call allocates
/// nothing once the scratch has grown to the largest buffer seen.
#[derive(Debug, Clone, Default)]
pub(crate) struct EmitScratch {
    /// 1-based cumulative base consumption of the buffer being emitted.
    cumulative: Vec<u64>,
    /// Consumer phases matched by the current producer phase.
    phases: Vec<u32>,
}

/// Totals and markings below this bound keep every intermediate value of
/// the tiled emission inside an `i64`: each is a sum of at most four terms
/// under `2^60`.
const WORD_LIMIT: u128 = 1 << 60;

/// Derives the bi-valued arcs of one buffer under the current periodicity
/// **without materialising the expanded rate vectors or probing every phase
/// pair**: the output-sensitive fast path of the event-graph arena.
///
/// The expanded production/consumption vectors are `K`-tilings of the base
/// rates, so along the consumer tiles the constraint test
/// `α ≤ β ⟺ (q − 1) mod g̃ < min(in, out)` walks an arithmetic progression
/// `q_j = q_0 + j·o_b (mod g̃)`: the tile indices `j` that satisfy it form a
/// union of congruence classes modulo `g̃ / gcd(o_b, g̃)` that can be solved
/// directly (one modular inverse per class) instead of probed one by one.
/// The naive [`emit_buffer_arcs`] is `O(K_s·ϕ_s · K_t·ϕ_t)` per buffer —
/// ~50M probes per buffer for the paper's buffer-sized JPEG2000 instance at
/// full `K`, which dominated the whole analysis — while this path is
/// `O(K_s·ϕ_s · (ϕ_c + arcs log arcs))` with a per-phase fallback that never
/// exceeds the naive inner loop. The emitted arcs are **bit-identical, in
/// identical row-major order** (property-tested against the naive oracle in
/// this module).
///
/// One body serves two word widths: `i64` while `i_b·K_s`, `o_b·K_t` and
/// `M0` stay below `2^60`, `i128` beyond. The arcs are **appended** to `out`,
/// so the arena emits all of an update's dirty buffers into one scratch.
///
/// `base_durations` is the producer's base duration slice and
/// `denominator` the K-invariant `i_b · q_t`.
///
/// # Errors
///
/// Returns [`CsdfError::Overflow`] when expanded totals or phase counts
/// leave the supported range, [`CsdfError::Rational`] when a time value
/// overflows `i128`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn emit_buffer_arcs_tiled(
    base_production: &[u64],
    k_source: u64,
    base_consumption: &[u64],
    k_target: u64,
    initial_tokens: u64,
    base_durations: &[u64],
    denominator: i128,
    scratch: &mut EmitScratch,
    out: &mut Vec<BufferArc>,
) -> Result<(), CsdfError> {
    assert!(!base_production.is_empty() && !base_consumption.is_empty());
    let i_b: u64 = base_production.iter().sum();
    let o_b: u64 = base_consumption.iter().sum();
    assert!(i_b > 0 && o_b > 0);
    let expanded_producers = (base_production.len() as u64)
        .checked_mul(k_source)
        .ok_or(CsdfError::Overflow)?;
    let expanded_consumers = (base_consumption.len() as u64)
        .checked_mul(k_target)
        .ok_or(CsdfError::Overflow)?;
    if u32::try_from(expanded_producers).is_err() || u32::try_from(expanded_consumers).is_err() {
        return Err(CsdfError::Overflow);
    }
    let total_production = u128::from(i_b) * u128::from(k_source);
    let total_consumption = u128::from(o_b) * u128::from(k_target);
    if total_production > i128::MAX as u128 || total_consumption > i128::MAX as u128 {
        return Err(CsdfError::Overflow);
    }
    let tiles = Tiles {
        base_production,
        base_consumption,
        k_target,
        expanded_producers,
        initial_tokens,
        base_durations,
        denominator,
        o_b,
        g: csdf::gcd_u128(total_production, total_consumption),
    };
    if total_production < WORD_LIMIT
        && total_consumption < WORD_LIMIT
        && u128::from(initial_tokens) < WORD_LIMIT
    {
        tiles.emit::<i64>(scratch, out)
    } else {
        tiles.emit::<i128>(scratch, out)
    }
}

/// One buffer's tiled emission problem, shared by both word widths.
struct Tiles<'a> {
    base_production: &'a [u64],
    base_consumption: &'a [u64],
    k_target: u64,
    expanded_producers: u64,
    initial_tokens: u64,
    base_durations: &'a [u64],
    denominator: i128,
    o_b: u64,
    /// `g̃ = gcd(i_b·K_s, o_b·K_t)`.
    g: u128,
}

impl Tiles<'_> {
    fn emit<W: Word>(
        &self,
        scratch: &mut EmitScratch,
        out: &mut Vec<BufferArc>,
    ) -> Result<(), CsdfError> {
        let phi_s = self.base_production.len();
        let phi_c = self.base_consumption.len() as u32;
        let k_target = self.k_target;
        let g128 = self.g as i128;
        let g = W::from_i128(g128);
        let ob = W::from_u64(self.o_b);
        let ob_mod = ob % g;
        // Solutions of `j·o_b ≡ Δ (mod g̃)` repeat with period `s = g̃ / e`.
        let (e, s, inverse) = if ob_mod == W::ZERO {
            (W::ZERO, 0, 0)
        } else {
            let ob_mod = ob_mod.to_i128();
            let e = csdf::gcd_i128(ob_mod, g128);
            let s = g128 / e;
            (W::from_i128(e), s, mod_inverse(ob_mod / e, s))
        };

        let EmitScratch { cumulative, phases } = scratch;
        cumulative.clear();
        let mut running = 0u64;
        for &rate in self.base_consumption {
            running += rate;
            cumulative.push(running);
        }

        let marking = W::from_u64(self.initial_tokens);
        let mut produced_before = W::ZERO;
        for p in 0..self.expanded_producers {
            let produced_here = self.base_production[(p % phi_s as u64) as usize];
            let v = W::from_u64(produced_here);
            produced_before = produced_before + v;
            phases.clear();
            for (cb, &consumed_here) in self.base_consumption.iter().enumerate() {
                let m = W::from_u64(produced_here.min(consumed_here));
                if m == W::ZERO {
                    continue;
                }
                let cb = cb as u32;
                // q for consumer tile j = 0, then q_j = q_0 + j·o_b.
                let q_zero = W::from_u64(cumulative[cb as usize]) - produced_before - marking + v;
                let r_zero = (q_zero - W::ONE).rem_euclid(g);
                if ob_mod == W::ZERO {
                    // The residue never moves: all tiles match, or none do.
                    if r_zero < m {
                        phases.extend((0..k_target as u32).map(|j| j * phi_c + cb));
                    }
                    continue;
                }
                let m_eff = m.min(g);
                // Valid residues `t ∈ [0, m_eff)` must satisfy `t ≡ r_0 (mod e)`.
                let t_first = r_zero % e;
                if t_first >= m_eff {
                    continue;
                }
                let classes = (m_eff - W::ONE - t_first) / e + W::ONE;
                if classes.to_i128() >= i128::from(k_target) {
                    // Dense case: probing every tile is cheaper than solving
                    // more congruence classes than there are tiles. Never
                    // worse than the naive inner loop.
                    let mut residue = r_zero;
                    for j in 0..k_target as u32 {
                        if residue < m {
                            phases.push(j * phi_c + cb);
                        }
                        residue = residue + ob_mod;
                        if residue >= g {
                            residue = residue - g;
                        }
                    }
                    continue;
                }
                let mut t = t_first;
                while t < m_eff {
                    // j ≡ (Δ/e)·(o_b/e)⁻¹ (mod s) with Δ = (t − r_0) mod g̃.
                    let delta = (t - r_zero).rem_euclid(g).to_i128();
                    let j_first = ((delta / e.to_i128()) % s)
                        .checked_mul(inverse)
                        .ok_or(CsdfError::Overflow)?
                        % s;
                    let mut j = j_first as u64;
                    while j < k_target {
                        phases.push(j as u32 * phi_c + cb);
                        j += s as u64;
                    }
                    t = t + e;
                }
            }
            // Congruence classes interleave across consumer phases; restore
            // the naive row-major (consumer-phase-ascending) order exactly.
            phases.sort_unstable();
            let cost = Rational::from_integer(i128::from(
                self.base_durations[(p % self.base_durations.len() as u64) as usize],
            ));
            for &consumer_phase in phases.iter() {
                let j = W::from_u64(u64::from(consumer_phase / phi_c));
                let cb = (consumer_phase % phi_c) as usize;
                let q = W::from_u64(cumulative[cb]) + j * ob - produced_before - marking + v;
                let beta = (q - W::ONE).div_euclid(g) * g;
                debug_assert!(
                    ceil_to_multiple(
                        q.to_i128() - i128::from(produced_here.min(self.base_consumption[cb])),
                        g128
                    ) <= beta.to_i128(),
                    "tiled emission produced a useless constraint"
                );
                out.push(BufferArc {
                    producer_phase: p as u32,
                    consumer_phase,
                    cost,
                    time: Rational::new(-beta.to_i128(), self.denominator)
                        .map_err(CsdfError::Rational)?,
                });
            }
        }
        Ok(())
    }
}

/// The integer word the tiled emission runs on: `i64` when every
/// intermediate value provably fits (see [`WORD_LIMIT`]), `i128` otherwise.
trait Word:
    Copy
    + Ord
    + std::ops::Add<Output = Self>
    + std::ops::Sub<Output = Self>
    + std::ops::Mul<Output = Self>
    + std::ops::Div<Output = Self>
    + std::ops::Rem<Output = Self>
{
    const ZERO: Self;
    const ONE: Self;
    /// `value` in this width; the caller guarantees that it fits.
    fn from_i128(value: i128) -> Self;
    /// `value` in this width; the caller guarantees that it fits.
    fn from_u64(value: u64) -> Self;
    fn to_i128(self) -> i128;
    fn rem_euclid(self, modulus: Self) -> Self;
    fn div_euclid(self, divisor: Self) -> Self;
}

macro_rules! word {
    ($word:ty) => {
        impl Word for $word {
            const ZERO: Self = 0;
            const ONE: Self = 1;
            #[inline(always)]
            fn from_i128(value: i128) -> Self {
                value as $word
            }
            #[inline(always)]
            fn from_u64(value: u64) -> Self {
                value as $word
            }
            #[inline(always)]
            fn to_i128(self) -> i128 {
                self as i128
            }
            #[inline(always)]
            fn rem_euclid(self, modulus: Self) -> Self {
                <$word>::rem_euclid(self, modulus)
            }
            #[inline(always)]
            fn div_euclid(self, divisor: Self) -> Self {
                <$word>::div_euclid(self, divisor)
            }
        }
    };
}

word!(i64);
word!(i128);

/// Modular inverse of `a` modulo `m` (`m ≥ 1`, `gcd(a, m) = 1`) by the
/// extended Euclidean algorithm, in `[0, m)`.
fn mod_inverse(a: i128, m: i128) -> i128 {
    if m == 1 {
        return 0;
    }
    let (mut r_prev, mut r) = (a.rem_euclid(m), m);
    let (mut x_prev, mut x) = (1i128, 0i128);
    while r != 0 {
        let q = r_prev / r;
        (r_prev, r) = (r, r_prev - q * r);
        (x_prev, x) = (x, x_prev - q * x);
    }
    debug_assert_eq!(r_prev, 1, "inverse requires coprime operands");
    x_prev.rem_euclid(m)
}

/// Duplicates a rate vector `factor` times (the `[v]^P` notation of the
/// paper's Section 3.2).
pub fn duplicate_rates(rates: &[u64], factor: u64) -> Vec<u64> {
    let mut duplicated = Vec::with_capacity(
        rates
            .len()
            .saturating_mul(usize::try_from(factor).unwrap_or(usize::MAX)),
    );
    for _ in 0..factor {
        duplicated.extend_from_slice(rates);
    }
    duplicated
}

/// Rounds `value` down to a multiple of `step` (`⌊value⌋^step`).
pub fn floor_to_multiple(value: i128, step: i128) -> i128 {
    debug_assert!(step > 0);
    value.div_euclid(step) * step
}

/// Rounds `value` up to a multiple of `step` (`⌈value⌉^step`).
pub fn ceil_to_multiple(value: i128, step: i128) -> i128 {
    debug_assert!(step > 0);
    -((-value).div_euclid(step)) * step
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Emits one buffer both ways and requires bit-identical arcs in
    /// identical order; returns the arc count.
    #[allow(clippy::too_many_arguments)]
    fn compare_with_the_naive_oracle(
        production: &[u64],
        k_source: u64,
        consumption: &[u64],
        k_target: u64,
        tokens: u64,
        durations: &[u64],
        denominator: i128,
        scratch: &mut EmitScratch,
    ) -> usize {
        let mut naive = Vec::new();
        emit_buffer_arcs(
            &duplicate_rates(production, k_source),
            &duplicate_rates(consumption, k_target),
            tokens,
            durations,
            denominator,
            &mut naive,
        )
        .expect("naive emission succeeds");
        // The tiled emission appends: a stale prefix must stay untouched.
        let stale = BufferArc {
            producer_phase: 7,
            consumer_phase: 7,
            cost: Rational::ONE,
            time: Rational::ONE,
        };
        let mut tiled = vec![stale];
        emit_buffer_arcs_tiled(
            production,
            k_source,
            consumption,
            k_target,
            tokens,
            durations,
            denominator,
            scratch,
            &mut tiled,
        )
        .expect("tiled emission succeeds");
        assert_eq!(tiled[0], stale);
        assert_eq!(
            naive,
            tiled[1..],
            "prod {production:?} x{k_source}, cons {consumption:?} x{k_target}, tokens {tokens}"
        );
        naive.len()
    }

    /// Oracle check for the arena's fast path: the congruence-solving tiled
    /// emission must produce **bit-identical arcs in identical order** to
    /// the naive expanded double loop, across rate shapes (incl. zero
    /// rates), markings and periodicities, hitting the all-tiles, dense and
    /// congruence-class branches.
    #[test]
    fn tiled_emission_matches_the_naive_oracle() {
        let mut state = 0x9e37_79b9u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut scratch = EmitScratch::default();
        let mut checked_arcs = 0usize;
        for case in 0..400u64 {
            let phi_s = 1 + (next() % 4) as usize;
            let phi_c = 1 + (next() % 4) as usize;
            let mut production: Vec<u64> = (0..phi_s).map(|_| next() % 6).collect();
            let mut consumption: Vec<u64> = (0..phi_c).map(|_| next() % 6).collect();
            // Builders never produce zero-total buffers.
            production[0] = production[0].max(1);
            consumption[0] = consumption[0].max(1);
            let k_source = 1 + next() % if case % 5 == 0 { 40 } else { 6 };
            let k_target = 1 + next() % if case % 7 == 0 { 40 } else { 6 };
            let tokens = next() % 25;
            let denominator = (production.iter().sum::<u64>() * (1 + next() % 4)) as i128;
            let durations: Vec<u64> = (0..phi_s).map(|_| next() % 9).collect();
            checked_arcs += compare_with_the_naive_oracle(
                &production,
                k_source,
                &consumption,
                k_target,
                tokens,
                &durations,
                denominator,
                &mut scratch,
            );
        }
        assert!(checked_arcs > 1_000, "the cases must exercise real arcs");

        // The word-width boundary: `i_b·K_s`, `o_b·K_t` or the marking just
        // below, at and just above `2^60` put the emission on the `i64` or
        // the `i128` lane.
        const LIMIT: u64 = 1 << 60;
        let mut boundary_arcs = 0usize;
        for offset in [-2i64, -1, 0, 1, 2] {
            let near = LIMIT.wrapping_add_signed(offset);
            // (production, k_source, consumption, k_target, tokens)
            let cases = [
                // i_b·K_s straddles 2^60, through K_s.
                (
                    vec![1 << 58],
                    near >> 58,
                    vec![1 << 58, 1 << 58],
                    2,
                    1 << 58,
                ),
                // i_b·K_s straddles 2^60, through the rates.
                (vec![near - 3, 3], 1, vec![near / 2, near - near / 2], 1, 5),
                // o_b·K_t straddles 2^60.
                (vec![3, 1], 3, vec![near - 1, 1], 1, near / 3),
                (vec![1 << 57], 3, vec![1 << 56], near >> 56, 0),
                // The marking straddles 2^60.
                (vec![2, 1, 3], 2, vec![3, 3], 2, near),
                (vec![1 << 40], 4, vec![1 << 41], 2, near - (1 << 40)),
            ];
            for (production, k_source, consumption, k_target, tokens) in cases {
                let durations: Vec<u64> = (1..=production.len() as u64).collect();
                let denominator = 7 * i128::from(production.iter().sum::<u64>());
                boundary_arcs += compare_with_the_naive_oracle(
                    &production,
                    k_source,
                    &consumption,
                    k_target,
                    tokens,
                    &durations,
                    denominator,
                    &mut scratch,
                );
            }
        }
        assert!(
            boundary_arcs > 50,
            "the boundary cases must exercise real arcs"
        );
    }

    #[test]
    fn rounding_helpers() {
        assert_eq!(floor_to_multiple(7, 3), 6);
        assert_eq!(floor_to_multiple(-1, 3), -3);
        assert_eq!(floor_to_multiple(6, 3), 6);
        assert_eq!(ceil_to_multiple(7, 3), 9);
        assert_eq!(ceil_to_multiple(-1, 3), 0);
        assert_eq!(ceil_to_multiple(6, 3), 6);
        assert_eq!(ceil_to_multiple(0, 5), 0);
        assert_eq!(floor_to_multiple(0, 5), 0);
    }

    #[test]
    fn duplicate_rates_repeats_in_order() {
        assert_eq!(duplicate_rates(&[2, 3], 3), vec![2, 3, 2, 3, 2, 3]);
        assert_eq!(duplicate_rates(&[1], 1), vec![1]);
    }

    #[test]
    fn homogeneous_buffer_without_tokens() {
        // Unit rates, no marking: a single constraint with β = 0 forcing the
        // consumer to start after the producer.
        let constraints = phase_constraints(&[1], &[1], 0);
        assert_eq!(constraints.len(), 1);
        assert_eq!(constraints[0].beta, 0);
        assert_eq!(constraints[0].alpha, 0);
    }

    #[test]
    fn homogeneous_buffer_with_one_token() {
        // One initial token: β = −1, the classic "one iteration of slack".
        let constraints = phase_constraints(&[1], &[1], 1);
        assert_eq!(constraints.len(), 1);
        assert_eq!(constraints[0].beta, -1);
    }

    #[test]
    fn saturated_buffer_produces_no_constraint() {
        // With two tokens and unit rates, gcd = 1: Q = 1 - 1 - 2 + 1 = -1,
        // α = ⌈-2⌉ = -2 ≤ β = ⌊-2⌋ = -2: the constraint exists but is weak
        // (β = -2). Larger markings keep weakening it, never removing it for
        // gcd = 1, which matches the theorem.
        let constraints = phase_constraints(&[1], &[1], 2);
        assert_eq!(constraints.len(), 1);
        assert_eq!(constraints[0].beta, -2);
    }

    #[test]
    fn serializing_self_loop_constraints() {
        // A 3-phase task's one-token self-loop: phases chain in order and the
        // last phase of one execution precedes the first of the next.
        let constraints = phase_constraints(&[1, 1, 1], &[1, 1, 1], 1);
        // Expected pairs: (p, p+1) with β = 0 and (last, first) with β = -3.
        assert!(constraints.contains(&PhaseConstraint {
            producer_phase: 0,
            consumer_phase: 1,
            alpha: 0,
            beta: 0,
        }));
        assert!(constraints.contains(&PhaseConstraint {
            producer_phase: 1,
            consumer_phase: 2,
            alpha: 0,
            beta: 0,
        }));
        assert!(constraints.contains(&PhaseConstraint {
            producer_phase: 2,
            consumer_phase: 0,
            alpha: -3,
            beta: -3,
        }));
        assert_eq!(constraints.len(), 3);
    }

    #[test]
    fn figure1_buffer_constraints_are_plausible() {
        // Paper Figure 1: in = [2,3,1], out = [2,5], M0 = 0, gcd = 1.
        let constraints = phase_constraints(&[2, 3, 1], &[2, 5], 0);
        // Every constraint must relate a valid phase pair and respect α ≤ β.
        assert!(!constraints.is_empty());
        for c in &constraints {
            assert!(c.producer_phase < 3);
            assert!(c.consumer_phase < 2);
            assert!(c.alpha <= c.beta);
        }
        // The first consumer phase needs the first producer phase: for
        // (p=1, p'=1): Q = 2 - 2 - 0 + 2 = 2, β = ⌊1⌋ = 1, α = ⌈0⌉ = 0.
        let first = constraints
            .iter()
            .find(|c| c.producer_phase == 0 && c.consumer_phase == 0)
            .expect("constraint (1,1) must exist");
        assert_eq!(first.beta, 1);
        assert_eq!(first.alpha, 0);
    }

    #[test]
    fn gcd_strengthening_removes_redundant_pairs() {
        // Rates 2 -> 2 with zero marking: gcd = 2. Q(1,1) = 2 - 2 - 0 + 2 = 2,
        // α = ⌈0⌉^2 = 0, β = ⌊1⌋^2 = 0 → constraint kept with β = 0.
        let constraints = phase_constraints(&[2], &[2], 0);
        assert_eq!(constraints.len(), 1);
        assert_eq!(constraints[0].beta, 0);
        // With one token the constraint weakens: Q = 1, α = ⌈-1⌉^2 = 0,
        // β = ⌊0⌋^2 = 0 → still kept, β = 0 (a single token cannot decouple
        // rate-2 transfers).
        let constraints = phase_constraints(&[2], &[2], 1);
        assert_eq!(constraints.len(), 1);
        assert_eq!(constraints[0].beta, 0);
        // With two tokens (one full transfer ahead) the dependency relaxes by
        // a full period: β = -2.
        let constraints = phase_constraints(&[2], &[2], 2);
        assert_eq!(constraints.len(), 1);
        assert_eq!(constraints[0].beta, -2);
    }

    #[test]
    fn duplicated_vectors_grow_the_constraint_set() {
        let base = phase_constraints(&[1], &[1], 0);
        let duplicated = phase_constraints(&duplicate_rates(&[1], 2), &duplicate_rates(&[1], 2), 0);
        assert_eq!(base.len(), 1);
        assert!(duplicated.len() > base.len());
        for c in &duplicated {
            assert!(c.alpha <= c.beta);
        }
    }
}
