//! Exact rational arithmetic used for throughputs, periods and cycle ratios.
//!
//! All analyses in this workspace compare periods and throughputs *exactly*;
//! floating point would make the Theorem-4 optimality test of the K-Iter
//! algorithm unreliable. [`Rational`] is a reduced fraction of two `i128`
//! values with checked arithmetic: overflow is reported through
//! [`RationalError`] instead of panicking or wrapping.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// Error raised by checked rational constructors and arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RationalError {
    /// The denominator of a fraction was zero.
    ZeroDenominator,
    /// An intermediate product or sum exceeded the `i128` range.
    Overflow,
}

impl fmt::Display for RationalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RationalError::ZeroDenominator => write!(f, "zero denominator in rational"),
            RationalError::Overflow => write!(f, "rational arithmetic overflow"),
        }
    }
}

impl std::error::Error for RationalError {}

/// Greatest common divisor of two `i128` values (by absolute value).
///
/// `gcd_i128(0, 0) == 0` by convention. See [`gcd_u128`] for the kernel.
#[inline]
pub fn gcd_i128(a: i128, b: i128) -> i128 {
    gcd_u128(a.unsigned_abs(), b.unsigned_abs()) as i128
}

/// Width-specialised Euclid GCD on `u128` (`gcd_u128(0, 0) == 0`).
///
/// 128-bit divisions (a `__udivti3` library call) run only while an operand
/// exceeds `u64`; the loop then drops to hardware 64-bit division, which the
/// `benches/rational` head-to-head shows beating both the plain `u128`
/// Euclid loop and a binary (Stein) GCD on solver-shaped operands — the
/// fractions the MCR hot paths reduce have products of small event-graph
/// denominators for operands, where Euclid converges in a handful of
/// divisions while Stein pays one iteration per bit.
#[inline]
pub fn gcd_u128(mut a: u128, mut b: u128) -> u128 {
    while b > u64::MAX as u128 {
        let r = a % b;
        a = b;
        b = r;
    }
    if b == 0 {
        return a;
    }
    // `a mod b < b ≤ u64::MAX`: the rest runs on hardware division.
    let narrow = gcd_u64((a % b) as u64, b as u64);
    narrow as u128
}

/// Greatest common divisor of two `u64` values (`gcd_u64(0, 0) == 0`),
/// Euclid over hardware division (see [`gcd_u128`] for why not Stein).
#[inline]
pub fn gcd_u64(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let r = a % b;
        a = b;
        b = r;
    }
    a
}

/// Least common multiple of two `u64` values with overflow checking.
///
/// # Errors
///
/// Returns [`RationalError::Overflow`] if the result does not fit in `u64`.
pub fn lcm_u64(a: u64, b: u64) -> Result<u64, RationalError> {
    if a == 0 || b == 0 {
        return Ok(0);
    }
    let g = gcd_u64(a, b);
    (a / g).checked_mul(b).ok_or(RationalError::Overflow)
}

/// An exact, always-reduced fraction `num / den` with `den > 0`.
///
/// # Examples
///
/// ```
/// use csdf::Rational;
///
/// let a = Rational::new(3, 4)?;
/// let b = Rational::new(1, 4)?;
/// assert_eq!((a + b)?, Rational::from_integer(1));
/// assert!(a > b);
/// # Ok::<(), csdf::RationalError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rational {
    num: i128,
    den: i128,
}

impl Rational {
    /// The rational number zero.
    pub const ZERO: Rational = Rational { num: 0, den: 1 };
    /// The rational number one.
    pub const ONE: Rational = Rational { num: 1, den: 1 };

    /// Creates a reduced rational from a numerator and a denominator.
    ///
    /// # Errors
    ///
    /// Returns [`RationalError::ZeroDenominator`] if `den == 0`.
    pub fn new(num: i128, den: i128) -> Result<Self, RationalError> {
        if den == 0 {
            return Err(RationalError::ZeroDenominator);
        }
        Ok(Self::reduced(num, den))
    }

    /// Creates a rational from an integer value.
    pub fn from_integer(value: i128) -> Self {
        Rational { num: value, den: 1 }
    }

    /// Rebuilds a rational from the parts of a reduced one — a
    /// [`Rational::numer`] / [`Rational::denom`] pair kept apart — without
    /// the gcd that [`Rational::new`] pays. Not part of the public API:
    /// it serves crates that store reduced parts column-wise.
    ///
    /// The caller vouches that the parts have no common factor, which only a
    /// debug build checks; parts with one make a value that compares unequal
    /// to the same number built by [`Rational::new`].
    ///
    /// # Panics
    ///
    /// Panics if `den <= 0`.
    #[doc(hidden)]
    pub fn from_reduced_parts(num: i128, den: i128) -> Self {
        assert!(den > 0, "denominator {den} is not positive");
        debug_assert!(gcd_i128(num, den) == 1, "{num}/{den} is not reduced");
        Rational { num, den }
    }

    fn reduced(num: i128, den: i128) -> Self {
        debug_assert!(den != 0);
        if num == 0 {
            return Rational { num: 0, den: 1 };
        }
        // Divide first and move the sign onto the numerator after: a
        // numerator of `i128::MIN` over a positive denominator has no
        // absolute value, yet is a reduced fraction.
        let g = gcd_i128(num, den);
        let (num, den) = (num / g, den / g);
        if den < 0 {
            Rational {
                num: -num,
                den: -den,
            }
        } else {
            Rational { num, den }
        }
    }

    /// `true` when both components fit in `i64`: products of two such values
    /// cannot overflow `i128`, so arithmetic on them needs no checked
    /// operations and no pre-reduction. Reduced fractions built from
    /// event-graph quantities (durations, `−β/(i_b·q_t)` times) live here.
    #[inline]
    fn in_i64_range(&self) -> bool {
        const MAX: i128 = i64::MAX as i128;
        self.num >= -MAX && self.num <= MAX && self.den <= MAX
    }

    /// Numerator of the reduced fraction (carries the sign).
    pub fn numer(&self) -> i128 {
        self.num
    }

    /// Denominator of the reduced fraction (always positive).
    pub fn denom(&self) -> i128 {
        self.den
    }

    /// Returns `true` if the value is exactly zero.
    pub fn is_zero(&self) -> bool {
        self.num == 0
    }

    /// Returns `true` if the value is strictly positive.
    pub fn is_positive(&self) -> bool {
        self.num > 0
    }

    /// Returns `true` if the value is strictly negative.
    pub fn is_negative(&self) -> bool {
        self.num < 0
    }

    /// Multiplicative inverse.
    ///
    /// # Errors
    ///
    /// Returns [`RationalError::ZeroDenominator`] when inverting zero.
    pub fn recip(&self) -> Result<Rational, RationalError> {
        Rational::new(self.den, self.num)
    }

    /// Checked addition.
    ///
    /// # Errors
    ///
    /// Returns [`RationalError::Overflow`] on `i128` overflow.
    pub fn checked_add(&self, other: &Rational) -> Result<Rational, RationalError> {
        // Fast lane: with i64-magnitude components every product fits i128
        // and the sum of two such products fits as well, so skip the
        // denominator pre-reduction and checked arithmetic entirely and
        // reduce once at the end (one GCD instead of two).
        if self.in_i64_range() && other.in_i64_range() {
            let num = self.num * other.den + other.num * self.den;
            let den = self.den * other.den;
            return Ok(Self::reduced(num, den));
        }
        let g = gcd_i128(self.den, other.den);
        let lhs_scale = other.den / g;
        let rhs_scale = self.den / g;
        let num = self
            .num
            .checked_mul(lhs_scale)
            .and_then(|a| {
                other
                    .num
                    .checked_mul(rhs_scale)
                    .and_then(|b| a.checked_add(b))
            })
            .ok_or(RationalError::Overflow)?;
        let den = self
            .den
            .checked_mul(lhs_scale)
            .ok_or(RationalError::Overflow)?;
        Ok(Self::reduced(num, den))
    }

    /// Checked subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`RationalError::Overflow`] on `i128` overflow.
    pub fn checked_sub(&self, other: &Rational) -> Result<Rational, RationalError> {
        self.checked_add(&other.checked_neg()?)
    }

    /// Checked negation.
    ///
    /// # Errors
    ///
    /// Returns [`RationalError::Overflow`] when negating `i128::MIN`.
    pub fn checked_neg(&self) -> Result<Rational, RationalError> {
        let num = self.num.checked_neg().ok_or(RationalError::Overflow)?;
        Ok(Rational { num, den: self.den })
    }

    /// Checked multiplication.
    ///
    /// # Errors
    ///
    /// Returns [`RationalError::Overflow`] on `i128` overflow.
    pub fn checked_mul(&self, other: &Rational) -> Result<Rational, RationalError> {
        // Fast lane, as in `checked_add`: i64-magnitude operands cannot
        // overflow an i128 product, so multiply straight through and reduce
        // once instead of running the two cross-GCDs first.
        if self.in_i64_range() && other.in_i64_range() {
            let num = self.num * other.num;
            let den = self.den * other.den;
            return Ok(Self::reduced(num, den));
        }
        // Cross-reduce before multiplying to keep intermediates small.
        let g1 = gcd_i128(self.num, other.den);
        let g2 = gcd_i128(other.num, self.den);
        let (a, d) = (self.num / g1, other.den / g1);
        let (c, b) = (other.num / g2, self.den / g2);
        let num = a.checked_mul(c).ok_or(RationalError::Overflow)?;
        let den = b.checked_mul(d).ok_or(RationalError::Overflow)?;
        Ok(Self::reduced(num, den))
    }

    /// Checked division.
    ///
    /// # Errors
    ///
    /// Returns [`RationalError::ZeroDenominator`] when dividing by zero and
    /// [`RationalError::Overflow`] on `i128` overflow.
    pub fn checked_div(&self, other: &Rational) -> Result<Rational, RationalError> {
        self.checked_mul(&other.recip()?)
    }

    /// Returns the smaller of two rationals.
    pub fn min(self, other: Rational) -> Rational {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Returns the larger of two rationals.
    pub fn max(self, other: Rational) -> Rational {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Approximate `f64` value, for reporting only.
    pub fn to_f64(&self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// Sums an iterator of rationals without reducing intermediate results,
    /// reducing exactly once at the end.
    ///
    /// The accumulator keeps an unreduced `num/den` pair; each step is two
    /// multiplications and an addition — no GCD. When an intermediate would
    /// overflow `i128` the accumulator is reduced once and the step retried,
    /// so the helper is exact on everything the fully-reduced fold accepts.
    /// This is the solvers' preferred way of forming circuit cost/time sums.
    ///
    /// # Errors
    ///
    /// Returns [`RationalError::Overflow`] if the sum overflows `i128` even
    /// after reduction.
    pub fn sum_unreduced<'a, I>(terms: I) -> Result<Rational, RationalError>
    where
        I: IntoIterator<Item = &'a Rational>,
    {
        let mut sum = RationalSum::new();
        for term in terms {
            sum.add(term)?;
        }
        Ok(sum.finish())
    }
}

/// Unreduced rational accumulator behind [`Rational::sum_unreduced`]:
/// GCD-free additions, one reduction at the end ([`RationalSum::finish`]).
#[derive(Debug, Clone, Copy)]
pub struct RationalSum {
    num: i128,
    den: i128,
}

impl Default for RationalSum {
    fn default() -> Self {
        RationalSum::new()
    }
}

impl RationalSum {
    /// Creates an accumulator holding zero.
    pub fn new() -> Self {
        RationalSum { num: 0, den: 1 }
    }

    /// Adds one term without reducing.
    ///
    /// # Errors
    ///
    /// Returns [`RationalError::Overflow`] if the term cannot be folded in
    /// even after reducing the accumulator.
    pub fn add(&mut self, term: &Rational) -> Result<(), RationalError> {
        if self.add_step(term).is_ok() {
            return Ok(());
        }
        // Reduce the accumulator once and retry before giving up.
        let reduced = self.finish();
        self.num = reduced.num;
        self.den = reduced.den;
        self.add_step(term)
    }

    fn add_step(&mut self, term: &Rational) -> Result<(), RationalError> {
        let num = self
            .num
            .checked_mul(term.den)
            .and_then(|a| {
                term.num
                    .checked_mul(self.den)
                    .and_then(|b| a.checked_add(b))
            })
            .ok_or(RationalError::Overflow)?;
        let den = self
            .den
            .checked_mul(term.den)
            .ok_or(RationalError::Overflow)?;
        self.num = num;
        self.den = den;
        Ok(())
    }

    /// The reduced value of the sum so far (the accumulator keeps running).
    pub fn finish(&self) -> Rational {
        Rational::reduced(self.num, self.den)
    }
}

impl Default for Rational {
    fn default() -> Self {
        Rational::ZERO
    }
}

impl From<i64> for Rational {
    fn from(value: i64) -> Self {
        Rational::from_integer(value as i128)
    }
}

impl From<u64> for Rational {
    fn from(value: u64) -> Self {
        Rational::from_integer(value as i128)
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Self) -> Ordering {
        // Compare a/b and c/d by comparing a*d and c*b; reduce first to limit
        // the magnitude of the products, then fall back to f64 ordering only
        // if i128 overflows (which cannot happen after reduction because both
        // fractions fit in i128 and share no common factors > 1 with the
        // opposite denominator in the common case; the checked path keeps us
        // honest anyway).
        let lhs = self.num.checked_mul(other.den);
        let rhs = other.num.checked_mul(self.den);
        match (lhs, rhs) {
            (Some(l), Some(r)) => l.cmp(&r),
            _ => self
                .to_f64()
                .partial_cmp(&other.to_f64())
                .unwrap_or(Ordering::Equal),
        }
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

// Operator impls return `Result` through the checked methods; panicking
// operators are intentionally not provided for `Rational` itself. For
// ergonomic in-crate use, `Add`/`Sub`/`Mul`/`Div` are implemented returning
// `Result`.

impl Add for Rational {
    type Output = Result<Rational, RationalError>;
    fn add(self, rhs: Rational) -> Self::Output {
        self.checked_add(&rhs)
    }
}

impl Sub for Rational {
    type Output = Result<Rational, RationalError>;
    fn sub(self, rhs: Rational) -> Self::Output {
        self.checked_sub(&rhs)
    }
}

impl Mul for Rational {
    type Output = Result<Rational, RationalError>;
    fn mul(self, rhs: Rational) -> Self::Output {
        self.checked_mul(&rhs)
    }
}

impl Div for Rational {
    type Output = Result<Rational, RationalError>;
    fn div(self, rhs: Rational) -> Self::Output {
        self.checked_div(&rhs)
    }
}

impl Neg for Rational {
    type Output = Result<Rational, RationalError>;
    fn neg(self) -> Self::Output {
        self.checked_neg()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduces_on_construction() {
        let r = Rational::new(6, 4).unwrap();
        assert_eq!(r.numer(), 3);
        assert_eq!(r.denom(), 2);
    }

    #[test]
    fn sign_is_carried_by_numerator() {
        let r = Rational::new(3, -6).unwrap();
        assert_eq!(r.numer(), -1);
        assert_eq!(r.denom(), 2);
        let r = Rational::new(-3, -6).unwrap();
        assert_eq!(r.numer(), 1);
        assert_eq!(r.denom(), 2);
    }

    #[test]
    fn the_most_negative_numerator_reduces() {
        assert_eq!(
            Rational::new(i128::MIN, 1),
            Ok(Rational::from_integer(i128::MIN))
        );
        assert_eq!(
            Rational::new(i128::MIN, 6),
            Ok(Rational::from_reduced_parts(i128::MIN / 2, 3))
        );
        let mut sum = RationalSum::new();
        sum.add(&Rational::from_integer(-i128::MAX)).unwrap();
        sum.add(&Rational::from_integer(-1)).unwrap();
        assert_eq!(sum.finish(), Rational::from_integer(i128::MIN));
    }

    #[test]
    #[should_panic(expected = "not positive")]
    fn reduced_parts_refuse_a_non_positive_denominator() {
        let _ = Rational::from_reduced_parts(1, -2);
    }

    #[test]
    fn zero_denominator_is_an_error() {
        assert_eq!(Rational::new(1, 0), Err(RationalError::ZeroDenominator));
    }

    #[test]
    fn zero_is_canonical() {
        let r = Rational::new(0, 17).unwrap();
        assert_eq!(r, Rational::ZERO);
        assert_eq!(r.denom(), 1);
        assert!(r.is_zero());
    }

    #[test]
    fn addition_and_subtraction() {
        let a = Rational::new(1, 3).unwrap();
        let b = Rational::new(1, 6).unwrap();
        assert_eq!((a + b).unwrap(), Rational::new(1, 2).unwrap());
        assert_eq!((a - b).unwrap(), Rational::new(1, 6).unwrap());
    }

    #[test]
    fn multiplication_and_division() {
        let a = Rational::new(2, 3).unwrap();
        let b = Rational::new(9, 4).unwrap();
        assert_eq!((a * b).unwrap(), Rational::new(3, 2).unwrap());
        assert_eq!((a / b).unwrap(), Rational::new(8, 27).unwrap());
    }

    #[test]
    fn division_by_zero_is_an_error() {
        let a = Rational::ONE;
        assert_eq!((a / Rational::ZERO), Err(RationalError::ZeroDenominator));
    }

    #[test]
    fn ordering_is_exact() {
        let a = Rational::new(1, 3).unwrap();
        let b = Rational::new(333_333_333, 1_000_000_000).unwrap();
        assert!(b < a);
        assert!(a > b);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn recip_swaps_numerator_and_denominator() {
        let a = Rational::new(-2, 5).unwrap();
        assert_eq!(a.recip().unwrap(), Rational::new(-5, 2).unwrap());
        assert_eq!(Rational::ZERO.recip(), Err(RationalError::ZeroDenominator));
    }

    #[test]
    fn overflow_is_reported() {
        let big = Rational::from_integer(i128::MAX);
        assert_eq!(big.checked_mul(&big), Err(RationalError::Overflow));
        assert_eq!(big.checked_add(&big), Err(RationalError::Overflow));
    }

    #[test]
    fn gcd_and_lcm_helpers() {
        assert_eq!(gcd_u64(12, 18), 6);
        assert_eq!(gcd_u64(0, 7), 7);
        assert_eq!(gcd_u64(0, 0), 0);
        assert_eq!(lcm_u64(4, 6).unwrap(), 12);
        assert_eq!(lcm_u64(0, 6).unwrap(), 0);
        assert!(lcm_u64(u64::MAX, u64::MAX - 1).is_err());
        assert_eq!(gcd_i128(-12, 18), 6);
    }

    #[test]
    fn width_specialised_gcd_matches_plain_euclid_on_random_operands() {
        fn euclid(mut a: u128, mut b: u128) -> u128 {
            while b != 0 {
                let r = a % b;
                a = b;
                b = r;
            }
            a
        }
        let mut state = 0x1234_5678_9abc_def1u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..2_000 {
            let a = (next() as u128) << (next() % 5) | next() as u128;
            let b = (next() as u128) << (next() % 5) | next() as u128;
            assert_eq!(gcd_u128(a, b), euclid(a, b), "a={a} b={b}");
            let (x, y) = (a as u64, b as u64);
            assert_eq!(gcd_u64(x, y), euclid(x as u128, y as u128) as u64);
        }
        assert_eq!(gcd_u128(0, 0), 0);
        assert_eq!(gcd_u128(0, 42), 42);
        assert_eq!(gcd_u128(42, 0), 42);
        assert_eq!(gcd_i128(i128::MIN, 2), 2);
    }

    #[test]
    fn fast_lane_and_slow_lane_agree() {
        // Values straddling the i64 boundary exercise both lanes.
        let big = Rational::new(i64::MAX as i128 * 3, 7).unwrap();
        let small = Rational::new(-5, 9).unwrap();
        let slow = {
            // Slow lane reference computed via the generic formula.
            let num = big.numer() * small.denom() + small.numer() * big.denom();
            let den = big.denom() * small.denom();
            Rational::new(num, den).unwrap()
        };
        assert_eq!(big.checked_add(&small).unwrap(), slow);
        assert_eq!(
            small.checked_mul(&small).unwrap(),
            Rational::new(25, 81).unwrap()
        );
    }

    #[test]
    fn unreduced_sum_matches_reduced_fold() {
        let terms = [
            Rational::new(1, 3).unwrap(),
            Rational::new(-2, 5).unwrap(),
            Rational::new(7, 15).unwrap(),
            Rational::from_integer(4),
        ];
        let folded = terms
            .iter()
            .try_fold(Rational::ZERO, |acc, t| acc.checked_add(t))
            .unwrap();
        assert_eq!(Rational::sum_unreduced(terms.iter()).unwrap(), folded);

        // Overflow-pressure case: denominators whose unreduced product blows
        // past i128 forces the mid-flight reduction path.
        let huge = Rational::new(1, i64::MAX as i128).unwrap();
        let many = [huge; 6];
        let folded = many
            .iter()
            .try_fold(Rational::ZERO, |acc, t| acc.checked_add(t))
            .unwrap();
        assert_eq!(Rational::sum_unreduced(many.iter()).unwrap(), folded);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Rational::new(3, 2).unwrap().to_string(), "3/2");
        assert_eq!(Rational::from_integer(5).to_string(), "5");
    }

    #[test]
    fn conversion_from_primitive_integers() {
        assert_eq!(Rational::from(4u64), Rational::from_integer(4));
        assert_eq!(Rational::from(-4i64), Rational::from_integer(-4));
    }
}
