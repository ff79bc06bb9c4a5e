//! The prime field `GF(p)` with `p = 2^61 - 1` (a Mersenne prime).
//!
//! The paper only requires `|F| > 2n`; we pick a 61-bit Mersenne prime so that
//! field elements fit in a `u64`, products fit in a `u128`, and reduction is a
//! couple of shifts. All protocol values, shares and polynomial coefficients
//! are elements of this field.

use core::fmt;
use core::iter::{Product, Sum};
use core::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use rand::distributions::{Distribution, Standard};
use rand::Rng;

/// The field modulus `p = 2^61 - 1`.
pub const MODULUS: u64 = (1u64 << 61) - 1;

/// An element of the prime field `GF(2^61 - 1)`.
///
/// The canonical representative is always kept in `[0, p)`.
///
/// ```
/// use mpc_algebra::Fp;
/// let a = Fp::from_u64(7);
/// let b = Fp::from_u64(5);
/// assert_eq!((a + b).as_u64(), 12);
/// assert_eq!((a * b).as_u64(), 35);
/// assert_eq!(a * a.inverse().unwrap(), Fp::ONE);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Fp(u64);

impl Fp {
    /// The additive identity.
    pub const ZERO: Fp = Fp(0);
    /// The multiplicative identity.
    pub const ONE: Fp = Fp(1);

    /// Creates a field element from an arbitrary `u64`, reducing modulo `p`.
    #[inline]
    pub fn from_u64(v: u64) -> Self {
        Fp(v % MODULUS)
    }

    /// Creates a field element from an arbitrary `u128`, reducing modulo `p`.
    #[inline]
    pub fn from_u128(v: u128) -> Self {
        Fp(reduce128(v))
    }

    /// Returns the canonical representative in `[0, p)`.
    #[inline]
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// Returns `true` if this is the additive identity.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Modular exponentiation `self^exp`.
    pub fn pow(self, mut exp: u64) -> Self {
        let mut base = self;
        let mut acc = Fp::ONE;
        while exp > 0 {
            if exp & 1 == 1 {
                acc *= base;
            }
            base *= base;
            exp >>= 1;
        }
        acc
    }

    /// Multiplicative inverse, or `None` for zero.
    ///
    /// Computed as `self^(p-2)` (Fermat).
    pub fn inverse(self) -> Option<Self> {
        if self.is_zero() {
            None
        } else {
            Some(self.pow(MODULUS - 2))
        }
    }

    /// Inverts every non-zero element of `values` in place using Montgomery's
    /// batch-inversion trick: `k` inversions cost **one** field inversion plus
    /// `3k` multiplications, instead of `k` Fermat exponentiations (~120
    /// multiplications each). Zero entries are left unchanged (zero has no
    /// inverse), matching [`Fp::inverse`] returning `None` for them.
    ///
    /// ```
    /// use mpc_algebra::Fp;
    /// let mut v = [Fp::from_u64(3), Fp::ZERO, Fp::from_u64(7)];
    /// Fp::batch_inverse(&mut v);
    /// assert_eq!(v[0], Fp::from_u64(3).inverse().unwrap());
    /// assert_eq!(v[1], Fp::ZERO);
    /// assert_eq!(v[2], Fp::from_u64(7).inverse().unwrap());
    /// ```
    pub fn batch_inverse(values: &mut [Fp]) {
        // prefix[i] = product of the non-zero entries of values[..i]
        let mut prefix = Vec::with_capacity(values.len());
        let mut acc = Fp::ONE;
        for &v in values.iter() {
            prefix.push(acc);
            if !v.is_zero() {
                acc *= v;
            }
        }
        // `acc` is a product of non-zero elements, hence non-zero.
        let mut suffix_inv = acc.inverse().expect("product of non-zero elements");
        for i in (0..values.len()).rev() {
            if values[i].is_zero() {
                continue;
            }
            let v = values[i];
            values[i] = suffix_inv * prefix[i];
            suffix_inv *= v;
        }
    }

    /// `[1, x, x², …, x^{len−1}]` for `x = self`, in one allocation: the
    /// right-hand side of [`Fp::dot`] when it evaluates coefficients at `x`.
    pub fn powers(self, len: usize) -> Vec<Fp> {
        let mut power = Fp::ONE;
        let next = |_| {
            let current = power;
            power *= self;
            current
        };
        (0..len).map(next).collect()
    }

    /// `Σ a_k·b_k` over the common prefix of `a` and `b`, with lazy
    /// reduction: products are summed in a `u128` and reduced once per 32
    /// terms. With `b = x.powers(…)` this evaluates the polynomial with
    /// coefficients `a` (low to high) at `x`, at any degree.
    ///
    /// Up to 32 terms — every row of a sharing at `t_s < 32` — take one
    /// accumulation and one reduction, without the chunk loop.
    #[inline]
    pub fn dot(a: &[Fp], b: &[Fp]) -> Fp {
        let wide = |a: &[Fp], b: &[Fp], carry: u64| {
            let products = a
                .iter()
                .zip(b)
                .map(|(x, y)| u128::from(x.0) * u128::from(y.0));
            products.fold(u128::from(carry), |sum, product| sum + product)
        };
        if a.len().min(b.len()) <= DOT_CHUNK {
            return Fp(reduce128(wide(a, b, 0)));
        }
        let mut acc = 0;
        for (a, b) in a.chunks(DOT_CHUNK).zip(b.chunks(DOT_CHUNK)) {
            acc = reduce128(wide(a, b, acc));
        }
        Fp(acc)
    }

    /// Samples a uniformly random field element.
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        // Rejection sampling on 61 bits keeps the distribution exactly uniform.
        loop {
            let v = rng.gen::<u64>() & MODULUS;
            if v < MODULUS {
                return Fp(v);
            }
        }
    }
}

/// The terms [`Fp::dot`] sums before it reduces: each product of two
/// canonical elements is below `2^122`, so 32 of them plus a reduced carry
/// stay below `2^128`.
const DOT_CHUNK: usize = 32;

/// Fast reduction of a 128-bit value modulo the Mersenne prime `2^61 - 1`.
#[inline]
fn reduce128(v: u128) -> u64 {
    // Split into 61-bit limbs: v = hi·2^61 + lo ≡ hi + lo (mod 2^61 - 1).
    // `hi` may exceed 64 bits for arbitrary u128 inputs, so keep it in u128
    // and fold it once more before dropping to u64.
    let lo = (v as u64) & MODULUS;
    let hi = v >> 61;
    let hi_lo = (hi as u64) & MODULUS;
    let hi_hi = (hi >> 61) as u64;
    let mut r = lo + hi_lo + hi_hi;
    while r >= MODULUS {
        r -= MODULUS;
    }
    r
}

impl fmt::Debug for Fp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fp({})", self.0)
    }
}

impl fmt::Display for Fp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u64> for Fp {
    fn from(v: u64) -> Self {
        Fp::from_u64(v)
    }
}

impl From<u32> for Fp {
    fn from(v: u32) -> Self {
        Fp::from_u64(v as u64)
    }
}

impl Add for Fp {
    type Output = Fp;
    #[inline]
    fn add(self, rhs: Fp) -> Fp {
        let mut s = self.0 + rhs.0;
        if s >= MODULUS {
            s -= MODULUS;
        }
        Fp(s)
    }
}

impl Sub for Fp {
    type Output = Fp;
    #[inline]
    fn sub(self, rhs: Fp) -> Fp {
        if self.0 >= rhs.0 {
            Fp(self.0 - rhs.0)
        } else {
            Fp(self.0 + MODULUS - rhs.0)
        }
    }
}

impl Mul for Fp {
    type Output = Fp;
    #[inline]
    fn mul(self, rhs: Fp) -> Fp {
        Fp(reduce128(self.0 as u128 * rhs.0 as u128))
    }
}

impl Div for Fp {
    type Output = Fp;
    /// # Panics
    /// Panics if `rhs` is zero.
    #[inline]
    // Field division *is* multiplication by the inverse.
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn div(self, rhs: Fp) -> Fp {
        self * rhs.inverse().expect("division by zero in Fp")
    }
}

impl Neg for Fp {
    type Output = Fp;
    #[inline]
    fn neg(self) -> Fp {
        if self.0 == 0 {
            self
        } else {
            Fp(MODULUS - self.0)
        }
    }
}

impl AddAssign for Fp {
    fn add_assign(&mut self, rhs: Fp) {
        *self = *self + rhs;
    }
}
impl SubAssign for Fp {
    fn sub_assign(&mut self, rhs: Fp) {
        *self = *self - rhs;
    }
}
impl MulAssign for Fp {
    fn mul_assign(&mut self, rhs: Fp) {
        *self = *self * rhs;
    }
}
impl DivAssign for Fp {
    fn div_assign(&mut self, rhs: Fp) {
        *self = *self / rhs;
    }
}

impl Sum for Fp {
    fn sum<I: Iterator<Item = Fp>>(iter: I) -> Fp {
        iter.fold(Fp::ZERO, |a, b| a + b)
    }
}

impl<'a> Sum<&'a Fp> for Fp {
    fn sum<I: Iterator<Item = &'a Fp>>(iter: I) -> Fp {
        iter.fold(Fp::ZERO, |a, b| a + *b)
    }
}

impl Product for Fp {
    fn product<I: Iterator<Item = Fp>>(iter: I) -> Fp {
        iter.fold(Fp::ONE, |a, b| a * b)
    }
}

impl Distribution<Fp> for Standard {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Fp {
        Fp::random(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn arb_fp() -> impl Strategy<Value = Fp> {
        any::<u64>().prop_map(Fp::from_u64)
    }

    #[test]
    fn constants() {
        assert_eq!(Fp::ZERO.as_u64(), 0);
        assert_eq!(Fp::ONE.as_u64(), 1);
        assert_eq!(MODULUS, 2305843009213693951);
    }

    #[test]
    fn add_wraps() {
        let a = Fp::from_u64(MODULUS - 1);
        assert_eq!((a + Fp::ONE), Fp::ZERO);
        assert_eq!((a + Fp::from_u64(5)).as_u64(), 4);
    }

    #[test]
    fn sub_wraps() {
        assert_eq!((Fp::ZERO - Fp::ONE).as_u64(), MODULUS - 1);
    }

    #[test]
    fn neg_zero_is_zero() {
        assert_eq!(-Fp::ZERO, Fp::ZERO);
    }

    #[test]
    fn mul_large_values() {
        let a = Fp::from_u64(MODULUS - 1);
        // (p-1)^2 = p^2 - 2p + 1 ≡ 1 (mod p)
        assert_eq!(a * a, Fp::ONE);
    }

    #[test]
    fn inverse_of_zero_is_none() {
        assert!(Fp::ZERO.inverse().is_none());
    }

    #[test]
    fn division_matches_inverse() {
        let a = Fp::from_u64(123456789);
        let b = Fp::from_u64(987654321);
        assert_eq!(a / b * b, a);
    }

    #[test]
    fn pow_edge_cases() {
        let a = Fp::from_u64(42);
        assert_eq!(a.pow(0), Fp::ONE);
        assert_eq!(a.pow(1), a);
        assert_eq!(a.pow(MODULUS - 1), Fp::ONE); // Fermat's little theorem
    }

    #[test]
    fn random_is_in_range() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let x = Fp::random(&mut rng);
            assert!(x.as_u64() < MODULUS);
        }
    }

    #[test]
    fn batch_inverse_handles_zeros_and_empty() {
        let mut empty: [Fp; 0] = [];
        Fp::batch_inverse(&mut empty);
        let mut zeros = [Fp::ZERO, Fp::ZERO];
        Fp::batch_inverse(&mut zeros);
        assert_eq!(zeros, [Fp::ZERO, Fp::ZERO]);
        let mut mixed = [Fp::ZERO, Fp::from_u64(5), Fp::ZERO, Fp::from_u64(9)];
        Fp::batch_inverse(&mut mixed);
        assert_eq!(mixed[0], Fp::ZERO);
        assert_eq!(mixed[1], Fp::from_u64(5).inverse().unwrap());
        assert_eq!(mixed[2], Fp::ZERO);
        assert_eq!(mixed[3], Fp::from_u64(9).inverse().unwrap());
    }

    #[test]
    fn dot_of_the_largest_products_never_overflows() {
        // (p − 1)² ≡ 1, so len such products sum to len; each is just under
        // 2^122, and a chunk of more than 64 of them would overflow a u128.
        let top = Fp::from_u64(MODULUS - 1);
        for len in [0, 1, 31, 32, 33, 63, 64, 65, 127, 128, 129, 131] {
            let v = vec![top; len];
            assert_eq!(Fp::dot(&v, &v), Fp::from_u64(len as u64), "{len} terms");
        }
        let mut rng = StdRng::seed_from_u64(8);
        let a: Vec<Fp> = (0..100).map(|_| Fp::random(&mut rng)).collect();
        let b: Vec<Fp> = (0..70).map(|_| Fp::random(&mut rng)).collect();
        let naive: Fp = a.iter().zip(&b).map(|(&x, &y)| x * y).sum();
        assert_eq!(Fp::dot(&a, &b), naive, "the common prefix");
        assert_eq!(Fp::dot(&b, &a), naive);
    }

    #[test]
    fn sum_and_product_impls() {
        let xs = [Fp::from_u64(1), Fp::from_u64(2), Fp::from_u64(3)];
        let s: Fp = xs.iter().sum();
        let p: Fp = xs.iter().copied().product();
        assert_eq!(s.as_u64(), 6);
        assert_eq!(p.as_u64(), 6);
    }

    proptest! {
        #[test]
        fn prop_add_commutative(a in arb_fp(), b in arb_fp()) {
            prop_assert_eq!(a + b, b + a);
        }

        #[test]
        fn prop_add_associative(a in arb_fp(), b in arb_fp(), c in arb_fp()) {
            prop_assert_eq!((a + b) + c, a + (b + c));
        }

        #[test]
        fn prop_mul_commutative(a in arb_fp(), b in arb_fp()) {
            prop_assert_eq!(a * b, b * a);
        }

        #[test]
        fn prop_mul_associative(a in arb_fp(), b in arb_fp(), c in arb_fp()) {
            prop_assert_eq!((a * b) * c, a * (b * c));
        }

        #[test]
        fn prop_distributive(a in arb_fp(), b in arb_fp(), c in arb_fp()) {
            prop_assert_eq!(a * (b + c), a * b + a * c);
        }

        #[test]
        fn prop_add_sub_roundtrip(a in arb_fp(), b in arb_fp()) {
            prop_assert_eq!(a + b - b, a);
        }

        #[test]
        fn prop_inverse(a in arb_fp()) {
            if !a.is_zero() {
                prop_assert_eq!(a * a.inverse().unwrap(), Fp::ONE);
            }
        }

        #[test]
        fn prop_neg_is_additive_inverse(a in arb_fp()) {
            prop_assert_eq!(a + (-a), Fp::ZERO);
        }

        #[test]
        fn prop_batch_inverse_matches_per_element(
            vs in proptest::collection::vec(any::<u64>(), 0..40),
        ) {
            let mut batch: Vec<Fp> = vs.iter().map(|&v| Fp::from_u64(v)).collect();
            Fp::batch_inverse(&mut batch);
            for (&v, &inv) in vs.iter().zip(&batch) {
                let x = Fp::from_u64(v);
                prop_assert_eq!(inv, x.inverse().unwrap_or(Fp::ZERO));
            }
        }

        #[test]
        fn prop_from_u128_consistent(a in any::<u64>(), b in any::<u64>()) {
            let prod = Fp::from_u128(a as u128 * b as u128);
            prop_assert_eq!(prod, Fp::from_u64(a) * Fp::from_u64(b));
        }
    }
}
