//! Univariate polynomials over [`Fp`] with evaluation and Lagrange
//! interpolation.
//!
//! These are the `d`-degree polynomials of Definition 2.3 (`d`-sharing): a
//! sharing polynomial `f_s(·)` with `f_s(0) = s` whose evaluations at the
//! party points `α_i` are the shares.

use rand::Rng;

use crate::field::Fp;

/// A univariate polynomial over `GF(2^61-1)` stored by its coefficients
/// (`coeffs[k]` is the coefficient of `x^k`).
///
/// The zero polynomial is represented by an empty coefficient vector.
///
/// ```
/// use mpc_algebra::{Fp, Polynomial};
/// // f(x) = 3 + 2x
/// let f = Polynomial::from_coeffs(vec![Fp::from_u64(3), Fp::from_u64(2)]);
/// assert_eq!(f.evaluate(Fp::from_u64(10)).as_u64(), 23);
/// assert_eq!(f.degree(), 1);
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Polynomial {
    coeffs: Vec<Fp>,
}

impl Polynomial {
    /// The zero polynomial.
    pub fn zero() -> Self {
        Polynomial { coeffs: Vec::new() }
    }

    /// The constant polynomial `f(x) = c`.
    pub fn constant(c: Fp) -> Self {
        if c.is_zero() {
            Self::zero()
        } else {
            Polynomial { coeffs: vec![c] }
        }
    }

    /// Builds a polynomial from coefficients (`coeffs[k]` multiplies `x^k`).
    /// Trailing zero coefficients are trimmed.
    pub fn from_coeffs(coeffs: Vec<Fp>) -> Self {
        let mut p = Polynomial { coeffs };
        p.trim();
        p
    }

    /// Samples a uniformly random polynomial of degree **exactly at most**
    /// `degree` with the given constant term (`f(0) = constant_term`).
    ///
    /// This is the standard way the dealer embeds a secret into a `d`-degree
    /// sharing polynomial.
    pub fn random_with_constant_term<R: Rng + ?Sized>(
        rng: &mut R,
        degree: usize,
        constant_term: Fp,
    ) -> Self {
        let mut coeffs = Vec::with_capacity(degree + 1);
        coeffs.push(constant_term);
        for _ in 0..degree {
            coeffs.push(Fp::random(rng));
        }
        Polynomial::from_coeffs(coeffs)
    }

    /// Samples a uniformly random polynomial of degree at most `degree`.
    pub fn random<R: Rng + ?Sized>(rng: &mut R, degree: usize) -> Self {
        let coeffs = (0..=degree).map(|_| Fp::random(rng)).collect();
        Polynomial::from_coeffs(coeffs)
    }

    /// The coefficients of the polynomial (low to high degree).
    pub fn coeffs(&self) -> &[Fp] {
        &self.coeffs
    }

    /// Degree of the polynomial; the zero polynomial has degree 0 by
    /// convention here (it never matters for the protocols, which only check
    /// upper bounds).
    pub fn degree(&self) -> usize {
        self.coeffs.len().saturating_sub(1)
    }

    /// Returns `true` if this is the zero polynomial.
    pub fn is_zero(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// Evaluates the polynomial at `x` (Horner's rule).
    pub fn evaluate(&self, x: Fp) -> Fp {
        let mut acc = Fp::ZERO;
        for &c in self.coeffs.iter().rev() {
            acc = acc * x + c;
        }
        acc
    }

    /// The constant term `f(0)` — the shared secret in a sharing polynomial.
    pub fn constant_term(&self) -> Fp {
        self.coeffs.first().copied().unwrap_or(Fp::ZERO)
    }

    /// Lagrange-interpolates the unique polynomial of degree `< points.len()`
    /// passing through the given `(x, y)` pairs.
    ///
    /// Runs in `O(n²)` field multiplications and **one** inversion: the
    /// master polynomial `M(x) = ∏(x − x_i)` is built once, each numerator
    /// `∏_{j≠i}(x − x_j)` is peeled off by synthetic division, and the
    /// denominators `M′(x_i) = ∏_{j≠i}(x_i − x_j)` are inverted together via
    /// [`Fp::batch_inverse`]. (`tests/algebra_equivalence.rs` pins it to the
    /// textbook `O(n³)` form.)
    ///
    /// # Panics
    ///
    /// Panics if two interpolation points share the same `x` coordinate or if
    /// `points` is empty.
    pub fn interpolate(points: &[(Fp, Fp)]) -> Self {
        assert!(!points.is_empty(), "cannot interpolate zero points");
        let n = points.len();
        let xs: Vec<Fp> = points.iter().map(|&(x, _)| x).collect();
        let master = master_polynomial(xs.iter().copied());
        let (numerators, mut denoms) = numerator_rows(&master, &xs);
        assert!(
            denoms.iter().all(|d| !d.is_zero()),
            "duplicate x coordinate in interpolation"
        );
        Fp::batch_inverse(&mut denoms);
        let mut result = vec![Fp::ZERO; n];
        for ((row, &(_, yi)), &dinv) in numerators.chunks_exact(n).zip(points.iter()).zip(&denoms) {
            let scale = yi * dinv;
            for (r, &q) in result.iter_mut().zip(row) {
                *r += q * scale;
            }
        }
        Polynomial::from_coeffs(result)
    }

    /// Computes the Lagrange coefficients `λ_i` such that for every polynomial
    /// `f` of degree `< xs.len()`, `f(target) = Σ_i λ_i · f(xs[i])`.
    ///
    /// This is the "publicly known Lagrange linear function" used by
    /// `Π_TripTrans` / `Π_TripExt` to compute new shared points on a
    /// polynomial by a local linear combination of old shared points.
    ///
    /// The numerators `∏_{j≠i}(target − x_j)` come from prefix/suffix
    /// products (`O(n)`), the denominators `∏_{j≠i}(x_i − x_j)` from the
    /// master-polynomial derivative, and all inversions are batched — one
    /// field inversion total instead of one per coefficient.
    ///
    /// # Panics
    ///
    /// Panics if `xs` contains duplicates or is empty.
    pub fn lagrange_coefficients(xs: &[Fp], target: Fp) -> Vec<Fp> {
        assert!(!xs.is_empty(), "need at least one evaluation point");
        let n = xs.len();
        let master = master_polynomial(xs.iter().copied());
        let deriv = derivative_coeffs(&master);
        let mut denoms: Vec<Fp> = xs.iter().map(|&x| horner(&deriv, x)).collect();
        assert!(
            denoms.iter().all(|d| !d.is_zero()),
            "duplicate x coordinate"
        );
        Fp::batch_inverse(&mut denoms);
        // prefix[i] = ∏_{j<i}(target − x_j), suffix = running ∏_{j>i}.
        let mut prefix = Vec::with_capacity(n);
        let mut acc = Fp::ONE;
        for &x in xs {
            prefix.push(acc);
            acc *= target - x;
        }
        let mut coeffs = vec![Fp::ZERO; n];
        let mut suffix = Fp::ONE;
        for i in (0..n).rev() {
            coeffs[i] = prefix[i] * suffix * denoms[i];
            suffix *= target - xs[i];
        }
        coeffs
    }

    /// Adds two polynomials.
    pub fn add(&self, other: &Polynomial) -> Polynomial {
        let len = self.coeffs.len().max(other.coeffs.len());
        let mut coeffs = vec![Fp::ZERO; len];
        for (k, c) in coeffs.iter_mut().enumerate() {
            let a = self.coeffs.get(k).copied().unwrap_or(Fp::ZERO);
            let b = other.coeffs.get(k).copied().unwrap_or(Fp::ZERO);
            *c = a + b;
        }
        Polynomial::from_coeffs(coeffs)
    }

    /// Subtracts `other` from `self`.
    pub fn sub(&self, other: &Polynomial) -> Polynomial {
        let len = self.coeffs.len().max(other.coeffs.len());
        let mut coeffs = vec![Fp::ZERO; len];
        for (k, c) in coeffs.iter_mut().enumerate() {
            let a = self.coeffs.get(k).copied().unwrap_or(Fp::ZERO);
            let b = other.coeffs.get(k).copied().unwrap_or(Fp::ZERO);
            *c = a - b;
        }
        Polynomial::from_coeffs(coeffs)
    }

    /// Multiplies two polynomials (schoolbook).
    pub fn mul(&self, other: &Polynomial) -> Polynomial {
        if self.is_zero() || other.is_zero() {
            return Polynomial::zero();
        }
        let mut coeffs = vec![Fp::ZERO; self.coeffs.len() + other.coeffs.len() - 1];
        for (i, &a) in self.coeffs.iter().enumerate() {
            for (j, &b) in other.coeffs.iter().enumerate() {
                coeffs[i + j] += a * b;
            }
        }
        Polynomial::from_coeffs(coeffs)
    }

    /// Multiplies the polynomial by a scalar.
    pub fn scale(&self, s: Fp) -> Polynomial {
        Polynomial::from_coeffs(self.coeffs.iter().map(|&c| c * s).collect())
    }

    /// Polynomial long division: returns `(quotient, remainder)` such that
    /// `self = quotient * divisor + remainder` with `deg(remainder) < deg(divisor)`.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is the zero polynomial.
    pub fn div_rem(&self, divisor: &Polynomial) -> (Polynomial, Polynomial) {
        assert!(!divisor.is_zero(), "division by the zero polynomial");
        if self.coeffs.len() < divisor.coeffs.len() {
            return (Polynomial::zero(), self.clone());
        }
        let mut rem = self.coeffs.clone();
        let dlen = divisor.coeffs.len();
        let lead_inv = divisor.coeffs[dlen - 1]
            .inverse()
            .expect("leading coefficient of a trimmed polynomial is nonzero");
        let qlen = rem.len() - dlen + 1;
        let mut quot = vec![Fp::ZERO; qlen];
        for k in (0..qlen).rev() {
            let coeff = rem[k + dlen - 1] * lead_inv;
            quot[k] = coeff;
            if coeff.is_zero() {
                continue;
            }
            for (j, &d) in divisor.coeffs.iter().enumerate() {
                rem[k + j] -= coeff * d;
            }
        }
        rem.truncate(dlen - 1);
        (Polynomial::from_coeffs(quot), Polynomial::from_coeffs(rem))
    }

    fn trim(&mut self) {
        while self.coeffs.last().is_some_and(|c| c.is_zero()) {
            self.coeffs.pop();
        }
    }
}

/// Coefficients (low to high) of the monic master polynomial `∏(x − x_i)`,
/// built incrementally in `O(n²)` multiplications.
pub(crate) fn master_polynomial(xs: impl ExactSizeIterator<Item = Fp>) -> Vec<Fp> {
    let mut master = vec![Fp::ZERO; xs.len() + 1];
    master[0] = Fp::ONE;
    let mut deg = 0usize;
    for xi in xs {
        deg += 1;
        for k in (1..=deg).rev() {
            let lower = master[k - 1];
            master[k] = master[k] * (-xi) + lower;
        }
        master[0] *= -xi;
    }
    master
}

/// The synthetic-division kernel shared by [`Polynomial::interpolate`] and
/// `domain::LagrangeBasis`: dividing the monic `master` (coefficients of
/// `∏(x − x_i)`, length `n + 1`) by each `(x − x_i)` yields the numerator
/// polynomial `q_i(x) = ∏_{j≠i}(x − x_j)`; a Horner pass fused over the
/// freshly generated coefficients gives the denominator
/// `d_i = q_i(x_i) = M′(x_i)` without touching the derivative.
///
/// Returns `(numerators, denoms)`: a row-major `n×n` matrix whose row `i`
/// holds the coefficients of `q_i` (low to high), and the `n` denominators
/// (zero exactly where `x_i` duplicates another point — callers assert).
pub(crate) fn numerator_rows(master: &[Fp], xs: &[Fp]) -> (Vec<Fp>, Vec<Fp>) {
    let n = xs.len();
    debug_assert_eq!(master.len(), n + 1, "master degree must match point count");
    let mut numerators = vec![Fp::ZERO; n * n];
    let mut denoms = Vec::with_capacity(n);
    for (row, &xi) in numerators.chunks_exact_mut(n).zip(xs) {
        let mut qk = master[n]; // leading coefficient (M is monic)
        let mut acc = qk;
        row[n - 1] = qk;
        for k in (0..n - 1).rev() {
            qk = master[k + 1] + xi * qk;
            row[k] = qk;
            acc = acc * xi + qk;
        }
        denoms.push(acc);
    }
    (numerators, denoms)
}

/// Coefficients of the formal derivative of the polynomial with coefficients
/// `coeffs` (low to high).
pub(crate) fn derivative_coeffs(coeffs: &[Fp]) -> Vec<Fp> {
    coeffs
        .iter()
        .enumerate()
        .skip(1)
        .map(|(k, &c)| Fp::from_u64(k as u64) * c)
        .collect()
}

/// Horner evaluation of raw coefficients (low to high) at `x`.
pub(crate) fn horner(coeffs: &[Fp], x: Fp) -> Fp {
    let mut acc = Fp::ZERO;
    for &c in coeffs.iter().rev() {
        acc = acc * x + c;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::MODULUS;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fp(v: u64) -> Fp {
        Fp::from_u64(v)
    }

    #[test]
    fn evaluate_simple() {
        // f(x) = 1 + 2x + 3x^2
        let f = Polynomial::from_coeffs(vec![fp(1), fp(2), fp(3)]);
        assert_eq!(f.evaluate(fp(0)), fp(1));
        assert_eq!(f.evaluate(fp(1)), fp(6));
        assert_eq!(f.evaluate(fp(2)), fp(17));
        assert_eq!(f.degree(), 2);
    }

    #[test]
    fn trailing_zeros_are_trimmed() {
        let f = Polynomial::from_coeffs(vec![fp(1), fp(0), fp(0)]);
        assert_eq!(f.degree(), 0);
        assert_eq!(f.coeffs().len(), 1);
    }

    #[test]
    fn zero_polynomial() {
        let z = Polynomial::zero();
        assert!(z.is_zero());
        assert_eq!(z.evaluate(fp(5)), Fp::ZERO);
        assert_eq!(z.constant_term(), Fp::ZERO);
    }

    #[test]
    fn interpolate_recovers_polynomial() {
        let mut rng = StdRng::seed_from_u64(1);
        for deg in 0..8 {
            let f = Polynomial::random(&mut rng, deg);
            let points: Vec<(Fp, Fp)> = (1..=deg as u64 + 1)
                .map(|x| (fp(x), f.evaluate(fp(x))))
                .collect();
            let g = Polynomial::interpolate(&points);
            assert_eq!(f, g, "degree {deg}");
        }
    }

    #[test]
    fn interpolate_line() {
        // points (1,3), (2,5) → f(x) = 2x + 1
        let f = Polynomial::interpolate(&[(fp(1), fp(3)), (fp(2), fp(5))]);
        assert_eq!(f.evaluate(fp(0)), fp(1));
        assert_eq!(f.evaluate(fp(10)), fp(21));
    }

    #[test]
    #[should_panic(expected = "duplicate x coordinate")]
    fn interpolate_duplicate_x_panics() {
        let _ = Polynomial::interpolate(&[(fp(1), fp(3)), (fp(1), fp(5))]);
    }

    #[test]
    fn lagrange_coefficients_compute_new_point() {
        let mut rng = StdRng::seed_from_u64(2);
        let f = Polynomial::random(&mut rng, 4);
        let xs: Vec<Fp> = (1..=5u64).map(fp).collect();
        let target = fp(77);
        let lambdas = Polynomial::lagrange_coefficients(&xs, target);
        let combo: Fp = xs
            .iter()
            .zip(&lambdas)
            .map(|(&x, &l)| l * f.evaluate(x))
            .sum();
        assert_eq!(combo, f.evaluate(target));
    }

    #[test]
    fn random_with_constant_term_fixes_secret() {
        let mut rng = StdRng::seed_from_u64(3);
        let secret = fp(424242);
        let f = Polynomial::random_with_constant_term(&mut rng, 5, secret);
        assert_eq!(f.constant_term(), secret);
        assert!(f.degree() <= 5);
    }

    #[test]
    fn div_rem_roundtrip() {
        let mut rng = StdRng::seed_from_u64(4);
        let a = Polynomial::random(&mut rng, 7);
        let b = Polynomial::random(&mut rng, 3);
        let (q, r) = a.div_rem(&b);
        assert_eq!(q.mul(&b).add(&r), a);
        assert!(r.is_zero() || r.degree() < b.degree());
    }

    /// A coefficient vector of every degree `0..=130` (so that `Fp::dot`
    /// crosses its 32-term reduction boundary and the 64-term one), either
    /// random or all `p − 1`, the largest products the kernel sums.
    fn arb_coeffs() -> impl Strategy<Value = Vec<Fp>> {
        let random = proptest::collection::vec(any::<u64>().prop_map(fp), 1..=131);
        let extreme = (1usize..=131).prop_map(|len| vec![fp(MODULUS - 1); len]);
        prop_oneof![random, extreme]
    }

    /// `x` anywhere, and at the edges `0` and `p − 1`.
    fn arb_x() -> impl Strategy<Value = Fp> {
        prop_oneof![
            Just(Fp::ZERO),
            Just(fp(MODULUS - 1)),
            any::<u64>().prop_map(fp)
        ]
    }

    #[test]
    fn dot_kernel_evaluates_every_chunk_boundary() {
        for len in [0, 1, 31, 32, 33, 63, 64, 65, 96, 97, 131] {
            let coeffs = vec![fp(MODULUS - 1); len];
            for x in [Fp::ZERO, Fp::ONE, fp(MODULUS - 1), fp(3)] {
                let horner = Polynomial::from_coeffs(coeffs.clone()).evaluate(x);
                assert_eq!(
                    Fp::dot(&coeffs, &x.powers(len)),
                    horner,
                    "{len} terms at {x}"
                );
            }
        }
        assert_eq!(Fp::ZERO.powers(3), [Fp::ONE, Fp::ZERO, Fp::ZERO]);
    }

    proptest! {
        #[test]
        fn prop_dot_kernel_equals_horner(coeffs in arb_coeffs(), x in arb_x()) {
            let horner = Polynomial::from_coeffs(coeffs.clone()).evaluate(x);
            prop_assert_eq!(Fp::dot(&coeffs, &x.powers(coeffs.len())), horner);
            // Only the common prefix counts: extra powers change nothing.
            prop_assert_eq!(Fp::dot(&coeffs, &x.powers(coeffs.len() + 5)), horner);
        }

        #[test]
        fn prop_interpolation_roundtrip(
            coeffs in proptest::collection::vec(any::<u64>(), 1..10),
            xs_seed in any::<u64>(),
        ) {
            let f = Polynomial::from_coeffs(coeffs.iter().map(|&c| fp(c)).collect());
            let d = f.coeffs().len().max(1);
            // distinct nonzero x coordinates derived from a seed
            let points: Vec<(Fp, Fp)> = (0..d as u64)
                .map(|i| {
                    let x = fp(xs_seed % 1000 + 1 + i);
                    (x, f.evaluate(x))
                })
                .collect();
            let g = Polynomial::interpolate(&points);
            prop_assert_eq!(f, g);
        }

        #[test]
        fn prop_add_mul_evaluate_homomorphic(
            a in proptest::collection::vec(any::<u64>(), 0..6),
            b in proptest::collection::vec(any::<u64>(), 0..6),
            x in any::<u64>(),
        ) {
            let fa = Polynomial::from_coeffs(a.iter().map(|&c| fp(c)).collect());
            let fb = Polynomial::from_coeffs(b.iter().map(|&c| fp(c)).collect());
            let x = fp(x);
            prop_assert_eq!(fa.add(&fb).evaluate(x), fa.evaluate(x) + fb.evaluate(x));
            prop_assert_eq!(fa.mul(&fb).evaluate(x), fa.evaluate(x) * fb.evaluate(x));
            prop_assert_eq!(fa.sub(&fb).evaluate(x), fa.evaluate(x) - fb.evaluate(x));
        }
    }
}
