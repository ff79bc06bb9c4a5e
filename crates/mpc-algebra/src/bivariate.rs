//! `(ℓ,ℓ)`-degree symmetric bivariate polynomials (Section 2 of the paper).
//!
//! A symmetric bivariate polynomial `F(x, y) = Σ r_ij x^i y^j` with
//! `r_ij = r_ji` satisfies `F(α_j, α_i) = F(α_i, α_j)` and
//! `F(x, α_i) = F(α_i, y)`. The VSS dealer embeds its secret-sharing
//! polynomial `q(·)` at `x = 0` (`F(0, y) = q(y)`) and hands party `P_i` the
//! univariate row polynomial `f_i(x) = F(x, α_i)`.
//!
//! [`SymmetricBivariate::interpolate_rows`] implements the direction of
//! Lemma 2.1: sufficiently many pairwise-consistent row polynomials determine
//! a unique symmetric bivariate polynomial.

use rand::Rng;

use crate::domain::LagrangeBasis;
use crate::field::Fp;
use crate::poly::Polynomial;

/// An `(ℓ,ℓ)`-degree symmetric bivariate polynomial over `GF(2^61-1)`.
///
/// Stored as the `(ℓ+1)×(ℓ+1)` coefficient matrix `r_ij`, row-major in one
/// allocation, with the invariant `r_ij = r_ji`.
///
/// ```
/// use mpc_algebra::{Fp, Polynomial, SymmetricBivariate};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let secret_poly = Polynomial::random_with_constant_term(&mut rng, 2, Fp::from_u64(9));
/// let f = SymmetricBivariate::embedding(&mut rng, 2, &secret_poly);
/// // F(0, y) = q(y) and symmetry F(a, b) = F(b, a)
/// let a = Fp::from_u64(3);
/// let b = Fp::from_u64(7);
/// assert_eq!(f.evaluate(Fp::ZERO, a), secret_poly.evaluate(a));
/// assert_eq!(f.evaluate(a, b), f.evaluate(b, a));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SymmetricBivariate {
    degree: usize,
    /// `coeffs[i·(ℓ+1) + j]` multiplies `x^i y^j`; kept symmetric.
    coeffs: Vec<Fp>,
}

impl SymmetricBivariate {
    /// Samples a uniformly random `(degree, degree)`-degree symmetric
    /// bivariate polynomial.
    pub fn random<R: Rng + ?Sized>(rng: &mut R, degree: usize) -> Self {
        let width = degree + 1;
        let mut coeffs = vec![Fp::ZERO; width * width];
        // Every draw writes the mirrored pair (i, j) and (j, i).
        for i in 0..width {
            for j in i..width {
                let v = Fp::random(rng);
                coeffs[i * width + j] = v;
                coeffs[j * width + i] = v;
            }
        }
        SymmetricBivariate { degree, coeffs }
    }

    /// Samples a random symmetric bivariate polynomial `F` of the given degree
    /// such that `F(0, y) = q(y)` — the dealer's embedding of its sharing
    /// polynomial `q(·)` (Phase I of `Π_WPS` / `Π_VSS`).
    ///
    /// # Panics
    ///
    /// Panics if `q.degree() > degree`.
    pub fn embedding<R: Rng + ?Sized>(rng: &mut R, degree: usize, q: &Polynomial) -> Self {
        assert!(
            q.degree() <= degree || q.is_zero(),
            "secret polynomial degree exceeds bivariate degree"
        );
        let mut f = Self::random(rng, degree);
        // Overwrite row/column 0 so that F(0, y) = q(y): coefficient of x^0 y^j
        // must equal q_j (and by symmetry coefficient of x^j y^0 too).
        let width = degree + 1;
        for j in 0..width {
            let qj = q.coeffs().get(j).copied().unwrap_or(Fp::ZERO);
            f.coeffs[j] = qj;
            f.coeffs[j * width] = qj;
        }
        f
    }

    /// The degree `ℓ` of the polynomial in each variable.
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// Evaluates `F(x, y)`: the row at `y`, evaluated at `x`.
    pub fn evaluate(&self, x: Fp, y: Fp) -> Fp {
        let row = self.row_coeffs(&y.powers(self.degree + 1));
        Fp::dot(&row, &x.powers(row.len()))
    }

    /// The row polynomial `f_i(x) = F(x, α)` handed to the party with
    /// evaluation point `α` (equal to `F(α, y)` by symmetry).
    pub fn row(&self, alpha: Fp) -> Polynomial {
        Polynomial::from_coeffs(self.row_coeffs(&alpha.powers(self.degree + 1)))
    }

    /// The coefficients of the row polynomial `F(x, α)`, given the powers
    /// `[1, α, …, α^ℓ]`, trimmed as [`Polynomial::from_coeffs`] trims them:
    /// `Σ_j r_ij α^j` for each `i`, one [`Fp::dot`] each, in one allocation.
    /// A dealer computes the powers once per party and reuses them for all
    /// of that party's rows.
    pub fn row_coeffs(&self, powers: &[Fp]) -> Vec<Fp> {
        let r = |r_i: &[Fp]| Fp::dot(r_i, powers);
        let mut coeffs: Vec<Fp> = self.coeffs.chunks_exact(self.degree + 1).map(r).collect();
        while coeffs.last().is_some_and(|c| c.is_zero()) {
            coeffs.pop();
        }
        coeffs
    }

    /// The secret-sharing polynomial `q(y) = F(0, y)` embedded by the dealer.
    pub fn secret_polynomial(&self) -> Polynomial {
        Polynomial::from_coeffs(self.coeffs[..=self.degree].to_vec())
    }

    /// The secret `F(0, 0)`.
    pub fn secret(&self) -> Fp {
        self.coeffs[0]
    }

    /// Reconstructs the unique `(d, d)`-degree symmetric bivariate polynomial
    /// from at least `d + 1` pairwise-consistent row polynomials
    /// (Lemma 2.1).
    ///
    /// `rows` maps an evaluation point `α_i` to the row polynomial
    /// `f_i(x) = F(x, α_i)`. Returns `None` if fewer than `d + 1` rows are
    /// given, if any row has degree `> d`, or if the rows are not pairwise
    /// consistent (i.e. they do not lie on a common symmetric bivariate
    /// polynomial).
    pub fn interpolate_rows(d: usize, rows: &[(Fp, Polynomial)]) -> Option<Self> {
        if rows.len() < d + 1 {
            return None;
        }
        if rows.iter().any(|(_, f)| f.degree() > d && !f.is_zero()) {
            return None;
        }
        let use_rows = &rows[..d + 1];
        // For each x-power i, interpolate the polynomial in y through the
        // points (α_k, coeff_i(f_k)). All d + 1 interpolations run over the
        // same d + 1 evaluation points, so the Lagrange basis (master
        // polynomial, barycentric weights) is built exactly once.
        let basis = LagrangeBasis::new(use_rows.iter().map(|&(alpha, _)| alpha).collect());
        let width = d + 1;
        let mut coeffs = vec![Fp::ZERO; width * width];
        for (i, out_row) in coeffs.chunks_exact_mut(width).enumerate() {
            let ys: Vec<Fp> = use_rows
                .iter()
                .map(|(_, f)| f.coeffs().get(i).copied().unwrap_or(Fp::ZERO))
                .collect();
            let gi = basis.interpolate(&ys);
            if gi.degree() > d && !gi.is_zero() {
                return None;
            }
            for (j, v) in out_row.iter_mut().enumerate() {
                *v = gi.coeffs().get(j).copied().unwrap_or(Fp::ZERO);
            }
        }
        let candidate = SymmetricBivariate { degree: d, coeffs };
        // Verify symmetry and consistency with *all* provided rows.
        for i in 0..width {
            for j in 0..i {
                if candidate.coeffs[i * width + j] != candidate.coeffs[j * width + i] {
                    return None;
                }
            }
        }
        for (alpha, f) in rows {
            if &candidate.row(*alpha) != f {
                return None;
            }
        }
        Some(candidate)
    }

    /// Checks the pairwise-consistency relation `f_i(α_j) == f_j(α_i)` between
    /// two (point, row-polynomial) pairs — the test parties perform during
    /// Phase II/III of `Π_WPS`/`Π_VSS`.
    pub fn rows_consistent(a: (Fp, &Polynomial), b: (Fp, &Polynomial)) -> bool {
        a.1.evaluate(b.0) == b.1.evaluate(a.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluation_points::alpha;
    use crate::field::MODULUS;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn embedding_preserves_secret_polynomial() {
        let mut rng = StdRng::seed_from_u64(11);
        let q = Polynomial::random_with_constant_term(&mut rng, 3, Fp::from_u64(1234));
        let f = SymmetricBivariate::embedding(&mut rng, 3, &q);
        assert_eq!(f.secret_polynomial(), q);
        assert_eq!(f.secret(), Fp::from_u64(1234));
        for x in 1..10u64 {
            assert_eq!(
                f.evaluate(Fp::ZERO, Fp::from_u64(x)),
                q.evaluate(Fp::from_u64(x))
            );
        }
    }

    #[test]
    fn rows_are_pairwise_consistent() {
        let mut rng = StdRng::seed_from_u64(12);
        let f = SymmetricBivariate::random(&mut rng, 4);
        let n = 9;
        let rows: Vec<(Fp, Polynomial)> = (0..n).map(|i| (alpha(i), f.row(alpha(i)))).collect();
        for (i, a) in rows.iter().enumerate() {
            for b in rows.iter().skip(i + 1) {
                assert!(SymmetricBivariate::rows_consistent(
                    (a.0, &a.1),
                    (b.0, &b.1)
                ));
            }
        }
    }

    #[test]
    fn row_constant_term_is_secret_share() {
        // f_i(0) = F(0, α_i) = q(α_i): the party's share of the secret.
        let mut rng = StdRng::seed_from_u64(13);
        let q = Polynomial::random_with_constant_term(&mut rng, 2, Fp::from_u64(5));
        let f = SymmetricBivariate::embedding(&mut rng, 2, &q);
        for i in 0..7 {
            assert_eq!(f.row(alpha(i)).constant_term(), q.evaluate(alpha(i)));
        }
    }

    #[test]
    fn interpolate_rows_recovers_polynomial() {
        let mut rng = StdRng::seed_from_u64(14);
        let d = 3;
        let f = SymmetricBivariate::random(&mut rng, d);
        let rows: Vec<(Fp, Polynomial)> = (0..d + 1).map(|i| (alpha(i), f.row(alpha(i)))).collect();
        let g = SymmetricBivariate::interpolate_rows(d, &rows).expect("consistent rows");
        assert_eq!(f, g);
    }

    #[test]
    fn interpolate_rows_rejects_inconsistent_rows() {
        let mut rng = StdRng::seed_from_u64(15);
        let d = 3;
        let f = SymmetricBivariate::random(&mut rng, d);
        let mut rows: Vec<(Fp, Polynomial)> =
            (0..d + 2).map(|i| (alpha(i), f.row(alpha(i)))).collect();
        // tamper with one row
        rows[1].1 = rows[1].1.add(&Polynomial::constant(Fp::ONE));
        assert!(SymmetricBivariate::interpolate_rows(d, &rows).is_none());
    }

    #[test]
    fn interpolate_rows_requires_enough_rows() {
        let mut rng = StdRng::seed_from_u64(16);
        let d = 4;
        let f = SymmetricBivariate::random(&mut rng, d);
        let rows: Vec<(Fp, Polynomial)> = (0..d).map(|i| (alpha(i), f.row(alpha(i)))).collect();
        assert!(SymmetricBivariate::interpolate_rows(d, &rows).is_none());
    }

    /// The row as computed before the flat kernel: one Horner pass over
    /// `r_i·` per coefficient, then trimmed by `Polynomial::from_coeffs`.
    fn horner_row(f: &SymmetricBivariate, alpha: Fp) -> Polynomial {
        let horner = |r_i: &[Fp]| r_i.iter().rev().fold(Fp::ZERO, |acc, &c| acc * alpha + c);
        let width = f.degree + 1;
        Polynomial::from_coeffs(f.coeffs.chunks_exact(width).map(horner).collect())
    }

    /// A symmetric `(degree, degree)` polynomial whose coefficients vanish
    /// beyond `x^k y^k` for `k ≥ support`, all `p − 1` below if `extreme`.
    fn sparse(seed: u64, degree: usize, support: usize, extreme: bool) -> SymmetricBivariate {
        let mut f = SymmetricBivariate::random(&mut StdRng::seed_from_u64(seed), degree);
        let width = degree + 1;
        for (k, c) in f.coeffs.iter_mut().enumerate() {
            if (k / width).max(k % width) >= support {
                *c = Fp::ZERO;
            } else if extreme {
                *c = -Fp::ONE;
            }
        }
        f
    }

    #[test]
    fn rows_are_trimmed_like_from_coeffs() {
        // Vanishing top coefficients, and α = 0, where the row is column 0.
        let f = sparse(17, 5, 3, false);
        for alpha in [Fp::ZERO, Fp::ONE, Fp::from_u64(9), -Fp::ONE] {
            let row = f.row_coeffs(&alpha.powers(6));
            assert_eq!(row, horner_row(&f, alpha).coeffs(), "at {alpha}");
            assert!(row.len() <= 3);
        }
        let zero = sparse(18, 4, 0, false);
        assert!(zero.row_coeffs(&Fp::from_u64(2).powers(5)).is_empty());
        assert!(zero.row(Fp::from_u64(2)).is_zero());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        // Degrees 0..=130 cross the kernel's 32- and 64-term boundaries.
        #[test]
        fn prop_flat_rows_equal_the_horner_rows(
            seed in any::<u64>(),
            degree in 0usize..=130,
            cut in 0usize..=131,
            extreme in any::<bool>(),
            x in prop_oneof![Just(0u64), Just(MODULUS - 1), any::<u64>()],
        ) {
            let f = sparse(seed, degree, cut.min(degree + 1), extreme);
            let alpha = Fp::from_u64(x);
            let old = horner_row(&f, alpha);
            // Byte for byte what a dealer sends, trimmed included.
            prop_assert_eq!(&f.row_coeffs(&alpha.powers(degree + 1))[..], old.coeffs());
            prop_assert_eq!(&f.row(alpha), &old);
            prop_assert_eq!(f.evaluate(Fp::from_u64(seed), alpha), old.evaluate(Fp::from_u64(seed)));
        }

        #[test]
        fn prop_symmetry(seed in any::<u64>(), d in 1usize..6, a in any::<u64>(), b in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let f = SymmetricBivariate::random(&mut rng, d);
            let a = Fp::from_u64(a);
            let b = Fp::from_u64(b);
            prop_assert_eq!(f.evaluate(a, b), f.evaluate(b, a));
        }

        #[test]
        fn prop_row_matches_evaluate(seed in any::<u64>(), d in 1usize..6, i in 0usize..20, x in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let f = SymmetricBivariate::random(&mut rng, d);
            let x = Fp::from_u64(x);
            prop_assert_eq!(f.row(alpha(i)).evaluate(x), f.evaluate(x, alpha(i)));
        }

        #[test]
        fn prop_lemma_2_1_roundtrip(seed in any::<u64>(), d in 1usize..5) {
            let mut rng = StdRng::seed_from_u64(seed);
            let f = SymmetricBivariate::random(&mut rng, d);
            let rows: Vec<(Fp, Polynomial)> =
                (0..d + 2).map(|i| (alpha(i), f.row(alpha(i)))).collect();
            let g = SymmetricBivariate::interpolate_rows(d, &rows).unwrap();
            prop_assert_eq!(f, g);
        }
    }
}
