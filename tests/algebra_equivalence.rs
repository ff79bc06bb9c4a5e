//! Equivalence suite pinning the algebra fast paths to the reference
//! semantics.
//!
//! Every optimisation of this layer — the `O(n²)` master-polynomial
//! interpolation, batched inversion, the barycentric Lagrange coefficients,
//! the domain-cached `λ` vectors and the incremental OEC — must be an
//! *observationally pure* speedup: on every input the fast path returns
//! exactly what the textbook implementation returned. The textbook versions
//! live here, as `interpolate_reference` and `oec_decode_reference`, so this
//! file can say so with proptest rather than by inspection.

use bobw_mpc::algebra::evaluation_points::{alpha, slot};
use bobw_mpc::algebra::{rs, shamir, EvalDomain, Fp, LagrangeBasis, PackedDomain, Polynomial};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn fp(v: u64) -> Fp {
    Fp::from_u64(v)
}

/// Distinct pseudo-random x coordinates derived from a seed.
fn distinct_xs(seed: u64, k: usize) -> Vec<Fp> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut xs = Vec::with_capacity(k);
    while xs.len() < k {
        let x = Fp::random(&mut rng);
        if !xs.contains(&x) {
            xs.push(x);
        }
    }
    xs
}

/// The textbook `O(n³)` Lagrange interpolation (one inversion per point,
/// numerator polynomial rebuilt anew for each point): the reference
/// semantics of `Polynomial::interpolate`.
fn interpolate_reference(points: &[(Fp, Fp)]) -> Polynomial {
    assert!(!points.is_empty(), "cannot interpolate zero points");
    let n = points.len();
    let mut result = vec![Fp::ZERO; n];
    for (i, &(xi, yi)) in points.iter().enumerate() {
        // numerator polynomial: prod_{j != i} (x - x_j)
        let mut num = vec![Fp::ZERO; n];
        num[0] = Fp::ONE;
        let mut num_deg = 0usize;
        let mut denom = Fp::ONE;
        for (j, &(xj, _)) in points.iter().enumerate() {
            if i == j {
                continue;
            }
            assert_ne!(xi, xj, "duplicate x coordinate in interpolation");
            denom *= xi - xj;
            // multiply num by (x - xj)
            num_deg += 1;
            for k in (1..=num_deg).rev() {
                let lower = num[k - 1];
                num[k] = num[k] * (-xj) + lower;
            }
            num[0] *= -xj;
        }
        let scale = yi
            * denom
                .inverse()
                .expect("distinct points imply nonzero denom");
        for k in 0..n {
            result[k] += num[k] * scale;
        }
    }
    Polynomial::from_coeffs(result)
}

/// The pre-optimisation OEC loop (a fresh Berlekamp–Welch system per error
/// bound, agreement re-counted after the `e = 0` full verification): the
/// reference semantics of `rs::oec_decode`.
fn oec_decode_reference(d: usize, t: usize, points: &[(Fp, Fp)]) -> Option<Polynomial> {
    let k = points.len();
    if k < d + t + 1 {
        return None;
    }
    let max_errors = (k - (d + t + 1)).min(t);
    for e in 0..=max_errors {
        if let Some(f) = rs::berlekamp_welch(d, e, points) {
            let agree = points.iter().filter(|&&(x, y)| f.evaluate(x) == y).count();
            if agree > d + t {
                return Some(f);
            }
        }
    }
    None
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Fast O(n²) interpolation == textbook O(n³) interpolation.
    #[test]
    fn interpolate_matches_reference(
        seed in any::<u64>(),
        k in 1usize..24,
        ys in proptest::collection::vec(any::<u64>(), 24),
    ) {
        let xs = distinct_xs(seed, k);
        let points: Vec<(Fp, Fp)> = xs
            .into_iter()
            .zip(ys.iter().map(|&y| fp(y)))
            .collect();
        prop_assert_eq!(
            Polynomial::interpolate(&points),
            interpolate_reference(&points)
        );
    }

    /// Batched inversion == per-element Fermat inversion.
    #[test]
    fn batch_inverse_matches_inverse(
        vs in proptest::collection::vec(any::<u64>(), 0..64),
    ) {
        let mut batch: Vec<Fp> = vs.iter().map(|&v| fp(v)).collect();
        Fp::batch_inverse(&mut batch);
        for (&v, &got) in vs.iter().zip(&batch) {
            prop_assert_eq!(got, fp(v).inverse().unwrap_or(Fp::ZERO));
        }
    }

    /// Barycentric/batched Lagrange coefficients == per-coefficient formula,
    /// including targets that coincide with an interpolation point.
    #[test]
    fn lagrange_coefficients_match_reference(
        seed in any::<u64>(),
        k in 1usize..16,
        target in any::<u64>(),
        hit in any::<usize>(),
    ) {
        let xs = distinct_xs(seed, k);
        for target in [fp(target), xs[hit % k]] {
            let fast = Polynomial::lagrange_coefficients(&xs, target);
            // reference: direct product formula with one inversion per point
            let slow: Vec<Fp> = (0..k)
                .map(|i| {
                    let mut num = Fp::ONE;
                    let mut den = Fp::ONE;
                    for j in 0..k {
                        if i != j {
                            num *= target - xs[j];
                            den *= xs[i] - xs[j];
                        }
                    }
                    num * den.inverse().expect("distinct points")
                })
                .collect();
            prop_assert_eq!(&fast, &slow);
        }
    }

    /// Domain-cached subset λ-at-zero reconstruction == generic
    /// interpolation's constant term.
    #[test]
    fn domain_lambda_reconstruction_matches_interpolation(
        seed in any::<u64>(),
        n in 4usize..20,
        deg in 1usize..6,
    ) {
        let deg = deg.min(n - 1);
        let mut rng = StdRng::seed_from_u64(seed);
        let f = Polynomial::random(&mut rng, deg);
        let domain = EvalDomain::get(n);
        // random subset of deg + 1 distinct parties
        let mut indices: Vec<usize> = (0..n).collect();
        for i in (1..indices.len()).rev() {
            indices.swap(i, rng.gen_range(0..=i));
        }
        indices.truncate(deg + 1);
        let lambda = domain.lagrange_at_zero(&indices);
        let recon: Fp = indices
            .iter()
            .zip(&lambda)
            .map(|(&i, &l)| l * f.evaluate(alpha(i)))
            .sum();
        let points: Vec<(Fp, Fp)> = indices
            .iter()
            .map(|&i| (alpha(i), f.evaluate(alpha(i))))
            .collect();
        prop_assert_eq!(recon, Polynomial::interpolate(&points).constant_term());
        prop_assert_eq!(recon, f.constant_term());
    }

    /// Cached-basis interpolation and λ evaluation == generic paths.
    #[test]
    fn basis_paths_match_generic(
        seed in any::<u64>(),
        k in 1usize..16,
        target in any::<u64>(),
        ys in proptest::collection::vec(any::<u64>(), 16),
    ) {
        let xs = distinct_xs(seed, k);
        let ys: Vec<Fp> = ys[..k].iter().map(|&y| fp(y)).collect();
        let basis = LagrangeBasis::new(xs.clone());
        let points: Vec<(Fp, Fp)> = xs.iter().copied().zip(ys.iter().copied()).collect();
        let f = Polynomial::interpolate(&points);
        prop_assert_eq!(basis.interpolate(&ys), f.clone());
        prop_assert_eq!(basis.eval_at(&ys, fp(target)), f.evaluate(fp(target)));
    }

    /// Incremental OEC == the pre-optimisation retry loop on random
    /// corruption patterns — including *beyond-model* patterns with more
    /// than `t` corrupted points (where both must fail safe identically)
    /// and the over-supplied regime `k > d + 2t + 1` reached when
    /// `t_a > 0`.
    #[test]
    fn oec_decode_matches_reference(
        seed in any::<u64>(),
        d in 1usize..5,
        t in 1usize..5,
        extra in 0usize..6,
        errors in 0usize..7,
        missing in 0usize..3,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let f = Polynomial::random(&mut rng, d);
        let k = (d + t + 1 + extra + t).saturating_sub(missing).max(1);
        let mut pts: Vec<(Fp, Fp)> =
            (0..k).map(|i| (alpha(i), f.evaluate(alpha(i)))).collect();
        let errors = errors.min(k);
        let mut corrupted = std::collections::HashSet::new();
        while corrupted.len() < errors {
            corrupted.insert(rng.gen_range(0..k));
        }
        for &i in &corrupted {
            pts[i].1 += Fp::from_u64(rng.gen_range(1..1_000_000));
        }
        let fast = rs::oec_decode(d, t, &pts);
        let reference = oec_decode_reference(d, t, &pts);
        prop_assert_eq!(&fast, &reference);
        // Whenever the corruption stays within what the OEC bound may
        // ignore, the unique codeword must come back out.
        if k > d + t && errors <= (k - (d + t + 1)).min(t) {
            prop_assert_eq!(fast, Some(f));
        }
    }

    /// Batched OEC over shared x coordinates == per-value OEC.
    #[test]
    fn oec_decode_batch_matches_per_value(
        seed in any::<u64>(),
        d in 1usize..4,
        t in 1usize..4,
        values in 1usize..5,
        errors in 0usize..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let k = d + 2 * t + 1;
        let xs: Vec<Fp> = (0..k).map(alpha).collect();
        let mut columns = Vec::with_capacity(values);
        let mut per_value = Vec::with_capacity(values);
        for _ in 0..values {
            let f = Polynomial::random(&mut rng, d);
            let mut ys: Vec<Fp> = xs.iter().map(|&x| f.evaluate(x)).collect();
            for _ in 0..errors.min(t) {
                let i = rng.gen_range(0..k);
                ys[i] += Fp::from_u64(rng.gen_range(1..1000));
            }
            let points: Vec<(Fp, Fp)> =
                xs.iter().copied().zip(ys.iter().copied()).collect();
            per_value.push(rs::oec_decode(d, t, &points));
            columns.push(ys);
        }
        let batch = rs::oec_decode_batch(d, t, &xs, &columns);
        match batch {
            Some(polys) => {
                for (got, want) in polys.iter().zip(&per_value) {
                    prop_assert_eq!(Some(got.clone()), want.clone());
                }
            }
            None => prop_assert!(per_value.iter().any(|p| p.is_none())),
        }
    }

    /// Packed share → reconstruct is the identity on the slot values, the
    /// dealt polynomial respects the `ts + ℓ − 1` degree budget, and robust
    /// reconstruction corrects up to `t` corrupted shares to the same values.
    #[test]
    fn packed_share_reconstruct_roundtrip(
        seed in any::<u64>(),
        ell in 1usize..5,
        ts in 0usize..3,
        vals in proptest::collection::vec(any::<u64>(), 4),
        errors in 0usize..3,
    ) {
        let n = 13; // plenty of room: needs ts + ell + 2·errors ≤ n
        let mut rng = StdRng::seed_from_u64(seed);
        let dom = PackedDomain::get(n, ell);
        let values: Vec<Fp> = vals[..ell].iter().map(|&v| fp(v)).collect();
        let sharing = dom.share(&mut rng, &values, ts);
        let degree = ts + ell - 1;
        prop_assert!(sharing.polynomial.degree() <= degree);
        for (k, &v) in values.iter().enumerate() {
            prop_assert_eq!(sharing.polynomial.evaluate(slot(k)), v);
        }
        let all: Vec<(usize, Fp)> =
            sharing.shares.iter().copied().enumerate().collect();
        prop_assert_eq!(
            dom.reconstruct(degree, &all[..degree + 1]),
            Some(values.clone())
        );
        // corrupt up to `errors` shares; OEC must still return the values
        let t = errors.max(1);
        let mut noisy = all.clone();
        for (i, share) in noisy.iter_mut().enumerate().take(errors) {
            share.1 += fp(1 + i as u64);
        }
        prop_assert_eq!(
            dom.reconstruct_robust(degree, t, &noisy),
            Some(values)
        );
    }

    /// `shamir::share_at` positions the secret at an arbitrary point with
    /// the exact degree asked for, and reconstruction at that point from any
    /// `degree + 1` shares recovers it.
    #[test]
    fn share_at_positions_and_reconstructs(
        seed in any::<u64>(),
        value in any::<u64>(),
        k in 0usize..4,
        degree in 1usize..5,
    ) {
        let n = 10;
        let mut rng = StdRng::seed_from_u64(seed);
        let position = slot(k);
        let sharing = shamir::share_at(&mut rng, fp(value), position, degree, n);
        prop_assert_eq!(sharing.shares.len(), n);
        prop_assert!(sharing.polynomial.degree() <= degree);
        let pts: Vec<(Fp, Fp)> = (0..degree + 1)
            .map(|i| (alpha(i), sharing.shares[i]))
            .collect();
        let f = Polynomial::interpolate(&pts);
        prop_assert_eq!(f.evaluate(position), fp(value));
        // all n shares lie on the same degree-`degree` polynomial
        for (i, &s) in sharing.shares.iter().enumerate() {
            prop_assert_eq!(f.evaluate(alpha(i)), s);
        }
    }

    /// `pack_share` (the local slot→packed linear combination) == dealing
    /// the packed sharing directly: packing per-slot sharings of degree `d`
    /// yields shares of a degree `d + ℓ − 1` polynomial hitting each value
    /// at its slot.
    #[test]
    fn pack_share_matches_direct_packed_sharing(
        seed in any::<u64>(),
        ell in 1usize..5,
        d in 1usize..3,
        vals in proptest::collection::vec(any::<u64>(), 4),
    ) {
        let n = 13;
        let mut rng = StdRng::seed_from_u64(seed);
        let dom = PackedDomain::get(n, ell);
        let values: Vec<Fp> = vals[..ell].iter().map(|&v| fp(v)).collect();
        // slot-positioned scalar sharings, one per slot
        let slot_sharings: Vec<Vec<Fp>> = values
            .iter()
            .enumerate()
            .map(|(k, &v)| shamir::share_at(&mut rng, v, slot(k), d, n).shares)
            .collect();
        let packed: Vec<(usize, Fp)> = (0..n)
            .map(|i| {
                let per_slot: Vec<Fp> =
                    slot_sharings.iter().map(|s| s[i]).collect();
                (i, dom.pack_share(i, &per_slot))
            })
            .collect();
        prop_assert_eq!(dom.reconstruct(d + ell - 1, &packed), Some(values));
    }
}

/// Deterministic spot check: a full-domain reconstruction dot product equals
/// the generic robust reconstruction.
#[test]
fn full_domain_dot_product_matches_robust_reconstruction() {
    let mut rng = StdRng::seed_from_u64(7);
    let n = 13;
    let t = 4;
    let domain = EvalDomain::get(n);
    let f = Polynomial::random_with_constant_term(&mut rng, t, fp(424_242));
    let shares: Vec<Fp> = domain.alphas().iter().map(|&a| f.evaluate(a)).collect();
    assert_eq!(domain.reconstruct_at_zero(&shares), fp(424_242));
    let indexed: Vec<(usize, Fp)> = shares.iter().copied().enumerate().collect();
    assert_eq!(
        bobw_mpc::algebra::shamir::reconstruct_robust(t, t, &indexed),
        Some(fp(424_242))
    );
}

/// The case where the fast path must fail safe: d = 0, t = 1 and four points
/// of which two disagree with the first. The constant 5 agrees with
/// 2 > d + t points, but accepting it would ignore 2 > max_errors = 1
/// points, so the reference loop returns `None`, and so must the fast path.
#[test]
fn oec_decode_matches_reference_beyond_the_corruption_model() {
    let pts: Vec<(Fp, Fp)> = [5, 5, 7, 9]
        .into_iter()
        .enumerate()
        .map(|(i, y)| (alpha(i), fp(y)))
        .collect();
    assert_eq!(oec_decode_reference(0, 1, &pts), None);
    assert_eq!(rs::oec_decode(0, 1, &pts), None);
}
