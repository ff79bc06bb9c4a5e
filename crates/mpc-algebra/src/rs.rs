//! Reed–Solomon decoding (Berlekamp–Welch) and the core of the online
//! error-correction (OEC) procedure of \[13\] (Appendix A of the paper).
//!
//! A `d`-shared value corresponds to a `d`-degree polynomial evaluated at the
//! party points. When a receiver collects points from a set `P'` containing
//! at most `t` corruptions, it repeatedly tries to decode: as soon as
//! `d + t + 1` of the received points lie on a single `d`-degree polynomial,
//! that polynomial is the correct one (at least `d + 1` of those points come
//! from honest parties and uniquely determine it).

use crate::domain::LagrangeBasis;
use crate::field::Fp;
use crate::poly::Polynomial;

/// Solves the linear system `A·x = b` over `GF(2^61-1)` by Gaussian
/// elimination. Returns `None` if the system has no solution; if the system
/// is under-determined an arbitrary consistent solution is returned (free
/// variables are set to zero).
///
/// The forward elimination is division-free (cross-multiplication keeps the
/// pivot rows un-normalised), so the only inversions are the pivot diagonal
/// at back-substitution time — batched into a single field inversion via
/// [`Fp::batch_inverse`]. Consistency is checked by verifying the candidate
/// solution against the original system.
pub fn solve_linear_system(a: &[Vec<Fp>], b: &[Fp]) -> Option<Vec<Fp>> {
    let rows = a.len();
    assert_eq!(rows, b.len(), "matrix/vector dimension mismatch");
    if rows == 0 {
        return Some(Vec::new());
    }
    let cols = a[0].len();
    let mut m: Vec<Vec<Fp>> = a
        .iter()
        .zip(b)
        .map(|(row, &rhs)| {
            assert_eq!(row.len(), cols, "ragged matrix");
            let mut r = row.clone();
            r.push(rhs);
            r
        })
        .collect();

    let mut pivot_cols = Vec::new();
    let mut rank = 0usize;
    for col in 0..cols {
        // find pivot
        let Some(pivot_row) = (rank..rows).find(|&r| !m[r][col].is_zero()) else {
            continue;
        };
        m.swap(rank, pivot_row);
        let p = m[rank][col];
        // Take the pivot row out so eliminating the rows below doesn't alias
        // it. Rows below are replaced by `p·row − row[col]·pivot` — the same
        // row space scaled by the non-zero pivot, no inversion needed.
        let pivot = std::mem::take(&mut m[rank]);
        for row in m[rank + 1..].iter_mut() {
            if row[col].is_zero() {
                continue;
            }
            let factor = row[col];
            for (v, pv) in row.iter_mut().zip(&pivot).skip(col) {
                *v = *v * p - factor * *pv;
            }
        }
        m[rank] = pivot;
        pivot_cols.push(col);
        rank += 1;
        if rank == rows {
            break;
        }
    }
    // Back-substitution with free variables set to zero; the un-normalised
    // pivot diagonal is inverted in one batch.
    let mut diag: Vec<Fp> = pivot_cols
        .iter()
        .enumerate()
        .map(|(r, &c)| m[r][c])
        .collect();
    Fp::batch_inverse(&mut diag);
    let mut x = vec![Fp::ZERO; cols];
    for (r, &c) in pivot_cols.iter().enumerate().rev() {
        let mut acc = m[r][cols];
        for cc in c + 1..cols {
            if !x[cc].is_zero() {
                acc -= m[r][cc] * x[cc];
            }
        }
        x[c] = acc * diag[r];
    }
    // An inconsistent system surfaces as a candidate that fails the original
    // equations (cheaper than tracking exact row images through the
    // division-free elimination).
    for (row, &rhs) in a.iter().zip(b) {
        let lhs: Fp = row.iter().zip(&x).map(|(&c, &xv)| c * xv).sum();
        if lhs != rhs {
            return None;
        }
    }
    Some(x)
}

/// Interpolates through the first `d + 1` points (degree `≤ d` is automatic
/// for `d + 1` distinct points).
fn interpolate_prefix(d: usize, points: &[(Fp, Fp)]) -> Polynomial {
    Polynomial::interpolate(&points[..d + 1])
}

/// Per-point power rows `x_i^0 .. x_i^max_pow`, computed once and shared
/// across every Berlekamp–Welch retry of one OEC invocation (the rows of the
/// Vandermonde-like decoding system for *every* error bound `e` are slices
/// of these).
struct PowerRows {
    rows: Vec<Vec<Fp>>,
}

impl PowerRows {
    fn new(points: &[(Fp, Fp)], max_pow: usize) -> Self {
        let rows = points
            .iter()
            .map(|&(x, _)| {
                let mut row = Vec::with_capacity(max_pow + 1);
                let mut xp = Fp::ONE;
                for _ in 0..=max_pow {
                    row.push(xp);
                    xp *= x;
                }
                row
            })
            .collect();
        PowerRows { rows }
    }
}

/// The linear-system core of Berlekamp–Welch for `e ≥ 1`, fed from
/// precomputed power rows. Returns a candidate polynomial of degree `≤ d`
/// or `None`; the caller is responsible for agreement counting.
fn bw_solve(d: usize, e: usize, points: &[(Fp, Fp)], powers: &PowerRows) -> Option<Polynomial> {
    // Unknowns: E(x) = x^e + e_{e-1} x^{e-1} + ... + e_0   (e unknowns)
    //           Q(x) = q_{d+e} x^{d+e} + ... + q_0          (d+e+1 unknowns)
    // Equations: Q(x_i) = y_i · E(x_i) for every point.
    let k = points.len();
    let num_e = e;
    let num_q = d + e + 1;
    let cols = num_e + num_q;
    let mut a = Vec::with_capacity(k);
    let mut b = Vec::with_capacity(k);
    for (&(_, y), pow) in points.iter().zip(&powers.rows) {
        let mut row = Vec::with_capacity(cols);
        // -y·(e_0 + e_1 x + ... + e_{e-1} x^{e-1}) + Q(x) = y·x^e
        row.extend(pow[..num_e].iter().map(|&xp| -(y * xp)));
        row.extend_from_slice(&pow[..num_q]);
        a.push(row);
        b.push(y * pow[num_e]);
    }
    let sol = solve_linear_system(&a, &b)?;
    let mut e_coeffs: Vec<Fp> = sol[..num_e].to_vec();
    e_coeffs.push(Fp::ONE); // monic leading coefficient
    let e_poly = Polynomial::from_coeffs(e_coeffs);
    let q_poly = Polynomial::from_coeffs(sol[num_e..].to_vec());
    let (f, rem) = q_poly.div_rem(&e_poly);
    if !rem.is_zero() {
        return None;
    }
    if f.degree() > d && !f.is_zero() {
        return None;
    }
    Some(f)
}

/// Berlekamp–Welch decoding.
///
/// Given `points` (distinct `x` coordinates), a target degree `d` and a bound
/// `e` on the number of erroneous points, attempts to find a polynomial `f`
/// of degree `≤ d` that agrees with at least `points.len() - e` of the
/// points. Requires `points.len() ≥ d + 2e + 1`; returns `None` otherwise or
/// when no such polynomial exists.
pub fn berlekamp_welch(d: usize, e: usize, points: &[(Fp, Fp)]) -> Option<Polynomial> {
    let k = points.len();
    if k < d + 2 * e + 1 {
        return None;
    }
    if e == 0 {
        let f = interpolate_prefix(d, points);
        if points.iter().all(|&(x, y)| f.evaluate(x) == y) {
            return Some(f);
        }
        return None;
    }
    bw_solve(d, e, points, &PowerRows::new(points, d + e))
}

/// One step of the online error-correction loop.
///
/// `points` is the set of `(x, y)` pairs received so far from the parties of
/// `P'` (at most `t` of which are corrupt). If at least `d + t + 1` of the
/// received points lie on a single polynomial of degree `≤ d`, returns it.
///
/// Matches the OEC loop of \[13\]: with `k` points in hand, up to
/// `r = k − (d + t + 1)` of them may be ignored as erroneous. This
/// implementation is *incremental*:
///
/// 1. **Interpolate-and-verify fast path** — the polynomial through the
///    first `d + 1` points is checked for `> d + t` agreement (and for an
///    implied error count within `min(r, t)`, so it never accepts a
///    candidate the retry loop was not allowed to reach) before any
///    linear-system machinery is touched — `O(k·d)` instead of `O(k³)` in
///    the common no-error case. Under those two conditions the accepted
///    polynomial is unique, so the fast path can only find *the* answer
///    sooner, never a different one. This also subsumes the old `e = 0`
///    Berlekamp–Welch attempt and counts agreement exactly once per
///    candidate.
/// 2. The per-point Vandermonde power rows are computed once and shared
///    across the remaining `e = 1..=min(r, t)` retries.
/// 3. Gaussian pivots inside each solve are batch-inverted
///    ([`solve_linear_system`]).
pub fn oec_decode(d: usize, t: usize, points: &[(Fp, Fp)]) -> Option<Polynomial> {
    let k = points.len();
    if k < d + t + 1 {
        return None;
    }
    let max_errors = (k - (d + t + 1)).min(t);
    let agreement = |f: &Polynomial| points.iter().filter(|&&(x, y)| f.evaluate(x) == y).count();
    let f = interpolate_prefix(d, points);
    let agree = agreement(&f);
    // The extra `k - agree ≤ max_errors` guard keeps the fast path exactly
    // equivalent to the retry loop: without it, a candidate that treats more
    // points as erroneous than any loop iteration may ignore could be
    // accepted here although the loop (and the reference implementation)
    // would fail safe with `None` — reachable only when more than `t`
    // points are actually corrupt.
    if agree > d + t && k - agree <= max_errors {
        return Some(f);
    }
    if max_errors == 0 {
        return None;
    }
    let powers = PowerRows::new(points, d + max_errors);
    for e in 1..=max_errors {
        if let Some(f) = bw_solve(d, e, points, &powers) {
            if agreement(&f) > d + t {
                return Some(f);
            }
        }
    }
    None
}

/// Batched OEC over many values that share one `x`-coordinate vector (the
/// common case for [`Π_WPS` support sets and batched public
/// openings](crate::shamir)): the interpolate-and-verify fast path shares a
/// single [`LagrangeBasis`] over `xs[..d+1]` across all `columns`, falling
/// back to the full per-value [`oec_decode`] only for values where the fast
/// path does not accept.
///
/// `columns[v]` holds the received `y` values of value `v`, aligned with
/// `xs`. Returns `None` as soon as any value cannot be decoded yet.
///
/// # Panics
///
/// Panics if some column length differs from `xs.len()`.
pub fn oec_decode_batch(
    d: usize,
    t: usize,
    xs: &[Fp],
    columns: &[Vec<Fp>],
) -> Option<Vec<Polynomial>> {
    let k = xs.len();
    if k < d + t + 1 {
        return None;
    }
    let max_errors = (k - (d + t + 1)).min(t);
    let basis = LagrangeBasis::new(xs[..d + 1].to_vec());
    let mut out = Vec::with_capacity(columns.len());
    for ys in columns {
        assert_eq!(ys.len(), k, "column/xs length mismatch");
        let f = basis.interpolate(&ys[..d + 1]);
        let agree = xs
            .iter()
            .zip(ys)
            .filter(|&(&x, &y)| f.evaluate(x) == y)
            .count();
        // Same acceptance rule as `oec_decode`'s fast path, implied error
        // count included.
        if agree > d + t && k - agree <= max_errors {
            out.push(f);
            continue;
        }
        let points: Vec<(Fp, Fp)> = xs.iter().copied().zip(ys.iter().copied()).collect();
        out.push(oec_decode(d, t, &points)?);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluation_points::alpha;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn fp(v: u64) -> Fp {
        Fp::from_u64(v)
    }

    #[test]
    fn solve_simple_system() {
        // x + y = 5, x - y = 1  → x = 3, y = 2
        let a = vec![vec![fp(1), fp(1)], vec![fp(1), -fp(1)]];
        let b = vec![fp(5), fp(1)];
        let sol = solve_linear_system(&a, &b).unwrap();
        assert_eq!(sol, vec![fp(3), fp(2)]);
    }

    #[test]
    fn solve_inconsistent_system() {
        let a = vec![vec![fp(1), fp(1)], vec![fp(2), fp(2)]];
        let b = vec![fp(1), fp(3)];
        assert!(solve_linear_system(&a, &b).is_none());
    }

    #[test]
    fn solve_underdetermined_system() {
        let a = vec![vec![fp(1), fp(1)]];
        let b = vec![fp(4)];
        let sol = solve_linear_system(&a, &b).unwrap();
        assert_eq!(sol[0] + sol[1], fp(4));
    }

    #[test]
    fn bw_no_errors() {
        let mut rng = StdRng::seed_from_u64(20);
        let f = Polynomial::random(&mut rng, 3);
        let pts: Vec<(Fp, Fp)> = (0..8).map(|i| (alpha(i), f.evaluate(alpha(i)))).collect();
        assert_eq!(berlekamp_welch(3, 0, &pts).unwrap(), f);
    }

    #[test]
    fn bw_corrects_errors() {
        let mut rng = StdRng::seed_from_u64(21);
        let d = 3;
        let e = 2;
        let f = Polynomial::random(&mut rng, d);
        let mut pts: Vec<(Fp, Fp)> = (0..d + 2 * e + 1)
            .map(|i| (alpha(i), f.evaluate(alpha(i))))
            .collect();
        pts[0].1 += fp(99);
        pts[4].1 += fp(1);
        assert_eq!(berlekamp_welch(d, e, &pts).unwrap(), f);
    }

    #[test]
    fn bw_insufficient_points() {
        let pts = vec![(fp(1), fp(1)), (fp(2), fp(2))];
        assert!(berlekamp_welch(2, 1, &pts).is_none());
    }

    #[test]
    fn oec_waits_for_enough_points() {
        let mut rng = StdRng::seed_from_u64(22);
        let d = 2;
        let t = 1;
        let f = Polynomial::random(&mut rng, d);
        let pts: Vec<(Fp, Fp)> = (0..d + t)
            .map(|i| (alpha(i), f.evaluate(alpha(i))))
            .collect();
        assert!(oec_decode(d, t, &pts).is_none());
    }

    #[test]
    fn oec_with_corrupt_point() {
        let mut rng = StdRng::seed_from_u64(23);
        let d = 2;
        let t = 2;
        let f = Polynomial::random(&mut rng, d);
        // 7 points, one corrupted: d + t + 1 = 5 honest agreeing points exist.
        let mut pts: Vec<(Fp, Fp)> = (0..7).map(|i| (alpha(i), f.evaluate(alpha(i)))).collect();
        pts[3].1 += fp(7);
        assert_eq!(oec_decode(d, t, &pts).unwrap(), f);
    }

    #[test]
    fn oec_fast_path_fails_safe_beyond_the_corruption_model() {
        // d = 0, t = 1, four points of which two disagree with the first:
        // the constant 5 agrees with 2 > d + t points, but accepting it
        // would mean ignoring 2 > max_errors = 1 points. The pre-refactor
        // loop fails safe with None here; the fast path must too.
        let pts = vec![
            (alpha(0), fp(5)),
            (alpha(1), fp(5)),
            (alpha(2), fp(7)),
            (alpha(3), fp(9)),
        ];
        assert_eq!(oec_decode(0, 1, &pts), None);
        let columns = vec![pts.iter().map(|&(_, y)| y).collect::<Vec<_>>()];
        let xs: Vec<Fp> = pts.iter().map(|&(x, _)| x).collect();
        assert_eq!(oec_decode_batch(0, 1, &xs, &columns), None);
    }

    #[test]
    fn oec_does_not_output_wrong_polynomial_with_few_points() {
        // With exactly d+t+1 points and one error, OEC must not output (it
        // cannot correct yet) — it would need to wait for more points.
        let mut rng = StdRng::seed_from_u64(24);
        let d = 2;
        let t = 2;
        let f = Polynomial::random(&mut rng, d);
        let mut pts: Vec<(Fp, Fp)> = (0..d + t + 1)
            .map(|i| (alpha(i), f.evaluate(alpha(i))))
            .collect();
        pts[0].1 += fp(1);
        assert!(oec_decode(d, t, &pts).is_none());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn prop_oec_corrects_up_to_t_errors(
            seed in any::<u64>(),
            d in 1usize..4,
            t in 1usize..4,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let f = Polynomial::random(&mut rng, d);
            let n = d + 2 * t + 1;
            let mut pts: Vec<(Fp, Fp)> =
                (0..n).map(|i| (alpha(i), f.evaluate(alpha(i)))).collect();
            // corrupt exactly t random distinct points
            let mut corrupted = std::collections::HashSet::new();
            while corrupted.len() < t {
                corrupted.insert(rng.gen_range(0..n));
            }
            for &i in &corrupted {
                pts[i].1 += Fp::from_u64(rng.gen_range(1..1000));
            }
            prop_assert_eq!(oec_decode(d, t, &pts).unwrap(), f);
        }
    }
}
