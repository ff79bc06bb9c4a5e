//! The triple transformation that `Π_TripTrans` (Fig 7) and `Π_TripExt`
//! (Fig 9) both apply, and `Π_TripSh`'s supervised verification (Fig 8) of
//! the dealers' transformed triples: the Verify, γ and Suspect waves.

use std::sync::Arc;

use mpc_algebra::evaluation_points::{alpha, beta};
use mpc_algebra::{EvalDomain, Fp, LagrangeBasis};
use mpc_net::PartyId;
use mpc_protocols::acs::Acs;

use super::tripsh::TripleLayout;
use super::{Io, Wave};
use crate::triples::{
    beaver_masked_shares, beaver_output_share, interpolate_share_with, TripleShare,
};

/// The transformation of groups of `2d + 1` shared triples `(a_i, b_i, c_i)`
/// at degree `d`. Per group, `X`/`Y` are the degree-`d` polynomials through
/// the first `d + 1` points' `a`/`b`. `Z` is the degree-`2d` polynomial
/// through their `c` and, at each high point `i > d`, the Beaver product
/// `X(α_i)·Y(α_i)` computed with triple `i`. `Z = X·Y` exactly when every
/// input triple is a multiplication triple. `Π_TripTrans` runs it at
/// `d = t_s` on each dealer's raw triples of a batch; `Π_TripExt` at
/// `d = d_ext` on one verified triple per dealer.
#[derive(Clone, Debug)]
pub(super) struct Transform {
    d: usize,
    /// The input triples, group-major: point `i` of group `g` at
    /// `g · (2d + 1) + i`.
    points: Vec<TripleShare>,
    /// My share of `Z` at every point, in the same layout; empty until the
    /// wave resolves.
    zs: Vec<Fp>,
    /// The Lagrange bases over the first `d + 1` and all `2d + 1` points.
    low: Arc<LagrangeBasis>,
    all: Arc<LagrangeBasis>,
}

impl Transform {
    /// Opens the Beaver maskings of `X(α_i)·Y(α_i)` at every high point
    /// under `wave`.
    pub(super) fn issue(
        io: &mut Io<'_, '_>,
        wave: Wave,
        d: usize,
        points: Vec<TripleShare>,
    ) -> Self {
        let domain = EvalDomain::get(io.ctx.n);
        let (low, all) = (domain.prefix_basis(d + 1), domain.prefix_basis(2 * d + 1));
        let zs = Vec::new();
        let transform = Transform {
            d,
            points,
            zs,
            low,
            all,
        };
        let mut values = Vec::with_capacity(2 * transform.points.len());
        for (g, i) in transform.high() {
            let (x, y) = transform.xy_at(g, alpha(i));
            let (d, e) = beaver_masked_shares(x, y, &transform.points[g * transform.width() + i]);
            values.extend([d, e]);
        }
        io.open(wave, 0, values);
        transform
    }

    fn width(&self) -> usize {
        2 * self.d + 1
    }

    /// `(group, i)` of every high point, in wave order.
    fn high(&self) -> impl Iterator<Item = (usize, usize)> {
        let (d, width) = (self.d, self.width());
        (0..self.points.len() / width).flat_map(move |g| (d + 1..width).map(move |i| (g, i)))
    }

    /// Fixes `Z` at every point once the maskings are opened; `false` until
    /// then.
    pub(super) fn resolve(&mut self, io: &mut Io<'_, '_>, wave: Wave) -> bool {
        let Some(opened) = io.opened(wave, 0, 2 * self.high().count()) else {
            return false;
        };
        let mut zs: Vec<Fp> = self.points.iter().map(|t| t.c).collect();
        for ((g, i), de) in self.high().zip(opened.chunks_exact(2)) {
            let at = g * self.width() + i;
            zs[at] = beaver_output_share(de[0], de[1], &self.points[at]);
        }
        self.zs = zs;
        true
    }

    /// My shares of `X(target)` and `Y(target)` of group `g`.
    pub(super) fn xy_at(&self, g: usize, target: Fp) -> (Fp, Fp) {
        let group = &self.points[g * self.width()..];
        let dot = |(x, y), (&l, t): (&Fp, &TripleShare)| (x + l * t.a, y + l * t.b);
        let lambda = self.low.lambda_at(target);
        lambda.iter().zip(group).fold((Fp::ZERO, Fp::ZERO), dot)
    }

    /// My share of `Z(target)` of group `g`, once resolved.
    pub(super) fn z_at(&self, g: usize, target: Fp) -> Fp {
        let width = self.width();
        interpolate_share_with(&self.all, &self.zs[g * width..(g + 1) * width], target)
    }

    /// My shares of `(X, Y, Z)(target)` of group `g`, once resolved.
    pub(super) fn triple_at(&self, g: usize, target: Fp) -> TripleShare {
        let (x, y) = self.xy_at(g, target);
        TripleShare::new(x, y, self.z_at(g, target))
    }
}

/// `Π_TripSh`'s supervised verification. Every supervisor of `CS₂`
/// re-multiplies each dealer's transformed `X·Y` at its own point `α_s`
/// with a verification triple it dealt, and the parties open the difference
/// `γ` to `Z(α_s)`. A non-zero `γ` opens the point itself, and a dealer
/// whose opened point is not a multiplication triple has that batch replaced
/// by the default `(0, 0, 0)` sharing.
///
/// Check `c` is `(group, supervisor)` with `c = group · |CS₂| + s`; group
/// `dealer position · batches + batch` is the dealer transform's group.
#[derive(Clone, Debug)]
pub(super) struct Supervision {
    /// The first `2·d_ext + 1` members of `CS₂`.
    dealers: Vec<PartyId>,
    supervisors: Vec<PartyId>,
    batches: usize,
    /// `Π_TripTrans` at `d = t_s`, one group per dealer and batch.
    transform: Transform,
    /// My shares of each check's verification triple.
    checks: Vec<TripleShare>,
    /// The checks whose opened `γ` is non-zero, in check order.
    suspects: Vec<usize>,
    /// Per group: whether an opened suspect point convicted the dealer.
    flagged: Vec<bool>,
}

impl Supervision {
    /// Reads my shares of `CS₂`'s triples through `layout` once ACS #2 is
    /// ready, and opens the `Π_TripTrans` wave.
    pub(super) fn start(
        io: &mut Io<'_, '_>,
        acs2: &Acs,
        layout: &TripleLayout,
        d_ext: usize,
    ) -> Option<Self> {
        let supervisors = acs2.common_subset.clone()?;
        // 2·d + 1 ≤ n − t_s ≤ |CS₂| dealers
        let dealers = supervisors.get(..2 * d_ext + 1)?.to_vec();
        let batches = layout.batches();
        let (mut raw, mut checks) = (Vec::new(), Vec::new());
        for &dealer in &dealers {
            raw.extend(layout.raw_triples(acs2.shares_from(dealer)?));
            for batch in 0..batches {
                for &sup in &supervisors {
                    let shares = acs2.shares_from(sup)?;
                    checks.push(layout.verification(shares, batch, dealer));
                }
            }
        }
        let ts = io.ts;
        Some(Supervision {
            transform: Transform::issue(io, Wave::Transform, ts, raw),
            flagged: vec![false; dealers.len() * batches],
            dealers,
            supervisors,
            batches,
            checks,
            suspects: Vec::new(),
        })
    }

    /// `(group, supervisor)` of check `c`.
    fn check(&self, c: usize) -> (usize, PartyId) {
        let s = self.supervisors.len();
        (c / s, self.supervisors[c % s])
    }

    /// Resolves `Π_TripTrans`, then opens every check's Beaver maskings.
    pub(super) fn verify(&mut self, io: &mut Io<'_, '_>) -> bool {
        if !self.transform.resolve(io, Wave::Transform) {
            return false;
        }
        let mut values = Vec::with_capacity(2 * self.checks.len());
        for (c, triple) in self.checks.iter().enumerate() {
            let (g, sup) = self.check(c);
            let (x, y) = self.transform.xy_at(g, alpha(sup));
            let (d, e) = beaver_masked_shares(x, y, triple);
            values.extend([d, e]);
        }
        io.open(Wave::Verify, 0, values);
        true
    }

    /// Resolves the Verify wave, then opens every check's `γ`. `γ` is a
    /// linear combination of `t_s`-shared values, hence itself `t_s`-shared
    /// (the degree `2·t_s` of `Z` lives in the evaluation-point variable).
    pub(super) fn gamma(&mut self, io: &mut Io<'_, '_>) -> bool {
        let Some(opened) = io.opened(Wave::Verify, 0, 2 * self.checks.len()) else {
            return false;
        };
        let checks = self.checks.iter().enumerate().zip(opened.chunks_exact(2));
        let gamma = |((c, triple), de): ((usize, &TripleShare), &[Fp])| {
            let (g, sup) = self.check(c);
            self.transform.z_at(g, alpha(sup)) - beaver_output_share(de[0], de[1], triple)
        };
        let gammas = checks.map(gamma).collect();
        io.open(Wave::Gamma, 0, gammas);
        true
    }

    /// Resolves `γ`, then opens `X`, `Y` and `Z` at every suspect check:
    /// the checks whose (public, agreed) `γ` is non-zero, in check order.
    pub(super) fn suspect(&mut self, io: &mut Io<'_, '_>) -> bool {
        let Some(gammas) = io.opened(Wave::Gamma, 0, self.checks.len()) else {
            return false;
        };
        self.suspects = (0..gammas.len())
            .filter(|&c| !gammas[c].is_zero())
            .collect();
        let mut values = Vec::with_capacity(3 * self.suspects.len());
        for &c in &self.suspects {
            let (g, sup) = self.check(c);
            let t = self.transform.triple_at(g, alpha(sup));
            values.extend([t.a, t.b, t.c]);
        }
        io.open(Wave::Suspect, 0, values);
        true
    }

    /// Resolves the suspect wave and returns the verified triples, one per
    /// dealer and batch at `β_0`, regrouped batch-major: `Π_TripExt`'s
    /// groups. A convicted dealer's triple is the default sharing.
    pub(super) fn verified(&mut self, io: &mut Io<'_, '_>) -> Option<Vec<TripleShare>> {
        let opened = io.opened(Wave::Suspect, 0, 3 * self.suspects.len())?;
        let s = self.supervisors.len();
        for (&c, xyz) in self.suspects.iter().zip(opened.chunks_exact(3)) {
            if xyz[0] * xyz[1] != xyz[2] {
                self.flagged[c / s] = true;
            }
        }
        let (dealers, batches, at) = (self.dealers.len(), self.batches, beta(io.ctx.n, 0));
        let groups = (0..batches).flat_map(|batch| (0..dealers).map(move |p| p * batches + batch));
        let triple = |g: usize| match self.flagged[g] {
            true => TripleShare::zero(),
            false => self.transform.triple_at(g, at),
        };
        Some(groups.map(triple).collect())
    }
}

#[cfg(test)]
impl Supervision {
    /// `CS₂`, the checks that were suspected as `(dealer, batch,
    /// supervisor)`, and the `(dealer, batch)` groups that were convicted.
    #[allow(clippy::type_complexity)]
    pub(super) fn outcome(
        &self,
    ) -> (
        &[PartyId],
        Vec<(PartyId, usize, PartyId)>,
        Vec<(PartyId, usize)>,
    ) {
        let group = |g: usize| (self.dealers[g / self.batches], g % self.batches);
        let suspects = self.suspects.iter().map(|&c| {
            let (g, sup) = self.check(c);
            let (dealer, batch) = group(g);
            (dealer, batch, sup)
        });
        let flagged = (0..self.flagged.len()).filter(|&g| self.flagged[g]);
        (
            &self.supervisors,
            suspects.collect(),
            flagged.map(group).collect(),
        )
    }
}
