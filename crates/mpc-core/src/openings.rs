//! Robust public reconstruction of `t_s`-shared values.
//!
//! Beaver's protocol, the triple-verification steps of `Π_TripSh` and the
//! output phase of `Π_CirEval` all publicly reconstruct shared values: every
//! party sends its share to everyone and applies `OEC(t_s, t_s, P)` on what it
//! receives. [`OpeningManager`] tracks such reconstructions in parallel, keyed
//! by a tag agreed implicitly by all parties. A tag carries a whole *batch* —
//! everything opened at one protocol instant (a preprocessing wave, a
//! multiplication layer) is one `Msg::Open`, decoded over one shared OEC
//! basis; a value's position in the batch is part of the same agreement.
//!
//! **Wrong length = silent.** Honest parties send exactly `count` values and
//! `count` is public by the time anyone decodes, so any other length proves
//! the sender corrupt: it is ignored for the tag (at decode time — early
//! arrivals can precede the local `count`) and does not count towards the
//! `degree + t + 1` gate. Honest points alone always suffice, so this is
//! silence the sender could have chosen anyway. **Empty batches never touch
//! the wire.** The caller drops tags outside the run's legal set before
//! [`OpeningManager::on_open`], which bounds the state here.
//!
//! [`OpeningManager::try_reconstruct`] recovers each value's secret at `0`;
//! [`OpeningManager::try_reconstruct_at`] evaluates the decoded polynomials
//! at an arbitrary public point set (the packed engine reads all `ℓ` slot
//! values out of one opening). One flavour per tag — the cache is shared.

use std::collections::BTreeMap;

use mpc_algebra::evaluation_points::alpha;
use mpc_algebra::{rs, Fp, Polynomial};
use mpc_net::{Context, PartyId};
use mpc_protocols::Msg;

/// Tracks concurrent public reconstructions of batches of shared values.
/// The maps are ordered ones: a run opens under few tags, and an empty
/// manager then allocates nothing and costs nothing to build (`CirEval`
/// moves its manager out and back on every activation).
#[derive(Debug, Default)]
pub struct OpeningManager {
    received: BTreeMap<u32, BTreeMap<PartyId, Vec<Fp>>>,
    opened: BTreeMap<u32, Vec<Fp>>,
    my_batches: BTreeMap<u32, usize>,
    /// Well-formed sender count at the last *failed* decode attempt per tag.
    /// `on_open` only ever adds senders, so an unchanged count means no new
    /// information and the retry is skipped without rebuilding columns.
    last_attempt: BTreeMap<u32, usize>,
}

/// Decodes every value of a batch to its full sharing polynomial. All
/// `count` values share the senders' evaluation points, so the OEC
/// interpolate-and-verify basis is built once ([`rs::oec_decode_batch`]).
fn decode_polys(
    senders: &[(&PartyId, &Vec<Fp>)],
    count: usize,
    degree: usize,
    t: usize,
) -> Option<Vec<Polynomial>> {
    let xs: Vec<Fp> = senders.iter().map(|(&p, _)| alpha(p)).collect();
    let columns: Vec<Vec<Fp>> = (0..count)
        .map(|idx| senders.iter().map(|(_, v)| v[idx]).collect())
        .collect();
    rs::oec_decode_batch(degree, t, &xs, &columns)
}

impl OpeningManager {
    /// Creates an empty manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts the public reconstruction of a batch of values by sending this
    /// party's shares to everyone under the given tag. Only the first batch
    /// under a tag is sent. An empty batch sends nothing (it reconstructs to
    /// the empty slice without any message).
    pub fn open(&mut self, ctx: &mut Context<'_, Msg>, tag: u32, my_shares: Vec<Fp>) {
        if my_shares.is_empty() || self.my_batches.contains_key(&tag) {
            return;
        }
        self.my_batches.insert(tag, my_shares.len());
        ctx.broadcast(Msg::Open {
            tag,
            values: my_shares,
        });
    }

    /// Records a received `Open` message (first batch per sender and tag
    /// wins, and only it is copied). The caller has already dropped illegal
    /// tags and senders.
    pub fn on_open(&mut self, from: PartyId, tag: u32, values: &[Fp]) {
        self.received
            .entry(tag)
            .or_default()
            .entry(from)
            .or_insert_with(|| values.to_vec());
    }

    /// Runs the shared decode pipeline for `tag` (sender gate, failed-attempt
    /// memo) and returns the decoded polynomials on first success.
    fn decode(
        &mut self,
        tag: u32,
        count: usize,
        degree: usize,
        t: usize,
    ) -> Option<Vec<Polynomial>> {
        if count == 0 {
            return Some(Vec::new());
        }
        // Wrong length = silent: only exact-`count` batches are senders.
        let received = self.received.get(&tag)?.iter();
        let senders: Vec<_> = received.filter(|(_, v)| v.len() == count).collect();
        // `OEC(d, t, ·)` cannot succeed on fewer than `d + t + 1` points
        // (see `rs::oec_decode`); bail out before building the columns.
        let k = senders.len();
        if k < degree + t + 1 || self.last_attempt.get(&tag) == Some(&k) {
            return None;
        }
        let polys = decode_polys(&senders, count, degree, t);
        match polys {
            Some(_) => self.last_attempt.remove(&tag),
            None => self.last_attempt.insert(tag, k),
        };
        polys
    }

    /// Attempts to reconstruct the batch under `tag` (containing `count`
    /// values, each shared with degree `degree` and at most `t` corrupt
    /// shares). Returns the secrets (the value of each sharing polynomial at
    /// `0`); `count = 0` is the empty slice without waiting for anyone.
    /// Results are cached once successful.
    pub fn try_reconstruct(
        &mut self,
        tag: u32,
        count: usize,
        degree: usize,
        t: usize,
    ) -> Option<&[Fp]> {
        if !self.opened.contains_key(&tag) {
            let polys = self.decode(tag, count, degree, t)?;
            let out = polys.iter().map(|p| p.constant_term()).collect();
            self.opened.insert(tag, out);
        }
        self.opened.get(&tag).map(Vec::as_slice)
    }

    /// Attempts to reconstruct the batch under `tag` and evaluate every
    /// decoded polynomial at each of the given public `points` — the packed
    /// opening: every value of the batch carries a whole ℓ-block, and the
    /// slot points unpack it into `count · points.len()` public values.
    ///
    /// The result is flattened value-major: entry `v · points.len() + k` is
    /// value `v` evaluated at `points[k]`. Cached once successful (under the
    /// same cache as [`OpeningManager::try_reconstruct`] — do not mix
    /// flavours on one tag).
    pub fn try_reconstruct_at(
        &mut self,
        tag: u32,
        count: usize,
        degree: usize,
        t: usize,
        points: &[Fp],
    ) -> Option<&[Fp]> {
        if !self.opened.contains_key(&tag) {
            let polys = self.decode(tag, count, degree, t)?;
            let mut out = Vec::with_capacity(count * points.len());
            for poly in &polys {
                out.extend(points.iter().map(|&x| poly.evaluate(x)));
            }
            self.opened.insert(tag, out);
        }
        self.opened.get(&tag).map(Vec::as_slice)
    }

    /// Number of tags with buffered batches (state-growth probe for tests).
    #[cfg(test)]
    pub(crate) fn tracked_tags(&self) -> usize {
        self.received.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_algebra::evaluation_points::slot;
    use mpc_algebra::{shamir, PackedDomain};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn reconstructs_batch_with_corrupt_share() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 7;
        let t = 2;
        let s1 = shamir::share(&mut rng, Fp::from_u64(11), t, n);
        let s2 = shamir::share(&mut rng, Fp::from_u64(22), t, n);
        let mut mgr = OpeningManager::new();
        for p in 0..n {
            let mut values = vec![s1.shares[p], s2.shares[p]];
            if p == 3 {
                values[0] += Fp::from_u64(5); // corrupt share
            }
            mgr.on_open(p, 7, &values);
        }
        let out = mgr.try_reconstruct(7, 2, t, t).unwrap().to_vec();
        assert_eq!(out, vec![Fp::from_u64(11), Fp::from_u64(22)]);
    }

    #[test]
    fn insufficient_shares_return_none() {
        let mut rng = StdRng::seed_from_u64(2);
        let n = 7;
        let t = 2;
        let s = shamir::share(&mut rng, Fp::from_u64(9), t, n);
        let mut mgr = OpeningManager::new();
        for p in 0..3 {
            mgr.on_open(p, 1, &[s.shares[p]]);
        }
        assert!(mgr.try_reconstruct(1, 1, t, t).is_none());
    }

    #[test]
    fn reconstruct_at_unpacks_slot_values() {
        let mut rng = StdRng::seed_from_u64(3);
        let (n, ts, ell) = (8, 1, 3);
        let dom = PackedDomain::get(n, ell);
        let degree = ts + ell - 1;
        let va: Vec<Fp> = (0..ell as u64).map(|v| Fp::from_u64(100 + v)).collect();
        let vb: Vec<Fp> = (0..ell as u64).map(|v| Fp::from_u64(200 + v)).collect();
        let sa = dom.share(&mut rng, &va, ts);
        let sb = dom.share(&mut rng, &vb, ts);
        let mut mgr = OpeningManager::new();
        for p in 0..n {
            let mut values = vec![sa.shares[p], sb.shares[p]];
            if p == 5 {
                values[1] += Fp::from_u64(3); // corrupt share, within OEC budget
            }
            mgr.on_open(p, 9, &values);
        }
        let slots: Vec<Fp> = (0..ell).map(slot).collect();
        let out = mgr
            .try_reconstruct_at(9, 2, degree, ts, &slots)
            .unwrap()
            .to_vec();
        assert_eq!(out[..ell], va[..]);
        assert_eq!(out[ell..], vb[..]);
    }

    /// Shares `secrets` among `n` parties as one batch per party.
    fn share_batch(seed: u64, secrets: &[u64], t: usize, n: usize) -> Vec<Vec<Fp>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let sharings: Vec<_> = secrets
            .iter()
            .map(|&s| shamir::share(&mut rng, Fp::from_u64(s), t, n))
            .collect();
        (0..n)
            .map(|p| sharings.iter().map(|s| s.shares[p]).collect())
            .collect()
    }

    #[test]
    fn wrong_length_batches_decode_like_absent_senders() {
        let (n, t) = (7, 2);
        let secrets = [11u64, 22, 33];
        let batches = share_batch(5, &secrets, t, n);
        let malformations: [fn(&mut Vec<Fp>); 3] = [
            |v| v.truncate(2),
            |v| v.push(Fp::from_u64(9)),
            |v| v.clear(),
        ];
        for malform in malformations {
            let (mut with, mut without) = (OpeningManager::new(), OpeningManager::new());
            for (p, batch) in batches.iter().enumerate() {
                let mut batch = batch.clone();
                if p == 1 || p == 4 {
                    // ≤ t_s malformed senders, arriving before anyone decodes
                    malform(&mut batch);
                } else {
                    without.on_open(p, 7, &batch);
                }
                with.on_open(p, 7, &batch);
            }
            let expected: Vec<Fp> = secrets.iter().map(|&s| Fp::from_u64(s)).collect();
            assert_eq!(with.try_reconstruct(7, 3, t, t), Some(&expected[..]));
            assert_eq!(without.try_reconstruct(7, 3, t, t), Some(&expected[..]));
        }
    }

    #[test]
    fn wrong_length_senders_do_not_count_towards_the_quorum() {
        // A 2·t_s + 1 quorum in which t_s + 1 batches are short leaves t_s
        // well-formed points: below the d + t + 1 gate, no decode, no memo.
        let (n, t) = (7, 2);
        let batches = share_batch(6, &[11, 22, 33], t, n);
        let mut mgr = OpeningManager::new();
        for (p, batch) in batches.iter().enumerate().take(2 * t + 1) {
            let len = if p <= t { 2 } else { 3 };
            mgr.on_open(p, 7, &batch[..len]);
        }
        assert!(mgr.try_reconstruct(7, 3, t, t).is_none());
        assert!(mgr.last_attempt.is_empty());
    }

    #[test]
    fn empty_batch_reconstructs_without_waiting_for_anyone() {
        let mut mgr = OpeningManager::new();
        assert_eq!(mgr.try_reconstruct(3, 0, 2, 2), Some(&[][..]));
        assert!(mgr.received.is_empty());
    }

    #[test]
    fn failed_attempts_are_memoised_until_new_senders_arrive() {
        let mut rng = StdRng::seed_from_u64(4);
        let n = 7;
        let t = 2;
        let s = shamir::share(&mut rng, Fp::from_u64(77), t, n);
        let mut mgr = OpeningManager::new();
        // d + t + 1 = 5 senders, but two of them lie → decode fails.
        for p in 0..5 {
            let mut v = vec![s.shares[p]];
            if p < 2 {
                v[0] += Fp::from_u64(1);
            }
            mgr.on_open(p, 11, &v);
        }
        assert!(mgr.try_reconstruct(11, 1, t, t).is_none());
        assert_eq!(mgr.last_attempt.get(&11), Some(&5));
        // Same sender set → memoised early-out (no state change).
        assert!(mgr.try_reconstruct(11, 1, t, t).is_none());
        // A wrong-length batch is no new sender: the memo still holds.
        mgr.on_open(5, 11, &[s.shares[5]; 2]);
        assert!(mgr.try_reconstruct(11, 1, t, t).is_none());
        assert_eq!(mgr.last_attempt.get(&11), Some(&5));
        mgr.received.get_mut(&11).unwrap().remove(&5);
        // Two more honest senders → retry succeeds.
        for p in 5..7 {
            mgr.on_open(p, 11, &[s.shares[p]]);
        }
        assert_eq!(
            mgr.try_reconstruct(11, 1, t, t),
            Some(&[Fp::from_u64(77)][..])
        );
        assert!(!mgr.last_attempt.contains_key(&11));
    }
}
