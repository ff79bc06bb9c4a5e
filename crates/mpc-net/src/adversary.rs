//! The static-corruption model of the paper, plus pluggable wire-level
//! Byzantine behaviours.
//!
//! A computationally unbounded Byzantine adversary picks a set of parties to
//! corrupt *before* the execution starts (static corruption). In a
//! synchronous network it may corrupt up to `t_s` parties; in an asynchronous
//! network up to `t_a`, where `t_a < t_s` and `3·t_s + t_a < n`.
//!
//! Corruption acts at two layers:
//!
//! * **behavioural** — a corrupt party runs a different root protocol
//!   (`mpc_protocols::byzantine`);
//! * **wire-level** — a [`ByzantineStrategy`] intercepts every byte string a
//!   corrupt party puts on a channel and may pass it through, replace it, or
//!   drop it. Byte tampering is meaningful because messages really are bytes
//!   ([`crate::wire`]): a garbled payload that no longer decodes is treated
//!   by the receiving boundary as Byzantine input and dropped, never a panic.

use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

use crate::transport::PartyId;

/// The set of statically corrupted parties.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CorruptionSet {
    corrupt: Vec<PartyId>,
}

impl CorruptionSet {
    /// No corruptions.
    pub fn none() -> Self {
        CorruptionSet {
            corrupt: Vec::new(),
        }
    }

    /// Corrupts exactly the listed parties.
    pub fn new(mut corrupt: Vec<PartyId>) -> Self {
        corrupt.sort_unstable();
        corrupt.dedup();
        CorruptionSet { corrupt }
    }

    /// Corrupts the first `t` parties (`P_1 … P_t`) — convenient for tests.
    pub fn first(t: usize) -> Self {
        CorruptionSet {
            corrupt: (0..t).collect(),
        }
    }

    /// Corrupts the last `t` of `n` parties.
    pub fn last(n: usize, t: usize) -> Self {
        CorruptionSet {
            corrupt: (n.saturating_sub(t)..n).collect(),
        }
    }

    /// Corrupts `t` of `n` parties chosen uniformly (deterministically from
    /// `seed`), so tests and benchmarks can sweep corruption *placements*
    /// instead of always corrupting the first or last `t` parties.
    ///
    /// # Panics
    ///
    /// Panics if `t > n`.
    pub fn random(n: usize, t: usize, seed: u64) -> Self {
        assert!(t <= n, "cannot corrupt {t} of {n} parties");
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC0_44_u64.rotate_left(17));
        let mut ids: Vec<PartyId> = (0..n).collect();
        // Partial Fisher–Yates: the first t slots end up uniformly chosen.
        for i in 0..t {
            let j = rng.gen_range(i..n);
            ids.swap(i, j);
        }
        Self::new(ids[..t].to_vec())
    }

    /// Is `p` corrupt?
    pub fn is_corrupt(&self, p: PartyId) -> bool {
        self.corrupt.binary_search(&p).is_ok()
    }

    /// Is `p` honest?
    pub fn is_honest(&self, p: PartyId) -> bool {
        !self.is_corrupt(p)
    }

    /// Number of corrupt parties.
    pub fn count(&self) -> usize {
        self.corrupt.len()
    }

    /// The corrupt party ids, sorted.
    pub fn corrupt_parties(&self) -> &[PartyId] {
        &self.corrupt
    }

    /// The honest party ids among `0..n`, sorted.
    pub fn honest_parties(&self, n: usize) -> Vec<PartyId> {
        (0..n).filter(|&p| self.is_honest(p)).collect()
    }
}

/// One outgoing wire message from a corrupt sender, as seen by a
/// [`ByzantineStrategy`]. For a broadcast the strategy is consulted once per
/// recipient (`broadcast == true`), which is what makes equivocation
/// expressible: different recipients may receive different bytes.
#[derive(Debug)]
pub struct WireSend<'a> {
    /// The corrupt sending party.
    pub from: PartyId,
    /// The receiving party.
    pub to: PartyId,
    /// Total number of parties `n`.
    pub n: usize,
    /// Instance path the message is addressed to.
    pub path: &'a [u32],
    /// The canonical encoding of the payload.
    pub bytes: &'a [u8],
    /// Whether this copy is part of a broadcast effect.
    pub broadcast: bool,
}

/// What a [`ByzantineStrategy`] decided to do with one wire message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireAction {
    /// Deliver the bytes unchanged (the payload stays shared).
    Deliver,
    /// Deliver these bytes instead (equivocation, garbling, …). The
    /// replacement need not decode — undecodable bytes are dropped at the
    /// receiving boundary and counted in [`crate::Metrics::decode_failures`].
    Replace(Vec<u8>),
    /// Suppress the message entirely (crash/omission behaviour).
    Drop,
}

/// A wire-level Byzantine behaviour, applied by the simulator to every
/// message sent by a *corrupt* party (honest parties' channels are private
/// and authentic, so the adversary cannot touch them).
///
/// Strategies are consulted at the send boundary with the already-encoded
/// canonical bytes and draw any randomness they need from the transport's
/// dedicated adversary RNG, keeping runs reproducible. `Send` because the
/// threaded transport backend consults the (mutex-guarded) strategy from the
/// corrupt party's own thread.
pub trait ByzantineStrategy: Send {
    /// Decides the fate of one outgoing message of a corrupt sender.
    fn on_send(&mut self, send: &WireSend<'_>, rng: &mut StdRng) -> WireAction;
}

/// The default strategy: corrupt parties' messages pass through untouched
/// (their misbehaviour, if any, is purely behavioural).
#[derive(Clone, Copy, Debug, Default)]
pub struct Passive;

impl ByzantineStrategy for Passive {
    fn on_send(&mut self, _send: &WireSend<'_>, _rng: &mut StdRng) -> WireAction {
        WireAction::Deliver
    }
}

/// Crash-style corruption: every message of a corrupt sender is suppressed.
#[derive(Clone, Copy, Debug, Default)]
pub struct Crash;

impl ByzantineStrategy for Crash {
    fn on_send(&mut self, _send: &WireSend<'_>, _rng: &mut StdRng) -> WireAction {
        WireAction::Drop
    }
}

/// Equivocate on broadcasts: recipients in the upper half of the id space
/// receive `alt` (an alternative canonical encoding chosen by the test)
/// instead of the real payload; unicasts pass through unchanged.
#[derive(Clone, Debug)]
pub struct EquivocateBroadcast {
    /// The alternative byte string delivered to recipients with
    /// `to ≥ n / 2`.
    pub alt: Vec<u8>,
}

impl ByzantineStrategy for EquivocateBroadcast {
    fn on_send(&mut self, send: &WireSend<'_>, _rng: &mut StdRng) -> WireAction {
        if send.broadcast && send.to >= send.n / 2 {
            WireAction::Replace(self.alt.clone())
        } else {
            WireAction::Deliver
        }
    }
}

/// Garble the payload bytes of every corrupt-sender message: each byte is
/// XORed with a random mask with probability ≈ 1/4, and at least one byte is
/// always flipped. Most garbled payloads fail to decode and are dropped at
/// the receiving boundary, so this strategy stress-tests that decode
/// failures are handled as Byzantine input rather than panics.
#[derive(Clone, Copy, Debug, Default)]
pub struct GarbleBytes;

impl ByzantineStrategy for GarbleBytes {
    fn on_send(&mut self, send: &WireSend<'_>, rng: &mut StdRng) -> WireAction {
        let mut bytes = send.bytes.to_vec();
        let mut flipped = false;
        for b in bytes.iter_mut() {
            if rng.gen_range(0..4u8) == 0 {
                *b ^= rng.gen_range(1..=u8::MAX);
                flipped = true;
            }
        }
        if !flipped {
            if let Some(b) = bytes.first_mut() {
                *b ^= 0xFF;
            }
        }
        WireAction::Replace(bytes)
    }
}

/// Makes any randomized strategy's decisions a pure function of the channel:
/// each `(from, to)` pair keeps its own consult counter, and every consult
/// hands the inner strategy a fresh RNG seeded from
/// `(seed, from, to, counter)` instead of the transport's shared adversary
/// RNG stream.
///
/// This removes the one source of cross-backend divergence randomized
/// strategies have: the simulator consults the strategy in global event
/// order while the threaded backend consults it in the corrupt parties'
/// thread order, so a strategy that draws from the *shared* stream (e.g.
/// [`GarbleBytes`]) only conforms when a single corrupt party fixes the
/// consult order. Wrapped in `ChannelDeterministic`, the draws depend only
/// on the channel and its consult index — identical on both backends for
/// any corruption set.
#[derive(Clone, Debug)]
pub struct ChannelDeterministic<S> {
    inner: S,
    seed: u64,
    counters: std::collections::BTreeMap<(PartyId, PartyId), u64>,
}

impl<S> ChannelDeterministic<S> {
    /// Wraps `inner`, deriving all per-consult randomness from `seed`.
    pub fn new(inner: S, seed: u64) -> Self {
        ChannelDeterministic {
            inner,
            seed,
            counters: std::collections::BTreeMap::new(),
        }
    }
}

impl<S: ByzantineStrategy> ByzantineStrategy for ChannelDeterministic<S> {
    fn on_send(&mut self, send: &WireSend<'_>, _rng: &mut StdRng) -> WireAction {
        let k = self.counters.entry((send.from, send.to)).or_insert(0);
        let mix = self
            .seed
            .wrapping_add((send.from as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add((send.to as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F))
            .wrapping_add(k.wrapping_mul(0x1656_67B1_9E37_79F9));
        *k += 1;
        let mut channel_rng = StdRng::seed_from_u64(mix);
        self.inner.on_send(send, &mut channel_rng)
    }
}

/// Checks the paper's main resilience condition `3·t_s + t_a < n`
/// (which implies `t_s < n/3` and `t_a < n/4`).
pub fn thresholds_feasible(n: usize, ts: usize, ta: usize) -> bool {
    ta <= ts && 3 * ts + ta < n
}

// ---------------------------------------------------------------------------
// Pluggable adversary structures
// ---------------------------------------------------------------------------

/// A pluggable *adversary structure*: which corruption sets the adversary may
/// pick in each network kind.
///
/// The paper works with the threshold special case (`|Z| ≤ t_s` synchronously,
/// `|Z| ≤ t_a` asynchronously), but the same authors generalized the protocol
/// line to arbitrary monotone structures (arXiv:2208.06223), where feasibility
/// becomes the `Q^(3,1)(P, Z_s, Z_a)` condition: no union of three
/// sync-admissible sets and one async-admissible set covers the whole party
/// set. This trait abstracts both so the builder and the transports can
/// validate corruption placements against either.
///
/// The share-based protocols themselves still run at the structure's
/// *threshold hull* [`AdversaryStructure::threshold_projection`] — a general
/// structure refines **which** sets are admissible, while the Shamir degrees
/// come from the hull, which must itself satisfy [`thresholds_feasible`].
pub trait AdversaryStructure: Send + Sync + std::fmt::Debug {
    /// Number of parties the structure is defined over.
    fn n(&self) -> usize;

    /// May the adversary corrupt exactly `set` when the network turns out to
    /// be synchronous? Monotone: any subset of an admissible set is
    /// admissible.
    fn sync_admissible(&self, set: &[PartyId]) -> bool;

    /// May the adversary corrupt exactly `set` when the network turns out to
    /// be asynchronous?
    fn async_admissible(&self, set: &[PartyId]) -> bool;

    /// The threshold hull `(t_s, t_a)`: the largest sync- and
    /// async-admissible set sizes. The protocol parameter plumbing
    /// (`Params`) is derived from this projection.
    fn threshold_projection(&self) -> (usize, usize);

    /// Does the structure admit a perfectly-secure best-of-both-worlds
    /// protocol? Threshold case: `t_a ≤ t_s ∧ 3·t_s + t_a < n`. General
    /// case: `Q^(3,1)` plus every async-admissible set being
    /// sync-admissible.
    fn feasible(&self) -> bool;
}

/// The paper's own threshold structure: any set of at most `t_s` parties
/// synchronously, at most `t_a` asynchronously.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ThresholdAdversary {
    /// Number of parties.
    pub n: usize,
    /// Synchronous corruption threshold.
    pub ts: usize,
    /// Asynchronous corruption threshold.
    pub ta: usize,
}

impl ThresholdAdversary {
    /// A threshold structure over `n` parties. Feasibility is *reported* by
    /// [`AdversaryStructure::feasible`], not asserted here, so a caller can
    /// also describe infeasible corners.
    pub fn new(n: usize, ts: usize, ta: usize) -> Self {
        ThresholdAdversary { n, ts, ta }
    }
}

impl AdversaryStructure for ThresholdAdversary {
    fn n(&self) -> usize {
        self.n
    }
    fn sync_admissible(&self, set: &[PartyId]) -> bool {
        set.iter().all(|&p| p < self.n) && distinct_len(set) <= self.ts
    }
    fn async_admissible(&self, set: &[PartyId]) -> bool {
        set.iter().all(|&p| p < self.n) && distinct_len(set) <= self.ta
    }
    fn threshold_projection(&self) -> (usize, usize) {
        (self.ts, self.ta)
    }
    fn feasible(&self) -> bool {
        thresholds_feasible(self.n, self.ts, self.ta)
    }
}

/// Number of distinct elements of a (possibly unsorted) id list.
fn distinct_len(set: &[PartyId]) -> usize {
    let mut s: Vec<PartyId> = set.to_vec();
    s.sort_unstable();
    s.dedup();
    s.len()
}

/// An explicit-set general (non-threshold) adversary structure, given by its
/// maximal sets: a corruption set is admissible iff it is a subset of one of
/// them. This is the second [`AdversaryStructure`] instance — small by
/// construction (maximal sets are listed explicitly), matching the
/// general-adversary model of arXiv:2208.06223 at the scale the tests run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GeneralAdversary {
    n: usize,
    sync_max: Vec<Vec<PartyId>>,
    async_max: Vec<Vec<PartyId>>,
}

impl GeneralAdversary {
    /// Builds the structure from explicit maximal-set lists. Sets are
    /// sorted/deduped and dominated sets (subsets of another listed set)
    /// removed, so the stored representation is canonical.
    ///
    /// # Panics
    ///
    /// Panics if any listed party id is `≥ n`.
    pub fn new(n: usize, sync_max: Vec<Vec<PartyId>>, async_max: Vec<Vec<PartyId>>) -> Self {
        let canon = |sets: Vec<Vec<PartyId>>| -> Vec<Vec<PartyId>> {
            let mut sets: Vec<Vec<PartyId>> = sets
                .into_iter()
                .map(|mut s| {
                    s.sort_unstable();
                    s.dedup();
                    assert!(s.iter().all(|&p| p < n), "party id out of range");
                    s
                })
                .collect();
            sets.sort();
            sets.dedup();
            let dominated: Vec<bool> = sets
                .iter()
                .map(|s| {
                    sets.iter()
                        .any(|o| o != s && s.iter().all(|p| o.contains(p)))
                })
                .collect();
            sets.into_iter()
                .zip(dominated)
                .filter_map(|(s, d)| (!d).then_some(s))
                .collect()
        };
        GeneralAdversary {
            n,
            sync_max: canon(sync_max),
            async_max: canon(async_max),
        }
    }

    fn admissible_in(sets: &[Vec<PartyId>], set: &[PartyId]) -> bool {
        let mut set: Vec<PartyId> = set.to_vec();
        set.sort_unstable();
        set.dedup();
        if set.is_empty() {
            return true; // the empty set is always admissible (monotonicity)
        }
        sets.iter().any(|max| set.iter().all(|p| max.contains(p)))
    }
}

impl AdversaryStructure for GeneralAdversary {
    fn n(&self) -> usize {
        self.n
    }
    fn sync_admissible(&self, set: &[PartyId]) -> bool {
        set.iter().all(|&p| p < self.n) && Self::admissible_in(&self.sync_max, set)
    }
    fn async_admissible(&self, set: &[PartyId]) -> bool {
        set.iter().all(|&p| p < self.n) && Self::admissible_in(&self.async_max, set)
    }
    fn threshold_projection(&self) -> (usize, usize) {
        let hull = |sets: &[Vec<PartyId>]| sets.iter().map(Vec::len).max().unwrap_or(0);
        (hull(&self.sync_max), hull(&self.async_max))
    }
    fn feasible(&self) -> bool {
        // Every async-admissible set must also be sync-admissible (the
        // general-adversary analogue of t_a ≤ t_s) …
        if !self
            .async_max
            .iter()
            .all(|z| Self::admissible_in(&self.sync_max, z))
        {
            return false;
        }
        // … and Q^(3,1): no Z1 ∪ Z2 ∪ Z3 ∪ Z4 (Z1..3 ∈ Z_s, Z4 ∈ Z_a)
        // covers the party set. Empty structures contribute ∅.
        let empty = vec![Vec::new()];
        let zs = if self.sync_max.is_empty() {
            &empty
        } else {
            &self.sync_max
        };
        let za = if self.async_max.is_empty() {
            &empty
        } else {
            &self.async_max
        };
        for z1 in zs {
            for z2 in zs {
                for z3 in zs {
                    for z4 in za {
                        let mut cover = vec![false; self.n];
                        for z in [z1, z2, z3, z4] {
                            for &p in z {
                                cover[p] = true;
                            }
                        }
                        if cover.iter().all(|&c| c) {
                            return false;
                        }
                    }
                }
            }
        }
        true
    }
}

/// The largest feasible `(t_s, t_a)` pairs for a given `n`: for every `t_s`
/// up to `⌈n/3⌉−1`, the maximum `t_a` satisfying `3·t_s + t_a < n` (capped at
/// `t_s`). Used by experiment E1.
pub fn feasible_threshold_pairs(n: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut ts = 0usize;
    while 3 * ts < n {
        if (3 * ts) < n {
            let max_ta = (n - 1 - 3 * ts).min(ts);
            out.push((ts, max_ta));
        }
        ts += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// All `k`-subsets of `0..n`, each sorted, in lexicographic order.
    fn k_subsets(n: usize, k: usize) -> Vec<Vec<PartyId>> {
        if k > n {
            return Vec::new();
        }
        let mut out = Vec::new();
        let mut cur: Vec<PartyId> = (0..k).collect();
        loop {
            out.push(cur.clone());
            // advance to the next combination
            let mut i = k;
            loop {
                if i == 0 {
                    return out;
                }
                i -= 1;
                if cur[i] != i + n - k {
                    break;
                }
                if i == 0 {
                    return out;
                }
            }
            cur[i] += 1;
            for j in i + 1..k {
                cur[j] = cur[j - 1] + 1;
            }
        }
    }

    /// The maximal sets among the subsets of `0..n` that `admissible`
    /// accepts, each sorted, in lexicographic order: the worst-case
    /// corruption placements, found by brute force.
    fn maximal_sets(n: usize, admissible: impl Fn(&[PartyId]) -> bool) -> Vec<Vec<PartyId>> {
        let subset = |mask: u32| (0..n).filter(|&p| mask >> p & 1 == 1).collect::<Vec<_>>();
        let ok: Vec<Vec<PartyId>> = (0..1 << n).map(subset).filter(|z| admissible(z)).collect();
        let inside = |z: &Vec<PartyId>, y: &Vec<PartyId>| z.iter().all(|p| y.contains(p));
        let mut max: Vec<Vec<PartyId>> = ok
            .iter()
            .filter(|z| !ok.iter().any(|y| y.len() > z.len() && inside(z, y)))
            .cloned()
            .collect();
        max.sort();
        max
    }

    #[test]
    fn corruption_set_membership() {
        let c = CorruptionSet::new(vec![4, 1, 4]);
        assert!(c.is_corrupt(1));
        assert!(c.is_corrupt(4));
        assert!(c.is_honest(0));
        assert_eq!(c.count(), 2);
        assert_eq!(c.honest_parties(5), vec![0, 2, 3]);
    }

    #[test]
    fn first_and_last_helpers() {
        assert_eq!(CorruptionSet::first(2).corrupt_parties(), &[0, 1]);
        assert_eq!(CorruptionSet::last(7, 2).corrupt_parties(), &[5, 6]);
    }

    #[test]
    fn random_corruption_is_deterministic_and_well_formed() {
        for n in [4usize, 7, 13] {
            for t in 0..=(n - 1) / 3 {
                for seed in 0..20u64 {
                    let a = CorruptionSet::random(n, t, seed);
                    assert_eq!(a, CorruptionSet::random(n, t, seed), "same seed, same set");
                    assert_eq!(a.count(), t);
                    assert!(a.corrupt_parties().iter().all(|&p| p < n));
                }
            }
        }
        // different seeds must actually move the placement around
        let placements: std::collections::HashSet<Vec<PartyId>> = (0..32)
            .map(|s| CorruptionSet::random(10, 3, s).corrupt_parties().to_vec())
            .collect();
        assert!(placements.len() > 1, "seed must influence the placement");
    }

    #[test]
    fn strategy_actions() {
        let mut rng = StdRng::seed_from_u64(1);
        let send = WireSend {
            from: 0,
            to: 3,
            n: 4,
            path: &[],
            bytes: &[1, 2, 3],
            broadcast: true,
        };
        assert_eq!(Passive.on_send(&send, &mut rng), WireAction::Deliver);
        assert_eq!(Crash.on_send(&send, &mut rng), WireAction::Drop);
        let mut eq = EquivocateBroadcast { alt: vec![9] };
        assert_eq!(eq.on_send(&send, &mut rng), WireAction::Replace(vec![9]));
        let lower = WireSend { to: 1, ..send };
        assert_eq!(eq.on_send(&lower, &mut rng), WireAction::Deliver);
        let WireAction::Replace(garbled) = GarbleBytes.on_send(&send, &mut rng) else {
            panic!("garble must replace the payload");
        };
        assert_eq!(garbled.len(), 3);
        assert_ne!(garbled, vec![1, 2, 3], "at least one byte must change");
    }

    #[test]
    fn channel_deterministic_ignores_the_shared_rng_stream() {
        let send = WireSend {
            from: 0,
            to: 3,
            n: 4,
            path: &[],
            bytes: &[1, 2, 3, 4, 5, 6, 7, 8],
            broadcast: false,
        };
        // Same consult sequence under two *different* shared RNG states must
        // produce identical decisions …
        let mut a = ChannelDeterministic::new(GarbleBytes, 42);
        let mut b = ChannelDeterministic::new(GarbleBytes, 42);
        let mut rng_a = StdRng::seed_from_u64(1);
        let mut rng_b = StdRng::seed_from_u64(999);
        for _ in 0..5 {
            assert_eq!(a.on_send(&send, &mut rng_a), b.on_send(&send, &mut rng_b));
        }
        // … while consecutive consults on one channel still differ (the
        // per-channel counter advances the derived seed).
        let mut c = ChannelDeterministic::new(GarbleBytes, 42);
        let first = c.on_send(&send, &mut rng_a);
        let second = c.on_send(&send, &mut rng_a);
        assert_ne!(first, second, "consult counter must advance the stream");
        // … and the shared stream is never touched.
        let mut untouched = StdRng::seed_from_u64(7);
        let mut reference = StdRng::seed_from_u64(7);
        let _ = ChannelDeterministic::new(GarbleBytes, 1).on_send(&send, &mut untouched);
        assert_eq!(
            untouched.gen::<u64>(),
            reference.gen::<u64>(),
            "wrapper must not consume the shared adversary RNG"
        );
    }

    #[test]
    fn threshold_condition_matches_paper_example() {
        // n = 8: the paper's motivating example — 2 corruptions in a
        // synchronous network and 1 in an asynchronous network are feasible.
        assert!(thresholds_feasible(8, 2, 1));
        // t_s = t_a = 2 would need n > 8.
        assert!(!thresholds_feasible(8, 2, 2));
        // SMPC bound alone is not enough: t_s=2,t_a=2 feasible only for n ≥ 9.
        assert!(thresholds_feasible(9, 2, 2));
        // degenerate cases
        assert!(thresholds_feasible(4, 1, 0));
        assert!(!thresholds_feasible(4, 1, 1));
    }

    #[test]
    fn threshold_structure_matches_threshold_predicates() {
        let s = ThresholdAdversary::new(8, 2, 1);
        assert!(s.feasible());
        assert_eq!(s.threshold_projection(), (2, 1));
        assert!(s.sync_admissible(&[0, 5]));
        assert!(!s.sync_admissible(&[0, 5, 7]));
        assert!(s.async_admissible(&[3]));
        assert!(!s.async_admissible(&[3, 4]));
        assert!(!s.sync_admissible(&[8]), "out-of-range id is inadmissible");
        // duplicated ids count once
        assert!(s.sync_admissible(&[5, 5]));
        // The worst-case placements are the C(8,2) pairs and the C(8,1) singletons.
        assert_eq!(maximal_sets(8, |z| s.sync_admissible(z)), k_subsets(8, 2));
        assert_eq!(maximal_sets(8, |z| s.async_admissible(z)), k_subsets(8, 1));
        assert!(!ThresholdAdversary::new(8, 2, 2).feasible());
    }

    #[test]
    fn k_subsets_enumeration() {
        assert_eq!(k_subsets(4, 0), vec![Vec::<PartyId>::new()]);
        assert_eq!(k_subsets(4, 4), vec![vec![0, 1, 2, 3]]);
        assert_eq!(
            k_subsets(4, 2),
            vec![
                vec![0, 1],
                vec![0, 2],
                vec![0, 3],
                vec![1, 2],
                vec![1, 3],
                vec![2, 3]
            ]
        );
        assert!(k_subsets(3, 4).is_empty());
    }

    #[test]
    fn general_adversary_admissibility_and_q31() {
        // n = 4 with singleton maximal sets everywhere is exactly the
        // (ts, ta) = (1, 1) threshold structure — infeasible (Q^(3,1) fails:
        // {0}∪{1}∪{2}∪{3} covers P).
        let all_singletons: Vec<Vec<PartyId>> = (0..4).map(|p| vec![p]).collect();
        let s = GeneralAdversary::new(4, all_singletons.clone(), all_singletons.clone());
        assert!(!s.feasible());
        // Restricting the async structure to {3} alone mirrors (1, 0)-ish
        // placements... still infeasible because sync sets cover 0,1,2 and
        // async adds 3.
        let s = GeneralAdversary::new(4, all_singletons.clone(), vec![vec![3]]);
        assert!(!s.feasible());
        // Async structure empty (t_a = 0): Q^(3,1) needs no 3 sync sets to
        // cover P; with singletons over n = 4 they cannot.
        let s = GeneralAdversary::new(4, all_singletons.clone(), Vec::new());
        assert!(s.feasible());
        assert_eq!(s.threshold_projection(), (1, 0));
        assert!(s.sync_admissible(&[2]));
        assert!(!s.sync_admissible(&[1, 2]));
        assert!(s.async_admissible(&[]));
        assert!(!s.async_admissible(&[0]));
        // A genuinely non-threshold structure: party 0 may only be corrupted
        // together with nobody else, while {1,2} may fall jointly — no
        // threshold expresses "either {0} or {1,2}".
        let s = GeneralAdversary::new(7, vec![vec![0], vec![1, 2]], vec![vec![0]]);
        assert!(s.feasible());
        assert_eq!(s.threshold_projection(), (2, 1));
        assert!(s.sync_admissible(&[1, 2]));
        assert!(!s.sync_admissible(&[0, 1]), "mixed set is not admissible");
        assert!(s.async_admissible(&[0]));
        assert!(!s.async_admissible(&[1]));
    }

    #[test]
    fn general_adversary_canonicalizes_maximal_sets() {
        let s = GeneralAdversary::new(
            5,
            vec![vec![2, 1], vec![1], vec![1, 2], vec![4]],
            Vec::new(),
        );
        // {1} is dominated by {1,2}; duplicates collapse.
        assert_eq!(s.sync_max, vec![vec![1, 2], vec![4]]);
        assert_eq!(maximal_sets(5, |z| s.sync_admissible(z)), s.sync_max);
    }

    #[test]
    fn async_set_escaping_sync_structure_is_infeasible() {
        // t_a ≤ t_s analogue: an async-admissible set that is not
        // sync-admissible breaks feasibility outright.
        let s = GeneralAdversary::new(7, vec![vec![0]], vec![vec![1]]);
        assert!(!s.feasible());
    }

    #[test]
    fn feasible_pairs_are_feasible_and_maximal() {
        for n in 4..20 {
            for (ts, ta) in feasible_threshold_pairs(n) {
                assert!(thresholds_feasible(n, ts, ta), "n={n} ts={ts} ta={ta}");
                // maximality in ta
                assert!(ta == ts || !thresholds_feasible(n, ts, ta + 1));
            }
        }
    }
}
