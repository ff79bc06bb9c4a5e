//! Message-delay scheduling strategies.
//!
//! In the synchronous network every message must be delivered within `Δ`; the
//! scheduler may pick any delay in `[1, Δ]`. In the asynchronous network the
//! adversary controls the delivery schedule entirely, subject only to every
//! message being delivered eventually. Either way a cross-party message
//! arrives strictly after the tick it was sent in: every medium clamps the
//! chosen delay to ≥ 1.

use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

use crate::simulation::NetworkKind;
use crate::transport::{PartyId, Time};

/// Chooses the delivery delay of each message. Implementations model the
/// network together with the adversary's scheduling power.
pub trait Scheduler {
    /// Returns the delay after which a message sent now from `from` to `to`
    /// is delivered. Every medium clamps the delay of a cross-party message
    /// (`from != to`) to ≥ 1 tick — the simulator at dispatch,
    /// [`LinkDelays::from_fn`] for the real media — so whatever a party
    /// handles at time `T` can only spawn further time-`T` events for that
    /// *same* party (self-sends and zero-delay timers).
    fn delay(&mut self, from: PartyId, to: PartyId, now: Time, rng: &mut StdRng) -> Time;
}

/// Synchronous worst case: every message takes exactly `Δ`.
#[derive(Clone, Debug)]
pub struct FixedDelay(pub Time);

impl Scheduler for FixedDelay {
    fn delay(&mut self, _from: PartyId, _to: PartyId, _now: Time, _rng: &mut StdRng) -> Time {
        self.0
    }
}

/// Delays drawn uniformly from `[min, max]` — a benign network. With
/// `max ≤ Δ` this is a valid synchronous schedule; with small values it
/// models the fast asynchronous network of the paper's introduction
/// (`δ ≪ Δ`).
#[derive(Clone, Debug)]
pub struct UniformDelay {
    /// Minimum delivery delay.
    pub min: Time,
    /// Maximum delivery delay.
    pub max: Time,
}

impl Scheduler for UniformDelay {
    fn delay(&mut self, _from: PartyId, _to: PartyId, _now: Time, rng: &mut StdRng) -> Time {
        if self.min >= self.max {
            self.min
        } else {
            rng.gen_range(self.min..=self.max)
        }
    }
}

/// A targeted asynchronous adversary: every message **from** a party in
/// `slowed_senders` is delayed by exactly `lag`, all other messages are
/// delivered within `fast`. This is the classic attack that breaks purely
/// synchronous protocols (it makes up to `t_a` honest parties look corrupt).
#[derive(Clone, Debug)]
pub struct SkewedAsyncScheduler {
    /// Parties whose outgoing messages are delayed.
    pub slowed_senders: Vec<PartyId>,
    /// Delay applied to the slowed senders' messages.
    pub lag: Time,
    /// Delay bound for everyone else.
    pub fast: Time,
}

impl Scheduler for SkewedAsyncScheduler {
    fn delay(&mut self, from: PartyId, _to: PartyId, _now: Time, rng: &mut StdRng) -> Time {
        if self.slowed_senders.contains(&from) {
            self.lag
        } else {
            rng.gen_range(1..=self.fast.max(1))
        }
    }
}

/// A static per-link delay matrix: every ordered pair `(from, to)` has one
/// fixed delivery delay, drawn once (deterministically from a seed) at
/// construction. This is the delay model shared by the two transport
/// backends — the simulator consumes it as a [`Scheduler`], the threaded
/// backend reads the matrix directly to pace its real-time holds — and it is
/// what makes cross-backend conformance provable:
///
/// * **rng-free at query time** — the delay of a message depends only on its
///   link, never on global draw order, so backends that consult the matrix
///   in different orders still agree on every delay;
/// * **per-link FIFO** — a constant delay per link means a channel never
///   reorders, matching real TCP-like transports;
/// * **column-distinct** — for every receiver `j` the delays `d(i, j)` are
///   pairwise distinct over senders `i`, so two frames sent at the same tick
///   by different senders never arrive at `j` in the same tick. Conformance
///   does not rest on it: both backends order a receiver's same-tick
///   deliveries by one inbox key — see DESIGN.md, "Transport abstraction &
///   conformance oracle".
#[derive(Clone, Debug)]
pub struct LinkDelays {
    n: usize,
    /// Row-major `delays[from * n + to]`; the diagonal is 0 (self-delivery
    /// is always same-tick).
    delays: Vec<Time>,
}

impl LinkDelays {
    /// Builds a matrix from an explicit delay function (the diagonal is
    /// forced to 0 regardless of `f`).
    pub fn from_fn(n: usize, mut f: impl FnMut(PartyId, PartyId) -> Time) -> Self {
        let mut delays = vec![0; n * n];
        for from in 0..n {
            for to in 0..n {
                delays[from * n + to] = if from == to { 0 } else { f(from, to).max(1) };
            }
        }
        LinkDelays { n, delays }
    }

    /// The default matrix for a network kind: a benign sub-`Δ` schedule when
    /// synchronous, per-link delays frozen from the simulator's default
    /// asynchronous distribution (uniform `[1, 20·Δ]`, the
    /// [`crate::UniformDelay`] that [`crate::Simulation::new`] installs) when
    /// asynchronous — so a run that only picks a backend sees the same
    /// *flavour* of schedule on both. The targeted slow-sender attack stays
    /// available as [`LinkDelays::asynchronous`].
    pub fn for_kind(n: usize, kind: NetworkKind, delta: Time, seed: u64) -> Self {
        match kind {
            NetworkKind::Synchronous => Self::synchronous(n, delta, seed),
            NetworkKind::Asynchronous => Self::sampled_from(
                n,
                seed,
                &mut crate::UniformDelay {
                    min: 2,
                    max: delta * 20,
                },
            ),
        }
    }

    /// A valid synchronous schedule: cross-party delays drawn column-distinct
    /// from `[2, Δ−1]` (all within the bound `Δ`; ≥ 2 gives the threaded
    /// backend a full tick of real-time slack between a send and its
    /// earliest delivery).
    ///
    /// # Panics
    ///
    /// Panics if the range cannot hold `n − 1` distinct values
    /// (`Δ − 2 < n − 1`); pick a larger `Δ` for larger `n`.
    pub fn synchronous(n: usize, delta: Time, seed: u64) -> Self {
        let lo = 2;
        let hi = delta.saturating_sub(1);
        Self::column_distinct(n, lo, hi, seed, None, 0)
    }

    /// An asynchronous schedule in the style of [`SkewedAsyncScheduler`]:
    /// one seed-chosen party's outgoing links all lag ≈ `20·Δ` (so every
    /// `Δ`-based timeout at the receivers genuinely expires before its
    /// messages arrive — the classic attack the paper's fallback handles),
    /// while all other links are fast (`[2, Δ−1]`, column-distinct).
    pub fn asynchronous(n: usize, delta: Time, seed: u64) -> Self {
        let slowed = (seed as usize) % n;
        let lo = 2;
        let hi = delta.saturating_sub(1);
        Self::column_distinct(n, lo, hi, seed, Some(slowed), 20 * delta)
    }

    /// Column-distinct sampling from `[lo, hi]` via a per-column partial
    /// shuffle; the optional `slowed` sender's links get `lag` added (their
    /// values stay distinct from the fast range because `lag ≫ hi`).
    fn column_distinct(
        n: usize,
        lo: Time,
        hi: Time,
        seed: u64,
        slowed: Option<PartyId>,
        lag: Time,
    ) -> Self {
        let width = (hi.saturating_sub(lo) + 1) as usize;
        assert!(
            width >= n.saturating_sub(1),
            "delay range [{lo}, {hi}] cannot hold {} distinct per-column values; \
             increase delta relative to n",
            n.saturating_sub(1)
        );
        let mut delays = vec![0; n * n];
        for to in 0..n {
            let mut pool: Vec<Time> = (lo..=hi).collect();
            let mut rng = StdRng::seed_from_u64(
                seed ^ (to as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x11AE_D43D,
            );
            // Partial Fisher–Yates: the first n−1 slots are a uniform draw of
            // distinct values.
            let mut k = 0usize;
            for from in 0..n {
                if from == to {
                    continue;
                }
                let j = rng.gen_range(k..pool.len());
                pool.swap(k, j);
                let mut d = pool[k];
                if slowed == Some(from) {
                    d += lag;
                }
                delays[from * n + to] = d;
                k += 1;
            }
        }
        LinkDelays { n, delays }
    }

    /// Freezes an arbitrary [`Scheduler`] into a static matrix by sampling
    /// each link once (with the scheduler's usual seed-derived RNG). Used by
    /// the threaded backend to approximate custom schedulers, which are
    /// consulted per *message* and therefore have no static per-link
    /// equivalent; senders a scheduler slows stay slow here, but per-message
    /// jitter is lost. No distinctness is enforced.
    pub fn sampled_from(n: usize, seed: u64, scheduler: &mut dyn Scheduler) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xDEAD_BEEF);
        Self::from_fn(n, |from, to| scheduler.delay(from, to, 0, &mut rng))
    }

    /// Number of parties.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The delay of link `from → to` (0 iff `from == to`).
    pub fn get(&self, from: PartyId, to: PartyId) -> Time {
        self.delays[from * self.n + to]
    }
}

impl Scheduler for LinkDelays {
    fn delay(&mut self, from: PartyId, to: PartyId, _now: Time, _rng: &mut StdRng) -> Time {
        self.get(from, to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_delay_is_constant() {
        let mut s = FixedDelay(10);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(s.delay(0, 1, 0, &mut rng), 10);
    }

    #[test]
    fn uniform_delay_stays_in_range() {
        let mut s = UniformDelay { min: 2, max: 9 };
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..100 {
            let d = s.delay(0, 1, 0, &mut rng);
            assert!((2..=9).contains(&d));
        }
    }

    #[test]
    fn skewed_scheduler_targets_senders() {
        let mut s = SkewedAsyncScheduler {
            slowed_senders: vec![3],
            lag: 1000,
            fast: 5,
        };
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(s.delay(3, 0, 0, &mut rng), 1000);
        assert!(s.delay(1, 0, 0, &mut rng) <= 5);
    }

    #[test]
    fn link_delays_sync_is_column_distinct_and_within_bound() {
        for n in [4usize, 5, 7] {
            for seed in [0u64, 1, 0xB0B5] {
                let links = LinkDelays::synchronous(n, 10, seed);
                for to in 0..n {
                    let col: Vec<Time> = (0..n)
                        .filter(|&f| f != to)
                        .map(|f| links.get(f, to))
                        .collect();
                    let mut sorted = col.clone();
                    sorted.sort_unstable();
                    sorted.dedup();
                    assert_eq!(sorted.len(), col.len(), "column {to} must be distinct");
                    assert!(col.iter().all(|&d| (2..=9).contains(&d)));
                }
                for p in 0..n {
                    assert_eq!(links.get(p, p), 0, "self-delivery is same-tick");
                }
            }
        }
    }

    #[test]
    fn link_delays_async_slows_exactly_one_sender_beyond_delta() {
        let n = 5;
        let delta = 10;
        let links = LinkDelays::asynchronous(n, delta, 7);
        let slowed = 7 % n;
        for from in 0..n {
            for to in 0..n {
                if from == to {
                    continue;
                }
                let d = links.get(from, to);
                if from == slowed {
                    assert!(d > delta, "slowed sender must violate the bound");
                } else {
                    assert!(d < delta, "fast links stay within the bound");
                }
            }
        }
        // still column-distinct across the fast/slow mix
        for to in 0..n {
            let mut col: Vec<Time> = (0..n)
                .filter(|&f| f != to)
                .map(|f| links.get(f, to))
                .collect();
            col.sort_unstable();
            col.dedup();
            assert_eq!(col.len(), n - 1);
        }
    }

    #[test]
    fn link_delays_acts_as_a_deterministic_scheduler() {
        let mut links = LinkDelays::synchronous(4, 10, 3);
        let frozen = links.clone();
        let mut rng = StdRng::seed_from_u64(9);
        for from in 0..4 {
            for to in 0..4 {
                assert_eq!(links.delay(from, to, 17, &mut rng), frozen.get(from, to));
            }
        }
    }

    #[test]
    fn link_delays_sampled_from_freezes_a_skewed_scheduler() {
        let mut s = SkewedAsyncScheduler {
            slowed_senders: vec![2],
            lag: 100,
            fast: 5,
        };
        let links = LinkDelays::sampled_from(4, 42, &mut s);
        for to in 0..4 {
            if to != 2 {
                assert_eq!(links.get(2, to), 100, "slowed sender stays slow");
            }
        }
        assert!((0..4)
            .flat_map(|f| (0..4).map(move |t| (f, t)))
            .filter(|&(f, t)| f != t && f != 2)
            .all(|(f, t)| links.get(f, t) <= 5));
    }
}
