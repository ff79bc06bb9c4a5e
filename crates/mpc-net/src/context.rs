//! The protocol/state-machine interface and the execution [`Context`].
//!
//! Every protocol of the paper is implemented as a state machine that reacts
//! to delivered messages and local timers. Composite protocols (e.g. `Π_BC`
//! containing an A-cast and an SBA instance, or `Π_VSS` containing `n`
//! `Π_WPS` instances) own their children and route messages to them using a
//! hierarchical *instance path*: every message carries the path of the
//! instance it is addressed to, and [`Context::scoped`] makes the routing
//! transparent to the child code.
//!
//! A [`Context`] is built once per handler call, so what it costs is paid
//! per delivered message: the path it accumulates while `scoped` descends is
//! an [`InlinePath`] (no heap allocation at the depths the tower reaches),
//! and the shared [`Path`] form is only interned when an effect is emitted.

use std::any::Any;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::Rng;

use crate::path::InlinePath;
use crate::transport::{PartyId, Time};

/// Hierarchical instance path identifying one protocol instance within the
/// composition tree (e.g. `[ACS, vss=3, wps=5, ba, bc=2, acast]`).
///
/// Interned as a cheaply clonable `Arc<[u32]>`: one allocation when an
/// effect is emitted, shared by reference across every queued delivery event
/// (all `n` recipients of a broadcast) and transcript entry instead of a
/// `Vec<u32>` clone per copy.
pub type Path = Arc<[u32]>;

/// Borrowed view of a [`Path`].
pub type PathSlice<'a> = &'a [u32];

/// A protocol instance: an event-driven state machine.
///
/// Implementations must be deterministic functions of the events they are
/// fed plus the randomness drawn from [`Context::rng`]; the simulator then
/// guarantees reproducible executions.
///
/// `Send` is a supertrait so that the simulator may pre-execute different
/// parties' same-time events on worker threads (see the "Deterministic
/// parallel execution" section of DESIGN.md). A party's state machine is
/// only ever touched by one thread at a time — the bound merely allows the
/// *ownership* of that party to move to a worker for the duration of a
/// time slice.
pub trait Protocol<M>: Any + Send {
    /// Called exactly once, at the party's local time of instance creation.
    fn init(&mut self, ctx: &mut Context<'_, M>);

    /// A message addressed to this instance (or one of its descendants)
    /// arrived. `path` is the remaining path *below* this instance: an empty
    /// path means the message is for this instance itself; otherwise
    /// `path[0]` identifies the child to route to.
    fn on_message(&mut self, ctx: &mut Context<'_, M>, from: PartyId, path: PathSlice<'_>, msg: M);

    /// A timer set by this instance or one of its descendants fired.
    /// `path` follows the same routing convention as [`Protocol::on_message`].
    fn on_timer(&mut self, ctx: &mut Context<'_, M>, path: PathSlice<'_>, timer_id: u64);

    /// Upcast helper for inspecting protocol state after a simulation run.
    fn as_any(&self) -> &dyn Any;

    /// Mutable upcast helper.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// Side effects produced while handling one event: outgoing messages and
/// timer requests, each tagged with the full instance path they originate
/// from.
#[derive(Debug, Default)]
pub struct Effects<M> {
    /// `(destination, instance path, payload)` unicasts.
    pub sends: Vec<(PartyId, Path, M)>,
    /// `(instance path, payload)` broadcasts: one effect per *broadcast*,
    /// not per recipient. The simulator encodes the payload once and shares
    /// the bytes across all `n` deliveries (including the sender's own).
    pub broadcasts: Vec<(Path, M)>,
    /// `(delay, instance path, timer id)` timer requests.
    pub timers: Vec<(Time, Path, u64)>,
}

impl<M> Effects<M> {
    /// An empty effect set.
    pub fn new() -> Self {
        Effects {
            sends: Vec::new(),
            broadcasts: Vec::new(),
            timers: Vec::new(),
        }
    }
}

/// Execution context handed to protocol instances on every event.
///
/// It knows the party's identity, the global protocol parameters, the current
/// local time, the instance path of the code currently running (so that sends
/// and timers are automatically scoped), the party's deterministic RNG and
/// the ideal common-coin oracle.
pub struct Context<'a, M> {
    /// This party's id (0-indexed; the paper's `P_i` is id `i-1`).
    pub me: PartyId,
    /// Total number of parties `n`.
    pub n: usize,
    /// Current local time (equals global simulation time).
    pub now: Time,
    /// The publicly known synchronous delay bound `Δ`.
    pub delta: Time,
    path: InlinePath,
    /// Interned `Arc` of the current `path`, built lazily on the first
    /// effect and reused until [`Context::scoped`] changes the path — a
    /// handler emitting many sends/timers from one instance allocates the
    /// path once.
    path_arc: Option<Path>,
    effects: &'a mut Effects<M>,
    rng: &'a mut StdRng,
    coin_seed: u64,
}

impl<'a, M> Context<'a, M> {
    /// Creates a context rooted at an empty instance path. Used by the
    /// simulator; protocol code receives contexts rather than building them.
    pub fn new(
        me: PartyId,
        n: usize,
        now: Time,
        delta: Time,
        effects: &'a mut Effects<M>,
        rng: &'a mut StdRng,
        coin_seed: u64,
    ) -> Self {
        Context {
            me,
            n,
            now,
            delta,
            path: InlinePath::new(),
            path_arc: None,
            effects,
            rng,
            coin_seed,
        }
    }

    /// The instance path of the code currently executing.
    pub fn path(&self) -> PathSlice<'_> {
        &self.path
    }

    /// The interned `Arc` form of the current path (allocated at most once
    /// per scope level per event).
    fn current_path(&mut self) -> Path {
        self.path_arc
            .get_or_insert_with(|| Arc::from(&self.path[..]))
            .clone()
    }

    /// Sends `msg` to party `to`, addressed to the current instance path.
    pub fn send(&mut self, to: PartyId, msg: M) {
        let path = self.current_path();
        self.effects.sends.push((to, path, msg));
    }

    /// Sends `msg` to every party (including the sender itself, as the
    /// paper's protocols have parties process their own broadcasts).
    ///
    /// Unlike `n` individual [`Context::send`] calls this emits a *single*
    /// broadcast effect: the simulator encodes the payload once and shares
    /// the encoded bytes across all `n` deliveries, so no per-recipient
    /// clone of the payload is ever made.
    pub fn broadcast(&mut self, msg: M) {
        let path = self.current_path();
        self.effects.broadcasts.push((path, msg));
    }

    /// Requests a timer that fires after `delay` local time units, delivered
    /// back to the current instance path with the given `timer_id`.
    pub fn set_timer(&mut self, delay: Time, timer_id: u64) {
        let path = self.current_path();
        self.effects.timers.push((delay, path, timer_id));
    }

    /// Requests a timer that fires at the next local time that is an exact
    /// multiple of `Δ` (used by the "wait till the local time becomes a
    /// multiple of Δ" steps of `Π_WPS` / `Π_VSS`). If the current time is
    /// already a multiple of `Δ`, the timer fires after a full `Δ`.
    pub fn set_timer_next_delta_multiple(&mut self, timer_id: u64) {
        let rem = self.now % self.delta;
        let delay = if rem == 0 {
            self.delta
        } else {
            self.delta - rem
        };
        self.set_timer(delay, timer_id);
    }

    /// Runs `f` with the context scoped one level deeper (segment `seg`), so
    /// that the child instance's sends/timers carry the extended path.
    pub fn scoped<R>(&mut self, seg: u32, f: impl FnOnce(&mut Context<'_, M>) -> R) -> R {
        self.path.push(seg);
        self.path_arc = None;
        let r = f(self);
        self.path.pop();
        self.path_arc = None;
        r
    }

    /// The party's deterministic random-number generator.
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    /// Ideal common coin for round `round` of the *current* instance: every
    /// party querying the same (instance path, round) obtains the same
    /// unpredictable bit. This models the perfectly-secure common coin that
    /// the ABA protocols of \[3, 7\] construct from shunning AVSS (DESIGN.md
    /// substitution S1).
    pub fn common_coin(&self, round: u64) -> bool {
        let mut h = self.coin_seed ^ 0x9e37_79b9_7f4a_7c15;
        for &seg in self.path.iter() {
            h = splitmix64(h ^ seg as u64);
        }
        h = splitmix64(h ^ round.wrapping_mul(0xbf58_476d_1ce4_e5b9));
        h & 1 == 1
    }
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Convenience trait for drawing random field-sized values in protocol code
/// without importing `rand` traits everywhere.
pub trait RngExt {
    /// A uniformly random `u64`.
    fn next_u64(&mut self) -> u64;
}

impl RngExt for StdRng {
    fn next_u64(&mut self) -> u64 {
        self.gen()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn scoped_paths_extend_and_restore() {
        let mut effects: Effects<u32> = Effects::new();
        let mut rng = StdRng::seed_from_u64(1);
        let mut ctx = Context::new(0, 4, 0, 10, &mut effects, &mut rng, 42);
        ctx.send(1, 7);
        ctx.scoped(5, |ctx| {
            ctx.send(2, 8);
            ctx.scoped(9, |ctx| ctx.set_timer(3, 1));
        });
        ctx.send(3, 9);
        assert_eq!(&effects.sends[0].1[..], &[] as &[u32]);
        assert_eq!(&effects.sends[1].1[..], &[5]);
        assert_eq!(&effects.sends[2].1[..], &[] as &[u32]);
        assert_eq!(&effects.timers[0].1[..], &[5, 9]);
    }

    #[test]
    fn effects_from_one_scope_share_one_interned_path() {
        let mut effects: Effects<u32> = Effects::new();
        let mut rng = StdRng::seed_from_u64(1);
        let mut ctx = Context::new(0, 4, 0, 10, &mut effects, &mut rng, 42);
        ctx.scoped(5, |ctx| {
            ctx.send(1, 7);
            ctx.send(2, 8);
            ctx.broadcast(9);
        });
        assert!(Arc::ptr_eq(&effects.sends[0].1, &effects.sends[1].1));
        assert!(Arc::ptr_eq(&effects.sends[0].1, &effects.broadcasts[0].0));
    }

    #[test]
    fn broadcast_emits_one_shared_effect() {
        let mut effects: Effects<u32> = Effects::new();
        let mut rng = StdRng::seed_from_u64(1);
        let mut ctx = Context::new(2, 5, 0, 10, &mut effects, &mut rng, 42);
        ctx.scoped(3, |ctx| ctx.broadcast(1));
        assert!(effects.sends.is_empty());
        assert_eq!(effects.broadcasts.len(), 1);
        assert_eq!(&effects.broadcasts[0].0[..], &[3]);
        assert_eq!(effects.broadcasts[0].1, 1);
    }

    #[test]
    fn delta_multiple_timer() {
        let mut effects: Effects<u32> = Effects::new();
        let mut rng = StdRng::seed_from_u64(1);
        let mut ctx = Context::new(0, 4, 25, 10, &mut effects, &mut rng, 42);
        ctx.set_timer_next_delta_multiple(7);
        assert_eq!(effects.timers[0].0, 5); // 25 → 30
        let mut effects2: Effects<u32> = Effects::new();
        let mut ctx = Context::new(0, 4, 30, 10, &mut effects2, &mut rng, 42);
        ctx.set_timer_next_delta_multiple(7);
        assert_eq!(effects2.timers[0].0, 10); // already a multiple → next one
    }

    #[test]
    fn common_coin_is_path_and_round_dependent_but_party_independent() {
        let mut e1: Effects<u32> = Effects::new();
        let mut e2: Effects<u32> = Effects::new();
        let mut rng1 = StdRng::seed_from_u64(1);
        let mut rng2 = StdRng::seed_from_u64(999);
        let mut c1 = Context::new(0, 4, 0, 10, &mut e1, &mut rng1, 42);
        let mut c2 = Context::new(3, 4, 50, 10, &mut e2, &mut rng2, 42);
        // same path + round → same coin regardless of party/time/rng
        let a = c1.scoped(3, |c| c.common_coin(2));
        let b = c2.scoped(3, |c| c.common_coin(2));
        assert_eq!(a, b);
        // different rounds give (eventually) different coins
        let coins: Vec<bool> = (0..64)
            .map(|r| c1.scoped(3, |c| c.common_coin(r)))
            .collect();
        assert!(coins.iter().any(|&c| c) && coins.iter().any(|&c| !c));
    }

    /// Runs `f` scoped down `segs`, one `scoped` call per segment.
    fn descend<R>(
        ctx: &mut Context<'_, u32>,
        segs: &[u32],
        f: &mut dyn FnMut(&mut Context<'_, u32>) -> R,
    ) -> R {
        match segs.split_first() {
            None => f(ctx),
            Some((&seg, rest)) => ctx.scoped(seg, |ctx| descend(ctx, rest, f)),
        }
    }

    #[test]
    fn scoping_past_the_inline_capacity_keeps_the_full_path() {
        let mut effects: Effects<u32> = Effects::new();
        let mut rng = StdRng::seed_from_u64(1);
        let mut ctx = Context::new(0, 4, 0, 10, &mut effects, &mut rng, 42);
        // Far deeper than any inline buffer; the two paths differ only in
        // their very last segment.
        let deep: Vec<u32> = (100..140).collect();
        let mut sibling = deep.clone();
        *sibling.last_mut().unwrap() += 1;

        let coins = |ctx: &mut Context<'_, u32>, path: &[u32]| -> Vec<bool> {
            descend(ctx, path, &mut |ctx| {
                assert_eq!(ctx.path(), path);
                ctx.send(1, 7);
                (0..64).map(|round| ctx.common_coin(round)).collect()
            })
        };
        let a = coins(&mut ctx, &deep);
        assert_eq!(ctx.path(), &[] as &[u32], "restored after the spill");
        let b = coins(&mut ctx, &sibling);
        assert_eq!(coins(&mut ctx, &deep), a, "a function of the path");
        // The coin is path-derived: a truncated path would hand two sibling
        // instances the same coin sequence.
        assert_ne!(a, b);
        // ... and still scopes correctly below the capacity afterwards.
        ctx.scoped(5, |ctx| ctx.send(2, 8));
        assert_eq!(&effects.sends[0].1[..], &deep[..]);
        assert_eq!(&effects.sends[1].1[..], &sibling[..]);
        assert_eq!(&effects.sends[3].1[..], &[5]);
    }
}
