//! Allocation budget and heap footprint of the delivery path (DESIGN.md
//! "Delivery path").
//!
//! One delivered message should cost what its payload costs: the recipients
//! of a broadcast frame share one decode of its vote vector, and routing a
//! message seven instance levels down, borrowed, and counting it allocate
//! nothing. A wall-clock bound cannot see an allocation creep back in, so
//! this binary counts them: it owns the process's global allocator, which is
//! why it holds a single test.
//!
//! The same allocator keeps the live heap bytes, which weigh what an
//! instance still holds once its run is quiescent. An evaluation keeps every
//! instance of its tower to the end, so this footprint, times the instance
//! count, is a large part of its peak memory (DESIGN.md "Memory"). A
//! stand-alone `Π_VSS` weighs the sharing tower's rows and points the same
//! way.
//!
//! The budget is defined for the release profile (`cargo test --test
//! alloc_budget --release`), the one the ledger measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::any::Any;
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use bobw_mpc::algebra::evaluation_points::alpha;
use bobw_mpc::algebra::Polynomial;
use bobw_mpc::net::{Context, CorruptionSet, NetConfig, PartyId, PathSlice, Protocol, Simulation};
use bobw_mpc::protocols::acast::Acast;
use bobw_mpc::protocols::ba::Ba;
use bobw_mpc::protocols::vss::Vss;
use bobw_mpc::protocols::{BcValue, Msg, Params, Vote};
use rand::{rngs::StdRng, SeedableRng};

/// The system allocator, counting every `alloc` and `realloc` call per
/// thread and the bytes currently allocated.
struct Counting;

thread_local! {
    /// The `alloc` and `realloc` calls of this thread. A run is measured on
    /// the thread that drives it, so what the test harness's own threads
    /// allocate meanwhile is not charged to it.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}
static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are relaxed statistics
// that publish no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|count| count.set(count.get() + 1));
        // SAFETY: the caller's `layout` is passed through as received.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            LIVE_BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` was returned by `System` for this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|count| count.set(count.get() + 1));
        // SAFETY: `ptr` was returned by `System` for this `layout`, and the
        // caller guarantees `new_size` is valid for it.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            LIVE_BYTES.fetch_add(new_size, Ordering::Relaxed);
            LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        new
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The instance path of an A-cast under `CirEval → Acs → Vss → Wps →
/// VoteBoard → Bc`: seven segments.
const NEST: [u32; 7] = [2, 5, 1, 6, 40, 3, 0];

/// A party running `instance` below the instance path `nest`, reached
/// through a `ctx.scoped` descent per segment as it is inside the tower, with
/// every message borrowed all the way down. The instance sits in a `Cell` so
/// that the test can move it out of the finished run ([`take_instances`]).
struct Held<P> {
    nest: &'static [u32],
    instance: Cell<Option<P>>,
}

impl<P> Held<P> {
    fn boxed(nest: &'static [u32], instance: P) -> Box<dyn Protocol<Msg>>
    where
        P: Protocol<Msg>,
    {
        Box::new(Held {
            nest,
            instance: Cell::new(Some(instance)),
        })
    }

    fn instance(&mut self) -> &mut P {
        self.instance
            .get_mut()
            .as_mut()
            .expect("taken only after the run")
    }
}

/// Runs `f` with `ctx` scoped down the remaining segments `segs`.
fn descend(ctx: &mut Context<'_, Msg>, segs: &[u32], f: &mut dyn FnMut(&mut Context<'_, Msg>)) {
    match segs.split_first() {
        None => f(ctx),
        Some((&seg, rest)) => ctx.scoped(seg, |ctx| descend(ctx, rest, f)),
    }
}

impl<P: Protocol<Msg>> Protocol<Msg> for Held<P> {
    fn init(&mut self, ctx: &mut Context<'_, Msg>) {
        let nest = self.nest;
        let instance = self.instance();
        descend(ctx, nest, &mut |ctx| instance.init(ctx));
    }

    fn on_message(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        from: PartyId,
        path: PathSlice<'_>,
        msg: Msg,
    ) {
        self.on_message_ref(ctx, from, path, &msg);
    }

    fn on_message_ref(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        from: PartyId,
        path: PathSlice<'_>,
        msg: &Msg,
    ) {
        let nest = self.nest;
        let rest = path
            .strip_prefix(nest)
            .expect("every message is sent below the nest");
        let instance = self.instance();
        descend(ctx, nest, &mut |ctx| {
            instance.on_message_ref(ctx, from, rest, msg)
        });
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, path: PathSlice<'_>, id: u64) {
        let nest = self.nest;
        let rest = path
            .strip_prefix(nest)
            .expect("every timer is set below the nest");
        let instance = self.instance();
        descend(ctx, nest, &mut |ctx| instance.on_timer(ctx, rest, id));
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Moves every party's instance out of the finished run `sim`.
fn take_instances<P: 'static>(sim: &Simulation<Msg>) -> Vec<P> {
    (0..sim.config().n)
        .map(|i| {
            let party = sim.party_as::<Held<P>>(i).expect("a Held party");
            party.instance.take().expect("taken once")
        })
        .collect()
}

/// Frees `instances` one by one and returns the mean number of heap bytes
/// each held.
fn held_bytes<P>(instances: Vec<P>) -> usize {
    let count = instances.len();
    let mut freed = 0;
    for instance in instances {
        let before = LIVE_BYTES.load(Ordering::Relaxed);
        drop(instance);
        freed += before - LIVE_BYTES.load(Ordering::Relaxed);
    }
    freed / count
}

/// Runs `parties` on the synchronous simulator to quiescence and returns it
/// with the heap allocations the run made per delivered honest message,
/// after asserting they stay within `budget`.
fn run_within_budget(
    label: &str,
    parties: Vec<Box<dyn Protocol<Msg>>>,
    budget: f64,
) -> Simulation<Msg> {
    let config = NetConfig::synchronous(parties.len());
    let before = ALLOCATIONS.with(Cell::get);
    let mut sim = Simulation::new(config, CorruptionSet::none(), parties);
    sim.run_to_quiescence(10_000);
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    let delivered = sim.metrics().honest_messages;
    let per_message = allocations as f64 / delivered as f64;
    assert!(
        per_message <= budget,
        "{label}: {allocations} allocations for {delivered} delivered messages = \
         {per_message:.2} each, over the budget of {budget}"
    );
    sim
}

/// Asserts that `label`'s instances hold at most `budget` heap bytes each.
fn assert_footprint<P>(label: &str, instances: Vec<P>, budget: usize) {
    let held = held_bytes(instances);
    assert!(
        held <= budget,
        "{label}: a quiescent instance holds {held} heap bytes, over the budget of {budget}"
    );
}

#[test]
fn one_delivered_message_stays_within_the_allocation_budget() {
    // One A-cast of an n-entry vote vector, seven levels down.
    let (n, t, sender) = (8, 2, 0);
    let votes = BcValue::Votes((0..n as u32).map(|k| (k, Vote::Ok)).collect());
    let parties: Vec<Box<dyn Protocol<Msg>>> = (0..n)
        .map(|i| {
            let acast = if i == sender {
                Acast::new_sender(sender, n, t, votes.clone())
            } else {
                Acast::new(sender, n, t)
            };
            Held::boxed(&NEST, acast)
        })
        .collect();
    // 2.02 measured (2.14 with a `Vec` tally and heap admission flags, 4.57
    // when every recipient decoded its own copy).
    let sim = run_within_budget("nested A-cast", parties, 2.05);
    // Send to all (n) + Echo and Ready from all to all (2n²).
    assert_eq!(sim.metrics().honest_messages, (n + 2 * n * n) as u64);
    let acasts: Vec<Acast> = take_instances(&sim);
    for (i, acast) in acasts.iter().enumerate() {
        assert_eq!(acast.output, Some(votes.clone()), "party {i}");
    }
    // 192 bytes measured: the output, the one 192-byte copy of the value a
    // delivered A-cast keeps. 600 while the echo and ready candidates and the
    // sender's input outlived delivery; 1 256 with a `Vec` tally and heap
    // admission flags.
    assert_footprint("nested A-cast", acasts, 205);

    // A stand-alone Π_BA: its input broadcasts reach their A-casts through
    // the instance tree's router (`Kind::route`), beside the traffic of its
    // one SBA cluster and of the Π_ABA, and the timers of a whole agreement.
    let params = Params::new(n, t, 0, NetConfig::DEFAULT_DELTA);
    let parties: Vec<Box<dyn Protocol<Msg>>> = (0..n)
        .map(|_| Held::boxed(&[], Ba::new(t, params, Some(true))))
        .collect();
    // 1.08 measured since the root's SBA cluster is built at its round 1
    // (1.04 while each `Π_BC` built its own SBA before the run; 1.34 with a
    // `Vec` tally and heap admission flags).
    let sim = run_within_budget("stand-alone Π_BA", parties, 1.1);
    let bas: Vec<Ba> = take_instances(&sim);
    for (i, ba) in bas.iter().enumerate() {
        assert_eq!(ba.output, Some(true), "party {i}");
    }
    // 6 580 bytes measured: the cluster is freed at its hand-down (10 924
    // while the `Π_BC` kept its own SBA, 27 948 with a `Vec` tally and heap
    // admission flags).
    assert_footprint("stand-alone Π_BA", bas, 6_900);

    // A stand-alone Π_VSS of L = 64 degree-t_s polynomials at n = 8
    // (t_s = 2, t_a = 1): the dealt rows, the points and the n nested Π_WPS
    // of the dealer-verification core.
    let params = Params::new(n, t, 1, NetConfig::DEFAULT_DELTA);
    let mut rng = StdRng::seed_from_u64(64);
    let polys: Vec<Polynomial> = (0..64).map(|_| Polynomial::random(&mut rng, t)).collect();
    let parties: Vec<Box<dyn Protocol<Msg>>> = (0..n)
        .map(|i| match i {
            0 => Held::boxed(&[], Vss::new_dealer(0, params, polys.clone())),
            _ => Held::boxed(&[], Vss::new(0, params, polys.len())),
        })
        .collect();
    // 1.40 measured since its 3n + 3 `Π_BC`s share six SBA clusters (1.75
    // with an SBA each, 2.02 with a heap `Polynomial` per received row and
    // two allocations per dealt row).
    let sim = run_within_budget("stand-alone Π_VSS", parties, 1.47);
    let vsss: Vec<Vss> = take_instances(&sim);
    for (i, vss) in vsss.iter().enumerate() {
        let expected = polys.iter().map(|q| q.evaluate(alpha(i)));
        assert_eq!(vss.shares, Some(expected.collect()), "party {i}");
    }
    // 191 328 bytes measured per party, its n Π_WPS included, since no
    // `Π_BC` keeps an SBA. 394 272 while each did; 425 484 while every Π_WPS
    // kept the points it vouched for until its shares were out and every
    // A-cast kept its tallies after delivery; 480 204 with a heap
    // `Polynomial` per row, a heap `Vec` per bivariate row and every Π_WPS
    // keeping its received points to the end.
    assert_footprint("stand-alone Π_VSS", vsss, 201_000);
}
