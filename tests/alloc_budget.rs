//! Allocation budget of the delivery path (DESIGN.md "Delivery path").
//!
//! One delivered message should cost what its payload costs: the recipients
//! of a broadcast frame share one decode of its vote vector, and routing a
//! message seven instance levels down, borrowed, and counting it allocate
//! nothing. A wall-clock bound cannot see an allocation creep back in, so
//! this binary counts them: it owns the process's global allocator, which is
//! why it holds a single test.
//!
//! The budget is defined for the release profile (`cargo test --test
//! alloc_budget --release`), the one the ledger measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};

use bobw_mpc::net::{Context, CorruptionSet, NetConfig, PartyId, PathSlice, Protocol, Simulation};
use bobw_mpc::protocols::acast::Acast;
use bobw_mpc::protocols::ba::Ba;
use bobw_mpc::protocols::{BcValue, Msg, Params, Vote};

/// The system allocator, counting every `alloc` and `realloc` call.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a relaxed statistic that
// publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` for this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` was returned by `System` for this `layout`, and the
        // caller guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The instance path of an A-cast under `CirEval → Acs → Vss → Wps →
/// VoteBoard → Bc`: seven segments.
const NEST: [u32; 7] = [2, 5, 1, 6, 40, 3, 0];

/// An A-cast reached through a `NEST`-deep `ctx.scoped` descent, as it is
/// inside the tower, with the message borrowed all the way down.
struct Nested(Acast);

/// Runs `f` with `ctx` scoped down the remaining segments `segs`.
fn descend(ctx: &mut Context<'_, Msg>, segs: &[u32], f: &mut dyn FnMut(&mut Context<'_, Msg>)) {
    match segs.split_first() {
        None => f(ctx),
        Some((&seg, rest)) => ctx.scoped(seg, |ctx| descend(ctx, rest, f)),
    }
}

impl Protocol<Msg> for Nested {
    fn init(&mut self, ctx: &mut Context<'_, Msg>) {
        descend(ctx, &NEST, &mut |ctx| self.0.init(ctx));
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
        assert_eq!(path, NEST);
        descend(ctx, &NEST, &mut |ctx| {
            self.0.on_message_ref(ctx, from, &[], msg)
        });
    }

    fn on_timer(&mut self, _: &mut Context<'_, Msg>, _: PathSlice<'_>, _: u64) {}

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
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
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut sim = Simulation::new(config, CorruptionSet::none(), parties);
    sim.run_to_quiescence(10_000);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let delivered = sim.metrics().honest_messages;
    let per_message = allocations as f64 / delivered as f64;
    assert!(
        per_message <= budget,
        "{label}: {allocations} allocations for {delivered} delivered messages = \
         {per_message:.2} each, over the budget of {budget}"
    );
    sim
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
            Box::new(Nested(acast)) as Box<dyn Protocol<Msg>>
        })
        .collect();
    // 2.14 measured (4.57 when every recipient decoded its own copy).
    let sim = run_within_budget("nested A-cast", parties, 2.2);
    for i in 0..n {
        let party = sim.party_as::<Nested>(i).expect("a Nested party");
        assert_eq!(party.0.output, Some(votes.clone()), "party {i}");
    }
    // Send to all (n) + Echo and Ready from all to all (2n²).
    assert_eq!(sim.metrics().honest_messages, (n + 2 * n * n) as u64);

    // A stand-alone Π_BA: its input broadcasts reach their A-casts through
    // the instance tree's router (`Kind::route`), beside the SBA and Π_ABA
    // traffic and the timers of a whole agreement.
    let params = Params::new(n, t, 0, NetConfig::DEFAULT_DELTA);
    let parties: Vec<Box<dyn Protocol<Msg>>> = (0..n)
        .map(|_| Box::new(Ba::new(t, params, Some(true))) as Box<dyn Protocol<Msg>>)
        .collect();
    // 1.34 measured.
    let sim = run_within_budget("stand-alone Π_BA", parties, 1.4);
    for i in 0..n {
        let party = sim.party_as::<Ba>(i).expect("a Ba party");
        assert_eq!(party.output, Some(true), "party {i}");
    }
}
