//! The instance tree: every composite protocol declares its children once,
//! and everything that depends on where a child sits is derived from that
//! declaration.
//!
//! A [`Kind`] is the declared layout of one kind of instance: a list of
//! named [`Family`]s, each a cardinality ([`Card`]) of children of one kind,
//! laid out in declaration order from segment 0 (or from the segment a
//! family names in [`Family::at`]). From it follow the segment of every
//! child ([`Kind::segment`]), the routing of an event to the child its path
//! names ([`Kind::route`]), a name for every path ([`Kind::describe`]) and the
//! paths that exist ([`Kind::valid_paths`]). A path that names no declared
//! child, that goes on below a leaf, or that names a root-only family below
//! the root (the late-vote batches and the SBA clusters, the root's side
//! channels) is dropped; `describe` and `valid_paths` name a root-only
//! family at the root only. DESIGN.md "Instance tree" has the tower's
//! layout.

use mpc_net::{Context, PartyId, PathSlice};

use crate::msg::{Msg, SbaValue};

/// How many children a family holds, counted in the party count `n`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Card {
    /// One child.
    One,
    /// One child per party.
    N,
    /// One child per (sender, `k`), at `k · n + sender`, with `k` below the
    /// late votes a party can cast: `n` on each of the `b₀ + b₁·n + b₂·n²`
    /// vote boards of the instance's tree.
    Batch([u32; 3]),
    /// One child per `Π_BC` of the instance's tree, `b₀ + b₁·n + b₂·n²` of
    /// them: the most SBA clusters its root can start, one per start tick
    /// (`sba::Clusters`).
    Clusters([u32; 3]),
}

impl Card {
    #[inline]
    fn of(self, n: u32) -> u32 {
        match self {
            Card::One => 1,
            Card::N => n,
            Card::Batch([b0, b1, b2]) => n * n * (b0 + n * (b1 + n * b2)),
            Card::Clusters([b0, b1, b2]) => b0 + n * (b1 + n * b2),
        }
    }
}

/// The name of a family of children: what [`Kind::describe`] prints and
/// what a composite matches on to reach the child.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Name {
    /// The A-casts of a `Π_BC` group, one per slot.
    Acast,
    /// The SBA clusters of the root (`sba::Clusters`), one per start tick.
    Sba,
    /// The input broadcasts of a `Π_BA`.
    Bc,
    /// The `Π_ABA` of a `Π_BA`.
    Aba,
    /// The dealer's `(W, E, F)` broadcast in `Π_WPS`/`Π_VSS`.
    Wef,
    /// The accept-or-star `Π_BA` of `Π_WPS`/`Π_VSS`, or `Π_ACS`'s `Π_BA`s.
    Ba,
    /// The dealer's star A-cast.
    Star,
    /// The scheduled vote broadcasts, one slot per party.
    Votes,
    /// The late-vote batch A-casts of the root (`voteboard::Side`).
    Batch,
    /// The `Π_WPS` instances of a `Π_VSS`.
    Wps,
    /// The `Π_VSS` instances of a `Π_ACS`.
    Vss,
    /// The input-sharing `Π_ACS` of `Π_CirEval`.
    AcsInput,
    /// The triple-sharing `Π_ACS` of `Π_CirEval`.
    AcsTriples,
}

/// One named family of children of one kind.
#[derive(Clone, Copy)]
pub struct Family {
    /// The family's name.
    pub name: Name,
    /// The kind of every child in it.
    pub kind: &'static Kind,
    /// How many children it holds.
    pub card: Card,
    /// Where it starts, if not right after the family declared before it
    /// (a segment kept where it was: the common coin is derived from the
    /// instance path).
    pub at: Option<Card>,
}

impl Family {
    /// A family starting right after the one declared before it.
    pub const fn new(name: Name, kind: &'static Kind, card: Card) -> Self {
        Family {
            name,
            kind,
            card,
            at: None,
        }
    }

    /// Whether only the root holds children here: the late-vote batches
    /// and the SBA clusters are the root's side channels.
    #[inline]
    fn root_only(&self) -> bool {
        matches!(self.card, Card::Batch(_) | Card::Clusters(_))
    }
}

/// The declared child layout of one kind of instance; its `Debug` form is
/// its name.
pub struct Kind {
    /// The kind's name.
    pub name: &'static str,
    /// Its families of children; none for a leaf.
    pub families: &'static [Family],
}

impl Kind {
    /// A kind with these families of children (none for a leaf).
    pub const fn new(name: &'static str, families: &'static [Family]) -> Self {
        Kind { name, families }
    }

    /// Each family with its start segment and size, in declaration order.
    #[inline]
    fn spans(&self, n: usize) -> impl Iterator<Item = (&Family, u32, u32)> {
        let n = n as u32;
        self.families.iter().scan(0, move |next, family| {
            let start = family.at.map_or(*next, |at| at.of(n));
            let size = family.card.of(n);
            *next = start + size;
            Some((family, start, size))
        })
    }

    /// The family segment `seg` falls in, and the child's index in it.
    #[inline]
    fn locate(&self, n: usize, seg: u32) -> Option<(&Family, usize)> {
        let mut spans = self.spans(n);
        let (family, start, _) =
            spans.find(|&(_, start, size)| (start..start + size).contains(&seg))?;
        Some((family, (seg - start) as usize))
    }

    /// The segment of child `index` of family `name`. A family this kind
    /// does not declare maps to `u32::MAX`, which no layout reaches: every
    /// receiver drops what is sent there.
    pub fn segment(&self, n: usize, name: Name, index: usize) -> u32 {
        let mut spans = self.spans(n);
        spans
            .find(|(family, ..)| family.name == name)
            .map_or(u32::MAX, |(_, start, _)| start + index as u32)
    }

    /// The vote boards in the tree of an instance of this kind: one for
    /// each instance that declares a `Votes` family. Every kind whose tree
    /// holds one declares a `Batch` family sized by them ([`Card::Batch`]),
    /// and the count is read off it: no walk of the tree on a late vote's
    /// path.
    pub fn boards(&self, n: usize) -> usize {
        let batch = self.families.iter().find(|f| f.name == Name::Batch);
        batch.map_or(0, |f| f.card.of(n as u32) as usize / (n * n))
    }

    /// The number, among the boards of an instance of this kind, of the
    /// first board below the child at segment `seg` (or past it): the
    /// instance's own comes first, so segment 0 gives the count of those.
    pub(crate) fn first_board(&self, n: usize, seg: u32) -> usize {
        let own = usize::from(self.families.iter().any(|f| f.name == Name::Votes));
        let before = |(family, start, size): (&Family, u32, u32)| {
            seg.saturating_sub(start).min(size) as usize * family.kind.boards(n)
        };
        own + self.spans(n).map(before).sum::<usize>()
    }

    /// The path of vote board `index` below an instance of this kind: the
    /// boards are numbered depth first, each instance's own before its
    /// children's. `None` past the last board.
    pub fn board_path(&self, n: usize, index: usize) -> Option<Vec<u32>> {
        let Some(mut index) = index.checked_sub(self.first_board(n, 0)) else {
            return Some(Vec::new());
        };
        for (family, start, size) in self.spans(n) {
            let per = family.kind.boards(n);
            if index < size as usize * per {
                let below = family.kind.board_path(n, index % per)?;
                return Some([&[start + (index / per) as u32][..], &below].concat());
            }
            index -= size as usize * per;
        }
        None
    }

    /// Calls `f` on every `Π_BC` below `node`, an instance of this kind at
    /// `path` (itself included), with its path, in path order. The
    /// root-only families hold none.
    pub(crate) fn each_bc(
        &self,
        node: &mut dyn Node,
        n: usize,
        path: &mut Vec<u32>,
        f: &mut impl FnMut(&[u32], &mut crate::bc::Bc),
    ) {
        if let Some(bc) = node.bc() {
            return f(path, bc);
        }
        for (family, start, size) in self.spans(n).filter(|(f, ..)| !f.root_only()) {
            for index in 0..size {
                if let Some(child) = node.child(family.name, index as usize) {
                    path.push(start + index);
                    family.kind.each_bc(child, n, path, f);
                    path.pop();
                }
            }
        }
    }

    /// Runs `f` with `ctx` scoped to child `index` of family `name`.
    pub fn scoped<R>(
        &self,
        ctx: &mut Context<'_, Msg>,
        name: Name,
        index: usize,
        f: impl FnOnce(&mut Context<'_, Msg>) -> R,
    ) -> R {
        ctx.scoped(self.segment(ctx.n, name, index), f)
    }

    /// The name of the instance at `path` below an instance of this kind,
    /// e.g. `Acs/Vss[3]/Wps[5]/Votes/Acast[4]`: the root's kind, one
    /// `Family[index]` per segment (no index in a family of one), and the
    /// addressed instance's kind if its family is named otherwise. `None`
    /// if the path names no instance.
    pub fn describe(&self, n: usize, path: &[u32]) -> Option<String> {
        let mut text = self.name.to_string();
        let mut kind = self;
        let mut family_name = None;
        for (depth, &seg) in path.iter().enumerate() {
            let located = kind.locate(n, seg);
            let (family, index) = located.filter(|(f, _)| depth == 0 || !f.root_only())?;
            let name = format!("{:?}", family.name);
            text += &match family.card {
                Card::One => format!("/{name}"),
                Card::N | Card::Clusters(_) => format!("/{name}[{index}]"),
                Card::Batch(_) => format!("/{name}[{}#{}]", index % n, index / n),
            };
            kind = family.kind;
            family_name = Some(name);
        }
        if family_name.is_some_and(|name| name != kind.name) {
            text += &format!("/{}", kind.name);
        }
        Some(text)
    }

    /// The path of every instance in the tree below (and including) an
    /// instance of this kind, depth first, when it is the root.
    pub fn valid_paths(&self, n: usize) -> Vec<Vec<u32>> {
        self.paths(n, true)
    }

    /// [`Kind::valid_paths`], with the root-only families only if `root`.
    fn paths(&self, n: usize, root: bool) -> Vec<Vec<u32>> {
        let mut paths = vec![Vec::new()];
        for (family, start, size) in self.spans(n).filter(|(f, ..)| root || !f.root_only()) {
            let below = family.kind.paths(n, false);
            for seg in start..start + size {
                paths.extend(below.iter().map(|path| [&[seg], &path[..]].concat()));
            }
        }
        paths
    }

    /// Delivers `event`, addressed to `path` below `node` (an instance of
    /// this kind), to the child the path's first segment names, scoped to
    /// that segment; see [`Routed`]. A leaf routes its events here too, so
    /// that a path below it is dropped. An instance that holds side channels
    /// ([`Node::side`]) routes through `voteboard::route`, which calls this.
    // This and the helpers it calls per delivery are `#[inline]`:
    // without it the handler time of `sync-packed-n10` grew by about 40 %.
    #[inline]
    pub fn route<'p, 'm>(
        &self,
        node: &mut impl Node,
        ctx: &mut Context<'_, Msg>,
        path: &'p [u32],
        event: Event<'m>,
    ) -> Routed<'p, 'm> {
        let Some((&seg, below)) = path.split_first() else {
            return Routed::Own(event);
        };
        // A leaf has nothing below it, and the root-only families are the
        // root's alone.
        let root = ctx.path().is_empty();
        let routable = |(family, _): &(&Family, usize)| {
            (below.is_empty() || !family.kind.families.is_empty()) && (root || !family.root_only())
        };
        let Some((family, index)) = self.locate(ctx.n, seg).filter(routable) else {
            #[cfg(test)]
            tests::DROPPED.with(|dropped| dropped.set(dropped.get() + 1));
            return Routed::Dropped;
        };
        let child = match family.name {
            Name::Batch => node.side().map(|side| side.slot(ctx.n, index) as _),
            Name::Sba => node
                .side()
                .and_then(|side| side.clusters.sba(index))
                .map(|s| s as _),
            name => node.child(name, index),
        };
        let Some(child) = child else {
            return Routed::Absent(family.name, below, event);
        };
        let progress = ctx.scoped(seg, |ctx| child.on_event(ctx, below, event));
        Routed::Child(family.name, index, progress)
    }
}

impl std::fmt::Debug for Kind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name)
    }
}

/// What reaches an instance: a message or one of its timers. The message
/// is borrowed — all recipients of a frame share one decode — so a handler
/// clones only what it stores.
#[derive(Clone, Copy)]
pub enum Event<'m> {
    /// A message from a party.
    Message(PartyId, &'m Msg),
    /// A timer with its id.
    Timer(u64),
    /// A late `OK` vote `(sender, counterpart)` for the vote board of the
    /// instance it is addressed to, handed down by the late-vote channel
    /// that delivered it (`voteboard::Side`).
    LateOk(PartyId, PartyId),
    /// The agreed values of a `Π_BC`'s slots, handed down at its `T_BC` by
    /// the root's SBA cluster it belongs to (`sba::Clusters`).
    Agreed(&'m [SbaValue]),
}

/// Where [`Kind::route`] took an event.
pub enum Routed<'p, 'm> {
    /// Nowhere: the path is empty, so the event is the instance's own.
    Own(Event<'m>),
    /// To child `index` of family `name`, which has handled it and reported
    /// whether it made progress (see [`Node::on_event`]).
    Child(Name, usize, bool),
    /// Nowhere: the path names a declared child that does not exist (yet);
    /// the path below it and the event are handed back.
    Absent(Name, &'p [u32], Event<'m>),
    /// Nowhere: the path names no declared child, goes on below a leaf, or
    /// names a child of a root-only family below the root.
    Dropped,
}

/// A protocol instance in the tree: what the tower's protocols implement.
/// It handles every event addressed to it or below it, and a composite
/// hands out its children to [`Kind::route`]. [`node_protocol!`](crate::node_protocol) makes a
/// node a [`Protocol`](mpc_net::Protocol).
pub trait Node {
    /// Called exactly once, at the party's local time of instance creation.
    fn init(&mut self, ctx: &mut Context<'_, Msg>);

    /// Handles `ev`, addressed to `path` below this instance, and returns
    /// whether it made progress: whether the instance's observable output
    /// changed. A parent runs its after-child step only on that.
    fn on_event(&mut self, ctx: &mut Context<'_, Msg>, path: PathSlice<'_>, ev: Event<'_>) -> bool;

    /// Child `index` of family `name` — one of the instance's declared
    /// families but the root-only ones ([`Node::side`] holds those) — if it
    /// exists. A leaf has none.
    fn child(&mut self, _: Name, _: usize) -> Option<&mut dyn Node> {
        None
    }

    /// The instance's side channels, if its kind can be a root that has
    /// them: live at the root, an outbox of late votes below it.
    fn side(&mut self) -> Option<&mut crate::voteboard::Side> {
        None
    }

    /// The instance as a `Π_BC`, if it is one: the root's SBA clusters read
    /// its inputs (`Bc::sba_inputs`).
    fn bc(&mut self) -> Option<&mut crate::bc::Bc> {
        None
    }
}

/// Implements `Protocol<Msg>` for a [`Node`] (a blanket impl would be an
/// orphan): `init` is the node's, every handler hands it their [`Event`] —
/// the owned and the borrowed message entry points alike — and drops the
/// progress it reports (a root has no parent), and the upcasts return
/// `self`.
#[macro_export]
macro_rules! node_protocol {
    ($node:ty) => {
        impl ::mpc_net::Protocol<$crate::Msg> for $node {
            fn init(&mut self, ctx: &mut ::mpc_net::Context<'_, $crate::Msg>) {
                $crate::tree::Node::init(self, ctx);
            }

            fn on_message(
                &mut self,
                ctx: &mut ::mpc_net::Context<'_, $crate::Msg>,
                from: ::mpc_net::PartyId,
                path: ::mpc_net::PathSlice<'_>,
                msg: $crate::Msg,
            ) {
                $crate::tree::Node::on_event(
                    self,
                    ctx,
                    path,
                    $crate::tree::Event::Message(from, &msg),
                );
            }

            fn on_message_ref(
                &mut self,
                ctx: &mut ::mpc_net::Context<'_, $crate::Msg>,
                from: ::mpc_net::PartyId,
                path: ::mpc_net::PathSlice<'_>,
                msg: &$crate::Msg,
            ) {
                $crate::tree::Node::on_event(
                    self,
                    ctx,
                    path,
                    $crate::tree::Event::Message(from, msg),
                );
            }

            fn on_timer(
                &mut self,
                ctx: &mut ::mpc_net::Context<'_, $crate::Msg>,
                path: ::mpc_net::PathSlice<'_>,
                id: u64,
            ) {
                $crate::tree::Node::on_event(self, ctx, path, $crate::tree::Event::Timer(id));
            }

            fn as_any(&self) -> &dyn ::std::any::Any {
                self
            }

            fn as_any_mut(&mut self) -> &mut dyn ::std::any::Any {
                self
            }
        }
    };
}

#[cfg(test)]
impl Kind {
    /// How many children family `name` holds; 0 if it is not declared.
    pub(crate) fn size(&self, n: usize, name: Name) -> usize {
        let mut spans = self.spans(n);
        spans
            .find(|(family, ..)| family.name == name)
            .map_or(0, |(.., size)| size as usize)
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;
    use std::fmt::Debug;

    use mpc_algebra::{Fp, Polynomial};
    use mpc_net::{Effects, Protocol};
    use rand::{rngs::StdRng, SeedableRng};

    use super::*;
    use crate::aba::{Aba, ABA};
    use crate::acast::{Acast, ACAST};
    use crate::acs::{Acs, ACS};
    use crate::ba::{Ba, BA};
    use crate::bc::{Bc, BC};
    use crate::msg::{AbaMsg, AcastMsg, BcValue, SbaMsg};
    use crate::params::Params;
    use crate::sba::{Sba, SBA};
    use crate::vss::{Vss, VSS};
    use crate::wps::{Wps, WPS};

    thread_local! {
        /// How many events [`Kind::route`] has dropped on this thread.
        pub(super) static DROPPED: Cell<usize> = const { Cell::new(0) };
    }

    /// The paths one segment outside the tree, found from `valid_paths`
    /// alone: below every instance, each segment under the largest of its
    /// children's that names none of them, and the one past it (`0` below
    /// a leaf).
    fn stray_paths(kind: &Kind, n: usize) -> Vec<Vec<u32>> {
        let valid = kind.valid_paths(n);
        let children = |path: &[u32]| -> Vec<u32> {
            let below = valid.iter().filter(|p| p.len() == path.len() + 1);
            below
                .filter(|p| p.starts_with(path))
                .map(|p| p[path.len()])
                .collect()
        };
        let mut stray = Vec::new();
        for path in &valid {
            let segs = children(path);
            let end = segs.iter().max().map_or(0, |&last| last + 1);
            for seg in (0..=end).filter(|seg| !segs.contains(seg)) {
                stray.push([&path[..], &[seg]].concat());
            }
        }
        stray
    }

    /// Messages each of the tower's handlers would act on, from party 0 —
    /// the sender of every broadcast and the dealer of every sharing here.
    fn probes() -> Vec<Msg> {
        let bit = BcValue::Bit(true);
        vec![
            Msg::Acast(AcastMsg::Send(bit.clone())),
            Msg::Acast(AcastMsg::Ready(bit)),
            Msg::Sba(SbaMsg::Round1 {
                phase: 0,
                value: None,
            }),
            Msg::Aba(AbaMsg::Finish { value: true }),
            Msg::RowPolys(vec![vec![Fp::from_u64(1), Fp::from_u64(2)]]),
            Msg::Points(vec![Fp::from_u64(7)]),
        ]
    }

    /// Runs `f` on a context of party 1 at time 0.
    fn with_ctx<R>(params: Params, f: impl FnOnce(&mut Context<'_, Msg>) -> R) -> R {
        let mut effects = Effects::new();
        let mut rng = StdRng::seed_from_u64(0);
        f(&mut Context::new(
            1,
            params.n,
            0,
            params.delta,
            &mut effects,
            &mut rng,
            0,
        ))
    }

    /// `describe` and routing agree on `root`, an instance of `kind` as
    /// party 1 sees it after `init`: every valid path has a name, and no
    /// routing step drops a message delivered there; no path one segment
    /// outside the tree has a name, and a message delivered there changes
    /// nothing.
    fn assert_tree_agrees<P: Protocol<Msg> + Debug>(kind: &Kind, params: Params, mut root: P) {
        let n = params.n;
        let valid = kind.valid_paths(n);
        for path in &valid {
            assert!(kind.describe(n, path).is_some(), "{path:?} has no name");
        }
        let stray = stray_paths(kind, n);
        assert!(!stray.is_empty());
        with_ctx(params, |ctx| {
            root.init(ctx);
            for path in &valid {
                let before = DROPPED.with(Cell::get);
                for msg in probes() {
                    root.on_message(ctx, 0, path, msg);
                }
                let name = kind.describe(n, path);
                assert_eq!(DROPPED.with(Cell::get), before, "{name:?} is dropped");
            }
            let before = format!("{root:?}");
            for path in &stray {
                assert_eq!(kind.describe(n, path), None, "{path:?} is outside the tree");
                for msg in probes() {
                    root.on_message(ctx, 0, path, msg);
                }
            }
            assert!(
                format!("{root:?}") == before,
                "a stray path reached a handler"
            );
        });
    }

    #[test]
    fn describe_and_routing_agree_from_every_stand_alone_root() {
        for params in [Params::new(4, 1, 0, 10), Params::new(7, 2, 0, 10)] {
            let t = params.ts;
            let poly = Polynomial::from_coeffs(vec![Fp::from_u64(5); t + 1]);
            assert_tree_agrees(&ACAST, params, Acast::new(0, params.n, t));
            assert_tree_agrees(&SBA, params, Sba::new(params.n, t, None));
            assert_tree_agrees(&ABA, params, Aba::new(params.n, t, None));
            assert_tree_agrees(&BC, params, Bc::new(0, t, params));
            assert_tree_agrees(&BC, params, Bc::new_group(t, params));
            assert_tree_agrees(&BA, params, Ba::new(t, params, Some(true)));
            assert_tree_agrees(&WPS, params, Wps::new(0, params, 1));
            assert_tree_agrees(&VSS, params, Vss::new(0, params, 1));
            assert_tree_agrees(&ACS, params, Acs::new(params, vec![poly]));
        }
    }

    #[test]
    fn describe_names_families_indices_and_the_leaf_kind() {
        let n = 7;
        let votes = WPS.segment(n, Name::Votes, 0);
        assert_eq!(
            ACS.describe(n, &[3, 5, votes, 4]).as_deref(),
            Some("Acs/Vss[3]/Wps[5]/Votes/Acast[4]")
        );
        let batch = ACS.segment(n, Name::Batch, 2 * n + 4);
        assert_eq!(
            ACS.describe(n, &[batch]).as_deref(),
            Some("Acs/Batch[4#2]/Acast"),
            "sender 4's third batch"
        );
        assert_eq!(ACS.describe(n, &[]).as_deref(), Some("Acs"));
        let aba = BA.segment(n, Name::Aba, 0);
        assert_eq!(
            ACS.describe(n, &[ACS.segment(n, Name::Ba, 2), aba])
                .as_deref(),
            Some("Acs/Ba[2]/Aba")
        );
        assert_eq!(BA.describe(n, &[0]).as_deref(), Some("Ba/Bc"));
        assert_eq!(BA.describe(n, &[0, 3]).as_deref(), Some("Ba/Bc/Acast[3]"));
        assert_eq!(
            BA.describe(n, &[1]),
            None,
            "segments 1..n of a Π_BA are unused"
        );
        let cluster = ACS.segment(n, Name::Sba, 5);
        assert_eq!(ACS.describe(n, &[cluster]).as_deref(), Some("Acs/Sba[5]"));
        // The root-only families are named at the root only.
        let (vss, wps) = (ACS.segment(n, Name::Vss, 3), VSS.segment(n, Name::Wps, 5));
        for name in [Name::Batch, Name::Sba] {
            let path = [vss, wps, WPS.segment(n, name, 0)];
            assert_eq!(ACS.describe(n, &path), None, "{name:?} below the root");
            assert!(
                WPS.describe(n, &path[2..]).is_some(),
                "{name:?} at the root"
            );
        }
    }

    /// The segments every composite used before its layout was declared:
    /// they are on the wire and feed the common coin.
    #[test]
    fn declared_layouts_keep_the_historical_segments() {
        let n = 5;
        let m = n as u32;
        // A lone broadcast is slot 0 of a group's layout; the root's SBA
        // clusters start where a group's own SBA was.
        assert_eq!(BC.segment(n, Name::Acast, 0), 0);
        assert_eq!(BC.segment(n, Name::Acast, 3), 3);
        assert_eq!(BC.segment(n, Name::Sba, 0), m);
        assert_eq!(BA.segment(n, Name::Bc, 0), 0);
        assert_eq!(BA.segment(n, Name::Aba, 0), m);
        assert_eq!(BA.segment(n, Name::Sba, 0), m + 1, "after Aba");
        for (shell, base) in [(&WPS, 0), (&VSS, m)] {
            assert_eq!(shell.segment(n, Name::Wef, 0), base);
            assert_eq!(shell.segment(n, Name::Ba, 0), base + 1);
            assert_eq!(shell.segment(n, Name::Star, 0), base + 2);
            assert_eq!(shell.segment(n, Name::Votes, 0), base + 3);
            // The late-vote batches start where the update A-casts did.
            assert_eq!(shell.segment(n, Name::Batch, 0), base + 4);
            let clusters = base + 4 + shell.size(n, Name::Batch) as u32;
            assert_eq!(shell.segment(n, Name::Sba, 0), clusters, "after Batch");
        }
        assert_eq!(VSS.segment(n, Name::Wps, 4), 4);
        assert_eq!(ACS.segment(n, Name::Vss, 2), 2);
        assert_eq!(ACS.segment(n, Name::Ba, 2), m + 2);
        assert_eq!(ACS.segment(n, Name::Batch, 3), 2 * m + 3, "after Ba");
        let clusters = 2 * m + ACS.size(n, Name::Batch) as u32;
        assert_eq!(ACS.segment(n, Name::Sba, 0), clusters, "after Batch");
        assert_eq!(
            ACS.segment(n, Name::Votes, 0),
            u32::MAX,
            "not an ACS family"
        );
    }

    /// The vote boards of an instance of `kind`'s tree, counted: one per
    /// instance that declares a `Votes` family.
    fn count_boards(kind: &Kind, n: usize) -> usize {
        let own = usize::from(kind.families.iter().any(|f| f.name == Name::Votes));
        let below =
            |(family, _, size): (&Family, u32, u32)| size as usize * count_boards(family.kind, n);
        own + kind.spans(n).map(below).sum::<usize>()
    }

    /// A sender casts at most `n` late votes per board, one per batch at
    /// worst, so each `Batch` family holds `n` senders × `n · boards` slots:
    /// as many as the `n²` update A-casts of every board it replaces.
    #[test]
    fn each_batch_family_has_a_slot_per_sender_and_late_vote() {
        for n in [4, 5, 8] {
            assert_eq!(WPS.boards(n), 1);
            assert_eq!(VSS.boards(n), n + 1);
            assert_eq!(ACS.boards(n), n * (n + 1));
            for kind in [&WPS, &VSS, &ACS] {
                let size = kind.size(n, Name::Batch);
                assert_eq!(size, n * n * count_boards(kind, n), "{kind:?}");
            }
            for kind in [&ACAST, &SBA, &ABA, &BC, &BA, &WPS, &VSS, &ACS] {
                assert_eq!(kind.boards(n), count_boards(kind, n), "{kind:?}");
            }
        }
        assert_eq!(ACS.size(8, Name::Batch), 8 * 8 * (8 * 8 + 8));
    }

    /// The `Π_BC`s of an instance of `kind`'s tree, counted.
    fn count_bcs(kind: &Kind, n: usize) -> usize {
        let below = kind.spans(n).filter(|(family, ..)| !family.root_only());
        let below = below.map(|(family, _, size)| size as usize * count_bcs(family.kind, n));
        usize::from(std::ptr::eq(kind, &BC)) + below.sum::<usize>()
    }

    /// A root starts at most one SBA cluster per `Π_BC` of its tree (one per
    /// start tick, and every `Π_BC` has one), so each `Sba` family holds as
    /// many.
    #[test]
    fn each_cluster_family_has_a_slot_per_broadcast() {
        for n in [4, 5, 8] {
            for kind in [&BC, &BA, &WPS, &VSS, &ACS] {
                let size = kind.size(n, Name::Sba);
                assert_eq!(size, count_bcs(kind, n), "{kind:?}");
            }
            assert_eq!(ACS.size(n, Name::Sba), 4 * n + 3 * n * n);
        }
    }

    /// Boards are numbered depth first, each instance's own first: every
    /// index below the count names a distinct instance that has a board.
    #[test]
    fn board_paths_name_each_board_once_depth_first() {
        let n = 4;
        let (vss, wps) = (
            |j| ACS.segment(n, Name::Vss, j),
            |k| VSS.segment(n, Name::Wps, k),
        );
        assert_eq!(ACS.board_path(n, 0), Some(vec![vss(0)]));
        assert_eq!(ACS.board_path(n, 1), Some(vec![vss(0), wps(0)]));
        assert_eq!(ACS.board_path(n, n + 1), Some(vec![vss(1)]));
        assert_eq!(ACS.board_path(n, 2 * n + 1), Some(vec![vss(1), wps(n - 1)]));
        assert_eq!(VSS.board_path(n, 0), Some(Vec::new()));
        assert_eq!(WPS.board_path(n, 0), Some(Vec::new()));
        for kind in [&WPS, &VSS, &ACS] {
            let boards = kind.boards(n);
            let mut paths: Vec<Vec<u32>> = (0..boards)
                .map(|index| kind.board_path(n, index).expect("a board"))
                .collect();
            for path in &paths {
                let name = kind.describe(n, path).expect("an instance");
                let last = name.rsplit('/').next().unwrap_or_default();
                assert!(last.starts_with("Wps") || last.starts_with("Vss"), "{name}");
            }
            paths.sort();
            paths.dedup();
            assert_eq!(paths.len(), boards, "{kind:?}");
            assert_eq!(kind.board_path(n, boards), None, "{kind:?}");
        }
    }

    /// Delivers `msg` from party 0 at `path` to `root` (party 1, after
    /// `init`) and returns whether its state changed.
    fn changes<P: Protocol<Msg> + Debug>(
        params: Params,
        mut root: P,
        path: &[u32],
        msg: Msg,
    ) -> bool {
        with_ctx(params, |ctx| {
            root.init(ctx);
            let before = format!("{root:?}");
            root.on_message(ctx, 0, path, msg);
            format!("{root:?}") != before
        })
    }

    const N4: Params = Params {
        n: 4,
        ts: 1,
        ta: 0,
        delta: 10,
    };

    #[test]
    fn a_path_below_an_acast_is_dropped() {
        let send = || Msg::Acast(AcastMsg::Send(BcValue::Bit(true)));
        let bc = || Bc::new(0, N4.ts, N4);
        let acast = BC.segment(N4.n, Name::Acast, 0);
        assert!(changes(N4, bc(), &[acast], send()), "the A-cast takes it");
        assert!(!changes(N4, bc(), &[acast, 7], send()));
    }

    /// A stand-alone `Π_BC` (party 1), its SBA cluster started: run to its
    /// `3Δ` timer.
    fn started_bc() -> Bc {
        let mut bc = Bc::new(0, N4.ts, N4);
        with_ctx(N4, |ctx| {
            Protocol::init(&mut bc, ctx);
            ctx.now = 3 * N4.delta;
            bc.on_timer(ctx, &[], crate::bc::TIMER_START_SBA);
        });
        bc
    }

    #[test]
    fn a_path_below_an_sba_is_dropped() {
        let round1 = || {
            Msg::Sba(SbaMsg::Round1 {
                phase: 0,
                value: Some(BcValue::Bit(true)),
            })
        };
        let sba = BC.segment(N4.n, Name::Sba, 0);
        let changes = |path: &[u32]| {
            let mut bc = started_bc();
            let before = format!("{bc:?}");
            with_ctx(N4, |ctx| bc.on_message(ctx, 0, path, round1()));
            format!("{bc:?}") != before
        };
        assert!(changes(&[sba]), "the cluster takes it");
        assert!(!changes(&[sba, 7]));
        assert!(!changes(&[sba + 1]), "cluster 1 has not started");
    }

    #[test]
    fn a_path_below_an_aba_is_dropped() {
        let finish = || Msg::Aba(AbaMsg::Finish { value: true });
        let ba = || Ba::new(N4.ts, N4, Some(true));
        let aba = BA.segment(N4.n, Name::Aba, 0);
        assert!(changes(N4, ba(), &[aba], finish()), "the Π_ABA takes it");
        assert!(!changes(N4, ba(), &[aba, 7], finish()));
    }
}
