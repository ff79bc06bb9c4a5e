//! Deterministic fault injection at the [`crate::scheduler`] seam.
//!
//! A [`FaultPlan`] is an ordered list of composable fault rules — crashes
//! (with optional recovery), partitions (with optional heal), and targeted
//! message drop / duplicate / delay bursts — evaluated by a **pure**
//! function of the message coordinates `(from, to, send_tick,
//! deliver_tick)`. No randomness is drawn at query time, so the *same* plan
//! produces the *same* per-message decisions on the simulator and the
//! threaded backend: every failing cell of the guarantee matrix is a
//! one-seed repro.
//!
//! Determinism contract:
//!
//! * [`FaultPlan::resolve`] is a pure function of its arguments; plans carry
//!   no interior mutability and no RNG.
//! * Faults only ever **add** latency (or drop a message outright) — the
//!   adjusted delivery tick is never earlier than the scheduler's, which
//!   preserves the threaded backend's conservative delivery floors.
//! * Self-sends (`to == from`) are exempt: those model a party's internal
//!   hand-off, not network traffic.
//! * Crash faults act at the *wire*: a crashed party is fail-silent (its
//!   outbound and inbound traffic is cut) while its runtime keeps executing,
//!   which is exactly how both transports can honor the fault identically.
//! * Crash-with-recovery and partition-then-heal **hold** the affected
//!   message and re-deliver it after the fault clears with the original link
//!   latency added, guaranteeing eventual delivery — the protocol then
//!   completes through the asynchronous fallback path instead of wedging.

use crate::transport::{PartyId, Time};

/// One composable injected fault. All windows are half-open `[start, end)`
/// in simulated ticks, matched against a message's **send** tick (a message
/// already in flight when a partition starts still arrives; one sent during
/// it is cut).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultRule {
    /// `party` fail-silent from tick `at`; with `recover = Some(r)` its
    /// traffic is held and re-delivered from tick `r`, otherwise cut forever.
    Crash {
        /// The crashing party.
        party: PartyId,
        /// First tick at which the party is down.
        at: Time,
        /// Tick at which the party is back, if it ever is.
        recover: Option<Time>,
    },
    /// The network splits into `side` vs. its complement from tick `from`;
    /// messages crossing the cut are held until `heal` (or dropped if the
    /// partition never heals).
    Partition {
        /// One side of the cut (the other side is its complement).
        side: Vec<PartyId>,
        /// First tick at which the cut is active.
        from: Time,
        /// Tick at which the partition heals, if it ever does.
        heal: Option<Time>,
    },
    /// Drop every matching message sent during the window.
    DropBurst {
        /// Only messages from this sender (`None` = any sender).
        from: Option<PartyId>,
        /// Only messages to this receiver (`None` = any receiver).
        to: Option<PartyId>,
        /// Half-open `[start, end)` send-tick window.
        window: (Time, Time),
    },
    /// Deliver every matching message sent during the window **twice**: once
    /// on schedule and once `gap` ticks later. Exercises the protocols'
    /// at-least-once tolerance (replay is within the adversary's power on an
    /// asynchronous network).
    DuplicateBurst {
        /// Only messages from this sender (`None` = any sender).
        from: Option<PartyId>,
        /// Only messages to this receiver (`None` = any receiver).
        to: Option<PartyId>,
        /// Half-open `[start, end)` send-tick window.
        window: (Time, Time),
        /// Extra ticks after the scheduled delivery for the duplicate copy.
        gap: Time,
    },
    /// Add `extra` ticks of latency to every matching message sent during
    /// the window (targeted slow-link schedule).
    DelayBurst {
        /// Only messages from this sender (`None` = any sender).
        from: Option<PartyId>,
        /// Only messages to this receiver (`None` = any receiver).
        to: Option<PartyId>,
        /// Half-open `[start, end)` send-tick window.
        window: (Time, Time),
        /// Additional latency in ticks.
        extra: Time,
    },
}

/// What the plan decided for one message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultOutcome {
    /// Deliver at `at` (≥ the scheduler's tick); with `duplicate = Some(d)`,
    /// deliver a second identical copy at `d > at`.
    Deliver {
        /// Adjusted delivery tick.
        at: Time,
        /// Delivery tick of the duplicate copy, if any.
        duplicate: Option<Time>,
    },
    /// Suppress the message entirely.
    Drop,
}

/// An ordered, immutable list of [`FaultRule`]s applied to every
/// cross-party message on top of the scheduler's link delays.
///
/// Rules compose front to back: the first rule that drops wins; hold/delay
/// adjustments accumulate on the delivery tick; of several duplicate rules
/// the last match wins. Duplicate copies are *not* re-filtered through the
/// plan.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    rules: Vec<FaultRule>,
}

fn in_window(t: Time, (start, end): (Time, Time)) -> bool {
    t >= start && t < end
}

fn filters_match(f: Option<PartyId>, t: Option<PartyId>, from: PartyId, to: PartyId) -> bool {
    f.is_none_or(|p| p == from) && t.is_none_or(|p| p == to)
}

impl FaultPlan {
    /// The empty plan: every message passes through untouched.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// A plan made of the given rules, applied in order.
    pub fn new(rules: Vec<FaultRule>) -> Self {
        FaultPlan { rules }
    }

    /// Is this the empty plan?
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// The rules, in application order.
    pub fn rules(&self) -> &[FaultRule] {
        &self.rules
    }

    /// Appends a crash fault. `recover = None` crashes forever.
    pub fn crash(mut self, party: PartyId, at: Time, recover: Option<Time>) -> Self {
        self.rules.push(FaultRule::Crash { party, at, recover });
        self
    }

    /// Parties targeted by a [`FaultRule::Crash`] rule (recovering or not),
    /// deduplicated and in ascending order. A crash target spends one unit of
    /// the corruption budget: it is a fail-stop fault the protocol must
    /// tolerate, and it is *not* owed an output — completion predicates must
    /// exempt it.
    pub fn crash_targets(&self) -> Vec<PartyId> {
        let mut targets: Vec<PartyId> = self
            .rules
            .iter()
            .filter_map(|r| match r {
                FaultRule::Crash { party, .. } => Some(*party),
                _ => None,
            })
            .collect();
        targets.sort_unstable();
        targets.dedup();
        targets
    }

    /// Appends a partition of `side` vs. the rest over `[from, heal)`.
    pub fn partition(mut self, side: Vec<PartyId>, from: Time, heal: Option<Time>) -> Self {
        self.rules.push(FaultRule::Partition { side, from, heal });
        self
    }

    /// Appends a drop burst.
    pub fn drop_burst(
        mut self,
        from: Option<PartyId>,
        to: Option<PartyId>,
        window: (Time, Time),
    ) -> Self {
        self.rules.push(FaultRule::DropBurst { from, to, window });
        self
    }

    /// Appends a duplicate burst with the given re-delivery gap.
    pub fn duplicate_burst(
        mut self,
        from: Option<PartyId>,
        to: Option<PartyId>,
        window: (Time, Time),
        gap: Time,
    ) -> Self {
        self.rules.push(FaultRule::DuplicateBurst {
            from,
            to,
            window,
            gap,
        });
        self
    }

    /// Appends a delay burst adding `extra` ticks.
    pub fn delay_burst(
        mut self,
        from: Option<PartyId>,
        to: Option<PartyId>,
        window: (Time, Time),
        extra: Time,
    ) -> Self {
        self.rules.push(FaultRule::DelayBurst {
            from,
            to,
            window,
            extra,
        });
        self
    }

    /// Decides the fate of one message: `from → to`, sent at `send_tick`,
    /// scheduled (by the link scheduler) to arrive at `deliver_tick`. Pure —
    /// both transports call this with identical coordinates and get
    /// identical answers.
    pub fn resolve(
        &self,
        from: PartyId,
        to: PartyId,
        send_tick: Time,
        deliver_tick: Time,
    ) -> FaultOutcome {
        if to == from {
            return FaultOutcome::Deliver {
                at: deliver_tick,
                duplicate: None,
            };
        }
        let latency = deliver_tick.saturating_sub(send_tick);
        let mut at = deliver_tick;
        let mut duplicate = None;
        for rule in &self.rules {
            match rule {
                FaultRule::Crash {
                    party,
                    at: start,
                    recover,
                } => {
                    if from != *party && to != *party {
                        continue;
                    }
                    let down = match recover {
                        Some(end) => in_window(send_tick, (*start, *end)),
                        None => send_tick >= *start,
                    };
                    if !down {
                        continue;
                    }
                    match recover {
                        None => return FaultOutcome::Drop,
                        // Held until recovery, then re-delivered with the
                        // original link latency on top (strictly later than
                        // the scheduled tick because end > send_tick here).
                        Some(end) => at = at.max(*end + latency),
                    }
                }
                FaultRule::Partition {
                    side,
                    from: start,
                    heal,
                } => {
                    let crosses = side.contains(&from) != side.contains(&to);
                    if !crosses {
                        continue;
                    }
                    let cut = match heal {
                        Some(end) => in_window(send_tick, (*start, *end)),
                        None => send_tick >= *start,
                    };
                    if !cut {
                        continue;
                    }
                    match heal {
                        None => return FaultOutcome::Drop,
                        Some(end) => at = at.max(*end + latency),
                    }
                }
                FaultRule::DropBurst {
                    from: f,
                    to: t,
                    window,
                } => {
                    if filters_match(*f, *t, from, to) && in_window(send_tick, *window) {
                        return FaultOutcome::Drop;
                    }
                }
                FaultRule::DuplicateBurst {
                    from: f,
                    to: t,
                    window,
                    gap,
                } => {
                    if filters_match(*f, *t, from, to) && in_window(send_tick, *window) {
                        duplicate = Some((*gap).max(1));
                    }
                }
                FaultRule::DelayBurst {
                    from: f,
                    to: t,
                    window,
                    extra,
                } => {
                    if filters_match(*f, *t, from, to) && in_window(send_tick, *window) {
                        at += extra;
                    }
                }
            }
        }
        FaultOutcome::Deliver {
            at,
            duplicate: duplicate.map(|g| at + g),
        }
    }

    /// Named plans for the guarantee matrix and the other tests, parameterized
    /// on the run's `n` and `Δ` so windows land inside the protocol's active
    /// period. Crash/partition targets pick high party ids (the default
    /// corruption helpers corrupt low ids, so the fault usually lands on an
    /// honest party — the harder case).
    pub fn preset(name: &str, n: usize, delta: Time) -> Option<FaultPlan> {
        let last = n - 1;
        Some(match name {
            "none" | "" => FaultPlan::none(),
            // fail-silent forever from early in the run
            "crash" => FaultPlan::none().crash(last, 2 * delta, None),
            // down for a while, then back: exercises held re-delivery
            "crash-recover" => FaultPlan::none().crash(last, 2 * delta, Some(30 * delta)),
            // minority side cut off, then healed
            "partition-heal" => FaultPlan::none().partition(
                (0..n.div_ceil(4).max(1)).collect(),
                2 * delta,
                Some(30 * delta),
            ),
            // every message sent in the window is delivered twice
            "dup-burst" => FaultPlan::none().duplicate_burst(None, None, (0, 40 * delta), delta),
            // a burst of omissions on one inbound edge
            "drop-burst" => FaultPlan::none().drop_burst(None, Some(last), (2 * delta, 10 * delta)),
            // targeted slow links out of one party
            "delay-burst" => {
                FaultPlan::none().delay_burst(Some(last), None, (0, 40 * delta), 10 * delta)
            }
            _ => return None,
        })
    }

    /// Named *socket-level* chaos plans for the TCP transport's chaos shim
    /// (`MpcBuilder::chaos_plan`, `TcpNet::set_chaos_plan`). Same rule
    /// vocabulary and `(from, to, send_tick, deliver_tick)` coordinates as
    /// [`FaultPlan::preset`], but interpreted on byte streams instead of
    /// logical messages: `Drop` severs the connection mid-record, an extra
    /// delay stalls the write, a duplicate duplicates a byte run and forces
    /// a resync. Chaos applies only to a record's *first* transmission —
    /// replays after a reconnect are written clean — so no plan can
    /// suppress a message, only stretch its wall-clock path; the logical
    /// schedule (and thus the guarantee matrix) is untouched.
    pub fn chaos_preset(name: &str, n: usize, delta: Time) -> Option<FaultPlan> {
        let last = n - 1;
        Some(match name {
            "none" | "" => FaultPlan::none(),
            // every data frame out of one party is torn mid-record, for the
            // whole run: reconnect-with-replay in every protocol phase
            "sever" => FaultPlan::none().drop_burst(Some(last), None, (0, Time::MAX)),
            // writes out of one party sleep past any test-sized wedge
            // deadline during one early tick (each stalled record costs real
            // wall time up to the supervisor's stall cap, so the window is
            // kept to a single tick)
            "stall" => {
                FaultPlan::none().delay_burst(Some(last), None, (2 * delta, 2 * delta + 1), 50_000)
            }
            // frames out of one party grow a duplicated byte run: the
            // receiver's checksum rejects it and resyncs by teardown
            "dup-bytes" => {
                FaultPlan::none().duplicate_burst(Some(last), None, (0, Time::MAX), delta)
            }
            _ => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_passes_through() {
        let p = FaultPlan::none();
        assert!(p.is_empty());
        assert_eq!(
            p.resolve(0, 1, 10, 13),
            FaultOutcome::Deliver {
                at: 13,
                duplicate: None
            }
        );
    }

    #[test]
    fn crash_forever_drops_both_directions() {
        let p = FaultPlan::none().crash(2, 100, None);
        assert_eq!(p.resolve(2, 0, 100, 103), FaultOutcome::Drop);
        assert_eq!(p.resolve(0, 2, 150, 152), FaultOutcome::Drop);
        // before the crash: untouched
        assert_eq!(
            p.resolve(2, 0, 99, 102),
            FaultOutcome::Deliver {
                at: 102,
                duplicate: None
            }
        );
        // unrelated link: untouched
        assert_eq!(
            p.resolve(0, 1, 200, 203),
            FaultOutcome::Deliver {
                at: 203,
                duplicate: None
            }
        );
    }

    #[test]
    fn crash_recover_holds_and_redelivers_later() {
        let p = FaultPlan::none().crash(2, 100, Some(200));
        // held: recovery + original latency, strictly after the schedule
        assert_eq!(
            p.resolve(2, 0, 150, 153),
            FaultOutcome::Deliver {
                at: 203,
                duplicate: None
            }
        );
        // after recovery: untouched
        assert_eq!(
            p.resolve(2, 0, 200, 204),
            FaultOutcome::Deliver {
                at: 204,
                duplicate: None
            }
        );
    }

    #[test]
    fn partition_cuts_only_crossing_traffic() {
        let p = FaultPlan::none().partition(vec![0, 1], 50, Some(90));
        assert_eq!(
            p.resolve(0, 2, 60, 63),
            FaultOutcome::Deliver {
                at: 93,
                duplicate: None
            }
        );
        assert_eq!(
            p.resolve(3, 1, 60, 62),
            FaultOutcome::Deliver {
                at: 92,
                duplicate: None
            }
        );
        // same side: untouched
        assert_eq!(
            p.resolve(0, 1, 60, 61),
            FaultOutcome::Deliver {
                at: 61,
                duplicate: None
            }
        );
        // unhealed partition drops
        let p = FaultPlan::none().partition(vec![0, 1], 50, None);
        assert_eq!(p.resolve(0, 2, 60, 63), FaultOutcome::Drop);
    }

    #[test]
    fn bursts_filter_and_window() {
        let p = FaultPlan::none()
            .drop_burst(Some(1), None, (10, 20))
            .duplicate_burst(None, Some(3), (0, 100), 5)
            .delay_burst(Some(0), Some(2), (0, 100), 7);
        assert_eq!(p.resolve(1, 2, 15, 18), FaultOutcome::Drop);
        assert_eq!(
            p.resolve(1, 2, 20, 23),
            FaultOutcome::Deliver {
                at: 23,
                duplicate: None
            }
        );
        assert_eq!(
            p.resolve(2, 3, 30, 33),
            FaultOutcome::Deliver {
                at: 33,
                duplicate: Some(38)
            }
        );
        assert_eq!(
            p.resolve(0, 2, 30, 33),
            FaultOutcome::Deliver {
                at: 40,
                duplicate: None
            }
        );
    }

    #[test]
    fn self_sends_are_exempt() {
        let p = FaultPlan::none()
            .crash(2, 0, None)
            .drop_burst(None, None, (0, 1000));
        assert_eq!(
            p.resolve(2, 2, 10, 10),
            FaultOutcome::Deliver {
                at: 10,
                duplicate: None
            }
        );
    }

    #[test]
    fn faults_never_reduce_latency() {
        let p = FaultPlan::none()
            .crash(1, 10, Some(40))
            .partition(vec![0], 5, Some(60))
            .delay_burst(None, None, (0, 100), 3);
        for (from, to, s) in [(1usize, 2usize, 15u64), (0, 3, 20), (2, 3, 50)] {
            let d = s + 4;
            match p.resolve(from, to, s, d) {
                FaultOutcome::Deliver { at, duplicate } => {
                    assert!(at >= d, "{from}->{to}@{s}: {at} < {d}");
                    if let Some(dup) = duplicate {
                        assert!(dup > at);
                    }
                }
                FaultOutcome::Drop => {}
            }
        }
    }

    #[test]
    fn presets_resolve_and_unknown_is_none() {
        for name in [
            "none",
            "crash",
            "crash-recover",
            "partition-heal",
            "dup-burst",
            "drop-burst",
            "delay-burst",
        ] {
            assert!(FaultPlan::preset(name, 4, 8).is_some(), "{name}");
        }
        assert!(FaultPlan::preset("no-such-plan", 4, 8).is_none());
        assert!(FaultPlan::preset("none", 4, 8).unwrap().is_empty());
    }
}
