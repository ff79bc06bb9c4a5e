//! The wire-format message enum shared by every protocol in the stack.
//!
//! Keeping a single payload enum lets the whole composition tree run inside
//! one [`mpc_net::Simulation`] and gives every message a canonical byte
//! encoding ([`mpc_net::wire`]), from which the simulator derives the *exact*
//! bit accounting (the paper counts "bits communicated by the honest
//! parties"). Each type is declared once, tags included, and
//! [`mpc_net::wire_enum!`] generates its codec and sampler; `decode(encode(m))
//! == m` is checked over sampled messages by `tests/codec_roundtrip.rs`.

use mpc_algebra::Fp;

mpc_net::wire_enum! {
    /// One pairwise-consistency verdict cast by a party about a counterpart
    /// (the `OK(i, j)` / `NOK(i, j, q_i(α_j))` messages of `Π_WPS` / `Π_VSS`).
    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    pub enum Vote {
        /// The common points agreed (`OK`).
        Ok = 0,
        /// The common points disagreed (`NOK`); carries the index of the first
        /// disagreeing polynomial and the voter's version of the disputed point.
        Nok {
            /// Index (0-based) of the first polynomial whose check failed.
            ell: u32,
            /// The voter's version of the disputed common point.
            value: Fp,
        } = 1,
    }
}

mpc_net::wire_enum! {
    /// Values carried by the broadcast primitives (`Π_ACast`, `Π_BGP`, `Π_BC`).
    ///
    /// The protocols of the paper broadcast a handful of structured values —
    /// input bits, vote vectors, `(W, E, F)` triplets and `(E′, F′)` stars — so
    /// they are enumerated here rather than serialised to opaque byte strings.
    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    pub enum BcValue {
        /// A single bit (input broadcast of `Π_BA`).
        Bit(bool) = 0,
        /// A vector of pairwise-consistency votes `(counterpart, vote)`.
        Votes(Vec<(u32, Vote)>) = 1,
        /// The dealer's `(W, E, F)` triplet of `Π_WPS`/`Π_VSS` phase IV.
        Wef {
            /// The candidate support set `W` (`|W| ≥ n − t_s`).
            w: Vec<u32>,
            /// The star core `E` (`|E| ≥ n − 2·t_s`).
            e: Vec<u32>,
            /// The star periphery `F` (`|F| ≥ n − t_s`).
            f: Vec<u32>,
        } = 2,
        /// The dealer's `(E′, F′)` star of the asynchronous fallback path.
        Star {
            /// The star core `E′` (`|E′| ≥ n − 2·t_a`).
            e: Vec<u32>,
            /// The star periphery `F′` (`|F′| ≥ n − t_a`).
            f: Vec<u32>,
        } = 3,
        /// An opaque vector of field elements (generic payload, used by tests).
        Value(Vec<Fp>) = 4,
        /// Late `OK` votes of one party, cast after its scheduled vote
        /// broadcast: each `board · n + counterpart`, the board named by its
        /// depth-first index among the vote boards below the sharing
        /// instance that A-casts the batch (`tree::Kind::board_path`).
        VoteBatch(Vec<u32>) = 5,
    }
}

mpc_net::wire_enum! {
    /// Bracha A-cast messages.
    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    pub enum AcastMsg {
        /// The sender's initial dissemination.
        Send(BcValue) = 0,
        /// First-stage echo.
        Echo(BcValue) = 1,
        /// Second-stage ready/commit.
        Ready(BcValue) = 2,
    }
}

/// The value domain of the phase-king SBA: either a broadcast value or `⊥`
/// (encoded as `None`, the paper's "default value").
pub type SbaValue = Option<BcValue>;

mpc_net::wire_enum! {
    /// Phase-king SBA messages (one phase = three rounds).
    ///
    /// The scalar forms are what a one-slot instance (the SBA cluster of a
    /// stand-alone lone `Π_BC`) sends; the `…Slots` forms are the same three
    /// round messages of a `k`-slot instance (a root's SBA cluster, over the
    /// slots of every `Π_BC` started at one tick), one entry per slot in slot
    /// order.
    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    pub enum SbaMsg {
        /// Round 1 of a phase: every party sends its current value.
        Round1 {
            /// Phase index (0-based; there are `t_s + 1` phases).
            phase: u32,
            /// The sender's current value.
            value: SbaValue,
        } = 0,
        /// Round 2 of a phase: every party sends its round-1 candidate (a value
        /// seen at least `n − t` times) or "no candidate".
        Round2 {
            /// Phase index.
            phase: u32,
            /// The candidate, if any.
            candidate: Option<SbaValue>,
        } = 1,
        /// Round 3 of a phase: only the phase king sends its proposal.
        King {
            /// Phase index.
            phase: u32,
            /// The king's proposal.
            value: SbaValue,
        } = 2,
        /// [`SbaMsg::Round1`] of a `k`-slot instance.
        Round1Slots {
            /// Phase index.
            phase: u32,
            /// The sender's current value of every slot.
            values: Vec<SbaValue>,
        } = 3,
        /// [`SbaMsg::Round2`] of a `k`-slot instance.
        Round2Slots {
            /// Phase index.
            phase: u32,
            /// Every slot's candidate, if any.
            candidates: Vec<Option<SbaValue>>,
        } = 4,
        /// [`SbaMsg::King`] of a `k`-slot instance.
        KingSlots {
            /// Phase index.
            phase: u32,
            /// The king's proposal for every slot.
            values: Vec<SbaValue>,
        } = 5,
    }
}

mpc_net::wire_enum! {
    /// Common-coin ABA messages (MMR-style round structure).
    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    pub enum AbaMsg {
        /// Round estimate.
        Est {
            /// Round number.
            round: u32,
            /// Estimated value.
            value: bool,
        } = 0,
        /// Auxiliary vote of a round.
        Aux {
            /// Round number.
            round: u32,
            /// Vote value (must be in the sender's `bin_values`).
            value: bool,
        } = 1,
        /// Termination-gadget message sent once a party decides.
        Finish {
            /// The decided value.
            value: bool,
        } = 2,
    }
}

mpc_net::wire_enum! {
    /// The unified payload type routed by the simulator.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum Msg {
        /// Bracha A-cast sub-messages.
        Acast(AcastMsg) = 0,
        /// Phase-king SBA sub-messages.
        Sba(SbaMsg) = 1,
        /// Common-coin ABA sub-messages.
        Aba(AbaMsg) = 2,
        /// Dealer → party: the `L` row polynomials of `Π_WPS`/`Π_VSS` phase I
        /// (each polynomial by its coefficient vector).
        RowPolys(Vec<Vec<Fp>>) = 3,
        /// Pairwise-consistency points (`L` supposedly common values) exchanged
        /// in `Π_WPS` phase II.
        Points(Vec<Fp>) = 4,
        /// A share-opening message (public reconstruction): used by Beaver's
        /// protocol, `Π_TripSh` difference/suspected-triple openings and the
        /// output phase of `Π_CirEval`.
        Open {
            /// Disambiguates parallel openings inside one protocol instance.
            tag: u32,
            /// The sender's shares of the opened values.
            values: Vec<Fp>,
        } = 5,
        /// Termination-phase `(ready, y)` message of `Π_CirEval`.
        Ready(Vec<Fp>) = 6,
        /// Dealer → party (point-to-point): one flat vector of slot-positioned
        /// sharing evaluations for the packed circuit engine — the sender's
        /// input-slot sharings followed by the triple sharings of every gate
        /// block assigned to it, in the canonical layout both sides derive from
        /// the agreed common subset `CS₁`.
        PackedDeal(Vec<Fp>) = 7,
        /// Broadcast accusation that the named dealer's packed deal is missing,
        /// mis-shaped or degree-inconsistent (its blinded probe failed to
        /// decode) past the deal deadline. `t_s + 1` distinct reporters — at
        /// least one of them honest — trigger the uniform fallback of the packed
        /// engine to the scalar preprocessing path.
        PackedReport(u32) = 8,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_algebra::MODULUS;
    use mpc_net::wire::{WireDecode, WireEncode, WireError};

    fn roundtrip(m: Msg) {
        let bytes = m.encode();
        assert_eq!(Msg::decode(&bytes).unwrap(), m);
        // The size hint is exact for every protocol message, so `encode`
        // reserves the output buffer in one allocation.
        assert_eq!(m.encoded_len_hint(), bytes.len(), "{m:?}");
    }

    /// One message of every variant of every type in the tree.
    fn every_variant() -> Vec<Msg> {
        vec![
            Msg::Acast(AcastMsg::Send(BcValue::Bit(true))),
            Msg::Acast(AcastMsg::Echo(BcValue::Votes(vec![
                (1, Vote::Ok),
                (
                    2,
                    Vote::Nok {
                        ell: 4,
                        value: Fp::from_u64(77),
                    },
                ),
            ]))),
            Msg::Acast(AcastMsg::Ready(BcValue::Wef {
                w: vec![0, 1, 2],
                e: vec![1],
                f: vec![0, 2],
            })),
            Msg::Acast(AcastMsg::Send(BcValue::Star {
                e: vec![3],
                f: vec![],
            })),
            Msg::Sba(SbaMsg::Round1 {
                phase: 0,
                value: None,
            }),
            Msg::Sba(SbaMsg::Round2 {
                phase: 3,
                candidate: Some(Some(BcValue::Bit(false))),
            }),
            Msg::Sba(SbaMsg::Round2 {
                phase: 3,
                candidate: Some(None),
            }),
            Msg::Sba(SbaMsg::King {
                phase: 1,
                value: Some(BcValue::Value(vec![Fp::from_u64(5)])),
            }),
            Msg::Sba(SbaMsg::Round1Slots {
                phase: 0,
                values: vec![None, Some(BcValue::Bit(true))],
            }),
            Msg::Sba(SbaMsg::Round2Slots {
                phase: 2,
                candidates: vec![None, Some(None), Some(Some(BcValue::Bit(false)))],
            }),
            Msg::Sba(SbaMsg::KingSlots {
                phase: 1,
                values: vec![],
            }),
            Msg::Aba(AbaMsg::Est {
                round: 9,
                value: true,
            }),
            Msg::Aba(AbaMsg::Aux {
                round: 2,
                value: false,
            }),
            Msg::Aba(AbaMsg::Finish { value: true }),
            Msg::RowPolys(vec![vec![Fp::from_u64(1), Fp::from_u64(2)], vec![]]),
            Msg::Points(vec![Fp::from_u64(3); 4]),
            Msg::Open {
                tag: 12,
                values: vec![Fp::from_u64(8)],
            },
            Msg::Ready(vec![Fp::from_u64(1)]),
            Msg::PackedDeal(vec![Fp::from_u64(6), Fp::from_u64(7)]),
            Msg::PackedDeal(vec![]),
            Msg::PackedReport(3),
        ]
    }

    #[test]
    fn every_variant_round_trips() {
        every_variant().into_iter().for_each(roundtrip);
    }

    /// FNV-1a over the concatenated encodings, with their total length: a
    /// change to any tag, prefix or field layout moves one of the two.
    fn fingerprint(msgs: &[Msg]) -> (u64, usize) {
        let bytes: Vec<u8> = msgs.iter().flat_map(WireEncode::encode).collect();
        let hash = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        });
        (hash, bytes.len())
    }

    /// The exact bytes of every variant, pinned before the codec was
    /// generated from one declaration per type.
    #[test]
    fn every_variant_encodes_to_the_pinned_bytes() {
        assert_eq!(fingerprint(&every_variant()), (0xb797_0f99_1266_e9ed, 317));
    }

    /// The ledger's kernel corpus (`ledger --kernels`, `wire.corpus_bytes`):
    /// only its shape sets its length, so the same shape with fixed values
    /// must encode to the 1 271 bytes the ledger reports.
    #[test]
    fn ledger_corpus_shape_encodes_to_1271_bytes() {
        let fps = |count: usize| vec![Fp::from_u64(MODULUS - 1); count];
        let corpus = [
            Msg::Acast(AcastMsg::Echo(BcValue::Votes(
                (0..8).map(|j| (j, Vote::Ok)).collect(),
            ))),
            Msg::Sba(SbaMsg::Round1 {
                phase: 1,
                value: Some(BcValue::Bit(true)),
            }),
            Msg::Aba(AbaMsg::Est {
                round: 2,
                value: true,
            }),
            Msg::RowPolys((0..8).map(|_| fps(3)).collect()),
            Msg::Points(fps(8)),
            Msg::Open {
                tag: 7,
                values: fps(48),
            },
            Msg::PackedDeal(fps(64)),
        ];
        assert_eq!(fingerprint(&corpus).1, 1271);
    }

    #[test]
    fn message_sizes_scale_with_payload() {
        let small = Msg::Acast(AcastMsg::Send(BcValue::Bit(true)));
        let big = Msg::Acast(AcastMsg::Send(BcValue::Value(vec![Fp::from_u64(1); 100])));
        assert!(big.encoded_bits() > small.encoded_bits());
        // Msg tag + AcastMsg tag + BcValue tag + u32 length + 100 elements.
        assert_eq!(big.encoded_bits(), (1 + 1 + 1 + 4 + 100 * 8) * 8);
    }

    /// Regression test for the old `size_bits()` under-count: a `Nok` vote
    /// carries an extra polynomial index and disputed field element, which
    /// the hand-written estimate ignored. The codec makes the asymmetry
    /// exact: `Nok` costs `u32 + u64` more bytes than `Ok`.
    #[test]
    fn nok_votes_cost_more_bits_than_ok_votes() {
        let ok = Msg::Acast(AcastMsg::Echo(BcValue::Votes(vec![(1, Vote::Ok)])));
        let nok = Msg::Acast(AcastMsg::Echo(BcValue::Votes(vec![(
            1,
            Vote::Nok {
                ell: 0,
                value: Fp::from_u64(9),
            },
        )])));
        assert!(nok.encoded_bits() > ok.encoded_bits());
        assert_eq!(nok.encoded_bits() - ok.encoded_bits(), (4 + 8) * 8);
    }

    #[test]
    fn non_canonical_field_element_rejected() {
        let mut bytes = Msg::Points(vec![Fp::ZERO]).encode();
        // Overwrite the element with a representative ≥ p.
        let len = bytes.len();
        bytes[len - 8..].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(
            Msg::decode(&bytes),
            Err(WireError::NonCanonical {
                context: "field element"
            })
        );
    }

    #[test]
    fn unknown_tags_rejected() {
        assert!(matches!(
            Msg::decode(&[200]),
            Err(WireError::InvalidTag { tag: 200, .. })
        ));
        assert!(matches!(
            Msg::decode(&[0, 9]),
            Err(WireError::InvalidTag { tag: 9, .. })
        ));
    }
}
