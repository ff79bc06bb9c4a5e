//! The wire-format message enum shared by every protocol in the stack.
//!
//! Keeping a single payload enum lets the whole composition tree run inside
//! one [`mpc_net::Simulation`] and gives every message a canonical byte
//! encoding ([`mpc_net::wire`]), from which the simulator derives the *exact*
//! bit accounting (the paper counts "bits communicated by the honest
//! parties"). The codec implementations live at the bottom of this file; the
//! round-trip property `decode(encode(m)) == m` is enforced for every variant
//! by `tests/codec_roundtrip.rs`.

use mpc_algebra::{Fp, MODULUS};
use mpc_net::wire::{WireDecode, WireEncode, WireError, WireReader};
use serde::{Deserialize, Serialize};

/// One pairwise-consistency verdict cast by a party about a counterpart
/// (the `OK(i, j)` / `NOK(i, j, q_i(α_j))` messages of `Π_WPS` / `Π_VSS`).
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Vote {
    /// The common points agreed (`OK`).
    Ok,
    /// The common points disagreed (`NOK`); carries the index of the first
    /// disagreeing polynomial and the voter's version of the disputed point.
    Nok {
        /// Index (0-based) of the first polynomial whose check failed.
        ell: u32,
        /// The voter's version of the disputed common point.
        value: Fp,
    },
}

/// Values carried by the broadcast primitives (`Π_ACast`, `Π_BGP`, `Π_BC`).
///
/// The protocols of the paper broadcast a handful of structured values —
/// input bits, vote vectors, `(W, E, F)` triplets and `(E′, F′)` stars — so
/// they are enumerated here rather than serialised to opaque byte strings.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BcValue {
    /// A single bit (input broadcast of `Π_BA`).
    Bit(bool),
    /// A vector of pairwise-consistency votes `(counterpart, vote)`.
    Votes(Vec<(u32, Vote)>),
    /// The dealer's `(W, E, F)` triplet of `Π_WPS`/`Π_VSS` phase IV.
    Wef {
        /// The candidate support set `W` (`|W| ≥ n − t_s`).
        w: Vec<u32>,
        /// The star core `E` (`|E| ≥ n − 2·t_s`).
        e: Vec<u32>,
        /// The star periphery `F` (`|F| ≥ n − t_s`).
        f: Vec<u32>,
    },
    /// The dealer's `(E′, F′)` star of the asynchronous fallback path.
    Star {
        /// The star core `E′` (`|E′| ≥ n − 2·t_a`).
        e: Vec<u32>,
        /// The star periphery `F′` (`|F′| ≥ n − t_a`).
        f: Vec<u32>,
    },
    /// An opaque vector of field elements (generic payload, used by tests).
    Value(Vec<Fp>),
}

/// Bracha A-cast messages.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AcastMsg {
    /// The sender's initial dissemination.
    Send(BcValue),
    /// First-stage echo.
    Echo(BcValue),
    /// Second-stage ready/commit.
    Ready(BcValue),
}

/// The value domain of the phase-king SBA: either a broadcast value or `⊥`
/// (encoded as `None`, the paper's "default value").
pub type SbaValue = Option<BcValue>;

/// Phase-king SBA messages (one phase = three rounds).
///
/// The scalar forms are what a one-slot instance (the SBA of a lone `Π_BC`)
/// sends; the `…Slots` forms are the same three round messages of a `k`-slot
/// instance (a lock-step broadcast group), one entry per slot in slot order.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SbaMsg {
    /// Round 1 of a phase: every party sends its current value.
    Round1 {
        /// Phase index (0-based; there are `t_s + 1` phases).
        phase: u32,
        /// The sender's current value.
        value: SbaValue,
    },
    /// Round 2 of a phase: every party sends its round-1 candidate (a value
    /// seen at least `n − t` times) or "no candidate".
    Round2 {
        /// Phase index.
        phase: u32,
        /// The candidate, if any.
        candidate: Option<SbaValue>,
    },
    /// Round 3 of a phase: only the phase king sends its proposal.
    King {
        /// Phase index.
        phase: u32,
        /// The king's proposal.
        value: SbaValue,
    },
    /// [`SbaMsg::Round1`] of a `k`-slot instance.
    Round1Slots {
        /// Phase index.
        phase: u32,
        /// The sender's current value of every slot.
        values: Vec<SbaValue>,
    },
    /// [`SbaMsg::Round2`] of a `k`-slot instance.
    Round2Slots {
        /// Phase index.
        phase: u32,
        /// Every slot's candidate, if any.
        candidates: Vec<Option<SbaValue>>,
    },
    /// [`SbaMsg::King`] of a `k`-slot instance.
    KingSlots {
        /// Phase index.
        phase: u32,
        /// The king's proposal for every slot.
        values: Vec<SbaValue>,
    },
}

/// Common-coin ABA messages (MMR-style round structure).
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AbaMsg {
    /// Round estimate.
    Est {
        /// Round number.
        round: u32,
        /// Estimated value.
        value: bool,
    },
    /// Auxiliary vote of a round.
    Aux {
        /// Round number.
        round: u32,
        /// Vote value (must be in the sender's `bin_values`).
        value: bool,
    },
    /// Termination-gadget message sent once a party decides.
    Finish {
        /// The decided value.
        value: bool,
    },
}

/// The unified payload type routed by the simulator.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Msg {
    /// Bracha A-cast sub-messages.
    Acast(AcastMsg),
    /// Phase-king SBA sub-messages.
    Sba(SbaMsg),
    /// Common-coin ABA sub-messages.
    Aba(AbaMsg),
    /// Dealer → party: the `L` row polynomials of `Π_WPS`/`Π_VSS` phase I
    /// (each polynomial by its coefficient vector).
    RowPolys(Vec<Vec<Fp>>),
    /// Pairwise-consistency points (`L` supposedly common values) exchanged
    /// in `Π_WPS` phase II.
    Points(Vec<Fp>),
    /// A share-opening message (public reconstruction): used by Beaver's
    /// protocol, `Π_TripSh` difference/suspected-triple openings and the
    /// output phase of `Π_CirEval`.
    Open {
        /// Disambiguates parallel openings inside one protocol instance.
        tag: u32,
        /// The sender's shares of the opened values.
        values: Vec<Fp>,
    },
    /// Termination-phase `(ready, y)` message of `Π_CirEval`.
    Ready(Vec<Fp>),
    /// Dealer → party (point-to-point): one flat vector of slot-positioned
    /// sharing evaluations for the packed circuit engine — the sender's
    /// input-slot sharings followed by the triple sharings of every gate
    /// block assigned to it, in the canonical layout both sides derive from
    /// the agreed common subset `CS₁`.
    PackedDeal(Vec<Fp>),
    /// Broadcast accusation that the named dealer's packed deal is missing,
    /// mis-shaped or degree-inconsistent (its blinded probe failed to
    /// decode) past the deal deadline. `t_s + 1` distinct reporters — at
    /// least one of them honest — trigger the uniform fallback of the packed
    /// engine to the scalar preprocessing path.
    PackedReport(u32),
}

// ---------------------------------------------------------------------------
// Canonical wire codec
//
// Field elements are encoded as their canonical representative in `[0, p)`
// as a little-endian u64; representatives `≥ p` are rejected at decode so
// that every field element has exactly one valid encoding. All other rules
// (tags, length prefixes, booleans) follow `mpc_net::wire`.
// ---------------------------------------------------------------------------

fn put_fp(out: &mut Vec<u8>, fp: Fp) {
    fp.as_u64().encode_into(out);
}

fn get_fp(r: &mut WireReader<'_>) -> Result<Fp, WireError> {
    let v = r.u64()?;
    if v >= MODULUS {
        return Err(WireError::NonCanonical {
            context: "field element",
        });
    }
    Ok(Fp::from_u64(v))
}

fn put_fp_vec(out: &mut Vec<u8>, v: &[Fp]) {
    (v.len() as u32).encode_into(out);
    for &fp in v {
        put_fp(out, fp);
    }
}

fn get_fp_vec(r: &mut WireReader<'_>) -> Result<Vec<Fp>, WireError> {
    let len = r.seq_len(8)?;
    (0..len).map(|_| get_fp(r)).collect()
}

fn invalid_tag<T>(tag: u8, context: &'static str) -> Result<T, WireError> {
    Err(WireError::InvalidTag { tag, context })
}

impl WireEncode for Vote {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Vote::Ok => out.push(0),
            Vote::Nok { ell, value } => {
                out.push(1);
                ell.encode_into(out);
                put_fp(out, *value);
            }
        }
    }

    fn encoded_len_hint(&self) -> usize {
        self.len_hint()
    }
}

impl Vote {
    fn len_hint(&self) -> usize {
        match self {
            Vote::Ok => 1,
            Vote::Nok { .. } => 1 + 4 + 8,
        }
    }
}

impl WireDecode for Vote {
    fn decode_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(Vote::Ok),
            1 => Ok(Vote::Nok {
                ell: r.u32()?,
                value: get_fp(r)?,
            }),
            tag => invalid_tag(tag, "Vote"),
        }
    }
}

impl WireEncode for BcValue {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            BcValue::Bit(b) => {
                out.push(0);
                b.encode_into(out);
            }
            BcValue::Votes(v) => {
                out.push(1);
                v.encode_into(out);
            }
            BcValue::Wef { w, e, f } => {
                out.push(2);
                w.encode_into(out);
                e.encode_into(out);
                f.encode_into(out);
            }
            BcValue::Star { e, f } => {
                out.push(3);
                e.encode_into(out);
                f.encode_into(out);
            }
            BcValue::Value(v) => {
                out.push(4);
                put_fp_vec(out, v);
            }
        }
    }

    fn encoded_len_hint(&self) -> usize {
        1 + match self {
            BcValue::Bit(_) => 1,
            BcValue::Votes(v) => 4 + v.iter().map(|(_, vote)| 4 + vote.len_hint()).sum::<usize>(),
            BcValue::Wef { w, e, f } => 12 + 4 * (w.len() + e.len() + f.len()),
            BcValue::Star { e, f } => 8 + 4 * (e.len() + f.len()),
            BcValue::Value(v) => 4 + 8 * v.len(),
        }
    }
}

impl WireDecode for BcValue {
    fn decode_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(BcValue::Bit(r.bool()?)),
            1 => Ok(BcValue::Votes(Vec::decode_from(r)?)),
            2 => Ok(BcValue::Wef {
                w: Vec::decode_from(r)?,
                e: Vec::decode_from(r)?,
                f: Vec::decode_from(r)?,
            }),
            3 => Ok(BcValue::Star {
                e: Vec::decode_from(r)?,
                f: Vec::decode_from(r)?,
            }),
            4 => Ok(BcValue::Value(get_fp_vec(r)?)),
            tag => invalid_tag(tag, "BcValue"),
        }
    }
}

impl WireEncode for AcastMsg {
    fn encode_into(&self, out: &mut Vec<u8>) {
        let (tag, v) = match self {
            AcastMsg::Send(v) => (0, v),
            AcastMsg::Echo(v) => (1, v),
            AcastMsg::Ready(v) => (2, v),
        };
        out.push(tag);
        v.encode_into(out);
    }

    fn encoded_len_hint(&self) -> usize {
        let (AcastMsg::Send(v) | AcastMsg::Echo(v) | AcastMsg::Ready(v)) = self;
        1 + v.encoded_len_hint()
    }
}

impl WireDecode for AcastMsg {
    fn decode_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(AcastMsg::Send(BcValue::decode_from(r)?)),
            1 => Ok(AcastMsg::Echo(BcValue::decode_from(r)?)),
            2 => Ok(AcastMsg::Ready(BcValue::decode_from(r)?)),
            tag => invalid_tag(tag, "AcastMsg"),
        }
    }
}

impl WireEncode for SbaMsg {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            SbaMsg::Round1 { phase, value } => {
                out.push(0);
                phase.encode_into(out);
                value.encode_into(out);
            }
            SbaMsg::Round2 { phase, candidate } => {
                out.push(1);
                phase.encode_into(out);
                candidate.encode_into(out);
            }
            SbaMsg::King { phase, value } => {
                out.push(2);
                phase.encode_into(out);
                value.encode_into(out);
            }
            SbaMsg::Round1Slots { phase, values } => {
                out.push(3);
                phase.encode_into(out);
                values.encode_into(out);
            }
            SbaMsg::Round2Slots { phase, candidates } => {
                out.push(4);
                phase.encode_into(out);
                candidates.encode_into(out);
            }
            SbaMsg::KingSlots { phase, values } => {
                out.push(5);
                phase.encode_into(out);
                values.encode_into(out);
            }
        }
    }

    fn encoded_len_hint(&self) -> usize {
        1 + 4
            + match self {
                SbaMsg::Round1 { value, .. } | SbaMsg::King { value, .. } => {
                    value.encoded_len_hint()
                }
                SbaMsg::Round2 { candidate, .. } => candidate.encoded_len_hint(),
                SbaMsg::Round1Slots { values, .. } | SbaMsg::KingSlots { values, .. } => {
                    values.encoded_len_hint()
                }
                SbaMsg::Round2Slots { candidates, .. } => candidates.encoded_len_hint(),
            }
    }
}

impl WireDecode for SbaMsg {
    fn decode_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(SbaMsg::Round1 {
                phase: r.u32()?,
                value: Option::decode_from(r)?,
            }),
            1 => Ok(SbaMsg::Round2 {
                phase: r.u32()?,
                candidate: Option::decode_from(r)?,
            }),
            2 => Ok(SbaMsg::King {
                phase: r.u32()?,
                value: Option::decode_from(r)?,
            }),
            3 => Ok(SbaMsg::Round1Slots {
                phase: r.u32()?,
                values: Vec::decode_from(r)?,
            }),
            4 => Ok(SbaMsg::Round2Slots {
                phase: r.u32()?,
                candidates: Vec::decode_from(r)?,
            }),
            5 => Ok(SbaMsg::KingSlots {
                phase: r.u32()?,
                values: Vec::decode_from(r)?,
            }),
            tag => invalid_tag(tag, "SbaMsg"),
        }
    }
}

impl WireEncode for AbaMsg {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            AbaMsg::Est { round, value } => {
                out.push(0);
                round.encode_into(out);
                value.encode_into(out);
            }
            AbaMsg::Aux { round, value } => {
                out.push(1);
                round.encode_into(out);
                value.encode_into(out);
            }
            AbaMsg::Finish { value } => {
                out.push(2);
                value.encode_into(out);
            }
        }
    }

    fn encoded_len_hint(&self) -> usize {
        match self {
            AbaMsg::Est { .. } | AbaMsg::Aux { .. } => 1 + 4 + 1,
            AbaMsg::Finish { .. } => 1 + 1,
        }
    }
}

impl WireDecode for AbaMsg {
    fn decode_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(AbaMsg::Est {
                round: r.u32()?,
                value: r.bool()?,
            }),
            1 => Ok(AbaMsg::Aux {
                round: r.u32()?,
                value: r.bool()?,
            }),
            2 => Ok(AbaMsg::Finish { value: r.bool()? }),
            tag => invalid_tag(tag, "AbaMsg"),
        }
    }
}

impl WireEncode for Msg {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Msg::Acast(m) => {
                out.push(0);
                m.encode_into(out);
            }
            Msg::Sba(m) => {
                out.push(1);
                m.encode_into(out);
            }
            Msg::Aba(m) => {
                out.push(2);
                m.encode_into(out);
            }
            Msg::RowPolys(polys) => {
                out.push(3);
                (polys.len() as u32).encode_into(out);
                for p in polys {
                    put_fp_vec(out, p);
                }
            }
            Msg::Points(v) => {
                out.push(4);
                put_fp_vec(out, v);
            }
            Msg::Open { tag, values } => {
                out.push(5);
                tag.encode_into(out);
                put_fp_vec(out, values);
            }
            Msg::Ready(v) => {
                out.push(6);
                put_fp_vec(out, v);
            }
            Msg::PackedDeal(v) => {
                out.push(7);
                put_fp_vec(out, v);
            }
            Msg::PackedReport(dealer) => {
                out.push(8);
                dealer.encode_into(out);
            }
        }
    }

    fn encoded_len_hint(&self) -> usize {
        1 + match self {
            Msg::Acast(m) => m.encoded_len_hint(),
            Msg::Sba(m) => m.encoded_len_hint(),
            Msg::Aba(m) => m.encoded_len_hint(),
            Msg::RowPolys(polys) => 4 + polys.iter().map(|p| 4 + 8 * p.len()).sum::<usize>(),
            Msg::Points(v) => 4 + 8 * v.len(),
            Msg::Open { values, .. } => 4 + 4 + 8 * values.len(),
            Msg::Ready(v) => 4 + 8 * v.len(),
            Msg::PackedDeal(v) => 4 + 8 * v.len(),
            Msg::PackedReport(_) => 4,
        }
    }
}

impl WireDecode for Msg {
    fn decode_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(Msg::Acast(AcastMsg::decode_from(r)?)),
            1 => Ok(Msg::Sba(SbaMsg::decode_from(r)?)),
            2 => Ok(Msg::Aba(AbaMsg::decode_from(r)?)),
            3 => {
                let len = r.seq_len(4)?;
                let polys = (0..len).map(|_| get_fp_vec(r)).collect::<Result<_, _>>()?;
                Ok(Msg::RowPolys(polys))
            }
            4 => Ok(Msg::Points(get_fp_vec(r)?)),
            5 => Ok(Msg::Open {
                tag: r.u32()?,
                values: get_fp_vec(r)?,
            }),
            6 => Ok(Msg::Ready(get_fp_vec(r)?)),
            7 => Ok(Msg::PackedDeal(get_fp_vec(r)?)),
            8 => Ok(Msg::PackedReport(r.u32()?)),
            tag => invalid_tag(tag, "Msg"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(m: Msg) {
        let bytes = m.encode();
        assert_eq!(Msg::decode(&bytes).unwrap(), m);
        // The size hint is exact for every protocol message, so `encode`
        // reserves the output buffer in one allocation.
        assert_eq!(m.encoded_len_hint(), bytes.len(), "{m:?}");
    }

    #[test]
    fn every_variant_round_trips() {
        roundtrip(Msg::Acast(AcastMsg::Send(BcValue::Bit(true))));
        roundtrip(Msg::Acast(AcastMsg::Echo(BcValue::Votes(vec![
            (1, Vote::Ok),
            (
                2,
                Vote::Nok {
                    ell: 4,
                    value: Fp::from_u64(77),
                },
            ),
        ]))));
        roundtrip(Msg::Acast(AcastMsg::Ready(BcValue::Wef {
            w: vec![0, 1, 2],
            e: vec![1],
            f: vec![0, 2],
        })));
        roundtrip(Msg::Acast(AcastMsg::Send(BcValue::Star {
            e: vec![3],
            f: vec![],
        })));
        roundtrip(Msg::Sba(SbaMsg::Round1 {
            phase: 0,
            value: None,
        }));
        roundtrip(Msg::Sba(SbaMsg::Round2 {
            phase: 3,
            candidate: Some(Some(BcValue::Bit(false))),
        }));
        roundtrip(Msg::Sba(SbaMsg::Round2 {
            phase: 3,
            candidate: Some(None),
        }));
        roundtrip(Msg::Sba(SbaMsg::King {
            phase: 1,
            value: Some(BcValue::Value(vec![Fp::from_u64(5)])),
        }));
        roundtrip(Msg::Sba(SbaMsg::Round1Slots {
            phase: 0,
            values: vec![None, Some(BcValue::Bit(true))],
        }));
        roundtrip(Msg::Sba(SbaMsg::Round2Slots {
            phase: 2,
            candidates: vec![None, Some(None), Some(Some(BcValue::Bit(false)))],
        }));
        roundtrip(Msg::Sba(SbaMsg::KingSlots {
            phase: 1,
            values: vec![],
        }));
        roundtrip(Msg::Aba(AbaMsg::Est {
            round: 9,
            value: true,
        }));
        roundtrip(Msg::Aba(AbaMsg::Aux {
            round: 2,
            value: false,
        }));
        roundtrip(Msg::Aba(AbaMsg::Finish { value: true }));
        roundtrip(Msg::RowPolys(vec![
            vec![Fp::from_u64(1), Fp::from_u64(2)],
            vec![],
        ]));
        roundtrip(Msg::Points(vec![Fp::from_u64(3); 4]));
        roundtrip(Msg::Open {
            tag: 12,
            values: vec![Fp::from_u64(8)],
        });
        roundtrip(Msg::Ready(vec![Fp::from_u64(1)]));
        roundtrip(Msg::PackedDeal(vec![Fp::from_u64(6), Fp::from_u64(7)]));
        roundtrip(Msg::PackedDeal(vec![]));
        roundtrip(Msg::PackedReport(3));
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
