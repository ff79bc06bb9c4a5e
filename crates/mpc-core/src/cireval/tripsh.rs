//! `Π_TripSh`'s dealing (Fig 8, batched as in `Π_PreProcessing`, Fig 10):
//! the triples every party shares through ACS #2, and where each one sits in
//! a party's shared polynomial vector.

use mpc_algebra::{Fp, Polynomial};
use mpc_net::Context;
use mpc_protocols::Msg;

use crate::triples::TripleShare;

/// Where each triple sits in a party's ACS #2 vector. First come
/// `batches × (2·t_s + 1)` raw triples, the party's input to `Π_TripTrans`
/// as a dealer, batch-major. Then come `batches × n` verification triples,
/// the party's inputs as a supervisor: one per batch and dealer it checks.
/// Triple `i` is the three consecutive polynomials `3i..3i + 3` (`a, b, c`).
#[derive(Clone, Copy, Debug)]
pub(super) struct TripleLayout {
    batches: usize,
    /// Raw triples per dealer and batch, `2·t_s + 1`.
    raw: usize,
    n: usize,
    /// Test hook: deal every raw triple with `c = a·b + 1` (a corrupt dealer
    /// that is otherwise honest), to reach the suspect wave.
    #[cfg(test)]
    pub(super) bad_raw: bool,
}

impl TripleLayout {
    pub(super) fn new(batches: usize, raw: usize, n: usize) -> Self {
        TripleLayout {
            batches,
            raw,
            n,
            #[cfg(test)]
            bad_raw: false,
        }
    }

    pub(super) fn batches(&self) -> usize {
        self.batches
    }

    /// The number of raw triples; the verification triples follow them.
    fn raw_len(&self) -> usize {
        self.batches * self.raw
    }

    fn len(&self) -> usize {
        self.raw_len() + self.batches * self.n
    }

    /// My shares of triple `i` of one party's vector.
    fn read(shares: &[Fp], i: usize) -> TripleShare {
        TripleShare::new(shares[3 * i], shares[3 * i + 1], shares[3 * i + 2])
    }

    /// My shares of a dealer's raw triples: raw triple `k` of `batch` at
    /// `batch · (2·t_s + 1) + k`.
    pub(super) fn raw_triples(&self, shares: &[Fp]) -> Vec<TripleShare> {
        (0..self.raw_len()).map(|i| Self::read(shares, i)).collect()
    }

    /// My shares of the verification triple a supervisor dealt for checking
    /// `dealer`'s `batch`.
    pub(super) fn verification(&self, shares: &[Fp], batch: usize, dealer: usize) -> TripleShare {
        Self::read(shares, self.raw_len() + batch * self.n + dealer)
    }

    /// The degree-`t_s` sharing polynomials this party deals into ACS #2: a
    /// fresh random multiplication triple in every slot of the layout.
    pub(super) fn deal(&self, ctx: &mut Context<'_, Msg>, ts: usize) -> Vec<Polynomial> {
        #[cfg(test)]
        let skew = Fp::from_u64(self.bad_raw as u64);
        #[cfg(not(test))]
        let skew = Fp::ZERO;
        let mut polys = Vec::with_capacity(3 * self.len());
        for i in 0..self.len() {
            let a = Fp::random(ctx.rng());
            let b = Fp::random(ctx.rng());
            let c = a * b + if i < self.raw_len() { skew } else { Fp::ZERO };
            for v in [a, b, c] {
                polys.push(Polynomial::random_with_constant_term(ctx.rng(), ts, v));
            }
        }
        polys
    }
}
