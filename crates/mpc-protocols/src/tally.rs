//! Support counts by comparison: the distinct values a set of parties sent
//! and how many sent each.
//!
//! Broadcast payloads ([`crate::BcValue`]) are vectors, so keying a map by
//! them hashes the whole payload on every delivery. Honest parties of one
//! instance all name the same value, so the candidate list is one entry long
//! in every honest run and matching it with `==` is a single comparison; a
//! caller that admits at most one value per sender bounds it at `n` entries
//! under attack (DESIGN.md "Delivery path").
//!
//! Because one entry is what an honest run holds, a [`Tally`] keeps its
//! first candidate inline and moves to the heap only when a second, distinct
//! value arrives — which only a corrupt sender can cause. (A `Vec` reserves
//! four entries on its first push: 320 bytes of heap per A-cast stage for
//! one 80-byte candidate, in every A-cast of an evaluation.)

use std::ops::{Deref, DerefMut};

/// The distinct values seen and the number of supporters of each, in the
/// order they were first seen (phase-king's tie-break reads that order).
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) enum Tally<V> {
    /// No supporter yet.
    #[default]
    Empty,
    /// One candidate, stored inline: every honest run.
    One((V, usize)),
    /// Two or more candidates, the first one first.
    Many(Vec<(V, usize)>),
}

impl<V> Tally<V> {
    /// Appends a new candidate entry.
    fn push(&mut self, entry: (V, usize)) {
        *self = match std::mem::take(self) {
            Tally::Empty => Tally::One(entry),
            Tally::One(first) => Tally::Many(vec![first, entry]),
            Tally::Many(mut entries) => {
                entries.push(entry);
                Tally::Many(entries)
            }
        };
    }
}

impl<V> Deref for Tally<V> {
    type Target = [(V, usize)];

    fn deref(&self) -> &Self::Target {
        match self {
            Tally::Empty => &[],
            Tally::One(entry) => std::slice::from_ref(entry),
            Tally::Many(entries) => entries,
        }
    }
}

impl<V> DerefMut for Tally<V> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        match self {
            Tally::Empty => &mut [],
            Tally::One(entry) => std::slice::from_mut(entry),
            Tally::Many(entries) => entries,
        }
    }
}

/// Counts one more supporter of `value` and returns its entry (the stored
/// candidate and its new support). Clones `value` only when it is new, and
/// allocates only when it is the second distinct one or later.
pub(crate) fn tally<'t, V: PartialEq + Clone>(
    tally: &'t mut Tally<V>,
    value: &V,
) -> &'t (V, usize) {
    let i = match tally.iter().position(|(v, _)| v == value) {
        Some(i) => {
            tally[i].1 += 1;
            i
        }
        None => {
            tally.push((value.clone(), 1));
            tally.len() - 1
        }
    };
    &tally[i]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn later_candidates_spill_and_keep_insertion_order() {
        let mut t = Tally::default();
        assert_eq!(*tally(&mut t, &7), (7, 1));
        assert_eq!(*tally(&mut t, &7), (7, 2));
        assert!(matches!(t, Tally::One(_)));
        // A corrupt second and third candidate are each counted, after the
        // first, in the order they arrived.
        assert_eq!(*tally(&mut t, &9), (9, 1));
        assert!(matches!(t, Tally::Many(_)));
        assert_eq!(*tally(&mut t, &8), (8, 1));
        assert_eq!(*tally(&mut t, &9), (9, 2));
        assert_eq!(*tally(&mut t, &7), (7, 3));
        assert_eq!(*t, [(7, 3), (9, 2), (8, 1)]);
    }
}
