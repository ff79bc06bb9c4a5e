//! Support counts by comparison: the distinct values a set of parties sent
//! and how many sent each.
//!
//! Broadcast payloads ([`crate::BcValue`]) are vectors, so keying a map by
//! them hashes the whole payload on every delivery. Honest parties of one
//! instance all name the same value, so the candidate list is one entry long
//! in every honest run and matching it with `==` is a single comparison; a
//! caller that admits at most one value per sender bounds it at `n` entries
//! under attack (DESIGN.md "Delivery path").

/// The distinct values seen and the number of supporters of each.
pub(crate) type Tally<V> = Vec<(V, usize)>;

/// Counts one more supporter of `value` and returns its entry (the stored
/// candidate and its new support). Allocates only when `value` is new.
pub(crate) fn tally<V: PartialEq>(tally: &mut Tally<V>, value: V) -> &(V, usize) {
    let i = match tally.iter().position(|(v, _)| *v == value) {
        Some(i) => {
            tally[i].1 += 1;
            i
        }
        None => {
            tally.push((value, 1));
            tally.len() - 1
        }
    };
    &tally[i]
}
