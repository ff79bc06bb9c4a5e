//! [`InlinePath`]: an instance path that lives on the stack.
//!
//! Every handler call builds the path of the instance it descends to
//! ([`crate::Context::scoped`]) and every framed delivery decodes one
//! ([`crate::Frame::decode`]); both are dropped when the call returns. The
//! composition tree of the paper's tower is a handful of levels deep, so the
//! segments are kept inline and only an unusually deep path spills to the
//! heap (DESIGN.md "Delivery path").

use std::ops::Deref;

/// Segments held without a heap allocation — above the depth of every
/// instance the protocol tower creates (`CirEval → Acs → Vss → Wps →
/// VoteBoard → Bc → Acast` is 7).
const INLINE_SEGMENTS: usize = 12;

/// A growable instance path (see [`crate::Path`]) that needs no heap
/// allocation at the depths the protocol tower reaches. Deeper paths spill
/// to a `Vec` and stay complete.
#[derive(Clone, Debug)]
pub struct InlinePath(Repr);

#[derive(Clone, Debug)]
enum Repr {
    Inline {
        len: u8,
        segs: [u32; INLINE_SEGMENTS],
    },
    Heap(Vec<u32>),
}

impl InlinePath {
    /// The empty path.
    pub const fn new() -> Self {
        InlinePath(Repr::Inline {
            len: 0,
            segs: [0; INLINE_SEGMENTS],
        })
    }

    /// Appends one segment.
    pub fn push(&mut self, seg: u32) {
        match &mut self.0 {
            Repr::Inline { len, segs } => {
                if let Some(slot) = segs.get_mut(*len as usize) {
                    *slot = seg;
                    *len += 1;
                } else {
                    let mut spilled = Vec::with_capacity(2 * INLINE_SEGMENTS);
                    spilled.extend_from_slice(segs);
                    spilled.push(seg);
                    self.0 = Repr::Heap(spilled);
                }
            }
            Repr::Heap(segs) => segs.push(seg),
        }
    }

    /// Removes the last segment, if any.
    pub fn pop(&mut self) -> Option<u32> {
        match &mut self.0 {
            Repr::Inline { len, segs } => {
                *len = len.checked_sub(1)?;
                Some(segs[*len as usize])
            }
            Repr::Heap(segs) => segs.pop(),
        }
    }
}

impl Default for InlinePath {
    fn default() -> Self {
        Self::new()
    }
}

impl Deref for InlinePath {
    type Target = [u32];

    fn deref(&self) -> &[u32] {
        match &self.0 {
            Repr::Inline { len, segs } => &segs[..*len as usize],
            Repr::Heap(segs) => segs,
        }
    }
}

impl PartialEq for InlinePath {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for InlinePath {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_pop_across_the_inline_boundary() {
        let mut path = InlinePath::new();
        assert_eq!(path.pop(), None);
        let depth = 3 * INLINE_SEGMENTS as u32;
        for seg in 0..depth {
            path.push(seg * 7);
            let expect: Vec<u32> = (0..=seg).map(|s| s * 7).collect();
            assert_eq!(&path[..], &expect[..], "after pushing {seg}");
        }
        for seg in (0..depth).rev() {
            assert_eq!(path.pop(), Some(seg * 7));
            assert_eq!(path.len(), seg as usize);
        }
        assert_eq!(path.pop(), None);
        // A path that spilled and shrank back is still usable and compares
        // equal to one that never left the inline buffer.
        path.push(5);
        let mut inline = InlinePath::new();
        inline.push(5);
        assert_eq!(path, inline);
    }
}
