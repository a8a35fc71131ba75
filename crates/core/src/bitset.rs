//! Fixed-width bitsets for hot search loops.
//!
//! The admissibility search keeps its scheduled set as a [`BitSet`] so that
//! schedule/unschedule are single word operations and the set never
//! reallocates after construction. The width is fixed at creation; indices
//! are checked in debug builds only, keeping the release path branch-lean.

/// A fixed-width set of `usize` indices backed by `u64` words.
///
/// Unlike `std::collections::HashSet`, membership updates never allocate,
/// and the backing words are exposed for fingerprinting or bulk scans.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// Creates an empty set over the universe `0..len`.
    pub fn new(len: usize) -> Self {
        BitSet {
            words: vec![0u64; len.div_ceil(64)],
            len,
        }
    }

    /// The universe width this set was created with.
    pub fn universe(&self) -> usize {
        self.len
    }

    /// Whether `i` is in the set.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Adds `i`; returns whether it was newly inserted.
    #[inline]
    pub fn insert(&mut self, i: usize) -> bool {
        debug_assert!(i < self.len);
        let w = &mut self.words[i / 64];
        let bit = 1u64 << (i % 64);
        let fresh = *w & bit == 0;
        *w |= bit;
        fresh
    }

    /// Removes `i`; returns whether it was present.
    #[inline]
    pub fn remove(&mut self, i: usize) -> bool {
        debug_assert!(i < self.len);
        let w = &mut self.words[i / 64];
        let bit = 1u64 << (i % 64);
        let present = *w & bit != 0;
        *w &= !bit;
        present
    }

    /// Removes every element (words are zeroed in place).
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Replaces the set by its complement in `0..universe()`.
    pub fn complement(&mut self) {
        self.words.iter_mut().for_each(|w| *w = !*w);
        let tail = self.len % 64;
        if let Some(last) = self.words.last_mut().filter(|_| tail > 0) {
            *last &= (1u64 << tail) - 1;
        }
    }

    /// Number of elements in the set.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The backing words, least-significant index first.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Iterates the members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(wi * 64 + b)
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove_roundtrip() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(!s.insert(64), "already present");
        assert!(s.contains(129));
        assert!(!s.contains(1));
        assert_eq!(s.count(), 3);
        assert!(s.remove(64));
        assert!(!s.remove(64));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 129]);
    }

    #[test]
    fn complement_stays_inside_the_universe() {
        for len in [0, 1, 63, 64, 65, 130] {
            let mut s = BitSet::new(len);
            s.complement();
            assert_eq!(s.count(), len, "universe {len}");
            let mut t = BitSet::new(len);
            if len > 0 {
                t.insert(len - 1);
            }
            t.complement();
            assert_eq!(t.count(), len.saturating_sub(1), "universe {len}");
        }
    }

    #[test]
    fn clear_empties() {
        let mut s = BitSet::new(10);
        s.insert(7);
        s.clear();
        assert_eq!(s.count(), 0);
        assert_eq!(s.words(), &[0]);
    }
}
