//! A list that keeps up to [`INLINE`] items in place.
//!
//! The paper's m-operations are short sequences of single-object reads and
//! writes (Section 2.1), and a record keeps every one until the history is
//! built. [`InlineList`] holds the completed operations and the outputs of
//! an m-operation of up to [`INLINE`] items without a heap block, so
//! executing, recording, cloning, moving and dropping one never touches the
//! allocator. A longer list (a 32-read snapshot, say) spills to a `Vec`
//! once and stays there.
//!
//! The list derefs to a slice, and `==`, `Hash` and `Debug` are the slice's,
//! exactly as for the `Vec` it stands in for: where the items are kept never
//! shows.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};

/// How many items an [`InlineList`] keeps without a heap block. Every
/// benchmark and paper m-operation fits: `rmw2` (four operations), `q4`
/// (four reads, four outputs), `dcas` and `w2`.
pub const INLINE: usize = 4;

/// A list of `Copy` items, in place up to [`INLINE`] and spilled to a `Vec`
/// past it.
#[derive(Clone)]
pub struct InlineList<T>(Repr<T>);

#[derive(Clone)]
enum Repr<T> {
    /// No items and no buffer: the first push fills the buffer with its
    /// item, so `T` needs no `Default`.
    Empty,
    /// `items[..len]` are the list; the rest are stale copies.
    Inline { len: u8, items: [T; INLINE] },
    /// Spilled: one heap block, never moved back in place.
    Heap(Vec<T>),
}

impl<T> InlineList<T> {
    /// An empty list; it holds no buffer.
    pub const fn new() -> Self {
        InlineList(Repr::Empty)
    }

    /// The items, in order.
    pub fn as_slice(&self) -> &[T] {
        match &self.0 {
            Repr::Empty => &[],
            Repr::Inline { len, items } => &items[..usize::from(*len)],
            Repr::Heap(v) => v,
        }
    }

    /// The items, in order, mutably.
    pub(crate) fn as_mut_slice(&mut self) -> &mut [T] {
        match &mut self.0 {
            Repr::Empty => &mut [],
            Repr::Inline { len, items } => &mut items[..usize::from(*len)],
            Repr::Heap(v) => v,
        }
    }

    /// Whether the items live in a heap block.
    pub fn spilled(&self) -> bool {
        matches!(self.0, Repr::Heap(_))
    }

    /// Removes every item, and the heap block if the list had spilled.
    pub fn clear(&mut self) {
        self.0 = Repr::Empty;
    }
}

impl<T: Copy> InlineList<T> {
    /// An empty list that takes `capacity` items without regrowing: in
    /// place up to [`INLINE`], otherwise one heap block allocated now.
    pub fn with_capacity(capacity: usize) -> Self {
        if capacity <= INLINE {
            InlineList::new()
        } else {
            InlineList(Repr::Heap(Vec::with_capacity(capacity)))
        }
    }

    /// Appends `item`, spilling to the heap when the list holds [`INLINE`]
    /// items in place already.
    pub fn push(&mut self, item: T) {
        match &mut self.0 {
            Repr::Empty => {
                self.0 = Repr::Inline {
                    len: 1,
                    items: [item; INLINE],
                }
            }
            Repr::Inline { len, items } if usize::from(*len) < INLINE => {
                items[usize::from(*len)] = item;
                *len += 1;
            }
            Repr::Inline { items, .. } => {
                let mut spilled = Vec::with_capacity(2 * INLINE);
                spilled.extend_from_slice(items);
                spilled.push(item);
                self.0 = Repr::Heap(spilled);
            }
            Repr::Heap(v) => v.push(item),
        }
    }
}

impl<T> Default for InlineList<T> {
    fn default() -> Self {
        InlineList::new()
    }
}

impl<T> Deref for InlineList<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T> DerefMut for InlineList<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        self.as_mut_slice()
    }
}

impl<T: fmt::Debug> fmt::Debug for InlineList<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_slice(), f)
    }
}

impl<T: Hash> Hash for InlineList<T> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state)
    }
}

impl<T: PartialEq> PartialEq for InlineList<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Eq> Eq for InlineList<T> {}

impl<T: PartialEq> PartialEq<Vec<T>> for InlineList<T> {
    fn eq(&self, other: &Vec<T>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: PartialEq, const K: usize> PartialEq<[T; K]> for InlineList<T> {
    fn eq(&self, other: &[T; K]) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy> From<Vec<T>> for InlineList<T> {
    /// Keeps a `Vec` longer than [`INLINE`] as the heap block; a shorter
    /// one is copied in place.
    fn from(v: Vec<T>) -> Self {
        if v.len() <= INLINE {
            v.into_iter().collect()
        } else {
            InlineList(Repr::Heap(v))
        }
    }
}

impl<T: Copy, const K: usize> From<[T; K]> for InlineList<T> {
    fn from(items: [T; K]) -> Self {
        items.into_iter().collect()
    }
}

impl<T: Copy> FromIterator<T> for InlineList<T> {
    /// Sized by the iterator's lower bound, so an exact-size iterator past
    /// [`INLINE`] spills once and never regrows.
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let iter = iter.into_iter();
        let mut list = InlineList::with_capacity(iter.size_hint().0);
        list.extend(iter);
        list
    }
}

impl<T: Copy> Extend<T> for InlineList<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for item in iter {
            self.push(item);
        }
    }
}

impl<'a, T> IntoIterator for &'a InlineList<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl<'a, T> IntoIterator for &'a mut InlineList<T> {
    type Item = &'a mut T;
    type IntoIter = std::slice::IterMut<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_mut_slice().iter_mut()
    }
}

impl<T> IntoIterator for InlineList<T> {
    type Item = T;
    type IntoIter = IntoIter<T>;

    fn into_iter(self) -> IntoIter<T> {
        IntoIter(match self.0 {
            Repr::Empty => IterRepr::Heap(Vec::new().into_iter()),
            Repr::Inline { len, items } => {
                IterRepr::Inline(items.into_iter().take(usize::from(len)))
            }
            Repr::Heap(v) => IterRepr::Heap(v.into_iter()),
        })
    }
}

/// The items of an [`InlineList`], by value.
pub struct IntoIter<T>(IterRepr<T>);

enum IterRepr<T> {
    Inline(std::iter::Take<std::array::IntoIter<T, INLINE>>),
    Heap(std::vec::IntoIter<T>),
}

impl<T> Iterator for IntoIter<T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        match &mut self.0 {
            IterRepr::Inline(it) => it.next(),
            IterRepr::Heap(it) => it.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.0 {
            IterRepr::Inline(it) => it.size_hint(),
            IterRepr::Heap(it) => it.size_hint(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &impl Hash) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    /// Every length from empty to well past a spill, built by push.
    fn lists() -> Vec<(Vec<i64>, InlineList<i64>)> {
        (0..=2 * INLINE + 1)
            .map(|n| {
                let v: Vec<i64> = (0..n as i64).map(|i| 10 * i - 7).collect();
                let mut l = InlineList::new();
                for &x in &v {
                    l.push(x);
                }
                (v, l)
            })
            .collect()
    }

    #[test]
    fn a_push_at_capacity_plus_one_spills() {
        let mut l = InlineList::new();
        for i in 0..INLINE as i64 {
            l.push(i);
            assert!(!l.spilled(), "{} items stay in place", i + 1);
        }
        l.push(INLINE as i64);
        assert!(l.spilled(), "item {} spills", INLINE + 1);
        assert_eq!(l, (0..=INLINE as i64).collect::<Vec<_>>());
        l.push(99);
        assert_eq!(l.len(), INLINE + 2);
        assert_eq!(l.last(), Some(&99));
    }

    #[test]
    fn eq_hash_and_debug_match_the_vec() {
        for (v, l) in lists() {
            assert_eq!(l, v);
            assert_eq!(l.as_slice(), v.as_slice());
            assert_eq!(hash_of(&l), hash_of(&v), "len {}", v.len());
            assert_eq!(format!("{l:?}"), format!("{v:?}"));
            assert_eq!(format!("{l:#?}"), format!("{v:#?}"));
            assert_eq!(l.spilled(), v.len() > INLINE);
        }
    }

    #[test]
    fn equality_ignores_where_the_items_live() {
        for (v, pushed) in lists() {
            let converted = InlineList::from(v.clone());
            let collected: InlineList<i64> = v.iter().copied().collect();
            let roomy = {
                let mut l = InlineList::with_capacity(3 * INLINE);
                l.extend(v.iter().copied());
                l
            };
            assert!(roomy.spilled());
            for other in [&converted, &collected, &roomy] {
                assert_eq!(&pushed, other);
                assert_eq!(hash_of(&pushed), hash_of(other));
            }
        }
        let mut a: InlineList<i64> = [1, 2].into();
        let b: InlineList<i64> = [1, 3].into();
        assert_ne!(a, b);
        a[1] = 3;
        assert_eq!(a, b);
        assert_ne!(a, InlineList::from([1, 3, 0]));
    }

    #[test]
    fn by_value_and_by_reference_iteration_give_the_items_in_order() {
        for (v, l) in lists() {
            assert_eq!(l.iter().copied().collect::<Vec<_>>(), v);
            assert_eq!((&l).into_iter().count(), v.len());
            assert_eq!(l.clone().into_iter().collect::<Vec<_>>(), v);
        }
    }

    #[test]
    fn an_exact_size_iterator_spills_straight_to_its_length() {
        let l: InlineList<i64> = (0..32).collect();
        assert!(l.spilled());
        assert_eq!(l.len(), 32);
        let small: InlineList<i64> = (0..INLINE as i64).collect();
        assert!(!small.spilled());
        assert!(!InlineList::<i64>::with_capacity(INLINE).spilled());
    }
}
