//! Version vectors: the paper's per-object timestamps.
//!
//! Section 5 associates with every m-operation a timestamp that is "a vector
//! of integers with one entry for every object"; entry `ts[x]` is the version
//! of object `x`. Timestamps are compared componentwise: `ts ≤ ts'` iff every
//! entry of `ts` is at most the corresponding entry of `ts'`, and `ts < ts'`
//! iff additionally they differ. The m-linearizability protocol (Figure 6,
//! action A5) selects the maximal response timestamp; because all replica
//! states are prefixes of the same atomic-broadcast order, the timestamps it
//! compares are in fact totally ordered.

use std::cmp::Ordering;
use std::fmt;

use crate::ids::ObjectId;

/// A vector timestamp with one version counter per shared object.
///
/// ```
/// use moc_core::ids::ObjectId;
/// use moc_core::vv::VersionVector;
///
/// let mut a = VersionVector::new(3);
/// let mut b = VersionVector::new(3);
/// a.bump(ObjectId::new(0));
/// assert!(b.leq(&a));
/// assert!(b.lt(&a));
/// b.bump(ObjectId::new(1));
/// assert!(!a.leq(&b) && !b.leq(&a)); // incomparable
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct VersionVector(Vec<u64>);

impl VersionVector {
    /// Creates the zero vector for `num_objects` objects (the timestamp of
    /// the imaginary initial m-operation).
    pub fn new(num_objects: usize) -> Self {
        VersionVector(vec![0; num_objects])
    }

    /// Creates a vector from explicit entries.
    pub fn from_entries(entries: Vec<u64>) -> Self {
        VersionVector(entries)
    }

    /// Number of objects this vector covers.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Returns `true` if the vector covers zero objects.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Returns the version of `object`.
    ///
    /// # Panics
    ///
    /// Panics if `object` is out of range for this vector.
    pub fn get(&self, object: ObjectId) -> u64 {
        self.0[object.index()]
    }

    /// Sets the version of `object`.
    ///
    /// # Panics
    ///
    /// Panics if `object` is out of range for this vector.
    pub fn set(&mut self, object: ObjectId, version: u64) {
        self.0[object.index()] = version;
    }

    /// Increments the version of `object` by one and returns the new
    /// version. This is the `ts[x]++` of actions A2 in Figures 4 and 6.
    ///
    /// # Panics
    ///
    /// Panics if `object` is out of range for this vector.
    pub fn bump(&mut self, object: ObjectId) -> u64 {
        let slot = &mut self.0[object.index()];
        *slot += 1;
        *slot
    }

    /// Componentwise `self ≤ other` (the paper's `ts ≤ ts'`).
    ///
    /// # Panics
    ///
    /// Panics if the vectors cover different numbers of objects.
    pub fn leq(&self, other: &VersionVector) -> bool {
        assert_eq!(
            self.0.len(),
            other.0.len(),
            "version vector length mismatch"
        );
        self.0.iter().zip(&other.0).all(|(a, b)| a <= b)
    }

    /// Componentwise strict order: `self ≤ other` and `self ≠ other`.
    pub fn lt(&self, other: &VersionVector) -> bool {
        self.leq(other) && self != other
    }

    /// The componentwise partial order. Returns `None` when the vectors are
    /// incomparable.
    pub fn partial_cmp_componentwise(&self, other: &VersionVector) -> Option<Ordering> {
        let le = self.leq(other);
        let ge = other.leq(self);
        match (le, ge) {
            (true, true) => Some(Ordering::Equal),
            (true, false) => Some(Ordering::Less),
            (false, true) => Some(Ordering::Greater),
            (false, false) => None,
        }
    }

    /// Componentwise join (least upper bound).
    ///
    /// # Panics
    ///
    /// Panics if the vectors cover different numbers of objects.
    pub fn join(&self, other: &VersionVector) -> VersionVector {
        assert_eq!(
            self.0.len(),
            other.0.len(),
            "version vector length mismatch"
        );
        VersionVector(
            self.0
                .iter()
                .zip(&other.0)
                .map(|(a, b)| *a.max(b))
                .collect(),
        )
    }

    /// Merges `other` into `self` componentwise (in-place join).
    pub fn merge_from(&mut self, other: &VersionVector) {
        assert_eq!(
            self.0.len(),
            other.0.len(),
            "version vector length mismatch"
        );
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a = (*a).max(*b);
        }
    }

    /// Sum of all entries — the total number of object versions this
    /// timestamp has observed. Useful as a scalar progress measure.
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }

    /// Iterates over `(object, version)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ObjectId, u64)> + '_ {
        self.0
            .iter()
            .enumerate()
            .map(|(i, v)| (ObjectId::new(i as u32), *v))
    }

    /// Returns the raw entries.
    pub fn as_slice(&self) -> &[u64] {
        &self.0
    }
}

impl fmt::Display for VersionVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("[")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            write!(f, "{v}")?;
        }
        f.write_str("]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vv(entries: &[u64]) -> VersionVector {
        VersionVector::from_entries(entries.to_vec())
    }

    #[test]
    fn zero_vector_is_bottom() {
        let z = VersionVector::new(4);
        let mut a = VersionVector::new(4);
        a.bump(ObjectId::new(2));
        assert!(z.leq(&a));
        assert!(z.lt(&a));
        assert!(!a.leq(&z));
    }

    #[test]
    fn bump_returns_new_version() {
        let mut a = VersionVector::new(2);
        assert_eq!(a.bump(ObjectId::new(0)), 1);
        assert_eq!(a.bump(ObjectId::new(0)), 2);
        assert_eq!(a.get(ObjectId::new(0)), 2);
        assert_eq!(a.get(ObjectId::new(1)), 0);
    }

    #[test]
    fn partial_order_detects_incomparable() {
        let a = vv(&[1, 0]);
        let b = vv(&[0, 1]);
        assert_eq!(a.partial_cmp_componentwise(&b), None);
        assert_eq!(a.partial_cmp_componentwise(&a), Some(Ordering::Equal));
        assert_eq!(
            vv(&[0, 0]).partial_cmp_componentwise(&a),
            Some(Ordering::Less)
        );
        assert_eq!(
            a.partial_cmp_componentwise(&vv(&[0, 0])),
            Some(Ordering::Greater)
        );
    }

    #[test]
    fn join_is_lub() {
        let a = vv(&[1, 0, 5]);
        let b = vv(&[0, 2, 5]);
        let j = a.join(&b);
        assert_eq!(j, vv(&[1, 2, 5]));
        assert!(a.leq(&j));
        assert!(b.leq(&j));
    }

    #[test]
    fn merge_from_matches_join() {
        let mut a = vv(&[1, 0]);
        let b = vv(&[0, 3]);
        let j = a.join(&b);
        a.merge_from(&b);
        assert_eq!(a, j);
    }

    #[test]
    fn total_sums_entries() {
        assert_eq!(vv(&[1, 2, 3]).total(), 6);
    }

    #[test]
    fn display_format() {
        assert_eq!(vv(&[1, 2]).to_string(), "[1,2]");
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn length_mismatch_panics() {
        let _ = vv(&[1]).leq(&vv(&[1, 2]));
    }
}
