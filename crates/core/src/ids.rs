//! Strongly-typed identifiers for processes, objects and m-operations.
//!
//! These are thin newtypes (see the `C-NEWTYPE` API guideline) so that a
//! process index can never be confused with an object index, and so that an
//! m-operation identifier carries its issuing process.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Identifier of a sequential thread of control (the paper's `P_1 … P_n`).
///
/// Processes are numbered densely from zero, so a `ProcessId` doubles as an
/// index into per-process tables via [`ProcessId::index`].
///
/// ```
/// use moc_core::ids::ProcessId;
/// let p = ProcessId::new(3);
/// assert_eq!(p.index(), 3);
/// assert_eq!(p.to_string(), "P3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcessId(u32);

impl ProcessId {
    /// Creates a process identifier from a dense index.
    pub const fn new(index: u32) -> Self {
        ProcessId(index)
    }

    /// Returns the dense index of this process.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the raw numeric value.
    pub const fn as_u32(self) -> u32 {
        self.0
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl From<u32> for ProcessId {
    fn from(index: u32) -> Self {
        ProcessId(index)
    }
}

/// Identifier of a shared object (the paper's `x, y, z ∈ X`).
///
/// Objects are numbered densely from zero so that a [`crate::vv::VersionVector`]
/// can dedicate one slot per object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectId(u32);

impl ObjectId {
    /// Creates an object identifier from a dense index.
    pub const fn new(index: u32) -> Self {
        ObjectId(index)
    }

    /// Returns the dense index of this object.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the raw numeric value.
    pub const fn as_u32(self) -> u32 {
        self.0
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Objects in the paper's examples are named x, y, z; fall back to
        // obj<i> beyond the first few to keep Debug output readable.
        match self.0 {
            0 => f.write_str("x"),
            1 => f.write_str("y"),
            2 => f.write_str("z"),
            i => write!(f, "obj{i}"),
        }
    }
}

impl From<u32> for ObjectId {
    fn from(index: u32) -> Self {
        ObjectId(index)
    }
}

/// Identifier of an m-operation: the issuing process plus a per-process
/// sequence number.
///
/// The paper assumes an *imaginary initial m-operation* that writes every
/// object before any real operation executes; it is represented by the
/// distinguished value [`MOpId::INITIAL`], which never appears as the id of a
/// recorded m-operation: [`crate::History::new`] rejects a record whose id
/// carries its process.
///
/// ```
/// use moc_core::ids::{MOpId, ProcessId};
/// let alpha = MOpId::new(ProcessId::new(0), 0);
/// assert!(!alpha.is_initial());
/// assert!(MOpId::INITIAL.is_initial());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MOpId {
    /// The issuing process.
    pub process: ProcessId,
    /// Sequence number of this m-operation within the issuing process.
    pub seq: u32,
}

impl MOpId {
    /// The imaginary initial m-operation that writes the initial value of
    /// every object (Section 2.1 of the paper).
    pub const INITIAL: MOpId = MOpId {
        process: ProcessId(u32::MAX),
        seq: 0,
    };

    /// Creates an m-operation identifier.
    pub const fn new(process: ProcessId, seq: u32) -> Self {
        MOpId { process, seq }
    }

    /// Returns `true` for the imaginary initial m-operation.
    pub const fn is_initial(self) -> bool {
        self.process.0 == u32::MAX
    }
}

impl fmt::Display for MOpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_initial() {
            f.write_str("init")
        } else {
            write!(f, "{}#{}", self.process, self.seq)
        }
    }
}

/// A deterministic hasher for ids made of one or two 32-bit numbers, such
/// as [`MOpId`]: it packs them into one word and finishes with the
/// SplitMix64 mix, which is a bijection, so distinct ids never share a
/// hash. Unlike the standard library's keyed SipHash it costs a couple of
/// multiplications, and it is no defence against keys chosen to collide in
/// a table's buckets: at worst such a stream makes [`IdMap`] and [`IdSet`]
/// slow, never wrong. Nothing may depend on their iteration order.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u32(&mut self, i: u32) {
        self.0 = self.0.rotate_left(32) ^ u64::from(i);
    }

    fn finish(&self) -> u64 {
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// A hash map keyed by [`MOpId`] under the [`IdHasher`].
pub type IdMap<V> = HashMap<MOpId, V, BuildHasherDefault<IdHasher>>;

/// A hash set of [`MOpId`]s under the [`IdHasher`].
pub type IdSet = HashSet<MOpId, BuildHasherDefault<IdHasher>>;

/// Identifier of a query round issued by the m-linearizability protocol
/// (Figure 6, actions A3–A6): the querying process plus a local counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QueryId {
    /// The process that issued the query m-operation.
    pub process: ProcessId,
    /// Per-process query counter.
    pub seq: u64,
}

impl QueryId {
    /// Creates a query identifier.
    pub const fn new(process: ProcessId, seq: u64) -> Self {
        QueryId { process, seq }
    }
}

impl fmt::Display for QueryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}@{}", self.seq, self.process)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_id_roundtrip() {
        let p = ProcessId::new(7);
        assert_eq!(p.index(), 7);
        assert_eq!(p.as_u32(), 7);
        assert_eq!(ProcessId::from(7), p);
    }

    #[test]
    fn object_display_names() {
        assert_eq!(ObjectId::new(0).to_string(), "x");
        assert_eq!(ObjectId::new(1).to_string(), "y");
        assert_eq!(ObjectId::new(2).to_string(), "z");
        assert_eq!(ObjectId::new(9).to_string(), "obj9");
    }

    #[test]
    fn initial_mop_is_distinguished() {
        assert!(MOpId::INITIAL.is_initial());
        assert!(!MOpId::new(ProcessId::new(0), 0).is_initial());
        assert_eq!(MOpId::INITIAL.to_string(), "init");
    }

    #[test]
    fn mop_id_ordering_groups_by_process() {
        let a = MOpId::new(ProcessId::new(0), 5);
        let b = MOpId::new(ProcessId::new(1), 0);
        assert!(a < b);
    }

    #[test]
    fn distinct_ids_hash_apart() {
        use std::hash::BuildHasher;
        let hash = |id: MOpId| BuildHasherDefault::<IdHasher>::default().hash_one(id);
        let ids = (0..64).flat_map(|p| (0..256).map(move |s| MOpId::new(ProcessId::new(p), s)));
        let mut hashes: Vec<u64> = ids.clone().map(hash).collect();
        hashes.push(hash(MOpId::INITIAL));
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), 64 * 256 + 1);
        let set: IdSet = ids.collect();
        assert!(set.contains(&MOpId::new(ProcessId::new(63), 255)));
    }

    #[test]
    fn query_id_display() {
        let q = QueryId::new(ProcessId::new(2), 4);
        assert_eq!(q.to_string(), "q4@P2");
    }
}
