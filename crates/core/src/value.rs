//! Object values and write provenance.
//!
//! The paper models objects as integer registers; we follow suit with
//! [`Value`] = `i64`. Every write creates a new *version* of its object, and
//! every read records exactly which version (and hence which m-operation's
//! write) it observed. Tracking provenance makes the reads-from relation
//! `~rf` exact — no "all written values are unique" assumption is needed.

use std::fmt;

use crate::ids::MOpId;

/// The value stored in a shared object.
///
/// The paper's examples use small integers; `i64` accommodates counters,
/// account balances and encoded composite values without loss of generality.
pub type Value = i64;

/// A versioned object state: the current value together with the provenance
/// of the write that produced it.
///
/// The `version` field mirrors the per-object entry of the replica's
/// [`crate::vv::VersionVector`]: the paper's protocols increment `ts[x]`
/// exactly once per m-operation that writes `x` (actions A2 of Figures 4 and
/// 6), so a `(object, version)` pair uniquely names a write event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Versioned {
    /// The stored value.
    pub value: Value,
    /// Version number of this object: 0 for the initial value, incremented
    /// by one for each m-operation that writes the object.
    pub version: u64,
    /// The m-operation whose write produced this version
    /// ([`MOpId::INITIAL`] for the initial value).
    pub writer: MOpId,
}

impl Versioned {
    /// The initial state of every object: value `0`, version `0`, written by
    /// the imaginary initial m-operation (Section 2.1: "we assume that an
    /// imaginary m-operation that writes to all objects is performed to
    /// initialize the objects").
    pub const INITIAL: Versioned = Versioned {
        value: 0,
        version: 0,
        writer: MOpId::INITIAL,
    };

    /// Creates a versioned value.
    pub const fn new(value: Value, version: u64, writer: MOpId) -> Self {
        Versioned {
            value,
            version,
            writer,
        }
    }

    /// Returns `true` if this is still the initial, never-written state.
    pub const fn is_initial(&self) -> bool {
        self.version == 0
    }
}

impl Default for Versioned {
    fn default() -> Self {
        Versioned::INITIAL
    }
}

impl fmt::Display for Versioned {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@v{}({})", self.value, self.version, self.writer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ProcessId;

    #[test]
    fn initial_is_version_zero() {
        assert!(Versioned::INITIAL.is_initial());
        assert_eq!(Versioned::INITIAL.value, 0);
        assert!(Versioned::INITIAL.writer.is_initial());
        assert_eq!(Versioned::default(), Versioned::INITIAL);
    }

    #[test]
    fn written_value_is_not_initial() {
        let v = Versioned::new(42, 3, MOpId::new(ProcessId::new(1), 0));
        assert!(!v.is_initial());
        assert_eq!(v.to_string(), "42@v3(P1#0)");
    }
}
