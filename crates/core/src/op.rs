//! Completed read and write operations on single objects.
//!
//! An m-operation is a sequence of operations, each a read `r(x)v` or a
//! write `w(x)v` on a single object `x` (Section 2.1). A [`CompletedOp`]
//! additionally records the *provenance* of the value involved — which
//! m-operation's write produced it and which per-object version it is — so
//! the reads-from relation can be recovered exactly.

use std::fmt;

use crate::ids::{MOpId, ObjectId};
use crate::value::Value;

/// Whether an operation reads or writes its object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// A read operation `r(x)v`.
    Read,
    /// A write operation `w(x)v`.
    Write,
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpKind::Read => f.write_str("r"),
            OpKind::Write => f.write_str("w"),
        }
    }
}

/// A completed single-object operation within an m-operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CompletedOp {
    /// Read or write.
    pub kind: OpKind,
    /// The object acted upon.
    pub object: ObjectId,
    /// For a read, the value returned; for a write, the value written.
    pub value: Value,
    /// For a read, the m-operation whose write produced the value observed
    /// (possibly [`MOpId::INITIAL`], possibly the *enclosing* m-operation if
    /// the read follows a write to the same object within the same
    /// m-operation). For a write, the enclosing m-operation itself.
    pub writer: MOpId,
    /// For a read, the object version observed; for a write, the object
    /// version the write (will have) established.
    pub version: u64,
}

impl CompletedOp {
    /// Constructs a completed read.
    pub fn read(object: ObjectId, value: Value, writer: MOpId, version: u64) -> Self {
        CompletedOp {
            kind: OpKind::Read,
            object,
            value,
            writer,
            version,
        }
    }

    /// Constructs a completed write by m-operation `writer` establishing
    /// `version` of `object`.
    pub fn write(object: ObjectId, value: Value, writer: MOpId, version: u64) -> Self {
        CompletedOp {
            kind: OpKind::Write,
            object,
            value,
            writer,
            version,
        }
    }

    /// Returns `true` for read operations.
    pub fn is_read(&self) -> bool {
        self.kind == OpKind::Read
    }

    /// Returns `true` for write operations.
    pub fn is_write(&self) -> bool {
        self.kind == OpKind::Write
    }
}

impl fmt::Display for CompletedOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({}){}", self.kind, self.object, self.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ProcessId;

    #[test]
    fn display_matches_paper_notation() {
        let id = MOpId::new(ProcessId::new(0), 0);
        let r = CompletedOp::read(ObjectId::new(0), 5, MOpId::INITIAL, 0);
        let w = CompletedOp::write(ObjectId::new(1), 7, id, 1);
        assert_eq!(r.to_string(), "r(x)5");
        assert_eq!(w.to_string(), "w(y)7");
        assert!(r.is_read() && !r.is_write());
        assert!(w.is_write() && !w.is_read());
    }
}
