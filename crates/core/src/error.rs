//! Error types for the core model.

use std::fmt;

use crate::ids::{MOpId, ObjectId, ProcessId};

/// Errors produced while validating or constructing model artifacts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// An object identifier refers past the declared object universe.
    ObjectOutOfRange {
        /// The offending object.
        object: ObjectId,
        /// Number of objects the history or store was declared with.
        num_objects: usize,
    },
    /// Two m-operations carry the same identifier.
    DuplicateMOpId(MOpId),
    /// A recorded m-operation carries the process reserved for the
    /// imaginary initial m-operation ([`MOpId::is_initial`]).
    ReservedMOpId(MOpId),
    /// A process subhistory is not sequential: an m-operation was invoked
    /// before the previous one on the same process responded (violates
    /// well-formedness, P 4.2).
    OverlappingProcessOps {
        /// The process whose subhistory overlaps.
        process: ProcessId,
        /// The earlier m-operation.
        earlier: MOpId,
        /// The later (overlapping) m-operation.
        later: MOpId,
    },
    /// An m-operation's response event precedes its invocation event.
    ResponseBeforeInvocation(MOpId),
    /// A read refers to a writer m-operation that does not exist in the
    /// history (and is not the imaginary initial m-operation).
    UnknownWriter {
        /// The reading m-operation.
        reader: MOpId,
        /// The claimed writer.
        writer: MOpId,
        /// The object read.
        object: ObjectId,
    },
    /// A read claims to read object `x` from an m-operation that never
    /// writes `x`.
    ReaderWriterObjectMismatch {
        /// The reading m-operation.
        reader: MOpId,
        /// The claimed writer.
        writer: MOpId,
        /// The object read.
        object: ObjectId,
    },
    /// The identifier recorded on an m-operation disagrees with the process
    /// it was recorded under.
    ProcessMismatch {
        /// The m-operation.
        mop: MOpId,
        /// The process the record claims.
        recorded: ProcessId,
    },
    /// The history is too large for the 32-bit offsets and record indices
    /// of its derived tables.
    HistoryTooLarge {
        /// The row count or record index that does not fit.
        rows: usize,
    },
    /// The tables a history keeps per object could not be allocated for
    /// the declared object universe.
    ObjectTablesTooLarge {
        /// Number of objects the history was declared with.
        num_objects: usize,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::ObjectOutOfRange {
                object,
                num_objects,
            } => write!(
                f,
                "object {object} out of range for a universe of {num_objects} objects"
            ),
            CoreError::DuplicateMOpId(id) => write!(f, "duplicate m-operation id {id}"),
            CoreError::ReservedMOpId(id) => write!(
                f,
                "m-operation id {}#{} uses the process reserved for the initial m-operation",
                id.process, id.seq
            ),
            CoreError::OverlappingProcessOps {
                process,
                earlier,
                later,
            } => write!(
                f,
                "process {process} is not sequential: {later} invoked before {earlier} responded"
            ),
            CoreError::ResponseBeforeInvocation(id) => {
                write!(f, "m-operation {id} responds before it is invoked")
            }
            CoreError::UnknownWriter {
                reader,
                writer,
                object,
            } => write!(
                f,
                "{reader} reads {object} from unknown m-operation {writer}"
            ),
            CoreError::ReaderWriterObjectMismatch {
                reader,
                writer,
                object,
            } => write!(
                f,
                "{reader} reads {object} from {writer}, which never writes {object}"
            ),
            CoreError::ProcessMismatch { mop, recorded } => {
                write!(f, "m-operation {mop} recorded under process {recorded}")
            }
            CoreError::HistoryTooLarge { rows } => write!(
                f,
                "history too large: {rows} rows do not fit a table indexed in 32 bits"
            ),
            CoreError::ObjectTablesTooLarge { num_objects } => write!(
                f,
                "cannot allocate the per-object tables of {num_objects} objects"
            ),
        }
    }
}

impl std::error::Error for CoreError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{MOpId, ObjectId, ProcessId};

    #[test]
    fn errors_display_meaningfully() {
        let e = CoreError::ObjectOutOfRange {
            object: ObjectId::new(5),
            num_objects: 2,
        };
        assert!(e.to_string().contains("out of range"));
        let e = CoreError::DuplicateMOpId(MOpId::new(ProcessId::new(0), 1));
        assert!(e.to_string().contains("duplicate"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error + Send + Sync>() {}
        assert_err::<CoreError>();
    }
}
